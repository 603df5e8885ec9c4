// Deterministic virtual-time tests of the online serving front-end
// (src/serve/): load-generator contracts, per-client FIFO under batched
// admission, epoch=1 equivalence against both a per-arrival master and the
// event-driven simulator, backpressure watermarks, the bounded-staleness
// push budget, and byte-identical metrics across repeated runs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "common/units.h"
#include "core/registry.h"
#include "obs/metrics.h"
#include "obs/tracer.h"
#include "serve/loadgen.h"
#include "serve/server.h"
#include "sim/engine.h"

namespace ncdrf {
namespace {

using serve::Backpressure;
using serve::LoadGenerator;
using serve::LoadGenOptions;
using serve::ServeFront;
using serve::ServeOptions;
using serve::Submission;

// Wraps a policy and records every allocate() call as (now, flow → rate)
// over the snapshot's active flows — *pre-clamp*, so recordings from the
// serving master and the simulator engine compare like with like.
class RecordingScheduler : public Scheduler {
 public:
  explicit RecordingScheduler(std::unique_ptr<Scheduler> inner)
      : inner_(std::move(inner)) {}

  std::string name() const override { return inner_->name(); }
  bool clairvoyant() const override { return inner_->clairvoyant(); }
  Allocation allocate(const ScheduleInput& input) override {
    Allocation alloc = inner_->allocate(input);
    auto& rates = records_[input.now];  // last allocation at an instant wins
    rates.clear();
    for (const ActiveCoflow& coflow : input.coflows) {
      for (const ActiveFlow& f : coflow.flows) {
        rates[f.id] = alloc.rate(f.id);
      }
    }
    return alloc;
  }
  std::optional<double> next_internal_event(
      const ScheduleInput& input, const Allocation& current) const override {
    return inner_->next_internal_event(input, current);
  }
  bool wants_events() const override { return inner_->wants_events(); }
  void on_reset(const Fabric& fabric) override { inner_->on_reset(fabric); }
  void on_coflow_arrival(const ActiveCoflow& coflow) override {
    inner_->on_coflow_arrival(coflow);
  }
  void on_flow_finish(const ActiveFlow& flow) override {
    inner_->on_flow_finish(flow);
  }
  void on_coflow_departure(CoflowId id) override {
    inner_->on_coflow_departure(id);
  }

  // Keyed by snapshot time; one record per distinct allocate() instant.
  const std::map<double, std::map<FlowId, double>>& records() const {
    return records_;
  }

 private:
  std::unique_ptr<Scheduler> inner_;
  std::map<double, std::map<FlowId, double>> records_;
};

Submission make_submission(CoflowId coflow, int client, double t,
                           std::vector<Flow> flows, double lifetime = 0.0) {
  Submission s;
  s.coflow = coflow;
  s.client = client;
  s.submit_time = t;
  s.lifetime_s = lifetime;
  for (Flow& f : flows) f.coflow = coflow;
  s.flows = std::move(flows);
  return s;
}

// ---------------------------------------------------------------------
// LoadGenerator contracts.
// ---------------------------------------------------------------------

TEST(LoadGenerator, DeterministicDenseIdsMatchingTrace) {
  LoadGenOptions options;
  options.seed = 42;
  options.num_clients = 3;
  options.num_machines = 10;
  options.arrival_rate_per_s = 300.0;
  options.duration_s = 0.2;
  options.burst_factor = 4.0;
  options.burst_duty = 0.25;
  options.burst_period_s = 0.05;
  const LoadGenerator gen(options);

  const auto schedule = gen.generate();
  ASSERT_EQ(schedule.size(), 3u);
  // Same options → identical schedules (open-loop determinism).
  const auto again = gen.generate();
  int total = 0;
  std::set<CoflowId> coflow_ids;
  std::set<FlowId> flow_ids;
  for (std::size_t c = 0; c < schedule.size(); ++c) {
    ASSERT_EQ(schedule[c].size(), again[c].size());
    double prev = -1.0;
    for (std::size_t i = 0; i < schedule[c].size(); ++i) {
      const Submission& s = schedule[c][i];
      EXPECT_EQ(s.coflow, again[c][i].coflow);
      EXPECT_EQ(s.submit_time, again[c][i].submit_time);
      EXPECT_EQ(s.client, static_cast<int>(c));
      EXPECT_GE(s.submit_time, prev);  // per-client schedules time-sorted
      prev = s.submit_time;
      EXPECT_TRUE(coflow_ids.insert(s.coflow).second);
      ASSERT_FALSE(s.flows.empty());
      for (const Flow& f : s.flows) {
        EXPECT_TRUE(flow_ids.insert(f.id).second);
        EXPECT_EQ(f.coflow, s.coflow);
        EXPECT_NE(f.src, f.dst);
        EXPECT_GT(f.size_bits, 0.0);
      }
      ++total;
    }
  }
  ASSERT_GT(total, 10);
  // Dense global id spaces.
  EXPECT_EQ(*coflow_ids.rbegin(), total - 1);
  EXPECT_EQ(static_cast<int>(flow_ids.size()),
            static_cast<int>(*flow_ids.rbegin()) + 1);

  // as_trace() is the identical workload under the same ids.
  const Trace trace = gen.as_trace();
  ASSERT_EQ(static_cast<int>(trace.coflows.size()), total);
  EXPECT_EQ(trace.num_machines, options.num_machines);
  for (const auto& client_schedule : schedule) {
    for (const Submission& s : client_schedule) {
      const Coflow& coflow = trace.coflows[static_cast<std::size_t>(s.coflow)];
      ASSERT_EQ(coflow.id(), s.coflow);
      EXPECT_EQ(coflow.arrival_time(), s.submit_time);
      ASSERT_EQ(coflow.flows().size(), s.flows.size());
      for (std::size_t i = 0; i < s.flows.size(); ++i) {
        EXPECT_EQ(coflow.flows()[i].id, s.flows[i].id);
        EXPECT_EQ(coflow.flows()[i].src, s.flows[i].src);
        EXPECT_EQ(coflow.flows()[i].dst, s.flows[i].dst);
        EXPECT_EQ(coflow.flows()[i].size_bits, s.flows[i].size_bits);
      }
    }
  }
}

// ---------------------------------------------------------------------
// Batched admission preserves per-client FIFO order.
// ---------------------------------------------------------------------

TEST(ServeFront, PerClientFifoPreservedUnderBatching) {
  const Fabric fabric(4, gbps(1.0));
  const auto sched = make_scheduler("tcp");
  ServeOptions options;
  options.epoch_s = 1e-3;
  options.max_batch_per_epoch = 3;
  ServeFront front(fabric, *sched, /*num_clients=*/2, options);

  // Client 0 queues coflows 0,2,4,6; client 1 queues 1,3,5,7 — all before
  // the first epoch, so admission batches across epochs.
  FlowId next_flow = 0;
  for (int i = 0; i < 8; ++i) {
    const int client = i % 2;
    ASSERT_TRUE(front.queue(client).try_enqueue(make_submission(
        i, client, 0.0,
        {Flow{next_flow++, -1, static_cast<MachineId>(client), 2, 1e9}})));
  }

  std::vector<serve::AdmitRecord> admitted;
  front.admit_hook = [&](const serve::AdmitRecord& r) {
    admitted.push_back(r);
  };
  for (int epoch = 0; epoch < 4; ++epoch) {
    front.step_epoch(epoch * options.epoch_s);
  }
  ASSERT_EQ(admitted.size(), 8u);
  // The batch cap holds: 3, 3, 2 admissions over the first three epochs.
  EXPECT_EQ(admitted[2].admit_time, 0.0);
  EXPECT_GT(admitted[3].admit_time, 0.0);
  // Per-client admission order equals per-client enqueue order.
  std::map<int, std::vector<CoflowId>> per_client;
  for (const serve::AdmitRecord& r : admitted) {
    per_client[r.client].push_back(r.coflow);
  }
  EXPECT_EQ(per_client[0], (std::vector<CoflowId>{0, 2, 4, 6}));
  EXPECT_EQ(per_client[1], (std::vector<CoflowId>{1, 3, 5, 7}));
  EXPECT_EQ(front.admitted(), 8);
  EXPECT_EQ(front.backlog(), 0u);
}

// ---------------------------------------------------------------------
// Epoch=1 serving ≡ per-arrival reallocation, for every registry policy.
// ---------------------------------------------------------------------

std::vector<std::string> equivalence_policies() {
  std::vector<std::string> names = scheduler_names();
  names.push_back("drf@4");  // the sharded path serves identically too
  names.push_back("tcp@4");
  return names;
}

TEST(ServeFront, EpochOneMatchesPerArrivalMaster) {
  const int machines = 8;
  const Fabric fabric(machines, gbps(1.0));
  for (const std::string& name : equivalence_policies()) {
    const auto serve_sched = make_scheduler(name);
    const auto ref_sched = make_scheduler(name);

    LoadGenOptions load;
    load.seed = 7;
    load.num_clients = 1;
    load.num_machines = machines;
    load.arrival_rate_per_s = 120.0;
    load.duration_s = 0.15;
    load.mean_lifetime_s = 0.0;  // nothing departs mid-comparison
    load.sizes_known = serve_sched->clairvoyant();
    const auto schedule = LoadGenerator(load).generate();
    ASSERT_GT(schedule[0].size(), 5u) << name;

    ServeOptions options;
    options.epoch_s = 1e-4;
    ServeFront front(fabric, *serve_sched, 1, options);
    Master ref_master(fabric, *ref_sched);
    Allocation ref_alloc;
    std::vector<SlaveRates> ref_slaves;

    for (const Submission& s : schedule[0]) {
      // Serving path: one admission per epoch, stepped at the arrival.
      ASSERT_TRUE(front.queue(0).try_enqueue(s));
      front.step_epoch(s.submit_time);

      // Reference path: the deployment-style per-arrival reallocation.
      RegisterCoflowMsg msg;
      msg.coflow = s.coflow;
      msg.arrival_time = s.submit_time;
      msg.weight = s.weight;
      msg.tenant = s.client;  // match the serving path's attribution
      msg.sizes_known = s.sizes_known;
      msg.flows = s.flows;
      if (!s.sizes_known) {
        for (Flow& f : msg.flows) f.size_bits = 0.0;
      }
      ref_master.on_register(msg);
      const ScheduleInput& ref_view =
          ref_master.compute_allocation(s.submit_time, ref_alloc, ref_slaves);

      const Allocation& got = front.last_allocation();
      for (const ActiveCoflow& coflow : ref_view.coflows) {
        for (const ActiveFlow& f : coflow.flows) {
          const double want = ref_alloc.rate(f.id);
          EXPECT_NEAR(got.rate(f.id), want,
                      1e-9 * std::max(1.0, std::abs(want)))
              << name << " flow " << f.id << " at t=" << s.submit_time;
        }
      }
    }
    EXPECT_EQ(front.admitted(),
              static_cast<long long>(schedule[0].size()))
        << name;
  }
}

// ---------------------------------------------------------------------
// Epoch=1 serving ≡ the simulator-driven path, 50 seeded instances.
//
// The simulator advances attained service continuously, which the serving
// master (heartbeat-free here) cannot see — so exact equivalence is only
// defined for attained-independent policies, compared over an arrival span
// during which no flow completes (sizes are enormous). Each seed runs one
// policy from the rotation.
// ---------------------------------------------------------------------

class ServeSimEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(ServeSimEquivalence, EpochOneMatchesSimulatorAllocations) {
  const int seed = GetParam();
  static const std::vector<std::string> kAttainedIndependent = {
      "tcp", "psp", "ncdrf", "persource", "perpair", "fifo"};
  const std::string name =
      kAttainedIndependent[static_cast<std::size_t>(seed) %
                           kAttainedIndependent.size()];
  const int machines = 8;
  const Fabric fabric(machines, gbps(1.0));

  LoadGenOptions load;
  load.seed = static_cast<std::uint64_t>(seed) + 11'000;
  load.num_clients = 1;
  load.num_machines = machines;
  load.arrival_rate_per_s = 150.0;
  load.duration_s = 0.1;
  load.mean_flow_bits = 1e15;  // no completion during the arrival span
  load.flow_size_sigma = 0.0;
  load.mean_lifetime_s = 0.0;
  const LoadGenerator gen(load);
  const auto schedule = gen.generate();
  ASSERT_FALSE(schedule[0].empty());
  const double span = schedule[0].back().submit_time;

  // Simulator path.
  RecordingScheduler sim_sched(make_scheduler(name));
  DynamicSimulator sim(fabric, sim_sched);
  for (const Coflow& coflow : gen.as_trace().coflows) sim.submit(coflow);
  sim.run();

  // Serving path, one admission per epoch at the arrival instants.
  RecordingScheduler serve_sched(make_scheduler(name));
  ServeOptions options;
  options.epoch_s = 1e-4;
  ServeFront front(fabric, serve_sched, 1, options);
  for (const Submission& s : schedule[0]) {
    ASSERT_TRUE(front.queue(0).try_enqueue(s));
    front.step_epoch(s.submit_time);
  }

  // Compare the recorded allocation at every arrival instant.
  ASSERT_EQ(serve_sched.records().size(), schedule[0].size()) << name;
  for (const auto& [t, serve_rates] : serve_sched.records()) {
    ASSERT_LE(t, span);
    const auto it = sim_sched.records().find(t);
    ASSERT_NE(it, sim_sched.records().end())
        << name << " seed " << seed << ": simulator never allocated at t="
        << t;
    const auto& sim_rates = it->second;
    ASSERT_EQ(serve_rates.size(), sim_rates.size()) << name << " t=" << t;
    for (const auto& [flow, rate] : serve_rates) {
      const auto rit = sim_rates.find(flow);
      ASSERT_NE(rit, sim_rates.end()) << name << " flow " << flow;
      EXPECT_NEAR(rate, rit->second,
                  1e-9 * std::max(1.0, std::abs(rit->second)))
          << name << " seed " << seed << " flow " << flow << " t=" << t;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ServeSimEquivalence, ::testing::Range(0, 50));

// ---------------------------------------------------------------------
// Backpressure: bounded queues reject, watermarks shed and publish levels.
// ---------------------------------------------------------------------

TEST(ServeFront, BackpressureRejectsShedsAndPublishesLevels) {
  const Fabric fabric(4, gbps(1.0));
  const auto sched = make_scheduler("tcp");
  ServeOptions options;
  options.epoch_s = 1e-3;
  options.max_batch_per_epoch = 1;
  options.queue_capacity = 8;
  options.slowdown_watermark = 4;
  options.shed_watermark = 6;
  ServeFront front(fabric, *sched, /*num_clients=*/2, options);

  // Client 0 floods: 12 enqueue attempts against capacity 8 → 4 rejects.
  FlowId next_flow = 0;
  CoflowId next_coflow = 0;
  for (int i = 0; i < 12; ++i) {
    const bool ok = front.queue(0).try_enqueue(make_submission(
        next_coflow++, 0, 0.0, {Flow{next_flow++, -1, 0, 2, 1e9}}));
    EXPECT_EQ(ok, i < 8);
  }
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(front.queue(1).try_enqueue(make_submission(
        next_coflow++, 1, 0.0, {Flow{next_flow++, -1, 1, 3, 1e9}})));
  }
  EXPECT_EQ(front.total_rejected(), 4);
  EXPECT_EQ(front.backlog(), 13u);

  // Epoch 1: one admission, then the shed stage drops the backlog to the
  // shed watermark (6), round-robin across clients, and the published
  // level is kShed (backlog at the watermark).
  front.step_epoch(0.0);
  EXPECT_EQ(front.admitted(), 1);
  EXPECT_EQ(front.total_shed(), 6);
  EXPECT_EQ(front.backlog(), 6u);
  EXPECT_EQ(front.level(), Backpressure::kShed);
  EXPECT_EQ(front.queue(0).level(), Backpressure::kShed);
  EXPECT_EQ(front.queue(1).level(), Backpressure::kShed);

  // Draining: the level steps down through kSlowdown to kOk, with no
  // further shedding below the watermark.
  front.step_epoch(1e-3);
  EXPECT_EQ(front.backlog(), 5u);
  EXPECT_EQ(front.level(), Backpressure::kSlowdown);
  front.step_epoch(2e-3);
  EXPECT_EQ(front.level(), Backpressure::kSlowdown);
  front.step_epoch(3e-3);
  EXPECT_EQ(front.backlog(), 3u);
  EXPECT_EQ(front.level(), Backpressure::kOk);
  for (int k = 4; k < 8; ++k) front.step_epoch(k * 1e-3);
  EXPECT_EQ(front.backlog(), 0u);
  EXPECT_EQ(front.total_shed(), 6);
  // Conservation: accepted == admitted + shed once drained.
  EXPECT_EQ(front.admitted() + front.total_shed(), 13);
}

// ---------------------------------------------------------------------
// Bounded-staleness pushes.
// ---------------------------------------------------------------------

// One coflow from machines 1..4 into machine 0, then single-flow coflows
// from fresh machines into machine 0: every arrival changes the incumbent
// flows' rates (magnitude-only divergence on machines 1..4) while the new
// machine's first vector is structural.
TEST(ServeFront, StalenessBudgetBoundsDeferredPushes) {
  const Fabric fabric(10, gbps(1.0));
  const auto sched = make_scheduler("tcp");
  ServeOptions options;
  options.epoch_s = 1e-3;
  options.staleness_s = 4.5e-3;
  ServeFront front(fabric, *sched, 1, options);

  FlowId next_flow = 0;
  std::vector<Flow> base;
  for (MachineId m = 1; m <= 4; ++m) {
    base.push_back(Flow{next_flow++, -1, m, 0, 1e9});
  }
  ASSERT_TRUE(front.queue(0).try_enqueue(
      make_submission(0, 0, 0.0, std::move(base))));

  CoflowId next_coflow = 1;
  for (int epoch = 0; epoch <= 40; ++epoch) {
    const double now = epoch * options.epoch_s;
    if (epoch > 0 && epoch % 5 == 0 && next_coflow <= 5) {
      const MachineId src = static_cast<MachineId>(4 + next_coflow);
      ASSERT_TRUE(front.queue(0).try_enqueue(make_submission(
          next_coflow++, 0, now, {Flow{next_flow++, -1, src, 0, 1e9}})));
    }
    front.step_epoch(now);
  }

  // Deferral happened (incumbent machines were not pushed at the arrival
  // epoch), but no push was ever staler than the budget.
  EXPECT_GT(front.pushes_deferred(), 0);
  EXPECT_GT(front.max_push_staleness(), 0.0);
  EXPECT_LE(front.max_push_staleness(), options.staleness_s + 1e-12);
  EXPECT_GT(front.rate_pushes(), 0);
}

TEST(ServeFront, ZeroStalenessPushesEveryDivergenceImmediately) {
  const Fabric fabric(10, gbps(1.0));
  const auto sched = make_scheduler("tcp");
  ServeOptions options;
  options.epoch_s = 1e-3;
  options.staleness_s = 0.0;  // the Master::reallocate behaviour
  ServeFront front(fabric, *sched, 1, options);

  FlowId next_flow = 0;
  std::vector<Flow> base;
  for (MachineId m = 1; m <= 4; ++m) {
    base.push_back(Flow{next_flow++, -1, m, 0, 1e9});
  }
  ASSERT_TRUE(front.queue(0).try_enqueue(
      make_submission(0, 0, 0.0, std::move(base))));
  CoflowId next_coflow = 1;
  for (int epoch = 0; epoch <= 20; ++epoch) {
    const double now = epoch * options.epoch_s;
    if (epoch > 0 && epoch % 5 == 0 && next_coflow <= 4) {
      const MachineId src = static_cast<MachineId>(4 + next_coflow);
      ASSERT_TRUE(front.queue(0).try_enqueue(make_submission(
          next_coflow++, 0, now, {Flow{next_flow++, -1, src, 0, 1e9}})));
    }
    front.step_epoch(now);
  }
  EXPECT_EQ(front.pushes_deferred(), 0);
  EXPECT_EQ(front.max_push_staleness(), 0.0);
}

// Deferral applies to magnitude-only changes: every flow the master
// registers is pushed in the epoch that admits it, because a new flow
// changes its slave's vector structurally. The causal stages are recorded
// on that contract, so the alloc and push stages read 0.
TEST(ServeFront, AdmittedFlowsArePushedInTheAdmittingEpoch) {
  const int machines = 10;
  const Fabric fabric(machines, gbps(1.0));
  const auto sched = make_scheduler("ncdrf");
  LoadGenOptions load;
  load.seed = 5;
  load.num_clients = 3;
  load.num_machines = machines;
  load.arrival_rate_per_s = 600.0;
  load.duration_s = 0.1;
  load.mean_lifetime_s = 0.01;
  const auto schedule = LoadGenerator(load).generate();
  std::map<CoflowId, std::vector<FlowId>> flows_of;
  std::size_t total = 0;
  for (const auto& client_schedule : schedule) {
    for (const Submission& s : client_schedule) {
      for (const Flow& f : s.flows) flows_of[s.coflow].push_back(f.id);
      ++total;
    }
  }

  obs::MetricsRegistry metrics;
  SimBus bus(/*latency_s=*/0.0);
  ServeOptions options;
  options.epoch_s = 2e-3;
  options.max_batch_per_epoch = 8;
  options.staleness_s = 6e-3;
  options.push_threshold = 0.05;
  options.metrics = &metrics;
  options.bus = &bus;
  ServeFront front(fabric, *sched, load.num_clients, options);
  std::vector<CoflowId> admitted_now;
  front.admit_hook = [&](const serve::AdmitRecord& r) {
    admitted_now.push_back(r.coflow);
  };

  std::vector<std::size_t> cursor(schedule.size(), 0);
  long long admitted_flows = 0;
  for (int epoch = 0; epoch < 100; ++epoch) {
    const double now = epoch * options.epoch_s;
    for (std::size_t c = 0; c < schedule.size(); ++c) {
      while (cursor[c] < schedule[c].size() &&
             schedule[c][cursor[c]].submit_time <= now) {
        ASSERT_TRUE(front.queue(static_cast<int>(c))
                        .try_enqueue(schedule[c][cursor[c]++]));
      }
    }
    admitted_now.clear();
    front.step_epoch(now);
    std::set<FlowId> pushed;
    for (SimBus::Delivery& delivery : bus.deliver_due(now)) {
      if (auto* update = std::get_if<RateUpdateMsg>(&delivery.payload)) {
        for (const auto& entry : update->rates_bps) pushed.insert(entry.first);
      }
    }
    for (const CoflowId coflow : admitted_now) {
      for (const FlowId flow : flows_of.at(coflow)) {
        EXPECT_TRUE(pushed.contains(flow))
            << "flow " << flow << " of coflow " << coflow
            << " not pushed in its admitting epoch at " << now;
        ++admitted_flows;
      }
    }
  }
  ASSERT_EQ(front.admitted(), static_cast<long long>(total));
  EXPECT_EQ(front.backlog(), 0u);
  EXPECT_GT(front.pushes_deferred(), 0);
  EXPECT_EQ(metrics.histogram("serve.stage.alloc_s").max(), 0.0);
  EXPECT_EQ(metrics.histogram("serve.stage.push_s").max(), 0.0);
  EXPECT_EQ(metrics.histogram("serve.push_latency_s").count(), admitted_flows);
  EXPECT_EQ(metrics.histogram("serve.stage.total_s").count(),
            static_cast<long long>(total));
}

// The master forgets a retired coflow's flows, so it accepts a flow id
// again once its coflow retired. A coflow that reuses a just-retired flow
// id on the same slave, at the same rate, leaves that slave's vector
// looking unchanged; its rates still go out in the admitting epoch.
TEST(ServeFront, FlowIdReusedAfterRetirementPushesInAdmittingEpoch) {
  const Fabric fabric(4, gbps(1.0));
  const auto sched = make_scheduler("tcp");
  ServeOptions options;
  options.epoch_s = 1e-3;
  ServeFront front(fabric, *sched, 1, options);
  ASSERT_TRUE(front.queue(0).try_enqueue(make_submission(
      0, 0, 0.0, {Flow{0, -1, 0, 1, 1e9}}, /*lifetime=*/0.5e-3)));
  front.step_epoch(0.0);
  EXPECT_EQ(front.rate_pushes(), 1);
  ASSERT_TRUE(front.queue(0).try_enqueue(
      make_submission(1, 0, 1e-3, {Flow{0, -1, 0, 1, 1e9}})));
  front.step_epoch(1e-3);  // retires coflow 0, then admits coflow 1
  EXPECT_EQ(front.master().registrations_ignored(), 0);
  EXPECT_EQ(front.master().active_coflows(), 1);
  EXPECT_EQ(front.rate_pushes(), 2);
}

// ---------------------------------------------------------------------
// Modeled departures retire coflows through the master.
// ---------------------------------------------------------------------

TEST(ServeFront, DeparturesRetireAdmittedCoflows) {
  const Fabric fabric(4, gbps(1.0));
  const auto sched = make_scheduler("tcp");
  ServeOptions options;
  options.epoch_s = 1e-3;
  ServeFront front(fabric, *sched, 1, options);
  ASSERT_TRUE(front.queue(0).try_enqueue(make_submission(
      0, 0, 0.0, {Flow{0, -1, 0, 1, 1e9}}, /*lifetime=*/2.5e-3)));
  ASSERT_TRUE(front.queue(0).try_enqueue(make_submission(
      1, 0, 0.0, {Flow{1, -1, 1, 2, 1e9}}, /*lifetime=*/7.5e-3)));
  front.step_epoch(0.0);
  EXPECT_EQ(front.master().active_coflows(), 2);
  front.step_epoch(3e-3);  // past coflow 0's dwell
  EXPECT_EQ(front.master().active_coflows(), 1);
  front.step_epoch(8e-3);  // past coflow 1's dwell
  EXPECT_EQ(front.master().active_coflows(), 0);
}

// The master ignores a registration that reuses a coflow id or a flow id
// it holds. The front-end still admits and counts such a submission, but
// schedules nothing for it: a departure would report the original
// coflow's flows finished and retire it early.
TEST(ServeFront, IgnoredRegistrationRetiresNothing) {
  const Fabric fabric(4, gbps(1.0));
  const auto sched = make_scheduler("tcp");
  obs::MetricsRegistry metrics;
  ServeOptions options;
  options.epoch_s = 1e-3;
  options.metrics = &metrics;
  ServeFront front(fabric, *sched, 1, options);
  int hooked = 0;
  front.admit_hook = [&](const serve::AdmitRecord&) { ++hooked; };
  ASSERT_TRUE(front.queue(0).try_enqueue(make_submission(
      0, 0, 0.0, {Flow{0, -1, 0, 1, 1e9}}, /*lifetime=*/7.5e-3)));
  // Reuses flow 0, then coflow 0; both would depart before the original.
  ASSERT_TRUE(front.queue(0).try_enqueue(make_submission(
      1, 0, 0.0, {Flow{0, -1, 0, 1, 1e9}}, /*lifetime=*/2.5e-3)));
  ASSERT_TRUE(front.queue(0).try_enqueue(make_submission(
      0, 0, 0.0, {Flow{1, -1, 1, 2, 1e9}}, /*lifetime=*/1.5e-3)));
  front.step_epoch(0.0);
  EXPECT_EQ(front.admitted(), 3);
  EXPECT_EQ(hooked, 3);
  EXPECT_EQ(front.master().registrations_ignored(), 2);
  EXPECT_EQ(front.master().active_coflows(), 1);
  front.step_epoch(3e-3);  // past both ignored submissions' dwells
  EXPECT_EQ(front.master().active_coflows(), 1);
  front.step_epoch(8e-3);  // past the original's dwell
  EXPECT_EQ(front.master().active_coflows(), 0);
  // Every admission is counted; only the registered coflow has stages.
  EXPECT_EQ(metrics.histogram("serve.admit_latency_s").count(), 3);
  for (const char* name :
       {"serve.stage.queue_s", "serve.alloc_latency_s", "serve.stage.alloc_s",
        "serve.push_latency_s", "serve.stage.push_s", "serve.stage.total_s"}) {
    EXPECT_EQ(metrics.histogram(name).count(), 1) << name;
  }
}

// A wall-clock driver samples `now` before it steps the epoch, so a client
// can enqueue a submission stamped after that `now` and still be admitted
// in the epoch. Its latencies record 0 (the histograms reject negatives);
// the admit record keeps the raw times.
TEST(ServeFront, SubmissionStampedAfterEpochNowRecordsZeroLatency) {
  const Fabric fabric(4, gbps(1.0));
  const auto sched = make_scheduler("ncdrf");
  obs::MetricsRegistry metrics;
  obs::Tracer tracer(1 << 10, obs::Tracer::ClockMode::kVirtual);
  ServeOptions options;
  options.metrics = &metrics;
  options.tracer = &tracer;
  ServeFront front(fabric, *sched, 1, options);
  std::vector<serve::AdmitRecord> admits;
  front.admit_hook = [&](const serve::AdmitRecord& r) {
    admits.push_back(r);
  };
  ASSERT_TRUE(front.queue(0).try_enqueue(
      make_submission(0, 0, /*t=*/0.5, {Flow{0, -1, 0, 1, 1e9}})));
  ASSERT_NO_THROW(front.step_epoch(0.25));
  ASSERT_EQ(front.admitted(), 1);
  ASSERT_EQ(front.rate_pushes(), 1);
  ASSERT_EQ(admits.size(), 1u);
  EXPECT_EQ(admits[0].submit_time, 0.5);
  EXPECT_EQ(admits[0].admit_time, 0.25);
  for (const char* name :
       {"serve.admit_latency_s", "serve.stage.queue_s",
        "serve.alloc_latency_s", "serve.push_latency_s",
        "serve.stage.total_s"}) {
    const obs::Histogram& h = metrics.histogram(name);
    EXPECT_EQ(h.count(), 1) << name;
    EXPECT_EQ(h.max(), 0.0) << name;
  }
  int instants = 0;
  for (const obs::TraceEvent& e : tracer.events()) {
    if (e.kind == obs::EventKind::kServeAdmit ||
        e.kind == obs::EventKind::kServeFirstPush) {
      EXPECT_EQ(e.d0, 0.0);
      ++instants;
    }
  }
  // Builds without tracing compile the instants away.
  EXPECT_EQ(instants, NCDRF_TRACE_ENABLED ? 2 : 0);
}

// ---------------------------------------------------------------------
// Determinism: byte-identical metrics (and trace) JSON across runs, for
// 2 seeds × {1, 4} clients, including a sharded (threaded) kernel.
// ---------------------------------------------------------------------

std::pair<std::string, std::string> run_serving_observed(
    const std::string& policy, std::uint64_t seed, int clients) {
  const int machines = 10;
  const Fabric fabric(machines, gbps(1.0));
  const auto sched = make_scheduler(policy);

  LoadGenOptions load;
  load.seed = seed;
  load.num_clients = clients;
  load.num_machines = machines;
  load.arrival_rate_per_s = 600.0;
  load.duration_s = 0.1;
  load.mean_lifetime_s = 0.01;
  load.burst_factor = 3.0;
  load.burst_duty = 0.3;
  load.burst_period_s = 0.02;
  load.sizes_known = sched->clairvoyant();
  const auto schedule = LoadGenerator(load).generate();

  obs::MetricsRegistry metrics;
  obs::Tracer tracer(1 << 14, obs::Tracer::ClockMode::kVirtual);
  ServeOptions options;
  options.epoch_s = 2e-3;
  options.max_batch_per_epoch = 8;
  options.staleness_s = 6e-3;
  options.push_threshold = 0.05;
  options.metrics = &metrics;
  options.tracer = &tracer;
  ServeFront front(fabric, *sched, clients, options);
  front.run(schedule);

  std::ostringstream metrics_json;
  metrics.write_json(metrics_json);
  std::ostringstream trace_json;
  tracer.write_chrome_json(trace_json);
  return {metrics_json.str(), trace_json.str()};
}

TEST(ServeFront, MetricsAndTraceBytesDeterministic) {
  for (const std::string& policy : {std::string("ncdrf"),
                                    std::string("drf@2")}) {
    for (const std::uint64_t seed : {1ULL, 2ULL}) {
      for (const int clients : {1, 4}) {
        const auto first = run_serving_observed(policy, seed, clients);
        const auto second = run_serving_observed(policy, seed, clients);
        EXPECT_EQ(first.first, second.first)
            << policy << " seed " << seed << " clients " << clients
            << ": metrics JSON not byte-identical";
        EXPECT_EQ(first.second, second.second)
            << policy << " seed " << seed << " clients " << clients
            << ": trace JSON not byte-identical";
        EXPECT_NE(first.first.find("serve.admit_latency_s"),
                  std::string::npos);
      }
    }
  }
}

}  // namespace
}  // namespace ncdrf
