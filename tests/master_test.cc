// Tests for the cluster Master's event-fed view. The Master keeps one view
// across allocations, refilled where messages changed it and resynced
// around slave faults and restarts, and drives the policy's event hooks
// from the same messages. Checked here:
//   * every view it returns equals, field by field, a from-scratch view of
//     the same message history built by the test;
//   * a policy fed the hooks allocates what the same policy allocates from
//     bare snapshots (HooklessScheduler), for every registry policy plus
//     drf@4 and tcp@4;
//   * a serving front-end never makes a kernel-backed policy rebuild;
//   * liveness quarantines exactly a dead machine's unfinished flows.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "alloc/kernel_scheduler.h"
#include "cluster/master.h"
#include "common/rng.h"
#include "common/units.h"
#include "core/ncdrf.h"
#include "core/registry.h"
#include "serve/loadgen.h"
#include "serve/server.h"
#include "test_util.h"

namespace ncdrf {
namespace {

// What one master has been told, kept the plain way: every registered
// coflow in registration order and every flow state. view() is the
// from-scratch reference the Master's maintained view must equal.
class MasterModel {
 public:
  struct FlowRec {
    Flow flow;
    bool finished = false;
    double attained = 0.0;
  };
  struct CoflowRec {
    CoflowId id = -1;
    double arrival = 0.0;
    double weight = 1.0;
    int tenant = -1;
    std::vector<FlowId> flows;
  };

  void on_register(const RegisterCoflowMsg& msg) {
    const FlowId probe = msg.flows.empty() ? msg.finished_flows.front().id
                                           : msg.flows.front().id;
    if (flows_.contains(probe) || registered_.contains(msg.coflow)) return;
    registered_.insert(msg.coflow);
    CoflowRec rec{msg.coflow, msg.arrival_time, msg.weight, msg.tenant, {}};
    for (const Flow& f : msg.flows) {
      flows_[f.id] = FlowRec{f, false, 0.0};
      rec.flows.push_back(f.id);
    }
    for (const Flow& f : msg.finished_flows) {
      flows_[f.id] = FlowRec{f, true, f.size_bits};
      rec.flows.push_back(f.id);
    }
    coflows_.push_back(std::move(rec));
  }
  void finish(FlowId flow) {
    const auto it = flows_.find(flow);
    if (it != flows_.end()) it->second.finished = true;
  }
  void attain(FlowId flow, double attained) {
    const auto it = flows_.find(flow);
    if (it != flows_.end()) {
      it->second.attained = std::max(it->second.attained, attained);
    }
  }
  void set_dead(std::set<MachineId> dead) { dead_ = std::move(dead); }
  const std::set<MachineId>& dead() const { return dead_; }

  ScheduleInput view(const Fabric& fabric, double now) const {
    ScheduleInput input;
    input.fabric = &fabric;
    input.now = now;
    int live = 0;
    for (const CoflowRec& c : coflows_) {
      ActiveCoflow entry;
      entry.id = c.id;
      entry.arrival_time = c.arrival;
      entry.tenant = c.tenant;
      entry.weight = c.weight;
      double attained = 0.0;
      for (const FlowId id : c.flows) {
        const FlowRec& f = flows_.at(id);
        attained += f.attained;
        const ActiveFlow af{f.flow.id, f.flow.coflow, f.flow.src, f.flow.dst};
        if (f.finished) {
          entry.finished_flows.push_back(af);
        } else if (!dead_.contains(f.flow.src)) {
          entry.flows.push_back(af);
        }
      }
      entry.attained_bits = attained;
      if (entry.flows.empty()) continue;
      live += static_cast<int>(entry.flows.size());
      input.coflows.push_back(std::move(entry));
    }
    input.total_live_flows = live;
    return input;
  }

  // Unfinished flows of coflows registered so far (what a finish report
  // or heartbeat may name), optionally only those leaving `src`.
  std::vector<FlowId> live_flows(MachineId src = -1) const {
    std::vector<FlowId> out;
    for (const CoflowRec& c : coflows_) {
      for (const FlowId id : c.flows) {
        const FlowRec& f = flows_.at(id);
        if (!f.finished && (src < 0 || f.flow.src == src)) out.push_back(id);
      }
    }
    return out;
  }
  const std::vector<CoflowRec>& coflows() const { return coflows_; }
  const FlowRec& flow(FlowId id) const { return flows_.at(id); }

 private:
  std::vector<CoflowRec> coflows_;
  std::set<CoflowId> registered_;
  std::unordered_map<FlowId, FlowRec> flows_;
  std::set<MachineId> dead_;
};

bool same_flows(const std::vector<ActiveFlow>& a,
                const std::vector<ActiveFlow>& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [](const ActiveFlow& x, const ActiveFlow& y) {
                      return x.id == y.id && x.coflow == y.coflow &&
                             x.src == y.src && x.dst == y.dst;
                    });
}

void expect_same_view(const ScheduleInput& got, const ScheduleInput& want,
                      const std::string& context) {
  EXPECT_EQ(got.fabric, want.fabric) << context;
  EXPECT_EQ(got.now, want.now) << context;
  EXPECT_EQ(got.total_live_flows, want.total_live_flows) << context;
  ASSERT_EQ(got.coflows.size(), want.coflows.size()) << context;
  for (std::size_t k = 0; k < want.coflows.size(); ++k) {
    const ActiveCoflow& g = got.coflows[k];
    const ActiveCoflow& w = want.coflows[k];
    EXPECT_EQ(g.id, w.id) << context << " entry " << k;
    EXPECT_EQ(g.arrival_time, w.arrival_time) << context << " coflow " << w.id;
    EXPECT_EQ(g.tenant, w.tenant) << context << " coflow " << w.id;
    EXPECT_EQ(g.weight, w.weight) << context << " coflow " << w.id;
    EXPECT_EQ(g.attained_bits, w.attained_bits)
        << context << " coflow " << w.id;
    EXPECT_TRUE(same_flows(g.flows, w.flows)) << context << " coflow " << w.id;
    EXPECT_TRUE(same_flows(g.finished_flows, w.finished_flows))
        << context << " coflow " << w.id;
  }
}

// Two masters fed the same messages: one hands `policy` its event hooks,
// the other hides them (HooklessScheduler), so its twin allocates from
// bare snapshots. Every allocation is checked against the model's
// from-scratch view and across the pair.
class HookedPair {
 public:
  HookedPair(const Fabric& fabric, const std::string& policy,
             MasterOptions options)
      : fabric_(fabric),
        policy_(policy),
        options_(options),
        hooked_policy_(make_scheduler(policy)),
        bare_policy_(make_scheduler(policy)),
        hookless_(*bare_policy_) {
    start_masters(0.0);
  }

  bool clairvoyant() const { return hooked_policy_->clairvoyant(); }
  const Scheduler& hooked_policy() const { return *hooked_policy_; }
  const Scheduler& bare_policy() const { return *bare_policy_; }
  Master& hooked() { return *hooked_; }
  Master& bare() { return *bare_; }
  MasterModel& model() { return model_; }

  // A master restart: both masters and the model start over empty. The
  // restarted hooked master resets its policy at its first allocation, as
  // a freshly started master; the twin's policy is reset with it, so
  // history a policy keeps beyond the snapshot (karma's credits) starts
  // over on both sides.
  void restart(double now) {
    start_masters(now);
    hookless_.on_reset(fabric_);
  }

  void on_register(const RegisterCoflowMsg& msg) {
    hooked_->on_register(msg);
    bare_->on_register(msg);
    model_.on_register(msg);
  }
  void on_flow_finished(const FlowFinishedMsg& msg) {
    hooked_->on_flow_finished(msg);
    bare_->on_flow_finished(msg);
    model_.finish(msg.flow);
  }
  void on_flows_finished(const std::vector<FlowFinishedMsg>& msgs) {
    hooked_->on_flows_finished(msgs);
    bare_->on_flows_finished(msgs);
    for (const FlowFinishedMsg& msg : msgs) model_.finish(msg.flow);
  }
  void on_heartbeat(const HeartbeatMsg& msg, double now) {
    hooked_->on_heartbeat(msg, now);
    bare_->on_heartbeat(msg, now);
    for (const auto& [flow, bits] : msg.attained_bits) model_.attain(flow, bits);
    for (const FlowId flow : msg.finished_flows) model_.finish(flow);
  }

  void allocate_and_compare(double now, const std::string& context) {
    hooked_->check_liveness(now);
    bare_->check_liveness(now);
    for (MachineId m = 0; m < fabric_.num_machines(); ++m) {
      const bool dead = model_.dead().contains(m);
      ASSERT_EQ(hooked_->slave_dead(m), dead) << context << " machine " << m;
      ASSERT_EQ(bare_->slave_dead(m), dead) << context << " machine " << m;
    }
    Allocation got;
    Allocation want;
    std::vector<SlaveRates> got_slaves;
    std::vector<SlaveRates> want_slaves;
    const ScheduleInput& got_view =
        hooked_->compute_allocation(now, got, got_slaves);
    const ScheduleInput& bare_view =
        bare_->compute_allocation(now, want, want_slaves);
    const ScheduleInput reference = model_.view(fabric_, now);
    const std::string where = policy_ + " " + context;
    expect_same_view(got_view, reference, where + " (hooked)");
    expect_same_view(bare_view, reference, where + " (hookless)");
    if (clairvoyant()) {
      ASSERT_NE(got_view.clairvoyant, nullptr) << where;
      for (const ActiveCoflow& c : reference.coflows) {
        for (const ActiveFlow& f : c.flows) {
          const MasterModel::FlowRec& rec = model_.flow(f.id);
          EXPECT_EQ(got_view.clairvoyant->remaining_bits(f.id),
                    std::max(rec.flow.size_bits - rec.attained, 0.0))
              << where << " flow " << f.id;
        }
      }
    }
    for (const ActiveCoflow& c : reference.coflows) {
      for (const ActiveFlow& f : c.flows) {
        const double w = want.rate(f.id);
        EXPECT_NEAR(got.rate(f.id), w, 1e-9 * std::max(1.0, std::abs(w)))
            << where << " flow " << f.id;
      }
    }
    // Same slaves, each with the same flows in the same order.
    ASSERT_EQ(got_slaves.size(), want_slaves.size()) << where;
    for (std::size_t s = 0; s < got_slaves.size(); ++s) {
      EXPECT_EQ(got_slaves[s].machine, want_slaves[s].machine) << where;
      const auto& g = got_slaves[s].msg.rates_bps;
      const auto& w = want_slaves[s].msg.rates_bps;
      ASSERT_EQ(g.size(), w.size()) << where;
      for (std::size_t i = 0; i < g.size(); ++i) {
        EXPECT_EQ(g[i].first, w[i].first) << where;
      }
    }
  }

 private:
  void start_masters(double now) {
    hooked_ = std::make_unique<Master>(fabric_, *hooked_policy_, options_, now);
    bare_ = std::make_unique<Master>(fabric_, hookless_, options_, now);
    model_ = MasterModel();
  }

  const Fabric& fabric_;
  std::string policy_;
  MasterOptions options_;
  std::unique_ptr<Scheduler> hooked_policy_;
  std::unique_ptr<Scheduler> bare_policy_;
  testing::HooklessScheduler hookless_;
  std::unique_ptr<Master> hooked_;
  std::unique_ptr<Master> bare_;
  MasterModel model_;
};

// A seeded message stream through four phases: steady churn, one slave
// declared dead (and silent) while churn goes on, its revival, and a
// master restart with re-registration.
class MessageStream {
 public:
  MessageStream(const Fabric& fabric, HookedPair& pair, std::uint64_t seed)
      : fabric_(fabric), pair_(pair), rng_(seed) {}

  RegisterCoflowMsg make_coflow(double now, MachineId forced_src = -1) {
    RegisterCoflowMsg msg;
    msg.coflow = next_coflow_++;
    msg.arrival_time = now;
    msg.weight = std::vector<double>{1.0, 2.0, 0.5}[rng_.uniform_int(0, 2)];
    msg.tenant = static_cast<int>(rng_.uniform_int(0, 2));
    msg.sizes_known = pair_.clairvoyant();
    const auto width = rng_.uniform_int(1, 4);
    for (int i = 0; i < width; ++i) {
      Flow f;
      f.id = next_flow_++;
      f.coflow = msg.coflow;
      f.src = i == 0 && forced_src >= 0 ? forced_src : machine();
      f.dst = machine();
      f.size_bits = megabits(rng_.uniform(1.0, 100.0));
      sizes_[f.id] = f.size_bits;
      msg.flows.push_back(f);
      if (!msg.sizes_known) msg.flows.back().size_bits = 0.0;
    }
    return msg;
  }

  // One random message; `silent` names a machine that must send nothing.
  void step(double now, MachineId silent) {
    const auto pick = [&](const std::vector<FlowId>& ids) {
      return ids[static_cast<std::size_t>(
          rng_.uniform_int(0, static_cast<std::int64_t>(ids.size()) - 1))];
    };
    std::vector<FlowId> live;
    for (const FlowId f : pair_.model().live_flows()) {
      if (pair_.model().flow(f).flow.src != silent) live.push_back(f);
    }
    const auto action = rng_.uniform_int(0, 99);
    if (action < 30 || live.empty()) {
      pair_.on_register(make_coflow(now));
    } else if (action < 55) {
      const FlowId f = pick(live);
      pair_.on_flow_finished(
          FlowFinishedMsg{f, pair_.model().flow(f).flow.coflow, now});
    } else if (action < 65) {
      // Two finishes (maybe of one flow) and an id no master knows.
      std::vector<FlowFinishedMsg> batch;
      for (int i = 0; i < 2; ++i) {
        const FlowId f = pick(live);
        batch.push_back(
            FlowFinishedMsg{f, pair_.model().flow(f).flow.coflow, now});
      }
      batch.push_back(FlowFinishedMsg{next_flow_ + 1000, -1, now});
      pair_.on_flows_finished(batch);
    } else if (action < 80) {
      const MachineId m = pair_.model().flow(pick(live)).flow.src;
      HeartbeatMsg hb;
      hb.machine = m;
      for (const FlowId f : pair_.model().live_flows(m)) {
        // Mostly progress, sometimes a stale (lower) report.
        const double bits = pair_.model().flow(f).attained +
                            megabits(rng_.uniform(-2.0, 10.0));
        hb.attained_bits.emplace_back(f, std::max(bits, 0.0));
      }
      if (rng_.uniform() < 0.3) {
        hb.finished_flows.push_back(hb.attained_bits.front().first);
      }
      pair_.on_heartbeat(hb, now);
    } else if (action < 85 && !pair_.model().coflows().empty()) {
      // A duplicate registration (ignored by the idempotency rule).
      const auto& coflows = pair_.model().coflows();
      const auto& rec = coflows[static_cast<std::size_t>(rng_.uniform_int(
          0, static_cast<std::int64_t>(coflows.size()) - 1))];
      RegisterCoflowMsg msg;
      msg.coflow = rec.id;
      msg.arrival_time = rec.arrival;
      msg.flows.push_back(pair_.model().flow(rec.flows.front()).flow);
      pair_.on_register(msg);
    }
  }

  void churn(double from, double to, int steps, MachineId silent,
             const std::string& phase) {
    for (int i = 0; i < steps; ++i) {
      const double now = from + (to - from) * i / steps;
      step(now, silent);
      if (rng_.uniform() < 0.6) {
        pair_.allocate_and_compare(now, phase + " step " + std::to_string(i));
        if (::testing::Test::HasFatalFailure()) return;
      }
    }
  }

  // Re-registers every coflow the old master knew with live flows, in its
  // order, with the delivered flows as finished_flows (real sizes), plus
  // one coflow whose flows all finished.
  void restart(double now) {
    const MasterModel old = pair_.model();
    pair_.restart(now);
    // A stale finish report racing the re-registrations is ignored.
    const std::vector<FlowId> old_live = old.live_flows();
    const FlowId stale = old_live.empty() ? -1 : old_live.front();
    if (stale >= 0) {
      pair_.on_flow_finished(
          FlowFinishedMsg{stale, old.flow(stale).flow.coflow, now});
    }
    bool all_finished_sent = false;
    bool duplicate_sent = false;
    for (const MasterModel::CoflowRec& c : old.coflows()) {
      RegisterCoflowMsg msg;
      msg.coflow = c.id;
      msg.arrival_time = c.arrival;
      msg.weight = c.weight;
      msg.tenant = c.tenant;
      msg.sizes_known = pair_.clairvoyant();
      for (const FlowId id : c.flows) {
        Flow f = old.flow(id).flow;
        if (old.flow(id).finished || id == stale) {
          f.size_bits = sizes_.at(id);
          msg.finished_flows.push_back(f);
        } else {
          msg.flows.push_back(f);
        }
      }
      if (msg.flows.empty()) {
        if (all_finished_sent) continue;
        all_finished_sent = true;
      }
      pair_.on_register(msg);
      if (!duplicate_sent && !msg.flows.empty()) {
        pair_.on_register(msg);  // a duplicate in flight: ignored
        duplicate_sent = true;
      }
    }
  }

  MachineId machine() {
    return static_cast<MachineId>(
        rng_.uniform_int(0, fabric_.num_machines() - 1));
  }

 private:
  const Fabric& fabric_;
  HookedPair& pair_;
  Rng rng_;
  CoflowId next_coflow_ = 0;
  FlowId next_flow_ = 0;
  std::unordered_map<FlowId, double> sizes_;
};

std::vector<std::string> stream_policies() {
  std::vector<std::string> names = scheduler_names();
  names.push_back("drf@4");
  names.push_back("tcp@4");
  return names;
}

TEST(EventFedMaster, HookedAndHooklessMastersAgreeOnEveryView) {
  const Fabric fabric(6, gbps(1.0));
  MasterOptions options;
  options.heartbeat_timeout_s = 10.0;
  const MachineId victim = 2;
  for (const std::string& policy : stream_policies()) {
    SCOPED_TRACE(policy);
    HookedPair pair(fabric, policy, options);
    MessageStream stream(fabric, pair, 2024);

    // Steady churn, every machine heard from by t=5 at the latest.
    stream.churn(0.0, 5.0, 150, /*silent=*/-1, "churn");
    if (HasFatalFailure()) return;

    // Everyone but the victim reports at t=20; the victim originates a
    // fresh flow, so the t=20 liveness check declares it dead.
    pair.on_register(stream.make_coflow(20.0, victim));
    for (MachineId m = 0; m < fabric.num_machines(); ++m) {
      if (m == victim) continue;
      HeartbeatMsg hb;
      hb.machine = m;
      pair.on_heartbeat(hb, 20.0);
    }
    const auto victim_live =
        static_cast<long long>(pair.model().live_flows(victim).size());
    pair.model().set_dead({victim});
    pair.allocate_and_compare(20.0, "declared dead");
    if (HasFatalFailure()) return;
    EXPECT_EQ(pair.hooked().slaves_declared_dead(), 1);
    EXPECT_EQ(pair.hooked().flows_quarantined(), victim_live);
    EXPECT_EQ(pair.bare().flows_quarantined(), victim_live);

    // Churn while it stays silent: its new flows are quarantined too.
    stream.churn(20.0, 21.0, 40, victim, "dead");
    if (HasFatalFailure()) return;

    // Any message from the victim revives it.
    HeartbeatMsg hb;
    hb.machine = victim;
    pair.on_heartbeat(hb, 21.0);
    pair.model().set_dead({});
    pair.allocate_and_compare(21.0, "revived");
    if (HasFatalFailure()) return;
    EXPECT_EQ(pair.hooked().slaves_revived(), 1);
    stream.churn(21.0, 22.0, 40, -1, "after revival");
    if (HasFatalFailure()) return;

    // The hooked twin ran on its hooks; the hookless one never did.
    const SchedPerf* hooked_perf = pair.hooked_policy().perf_counters();
    if (dynamic_cast<const KernelScheduler*>(&pair.hooked_policy())) {
      EXPECT_GT(hooked_perf->incremental_allocs, 0);
      EXPECT_EQ(pair.bare_policy().perf_counters()->incremental_allocs, 0);
    }

    // Master restart: both masters start over on the same policies.
    stream.restart(22.0);
    pair.allocate_and_compare(22.0, "restarted");
    if (HasFatalFailure()) return;
    EXPECT_GT(pair.hooked().registrations_ignored(), 0);
    stream.churn(22.0, 23.0, 60, -1, "after restart");
    if (HasFatalFailure()) return;
  }
}

TEST(EventFedMaster, QuarantineCountsOnlyUnfinishedFlowsOfTheDeadMachine) {
  const Fabric fabric(3, gbps(1.0));
  for (const bool forget : {false, true}) {
    SCOPED_TRACE(forget ? "forget_retired" : "keep retired");
    NcDrfScheduler ncdrf;
    MasterOptions options;
    options.heartbeat_timeout_s = 1.0;
    options.forget_retired = forget;
    Master master(fabric, ncdrf, options);
    // Coflow 0: two flows from machine 0 (retires below). Coflow 1: one
    // flow from machine 0 and one from machine 1. Coflow 2: machine 1.
    RegisterCoflowMsg a;
    a.coflow = 0;
    a.flows = {Flow{0, 0, 0, 1, 0.0}, Flow{1, 0, 0, 2, 0.0}};
    RegisterCoflowMsg b;
    b.coflow = 1;
    b.flows = {Flow{2, 1, 0, 2, 0.0}, Flow{3, 1, 1, 2, 0.0}};
    RegisterCoflowMsg c;
    c.coflow = 2;
    c.flows = {Flow{4, 2, 1, 0, 0.0}};
    master.on_register(a);
    master.on_register(b);
    master.on_register(c);
    Allocation alloc;
    std::vector<SlaveRates> per_slave;
    master.compute_allocation(0.0, alloc, per_slave);
    ASSERT_EQ(per_slave.size(), 2u);

    // Coflow 0 retires at t=0.5 (its finish reports are machine 0's last
    // signs of life); machine 1 keeps heartbeating.
    master.on_flows_finished({FlowFinishedMsg{0, 0, 0.5},
                              FlowFinishedMsg{1, 0, 0.5}});
    EXPECT_EQ(master.active_coflows(), 2);
    HeartbeatMsg hb;
    hb.machine = 1;
    master.on_heartbeat(hb, 1.6);
    master.check_liveness(1.6);
    EXPECT_TRUE(master.slave_dead(0));
    EXPECT_FALSE(master.slave_dead(1));
    EXPECT_FALSE(master.slave_dead(2));  // idle machines stay trusted
    EXPECT_EQ(master.slaves_declared_dead(), 1);
    EXPECT_EQ(master.flows_quarantined(), 1);  // flow 2 only
    EXPECT_TRUE(master.dirty());

    // The view keeps coflow 1 without flow 2, and coflow 2.
    const ScheduleInput& view =
        master.compute_allocation(1.6, alloc, per_slave);
    ASSERT_EQ(view.coflows.size(), 2u);
    ASSERT_EQ(view.coflows[0].flows.size(), 1u);
    EXPECT_EQ(view.coflows[0].flows[0].id, 3);
    EXPECT_EQ(view.total_live_flows, 2);
    ASSERT_EQ(per_slave.size(), 1u);
    EXPECT_EQ(per_slave[0].machine, 1);
    EXPECT_EQ(per_slave[0].msg.rates_bps.size(), 2u);

    // A second check counts nothing twice.
    master.check_liveness(3.0);
    EXPECT_EQ(master.flows_quarantined(), 1 + 2);  // now machine 1 too
    EXPECT_EQ(master.slaves_declared_dead(), 2);
  }
}

// A registration the master rejects changes nothing. Each bad message
// below throws CheckError; the master then allocates over coflow 0 alone,
// accepts a valid coflow that reuses the rejected message's fresh flow
// id, and retires coflow 0 on its finish reports.
TEST(EventFedMaster, RejectedRegistrationChangesNothing) {
  const Fabric fabric(4, gbps(1.0));
  struct Bad {
    const char* what;
    std::vector<Flow> flows;
    double weight = 1.0;
  };
  const std::vector<Bad> bad = {
      {"dst outside the fabric", {Flow{5, 1, 0, 1, 0.0}, Flow{6, 1, 2, 4, 0.0}}},
      {"src outside the fabric", {Flow{5, 1, -1, 1, 0.0}}},
      {"live non-first flow id", {Flow{5, 1, 0, 1, 0.0}, Flow{1, 1, 2, 3, 0.0}}},
      {"flow id repeated", {Flow{5, 1, 0, 1, 0.0}, Flow{5, 1, 2, 3, 0.0}}},
      {"another coflow's flow", {Flow{5, 1, 0, 1, 0.0}, Flow{6, 0, 2, 3, 0.0}}},
      {"zero weight", {Flow{5, 1, 0, 1, 0.0}}, 0.0},
  };
  for (const auto& [what, flows, weight] : bad) {
    SCOPED_TRACE(what);
    NcDrfScheduler ncdrf;
    Master master(fabric, ncdrf);
    RegisterCoflowMsg first;
    first.coflow = 0;
    first.flows = {Flow{0, 0, 0, 1, 0.0}, Flow{1, 0, 1, 2, 0.0}};
    ASSERT_TRUE(master.on_register(first));
    Allocation alloc;
    std::vector<SlaveRates> per_slave;
    master.compute_allocation(0.0, alloc, per_slave);

    RegisterCoflowMsg rejected;
    rejected.coflow = 1;
    rejected.weight = weight;
    rejected.flows = flows;
    EXPECT_THROW(master.on_register(rejected), CheckError);
    EXPECT_EQ(master.active_coflows(), 1);
    const ScheduleInput& view = master.compute_allocation(1.0, alloc, per_slave);
    ASSERT_EQ(view.coflows.size(), 1u);
    EXPECT_EQ(view.total_live_flows, 2);

    RegisterCoflowMsg valid;
    valid.coflow = 1;
    valid.flows = {Flow{5, 1, 2, 3, 0.0}};
    ASSERT_TRUE(master.on_register(valid));
    EXPECT_EQ(master.compute_allocation(2.0, alloc, per_slave).coflows.size(),
              2u);
    master.on_flows_finished(
        {FlowFinishedMsg{0, 0, 3.0}, FlowFinishedMsg{1, 0, 3.0}});
    EXPECT_EQ(master.active_coflows(), 1);
    const ScheduleInput& after =
        master.compute_allocation(3.0, alloc, per_slave);
    ASSERT_EQ(after.coflows.size(), 1u);
    EXPECT_EQ(after.coflows[0].id, 1);
    EXPECT_EQ(alloc.rate(5), gbps(1.0));
  }
}

// The same through a serving front-end: the epoch that drains a rejected
// registration throws; the next epoch admits a valid coflow that reuses
// the rejected one's fresh flow id and allocates; and the earlier coflow's
// departure retires it.
TEST(EventFedMaster, ServeFrontSurvivesRejectedRegistration) {
  const Fabric fabric(4, gbps(1.0));
  const std::vector<std::pair<const char*, Flow>> bad = {
      {"dst outside the fabric", Flow{2, 1, 0, 4, 1e9}},
      {"live non-first flow id", Flow{0, 1, 2, 3, 1e9}},
  };
  for (const auto& [what, bad_flow] : bad) {
    SCOPED_TRACE(what);
    const auto sched = make_scheduler("ncdrf");
    serve::ServeOptions options;
    options.epoch_s = 1e-3;
    serve::ServeFront front(fabric, *sched, 1, options);
    serve::Submission first;
    first.coflow = 0;
    first.lifetime_s = 2.5e-3;
    first.flows = {Flow{0, 0, 0, 1, 1e9}, Flow{1, 0, 1, 2, 1e9}};
    ASSERT_TRUE(front.queue(0).try_enqueue(first));
    front.step_epoch(0.0);
    ASSERT_EQ(front.master().active_coflows(), 1);

    serve::Submission rejected;
    rejected.coflow = 1;
    rejected.submit_time = 1e-3;
    rejected.lifetime_s = 5e-3;
    rejected.flows = {Flow{3, 1, 3, 0, 1e9}, bad_flow};
    ASSERT_TRUE(front.queue(0).try_enqueue(rejected));
    EXPECT_THROW(front.step_epoch(1e-3), CheckError);

    serve::Submission valid = rejected;
    valid.coflow = 2;
    valid.submit_time = 2e-3;
    valid.flows = {Flow{3, 2, 3, 0, 1e9}};
    ASSERT_TRUE(front.queue(0).try_enqueue(valid));
    const long long allocations = front.allocations();
    front.step_epoch(2e-3);
    EXPECT_EQ(front.allocations(), allocations + 1);
    EXPECT_EQ(front.master().registrations_ignored(), 0);
    EXPECT_EQ(front.master().active_coflows(), 2);
    front.step_epoch(3e-3);  // past coflow 0's dwell
    EXPECT_EQ(front.master().active_coflows(), 1);
  }
}

// Epochs through a serving front-end allocate from hook-maintained state
// only: no kernel-backed policy ever rebuilds from a snapshot.
TEST(EventFedMaster, ServeFrontNeverRebuildsKernelPolicies) {
  const int machines = 8;
  const Fabric fabric(machines, gbps(1.0));
  int kernel_policies = 0;
  for (const std::string& name : scheduler_names()) {
    const auto sched = make_scheduler(name);
    if (dynamic_cast<KernelScheduler*>(sched.get()) == nullptr) continue;
    ++kernel_policies;
    serve::LoadGenOptions load;
    load.seed = 17;
    load.num_clients = 2;
    load.num_machines = machines;
    load.arrival_rate_per_s = 3000.0;
    load.duration_s = 0.1;
    load.mean_lifetime_s = 0.004;
    load.sizes_known = sched->clairvoyant();
    serve::ServeOptions options;
    options.epoch_s = 1e-3;
    serve::ServeFront front(fabric, *sched, 2, options);
    // An epoch whose view is empty (everything departed) has nothing to
    // hand the policy.
    long long empty_views = 0;
    front.alloc_hook = [&](double, const ScheduleInput& view,
                           const Allocation&) {
      if (view.coflows.empty()) ++empty_views;
    };
    double now = front.run(serve::LoadGenerator(load).generate());
    while (front.master().active_coflows() > 0) {
      now += options.epoch_s;
      front.step_epoch(now);
    }
    const SchedPerf& perf = *sched->perf_counters();
    EXPECT_GT(front.allocations(), 50) << name;
    EXPECT_EQ(perf.full_rebuilds, 0) << name;
    EXPECT_EQ(perf.incremental_allocs, front.allocations() - empty_views)
        << name;
    EXPECT_EQ(perf.allocate_calls, perf.incremental_allocs) << name;
  }
  EXPECT_EQ(kernel_policies, 11);
}

}  // namespace
}  // namespace ncdrf
