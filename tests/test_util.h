// Shared helpers for scheduler and simulator tests: building
// ScheduleInput snapshots from traces and small inline workloads, a
// hook-hiding scheduler wrapper, plus the cross-policy allocation
// invariant audit shared by the property and serving tiers.
#pragma once

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "sched/scheduler.h"
#include "trace/trace.h"

namespace ncdrf::testing {

// Forwards every Scheduler virtual to `inner` except wants_events(), which
// reports false, so an event-driven driver hands `inner` bare snapshots
// only: the from-scratch reference run of a policy that takes the hooks.
class HooklessScheduler final : public Scheduler {
 public:
  explicit HooklessScheduler(Scheduler& inner) : inner_(inner) {}

  std::string name() const override { return inner_.name(); }
  bool clairvoyant() const override { return inner_.clairvoyant(); }
  Allocation allocate(const ScheduleInput& input) override {
    return inner_.allocate(input);
  }
  std::optional<double> next_internal_event(
      const ScheduleInput& input, const Allocation& current) const override {
    return inner_.next_internal_event(input, current);
  }
  void set_observers(obs::Tracer* tracer,
                     obs::MetricsRegistry* metrics) override {
    inner_.set_observers(tracer, metrics);
  }
  const SchedPerf* perf_counters() const override {
    return inner_.perf_counters();
  }
  bool wants_events() const override { return false; }
  void on_reset(const Fabric& fabric) override { inner_.on_reset(fabric); }
  void on_coflow_arrival(const ActiveCoflow& coflow) override {
    inner_.on_coflow_arrival(coflow);
  }
  void on_flow_finish(const ActiveFlow& flow) override {
    inner_.on_flow_finish(flow);
  }
  void on_coflow_departure(CoflowId id) override {
    inner_.on_coflow_departure(id);
  }

 private:
  Scheduler& inner_;
};

// Snapshot state: remaining bits per flow plus the scheduler view.
// Heap-held members keep the raw pointers inside `input` stable across
// moves of the Snapshot itself.
struct Snapshot {
  ScheduleInput input;
  std::unique_ptr<std::vector<double>> remaining;  // indexed by FlowId
  std::unique_ptr<ClairvoyantInfo> info;

  // Wires the clairvoyant pointer; call after remaining is final.
  void expose_sizes() {
    info = std::make_unique<ClairvoyantInfo>(remaining.get());
    input.clairvoyant = info.get();
  }
};

// Builds a snapshot with every coflow of `trace` active at time `now` and
// full remaining demand. Sizes are exposed iff `clairvoyant`.
inline Snapshot snapshot_all_active(const Fabric& fabric, const Trace& trace,
                                    bool clairvoyant, double now = 0.0) {
  Snapshot snap;
  snap.input.fabric = &fabric;
  snap.input.now = now;
  snap.remaining = std::make_unique<std::vector<double>>(
      static_cast<std::size_t>(trace.total_flows), 0.0);
  for (const Coflow& coflow : trace.coflows) {
    ActiveCoflow view;
    view.id = coflow.id();
    view.arrival_time = coflow.arrival_time();
    view.attained_bits = 0.0;
    for (const Flow& f : coflow.flows()) {
      view.flows.push_back(ActiveFlow{f.id, f.coflow, f.src, f.dst});
      (*snap.remaining)[static_cast<std::size_t>(f.id)] = f.size_bits;
    }
    snap.input.coflows.push_back(std::move(view));
  }
  if (clairvoyant) snap.expose_sizes();
  return snap;
}

// The paper's Fig. 3 workload: two coflows contending on a 2-machine
// fabric with 1 Gbps links. Coflow-A: 100 Mb from machines 0 and 1 to
// machine 1. Coflow-B: 100 Mb from machine 1 to machines 0 and 1.
inline Trace fig3_trace() {
  TraceBuilder builder(2);
  builder.begin_coflow(0.0);
  builder.add_flow(0, 1, 1e8);
  builder.add_flow(1, 1, 1e8);
  builder.begin_coflow(0.0);
  builder.add_flow(1, 0, 1e8);
  builder.add_flow(1, 1, 1e8);
  return builder.build();
}

// Per-coflow aggregate link usage under an allocation.
inline std::vector<double> coflow_link_usage(const Fabric& fabric,
                                             const ActiveCoflow& coflow,
                                             const Allocation& alloc) {
  std::vector<double> usage(static_cast<std::size_t>(fabric.num_links()),
                            0.0);
  for (const ActiveFlow& f : coflow.flows) {
    usage[static_cast<std::size_t>(fabric.uplink(f.src))] +=
        alloc.rate(f.id);
    usage[static_cast<std::size_t>(fabric.downlink(f.dst))] +=
        alloc.rate(f.id);
  }
  return usage;
}

// The three invariants any sane allocation must satisfy, shared by the
// cross-scheduler property suite and the serving-path tests:
//   (1) non-negative rates for every active flow;
//   (2) per-link capacity feasibility (check_capacity);
//   (3) work conservation — an idle link with an unfinished flow on it is
//       only legitimate if every such flow is bottlenecked on its other
//       link (a flow rated ~0 with both links idle is starved capacity
//       the policy just wasted).
// `context` tags every failure (policy name, seed, epoch...).
inline void expect_allocation_invariants(const ScheduleInput& input,
                                         const Allocation& alloc,
                                         const std::string& context) {
  const Fabric& fabric = *input.fabric;

  // (1) Non-negative rates for every active flow.
  for (const ActiveCoflow& coflow : input.coflows) {
    for (const ActiveFlow& f : coflow.flows) {
      EXPECT_GE(alloc.rate(f.id), 0.0) << context << " flow " << f.id;
    }
  }

  // (2) Capacity feasibility on every link.
  EXPECT_NO_THROW(check_capacity(input, alloc, 1e-6)) << context;

  // (3) Work conservation. Compute per-link usage, then audit every
  // near-idle link that still has a flow with pending demand.
  std::vector<double> usage(static_cast<std::size_t>(fabric.num_links()),
                            0.0);
  for (const ActiveCoflow& coflow : input.coflows) {
    for (const ActiveFlow& f : coflow.flows) {
      usage[static_cast<std::size_t>(fabric.uplink(f.src))] +=
          alloc.rate(f.id);
      usage[static_cast<std::size_t>(fabric.downlink(f.dst))] +=
          alloc.rate(f.id);
    }
  }
  const double tol = 1e-6;
  for (const ActiveCoflow& coflow : input.coflows) {
    for (const ActiveFlow& f : coflow.flows) {
      const auto up = static_cast<std::size_t>(fabric.uplink(f.src));
      const auto down = static_cast<std::size_t>(fabric.downlink(f.dst));
      for (const auto& [link, other] :
           {std::pair{up, down}, std::pair{down, up}}) {
        const double cap = fabric.capacity(static_cast<LinkId>(link));
        const double other_cap = fabric.capacity(static_cast<LinkId>(other));
        if (usage[link] > 1e-9 * cap) continue;  // link is in use
        // This flow has pending demand on an idle link: its rate is ~0,
        // which is only work-conserving if its other endpoint is
        // saturated by everyone else.
        EXPECT_GE(usage[other], other_cap * (1.0 - tol))
            << context << " idles link " << link << " while flow " << f.id
            << " (coflow " << coflow.id << ") has pending demand and "
            << "its other link is not saturated";
      }
    }
  }
}

}  // namespace ncdrf::testing
