// Tests for the simulator engine's incrementally maintained ScheduleInput
// snapshot (sim/engine.cc): the per-coflow views it hands to allocate()
// are the engine's own live and finished flow lists, compacted in place
// as flows finish, and must stay consistent with their coflows through
// randomized arrival / flow-finish / departure churn; the O(1)
// departure-record lookup must hold up when many coflows come and go.
// Mirrors the randomized-oracle style of ncdrf_incremental_test.cc one
// layer up.
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/units.h"
#include "core/registry.h"
#include "sim/sim.h"
#include "trace/synthetic_fb.h"
#include "trace/trace.h"

namespace ncdrf {
namespace {

Trace random_churn_trace(unsigned long long seed, int num_coflows,
                         int num_racks) {
  SyntheticFbOptions options;
  options.seed = seed;
  options.num_coflows = num_coflows;
  options.num_racks = num_racks;
  // Short inter-arrival window so coflows overlap heavily: every run mixes
  // arrivals into a live active set, flow finishes and departures.
  options.duration_s = 20.0;
  options.max_flows_per_coflow = 50;  // generator minimum (wide coflows)
  return generate_synthetic_fb(options);
}

// verify_snapshot makes the engine check every view against its coflow
// before every allocate(): the live and finished flow lists partition the
// coflow's flows (live ones in flow order, finished ones within the
// completion epsilon) and attained bits stay finite. Any divergence
// throws CheckError, so "the run completes" IS the equivalence assertion.
TEST(EngineSnapshot, IncrementalViewsMatchRebuildUnderRandomChurn) {
  SimOptions options;
  options.verify_snapshot = true;
  for (const unsigned long long seed : {3ull, 17ull, 101ull}) {
    const Trace trace = random_churn_trace(seed, 40, 20);
    const Fabric fabric(20, gbps(1.0));
    for (const std::string name : {"ncdrf", "ncdrf-live", "tcp", "aalo"}) {
      const auto scheduler = make_scheduler(name);
      const RunResult run = simulate(fabric, trace, *scheduler, options);
      EXPECT_EQ(run.coflows.size(), trace.coflows.size())
          << name << " seed " << seed;
    }
  }
}

// The verification pass must be observation only: identical results with
// it on and off.
TEST(EngineSnapshot, VerificationIsSideEffectFree) {
  const Trace trace = random_churn_trace(7, 30, 16);
  const Fabric fabric(16, gbps(1.0));
  for (const std::string name : {"ncdrf", "psp"}) {
    SimOptions verify;
    verify.verify_snapshot = true;
    const auto sched_a = make_scheduler(name);
    const RunResult checked = simulate(fabric, trace, *sched_a, verify);
    const auto sched_b = make_scheduler(name);
    const RunResult plain = simulate(fabric, trace, *sched_b);
    ASSERT_EQ(checked.coflows.size(), plain.coflows.size());
    EXPECT_EQ(checked.num_events, plain.num_events) << name;
    for (std::size_t i = 0; i < checked.coflows.size(); ++i) {
      EXPECT_EQ(checked.coflows[i].cct, plain.coflows[i].cct)
          << name << " coflow " << i;
    }
  }
}

// Regression for the id→index departure map: a workload where hundreds of
// coflows arrive and depart (forcing constant swap-pop compaction of the
// active set) must still produce a complete, well-formed record for every
// coflow. Before the map, each departure rescanned the records; worse, a
// wrong index would silently corrupt a *different* coflow's record — so
// check every field, not just completion.
TEST(EngineSnapshot, ManyCoflowsDepartWithCorrectRecords) {
  SyntheticFbOptions options;
  options.seed = 99;
  options.num_coflows = 400;
  options.num_racks = 25;
  options.duration_s = 400.0;  // steady arrival/departure churn
  options.max_flows_per_coflow = 50;
  const Trace trace = generate_synthetic_fb(options);
  const Fabric fabric(25, gbps(1.0));

  SimOptions sim;
  sim.record_intervals = false;
  const auto scheduler = make_scheduler("ncdrf");
  const RunResult run = simulate(fabric, trace, *scheduler, sim);

  ASSERT_EQ(run.coflows.size(), trace.coflows.size());
  for (std::size_t i = 0; i < run.coflows.size(); ++i) {
    const CoflowRecord& rec = run.coflows[i];
    const Coflow& coflow = trace.coflows[i];
    EXPECT_EQ(rec.id, coflow.id());
    EXPECT_EQ(rec.arrival, coflow.arrival_time());
    EXPECT_GT(rec.cct, 0.0) << "coflow " << i << " never completed";
    EXPECT_NEAR(rec.completion, rec.arrival + rec.cct, 1e-9);
    EXPECT_EQ(rec.width, static_cast<int>(coflow.flows().size()));
    double total_bits = 0.0;
    for (const Flow& f : coflow.flows()) total_bits += f.size_bits;
    EXPECT_EQ(rec.total_bits, total_bits);
  }
}

// Batched submit: a trace whose flow ids arrive out of order across
// coflows must still produce a dense remaining-bits table (one resize per
// submit, not per flow). Pinning behaviour: zero-size and tiny flows
// complete immediately without starving the run.
TEST(EngineSnapshot, SubmitHandlesTinyFlowsAndWideIdRange) {
  TraceBuilder builder(6);
  builder.begin_coflow(0.0);
  builder.add_flow(0, 1, megabits(1.0));
  builder.add_flow(1, 2, 0.5);  // below completion_epsilon_bits
  builder.add_flow(2, 3, megabits(2.0));
  builder.begin_coflow(0.1);
  for (int i = 0; i < 5; ++i) {
    builder.add_flow(i, (i + 1) % 6, megabits(1.0));
  }
  const Trace trace = builder.build();
  const Fabric fabric(6, gbps(1.0));

  SimOptions options;
  options.verify_snapshot = true;
  const auto scheduler = make_scheduler("ncdrf");
  const RunResult run = simulate(fabric, trace, *scheduler, options);
  ASSERT_EQ(run.coflows.size(), 2u);
  EXPECT_GT(run.coflows[0].cct, 0.0);
  EXPECT_GT(run.coflows[1].cct, 0.0);
}

}  // namespace
}  // namespace ncdrf
