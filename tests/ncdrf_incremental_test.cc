// Randomized properties of the incremental NC-DRF allocation engine:
//   - event-sequence equivalence: driving the scheduler through its delta
//     hooks (arrival / flow finish / departure) yields the same allocation
//     as a from-scratch allocate() at every step, in both counting modes,
//     with and without backfilling, on heterogeneous fabrics;
//   - full-simulation equivalence: NC-DRF with and without its event hooks
//     (HooklessScheduler) replays identical traces to identical CCTs and
//     event counts, extreme coflow weights included;
//   - the debug consistency check (incremental state == recompute_full
//     within 1e-9) stays silent across simulated churn;
//   - the cached backfill variant matches the rescanning one bitwise;
//   - perf counters add up and export as JSON.
#include <gtest/gtest.h>

#include <sstream>

#include "common/rng.h"
#include "common/units.h"
#include "core/ncdrf.h"
#include "metrics/export.h"
#include "sched/backfill.h"
#include "sim/sim.h"
#include "test_util.h"
#include "trace/synthetic_fb.h"
#include "trace/trace.h"

namespace ncdrf {
namespace {

// Mirrors the property_test generators: random heterogeneous fabric and a
// staggered-arrival online trace.
Fabric random_fabric(Rng& rng, int machines) {
  std::vector<double> capacities;
  capacities.reserve(static_cast<std::size_t>(2 * machines));
  for (int i = 0; i < 2 * machines; ++i) {
    capacities.push_back(rng.uniform(gbps(0.5), gbps(4.0)));
  }
  return Fabric(std::move(capacities));
}

Trace random_online_trace(Rng& rng, int machines, int coflows) {
  TraceBuilder builder(machines);
  for (int c = 0; c < coflows; ++c) {
    builder.begin_coflow(rng.uniform(0.0, 3.0));
    const double base = rng.uniform(megabits(20.0), megabits(300.0));
    const int flows = static_cast<int>(rng.uniform_int(1, 10));
    for (int f = 0; f < flows; ++f) {
      builder.add_flow(
          static_cast<MachineId>(rng.uniform_int(0, machines - 1)),
          static_cast<MachineId>(rng.uniform_int(0, machines - 1)),
          base * rng.uniform(0.2, 5.0));
    }
  }
  return builder.build();
}

// A random ActiveCoflow view (ids supplied by the caller).
ActiveCoflow random_view(Rng& rng, int machines, CoflowId id,
                         FlowId& next_flow) {
  ActiveCoflow view;
  view.id = id;
  view.weight = rng.uniform(0.5, 3.0);
  const int flows = static_cast<int>(rng.uniform_int(1, 10));
  for (int f = 0; f < flows; ++f) {
    view.flows.push_back(ActiveFlow{
        next_flow++, id,
        static_cast<MachineId>(rng.uniform_int(0, machines - 1)),
        static_cast<MachineId>(rng.uniform_int(0, machines - 1))});
  }
  return view;
}

void expect_rates_match(const ScheduleInput& input, const Allocation& got,
                        const Allocation& want) {
  for (const ActiveCoflow& coflow : input.coflows) {
    for (const ActiveFlow& f : coflow.flows) {
      const double w = want.rate(f.id);
      ASSERT_NEAR(got.rate(f.id), w, 1e-9 * std::max(1.0, std::abs(w)))
          << "flow " << f.id << " of coflow " << coflow.id;
    }
  }
}

struct ModeParams {
  bool count_finished_flows;
  bool work_conserving;
};

class IncrementalEventEquivalence
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(IncrementalEventEquivalence, MatchesFromScratchAtEveryEvent) {
  const auto [seed, mode] = GetParam();
  const ModeParams modes[] = {{true, true},
                              {true, false},
                              {false, true},
                              {false, false}};
  const ModeParams m = modes[mode];
  Rng rng(static_cast<std::uint64_t>(seed) * 4 +
          static_cast<std::uint64_t>(mode) + 90'000);
  const int machines = 6;
  const Fabric fabric = random_fabric(rng, machines);

  NcDrfScheduler incremental(
      NcDrfOptions{.work_conserving = m.work_conserving,
                   .count_finished_flows = m.count_finished_flows,
                   .verify_incremental = true});
  // Never hooked, so every allocate() rebuilds from the snapshot.
  NcDrfScheduler scratch(
      NcDrfOptions{.work_conserving = m.work_conserving,
                   .count_finished_flows = m.count_finished_flows});

  ScheduleInput input;
  input.fabric = &fabric;
  incremental.on_reset(fabric);

  FlowId next_flow = 0;
  CoflowId next_coflow = 0;
  for (int event = 0; event < 160; ++event) {
    const int kind = input.coflows.empty()
                         ? 0
                         : static_cast<int>(rng.uniform_int(0, 2));
    if (kind == 0) {  // arrival
      input.coflows.push_back(
          random_view(rng, machines, next_coflow++, next_flow));
      incremental.on_coflow_arrival(input.coflows.back());
    } else {
      const auto k = static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<int>(input.coflows.size()) - 1));
      ActiveCoflow& coflow = input.coflows[k];
      if (kind == 1 && coflow.flows.size() > 1) {  // one flow finishes
        const auto f = static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<int>(coflow.flows.size()) - 1));
        const ActiveFlow finished = coflow.flows[f];
        coflow.flows.erase(coflow.flows.begin() +
                           static_cast<std::ptrdiff_t>(f));
        coflow.finished_flows.push_back(finished);
        incremental.on_flow_finish(finished);
      } else {  // departure
        if (coflow.flows.size() == 1) {
          // Engine-style: the last flow finishes, then the coflow leaves.
          const ActiveFlow finished = coflow.flows.back();
          coflow.flows.pop_back();
          incremental.on_flow_finish(finished);
        }
        incremental.on_coflow_departure(coflow.id);
        if (k + 1 != input.coflows.size()) {
          input.coflows[k] = std::move(input.coflows.back());
        }
        input.coflows.pop_back();
      }
    }

    const Allocation inc = incremental.allocate(input);
    const Allocation ref = scratch.allocate(input);
    expect_rates_match(input, inc, ref);
  }
  // Every allocate after the first hooks must have been served
  // incrementally (the consistency check ran on each).
  EXPECT_EQ(incremental.perf().full_rebuilds, 0);
  EXPECT_EQ(incremental.perf().incremental_allocs,
            incremental.perf().allocate_calls);
  EXPECT_EQ(incremental.perf().consistency_checks,
            incremental.perf().allocate_calls);
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, IncrementalEventEquivalence,
    ::testing::Combine(::testing::Range(0, 8), ::testing::Range(0, 4)));

class IncrementalSimulationProperty : public ::testing::TestWithParam<int> {
};

TEST_P(IncrementalSimulationProperty, MatchesFromScratchOverFullRuns) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) + 70'000);
  const Fabric fabric = random_fabric(rng, 8);
  const Trace trace = random_online_trace(rng, 8, 14);

  NcDrfScheduler incremental(NcDrfOptions{.verify_incremental = true});
  NcDrfScheduler scratch;
  testing::HooklessScheduler hookless(scratch);
  const RunResult run_inc = simulate(fabric, trace, incremental);
  const RunResult run_ref = simulate(fabric, trace, hookless);

  ASSERT_EQ(run_inc.coflows.size(), run_ref.coflows.size());
  EXPECT_EQ(run_inc.num_events, run_ref.num_events);
  for (std::size_t k = 0; k < run_inc.coflows.size(); ++k) {
    EXPECT_NEAR(run_inc.coflows[k].cct, run_ref.coflows[k].cct,
                run_ref.coflows[k].cct * 1e-9)
        << "coflow " << k;
  }
  // The engine delivered deltas, so every allocate but at most the first
  // per epoch came from the incremental path.
  EXPECT_GT(incremental.perf().incremental_allocs, 0);
  EXPECT_EQ(incremental.perf().full_rebuilds, 0);
  EXPECT_EQ(incremental.perf().allocate_calls, run_inc.num_allocations);
  EXPECT_GT(incremental.perf().events(), 0);
  EXPECT_EQ(scratch.perf().incremental_allocs, 0);
  EXPECT_EQ(scratch.perf().full_rebuilds, run_ref.num_allocations);
}

INSTANTIATE_TEST_SUITE_P(Seeds, IncrementalSimulationProperty,
                         ::testing::Range(0, 10));

// Two single-flow coflows share one machine pair, and the heavy one
// finishes first. Subtracting its term from the per-link sums leaves the
// light coflow's, which is 1e-24 of it at weights 1e12/1e-12 and so below
// the sums' rounding error: the sums read 0 (P̂* = 0, no flow gets a rate
// and simulate() throws on starvation), or at 1e6/1e-6 keep only a few
// digits. The hooked run must match the from-scratch one instead.
TEST(IncrementalSimulation, ExtremeWeightsMatchFromScratch) {
  const Fabric fabric(2, gbps(1.0));
  for (const double heavy : {1e12, 1e9, 1e6}) {
    TraceBuilder builder(2);
    builder.begin_coflow(0.0, heavy);
    builder.add_flow(0, 1, megabits(10.0));
    builder.begin_coflow(0.0, 1.0 / heavy);
    builder.add_flow(0, 1, megabits(1000.0));
    const Trace trace = builder.build();
    for (const bool stale : {true, false}) {
      SCOPED_TRACE(::testing::Message()
                   << "heavy weight " << heavy << " stale " << stale);
      NcDrfScheduler hooked(NcDrfOptions{.count_finished_flows = stale,
                                         .verify_incremental = true});
      NcDrfScheduler scratch(NcDrfOptions{.count_finished_flows = stale});
      testing::HooklessScheduler hookless(scratch);
      RunResult run_hooked;
      ASSERT_NO_THROW(run_hooked = simulate(fabric, trace, hooked));
      const RunResult run_ref = simulate(fabric, trace, hookless);
      EXPECT_NEAR(run_ref.makespan, 1.01, 1e-9);
      ASSERT_EQ(run_hooked.coflows.size(), run_ref.coflows.size());
      for (std::size_t k = 0; k < run_ref.coflows.size(); ++k) {
        EXPECT_NEAR(run_hooked.coflows[k].cct, run_ref.coflows[k].cct,
                    run_ref.coflows[k].cct * 1e-9)
            << "coflow " << k;
      }
      EXPECT_GT(hooked.perf().incremental_allocs, 0);
    }
  }
}

TEST(IncrementalSimulation, ConsistencyHoldsOnFbTwinChurn) {
  // A slice of the FB-like workload with verification forced on: every
  // event-driven allocate cross-checks state against recompute_full().
  SyntheticFbOptions options;
  options.num_coflows = 80;
  options.duration_s = 30.0;
  options.max_flows_per_coflow = 60;
  const Trace trace = generate_synthetic_fb(options);
  const Fabric fabric(options.num_racks, gbps(1.0));

  for (const bool stale : {true, false}) {
    NcDrfScheduler scheduler(
        NcDrfOptions{.count_finished_flows = stale,
                     .verify_incremental = true});
    const RunResult run = simulate(fabric, trace, scheduler);
    EXPECT_NEAR(run.total_bits_delivered, trace.total_bits(),
                trace.total_bits() * 1e-6);
    EXPECT_EQ(scheduler.perf().consistency_checks,
              scheduler.perf().incremental_allocs);
    EXPECT_GT(scheduler.perf().links_touched, 0);
  }
}

TEST(IncrementalState, FallsBackWhenSnapshotDiverges) {
  // A scheduler that committed to events must still serve any unrelated
  // snapshot correctly — via rebuild, not wrong rates or a throw.
  const Fabric fabric(4, gbps(1.0));
  NcDrfScheduler scheduler;
  scheduler.on_reset(fabric);

  ScheduleInput input;
  input.fabric = &fabric;
  ActiveCoflow view;
  view.id = 7;
  view.flows.push_back(ActiveFlow{0, 7, 0, 1});
  view.flows.push_back(ActiveFlow{1, 7, 2, 3});
  input.coflows.push_back(view);  // never announced via on_coflow_arrival

  const Allocation alloc = scheduler.allocate(input);
  EXPECT_GT(alloc.rate(0), 0.0);
  EXPECT_GT(alloc.rate(1), 0.0);
  EXPECT_EQ(scheduler.perf().full_rebuilds, 1);
  EXPECT_EQ(scheduler.perf().incremental_allocs, 0);
}

TEST(BackfillCached, MatchesRescanningVariant) {
  Rng rng(123);
  const Fabric fabric = random_fabric(rng, 5);
  const Trace trace = random_online_trace(rng, 5, 9);

  ScheduleInput input;
  input.fabric = &fabric;
  for (const Coflow& coflow : trace.coflows) {
    ActiveCoflow view;
    view.id = coflow.id();
    for (const Flow& f : coflow.flows()) {
      view.flows.push_back(ActiveFlow{f.id, f.coflow, f.src, f.dst});
    }
    input.coflows.push_back(std::move(view));
  }

  for (const int rounds : {1, 3}) {
    Allocation plain;   // backfill from an empty base allocation
    Allocation cached;
    even_backfill(input, plain, rounds);

    const std::vector<int> counts = link_flow_counts(input);
    std::vector<double> residual = link_usage(input, cached);
    for (LinkId i = 0; i < fabric.num_links(); ++i) {
      const auto idx = static_cast<std::size_t>(i);
      residual[idx] = fabric.capacity(i) - residual[idx];
    }
    even_backfill_cached(input, cached, rounds, counts, residual);

    for (const ActiveCoflow& coflow : input.coflows) {
      for (const ActiveFlow& f : coflow.flows) {
        EXPECT_DOUBLE_EQ(cached.rate(f.id), plain.rate(f.id))
            << "rounds " << rounds << " flow " << f.id;
      }
    }
  }
}

TEST(SchedPerfCounters, AccumulateAndExportJson) {
  SchedPerf perf;
  perf.allocate_calls = 3;
  perf.incremental_allocs = 2;
  perf.full_rebuilds = 1;
  perf.arrival_events = 4;
  perf.flow_finish_events = 5;
  perf.departure_events = 6;
  perf.links_touched = 7;
  perf.allocate_seconds = 0.25;
  EXPECT_EQ(perf.events(), 15);

  SchedPerf sum;
  sum += perf;
  sum += perf;
  EXPECT_EQ(sum.allocate_calls, 6);
  EXPECT_EQ(sum.links_touched, 14);
  EXPECT_DOUBLE_EQ(sum.allocate_seconds, 0.5);

  std::ostringstream out;
  write_perf_json(out, perf, "ncdrf", "unit");
  const std::string json = out.str();
  EXPECT_NE(json.find("\"scheduler\":\"ncdrf\""), std::string::npos);
  EXPECT_NE(json.find("\"label\":\"unit\""), std::string::npos);
  EXPECT_NE(json.find("\"allocate_calls\":3"), std::string::npos);
  EXPECT_NE(json.find("\"links_touched\":7"), std::string::npos);
  EXPECT_NE(json.find("\"allocate_seconds\":0.25"), std::string::npos);

  sum.reset();
  EXPECT_EQ(sum.allocate_calls, 0);
  EXPECT_EQ(sum.events(), 0);
}

TEST(SchedPerfCounters, TimerAccumulatesWallClock) {
  NcDrfScheduler scheduler;
  const Fabric fabric(3, gbps(1.0));
  ScheduleInput input;
  input.fabric = &fabric;
  ActiveCoflow view;
  view.id = 0;
  view.flows.push_back(ActiveFlow{0, 0, 0, 1});
  input.coflows.push_back(view);
  for (int i = 0; i < 50; ++i) scheduler.allocate(input);
  EXPECT_EQ(scheduler.perf().allocate_calls, 50);
  EXPECT_GT(scheduler.perf().allocate_seconds, 0.0);
}

}  // namespace
}  // namespace ncdrf
