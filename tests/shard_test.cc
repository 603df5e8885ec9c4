// Tests for the link-shard layer (alloc/shard.h) and the sharded
// execution paths of drf and tcp, the two policies that keep one:
//
//   * ShardPlan partitions machines/links exactly once and nests across
//     power-of-two shard counts;
//   * ThreadPool::run is reentrant from its own workers (the shard pool's
//     nested-dispatch regression);
//   * shards == 1 vs shards == N produce identical rates on shard-local
//     traces, and bounded divergence + feasibility on cross-shard traces;
//   * the sharded DemandCache refresh caches exactly the serial rows, and
//     parallel_blocks covers every index when the plan is clamped;
//   * the registry's "@N" suffix and its bounds, SchedPerf shard counters,
//     and the Theorem 1 envelope with a sharded clairvoyant-DRF baseline.
#include <algorithm>
#include <atomic>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "alloc/demand_cache.h"
#include "alloc/shard.h"
#include "coflow/coflow.h"
#include "common/check.h"
#include "common/rng.h"
#include "common/units.h"
#include "core/ncdrf.h"
#include "core/registry.h"
#include "runner/thread_pool.h"
#include "sched/allocation.h"
#include "sim/sim.h"
#include "test_util.h"
#include "trace/trace.h"

namespace ncdrf {
namespace {

using testing::Snapshot;
using testing::snapshot_all_active;

// Machines of each shard under `plan`, for drawing group-local endpoints.
std::vector<std::vector<MachineId>> shard_members(const Fabric& fabric,
                                                  const ShardPlan& plan) {
  std::vector<std::vector<MachineId>> members(
      static_cast<std::size_t>(plan.num_shards()));
  for (MachineId m = 0; m < fabric.num_machines(); ++m) {
    members[static_cast<std::size_t>(plan.shard_of_machine(m))].push_back(m);
  }
  return members;
}

// Random trace whose flows stay inside one rack group with probability
// `locality` (1.0 = fully shard-local at every nested shard count).
// Sizes are multiples of 10 Mb so waterfill levels avoid degenerate ties.
Trace grouped_trace(const Fabric& fabric, int groups, std::uint64_t seed,
                    int num_coflows, int max_flows, double locality) {
  const ShardPlan plan(fabric, groups);
  const auto members = shard_members(fabric, plan);
  Rng rng(seed);
  TraceBuilder builder(fabric.num_machines());
  for (int c = 0; c < num_coflows; ++c) {
    builder.begin_coflow(0.0);
    const auto g = static_cast<std::size_t>(
        rng.uniform_int(0, plan.num_shards() - 1));
    const auto flows = static_cast<int>(rng.uniform_int(1, max_flows));
    for (int f = 0; f < flows; ++f) {
      const auto& group = members[g];
      const MachineId src = group[static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(group.size()) - 1))];
      MachineId dst;
      if (rng.uniform() < locality) {
        dst = group[static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(group.size()) - 1))];
      } else {
        dst = static_cast<MachineId>(
            rng.uniform_int(0, fabric.num_machines() - 1));
      }
      builder.add_flow(src, dst, 1e7 * static_cast<double>(
                                           rng.uniform_int(1, 40)));
    }
  }
  return builder.build();
}

// Builds the policy at the given shard count and allocates the snapshot,
// feeding arrival hooks first when the policy wants events.
Allocation run_alloc(const std::string& name, int shards,
                     const Snapshot& snap) {
  SchedulerOptions options;
  options.shards = shards;
  const auto sched = make_scheduler(name, options);
  if (sched->wants_events()) {
    sched->on_reset(*snap.input.fabric);
    for (const ActiveCoflow& c : snap.input.coflows) {
      sched->on_coflow_arrival(c);
    }
  }
  return sched->allocate(snap.input);
}

double total_rate(const ScheduleInput& input, const Allocation& alloc) {
  double total = 0.0;
  for (const ActiveCoflow& c : input.coflows) {
    for (const ActiveFlow& f : c.flows) total += alloc.rate(f.id);
  }
  return total;
}

// ---------------------------------------------------------------------------
// ShardPlan

TEST(ShardPlan, PartitionsEveryMachineAndLinkExactlyOnce) {
  const Fabric fabric(150, gbps(1.0));
  for (const int shards : {1, 2, 3, 4, 7, 8, 150, 500}) {
    const ShardPlan plan(fabric, shards);
    EXPECT_EQ(plan.num_shards(), std::min(shards, 150));
    std::vector<int> machines_seen(150, 0);
    for (MachineId m = 0; m < 150; ++m) {
      const int s = plan.shard_of_machine(m);
      ASSERT_GE(s, 0);
      ASSERT_LT(s, plan.num_shards());
      machines_seen[static_cast<std::size_t>(m)] += 1;
      EXPECT_EQ(plan.shard_of_link(fabric.uplink(m)), s);
      EXPECT_EQ(plan.shard_of_link(fabric.downlink(m)), s);
      // The link mask of exactly the owning shard covers both links.
      for (int t = 0; t < plan.num_shards(); ++t) {
        const auto& mask = plan.link_mask(t);
        EXPECT_EQ(mask[static_cast<std::size_t>(fabric.uplink(m))] != 0,
                  t == s);
        EXPECT_EQ(mask[static_cast<std::size_t>(fabric.downlink(m))] != 0,
                  t == s);
      }
    }
    for (const int seen : machines_seen) EXPECT_EQ(seen, 1);
  }
}

TEST(ShardPlan, BoundariesNestAcrossDoublings) {
  // shard(m, N) == shard(m, 2N) / 2 for the floor-boundary scheme, so a
  // group-local flow stays shard-local at every smaller power-of-two
  // count — the property the scale bench's locality knob relies on.
  const Fabric fabric(150, gbps(1.0));
  for (const int n : {1, 2, 4}) {
    const ShardPlan coarse(fabric, n);
    const ShardPlan fine(fabric, 2 * n);
    for (MachineId m = 0; m < 150; ++m) {
      EXPECT_EQ(coarse.shard_of_machine(m), fine.shard_of_machine(m) / 2)
          << "machine " << m << " at " << n << " vs " << 2 * n << " shards";
    }
  }
}

TEST(ShardPlan, ClampsShardCountToMachines) {
  const Fabric fabric(3, gbps(1.0));
  const ShardPlan plan(fabric, 16);
  EXPECT_EQ(plan.num_shards(), 3);
  EXPECT_TRUE(plan.matches(fabric, 16));
  EXPECT_FALSE(plan.matches(fabric, 2));
}

// ---------------------------------------------------------------------------
// ThreadPool reentrancy (the shard layer dispatches from sweep workers)

TEST(ThreadPool, NestedRunFromWorkerExecutesInline) {
  ThreadPool pool(3);
  std::atomic<int> inner_total{0};
  // Each outer task re-enters the same pool; the nested batch must run
  // inline on the calling worker instead of deadlocking on the dispatch
  // lock the worker's own batch still holds.
  pool.run(6, [&](int) {
    pool.run(5, [&](int) { inner_total++; });
  });
  EXPECT_EQ(inner_total.load(), 30);
}

TEST(ThreadPool, DeeplyNestedRunStillCompletes) {
  ThreadPool pool(2);
  std::atomic<int> leaves{0};
  pool.run(2, [&](int) {
    pool.run(2, [&](int) {
      pool.run(3, [&](int) { leaves++; });
    });
  });
  EXPECT_EQ(leaves.load(), 12);
}

TEST(ThreadPool, NestedRunPropagatesTaskException) {
  ThreadPool pool(2);
  EXPECT_THROW(
      pool.run(2,
               [&](int) {
                 pool.run(3, [&](int i) {
                   if (i == 1) throw std::runtime_error("inner boom");
                 });
               }),
      std::runtime_error);
  // The pool stays usable after the failed nested batch.
  std::atomic<int> total{0};
  pool.run(4, [&](int) { total++; });
  EXPECT_EQ(total.load(), 4);
}

TEST(ThreadPool, DistinctPoolsNestWithoutInterference) {
  // A scheduler-owned shard pool running inside a sweep worker is the
  // production shape: outer and inner pools are different objects.
  ThreadPool outer(2);
  ThreadPool inner(4);
  std::atomic<int> total{0};
  outer.run(4, [&](int) {
    inner.run(8, [&](int) { total++; });
  });
  EXPECT_EQ(total.load(), 32);
}

// ---------------------------------------------------------------------------
// 1-vs-N equivalence on shard-local traces

// Policies whose sharded path must reproduce the serial rates exactly on
// fully shard-local traces (every per-shard subproblem is the serial
// problem restricted to that shard's links).
const char* const kExactPolicies[] = {"tcp"};
// drf agrees with serial to fp noise only: it reduces per-block partial
// sums in block order.
const char* const kNearPolicies[] = {"drf"};

TEST(ShardEquivalence, LocalTracesMatchSerialBitwise) {
  const Fabric fabric(32, gbps(1.0));
  const Trace trace =
      grouped_trace(fabric, 4, 7, /*num_coflows=*/40, /*max_flows=*/6,
                    /*locality=*/1.0);
  const Snapshot snap = snapshot_all_active(fabric, trace, true);
  for (const char* policy : kExactPolicies) {
    const Allocation serial = run_alloc(policy, 1, snap);
    const Allocation sharded = run_alloc(policy, 4, snap);
    for (const ActiveCoflow& c : snap.input.coflows) {
      for (const ActiveFlow& f : c.flows) {
        EXPECT_EQ(serial.rate(f.id), sharded.rate(f.id))
            << policy << " flow " << f.id;
      }
    }
  }
}

TEST(ShardEquivalence, LocalTracesMatchSerialClosely) {
  const Fabric fabric(32, gbps(1.0));
  const Trace trace = grouped_trace(fabric, 4, 11, 40, 6, 1.0);
  const Snapshot snap = snapshot_all_active(fabric, trace, true);
  for (const char* policy : kNearPolicies) {
    const Allocation serial = run_alloc(policy, 1, snap);
    const Allocation sharded = run_alloc(policy, 4, snap);
    for (const ActiveCoflow& c : snap.input.coflows) {
      for (const ActiveFlow& f : c.flows) {
        const double a = serial.rate(f.id);
        const double b = sharded.rate(f.id);
        EXPECT_NEAR(a, b, 1e-9 * std::max(a, 1.0))
            << policy << " flow " << f.id;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Cross-shard traces: feasibility, bounded divergence, determinism

class ShardCrossTraffic : public ::testing::TestWithParam<int> {};

TEST_P(ShardCrossTraffic, FeasibleAndNearWorkConserving) {
  const int seed = GetParam();
  const Fabric fabric(40, gbps(1.0));
  const Trace trace = grouped_trace(
      fabric, 4, static_cast<std::uint64_t>(seed) * 977 + 5, 30, 8,
      /*locality=*/0.7);
  const Snapshot snap = snapshot_all_active(fabric, trace, true);
  for (const char* policy : {"tcp", "drf"}) {
    const Allocation serial = run_alloc(policy, 1, snap);
    const Allocation sharded = run_alloc(policy, 4, snap);
    // Never infeasible, never negative.
    EXPECT_NO_THROW(check_capacity(snap.input, sharded, 1e-6)) << policy;
    for (const ActiveCoflow& c : snap.input.coflows) {
      for (const ActiveFlow& f : c.flows) {
        EXPECT_GE(sharded.rate(f.id), 0.0) << policy << " flow " << f.id;
      }
    }
    // Bounded divergence: tcp's two-round reconcile keeps at least 95% of
    // the serial allocator's total rate.
    const double base = total_rate(snap.input, serial);
    const double got = total_rate(snap.input, sharded);
    EXPECT_GE(got, 0.95 * base) << policy << " seed " << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ShardCrossTraffic,
                         ::testing::Range(0, 100));

TEST(ShardCrossTraffic, DrfShardedTracksSerialClosely) {
  // drf has no cross-shard reconcile approximation (the progress scalar
  // and rate pass are exact up to block-sum grouping), so even heavily
  // cross-shard traffic must reproduce serial rates to fp noise.
  const Fabric fabric(40, gbps(1.0));
  for (const std::uint64_t seed : {3u, 17u, 91u}) {
    const Trace trace = grouped_trace(fabric, 4, seed, 30, 8, 0.2);
    const Snapshot snap = snapshot_all_active(fabric, trace, true);
    const Allocation serial = run_alloc("drf", 1, snap);
    const Allocation sharded = run_alloc("drf", 4, snap);
    for (const ActiveCoflow& c : snap.input.coflows) {
      for (const ActiveFlow& f : c.flows) {
        const double a = serial.rate(f.id);
        EXPECT_NEAR(a, sharded.rate(f.id), 1e-9 * std::max(a, 1.0))
            << "seed " << seed << " flow " << f.id;
      }
    }
  }
}

TEST(ShardDeterminism, RepeatedShardedAllocationsAreBitwiseStable) {
  const Fabric fabric(40, gbps(1.0));
  const Trace trace = grouped_trace(fabric, 4, 23, 30, 8, 0.6);
  const Snapshot snap = snapshot_all_active(fabric, trace, true);
  for (const char* policy : {"tcp", "drf"}) {
    const Allocation first = run_alloc(policy, 4, snap);
    for (int repeat = 0; repeat < 3; ++repeat) {
      const Allocation again = run_alloc(policy, 4, snap);
      for (const ActiveCoflow& c : snap.input.coflows) {
        for (const ActiveFlow& f : c.flows) {
          EXPECT_EQ(first.rate(f.id), again.rate(f.id))
              << policy << " repeat " << repeat << " flow " << f.id;
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Sharded demand refresh

// Every row (link, flows, bits, in order), bottleneck and remaining bit
// `got` caches equals what `want` caches.
void expect_same_demand(const ScheduleInput& input, const DemandCache& want,
                        const DemandCache& got, const std::string& context) {
  ASSERT_EQ(got.size(), want.size()) << context;
  for (std::size_t k = 0; k < want.size(); ++k) {
    const auto a = want.rows(k);
    const auto b = got.rows(k);
    ASSERT_EQ(a.size(), b.size()) << context << " coflow " << k;
    for (std::size_t r = 0; r < a.size(); ++r) {
      EXPECT_EQ(a[r].link, b[r].link) << context << " coflow " << k;
      EXPECT_EQ(a[r].flows, b[r].flows) << context << " coflow " << k;
      EXPECT_EQ(a[r].bits, b[r].bits) << context << " coflow " << k;
    }
    EXPECT_EQ(want.bottleneck_bits(k), got.bottleneck_bits(k)) << context;
    EXPECT_EQ(want.bottleneck_link(k), got.bottleneck_link(k)) << context;
    for (std::size_t j = 0; j < input.coflows[k].flows.size(); ++j) {
      EXPECT_EQ(want.remaining(k)[j], got.remaining(k)[j]) << context;
    }
  }
}

TEST(ShardDemandCache, ShardedRefreshMatchesSerialUnderSlotRotation) {
  const Fabric fabric(40, gbps(1.0));
  ShardRuntime two(2);
  ShardRuntime four(4);
  // Fewer coflows than shards leaves blocks empty; 37 splits unevenly.
  for (const int num_coflows : {3, 37}) {
    for (const std::uint64_t seed : {5u, 29u}) {
      const Trace trace = grouped_trace(fabric, 4, seed, num_coflows, 12, 0.3);
      Snapshot snap = snapshot_all_active(fabric, trace, true);
      // Uneven remaining bits (and some exhausted flows), so the row sums
      // round and bottleneck ties are rare.
      Rng rng(seed);
      for (double& bits : *snap.remaining) {
        bits = rng.bernoulli(0.1) ? 0.0 : rng.uniform(1e6, 1e9);
      }
      // The caches persist across rotations, so each refresh reuses the
      // block buffers the previous snapshot's coflows filled.
      DemandCache serial;
      DemandCache sharded2;
      DemandCache sharded4;
      for (int turn = 0; turn < num_coflows + 2; ++turn) {
        serial.refresh(snap.input);
        sharded2.refresh(snap.input, &two);
        sharded4.refresh(snap.input, &four);
        const std::string context = "coflows " + std::to_string(num_coflows) +
                                    " seed " + std::to_string(seed) +
                                    " turn " + std::to_string(turn);
        expect_same_demand(snap.input, serial, sharded2, context + " @2");
        expect_same_demand(snap.input, serial, sharded4, context + " @4");
        std::rotate(snap.input.coflows.begin(),
                    snap.input.coflows.begin() + 1, snap.input.coflows.end());
        // Finish a flow now and then, so slots change width as they rotate.
        ActiveCoflow& front = snap.input.coflows.front();
        if (turn % 3 == 0 && front.flows.size() > 1) front.flows.pop_back();
      }
    }
  }
}

TEST(ShardRuntimeBlocks, CoverEveryIndexOnceWhenThePlanIsClamped) {
  // A fabric with fewer machines than shards clamps the bound plan, so
  // each region runs fewer tasks; the blocks must still cover [0, n).
  ShardRuntime runtime(4);
  for (const int machines : {1, 3, 8}) {
    runtime.bind(Fabric(machines, gbps(1.0)));
    for (const std::size_t n : {0u, 1u, 5u, 17u}) {
      std::vector<int> visits(n, 0);
      runtime.parallel_blocks(n,
                              [&](int, std::size_t begin, std::size_t end) {
                                for (std::size_t i = begin; i < end; ++i) {
                                  visits[i] += 1;
                                }
                              });
      EXPECT_EQ(visits, std::vector<int>(n, 1))
          << machines << " machines, n = " << n;
    }
  }
}

// ---------------------------------------------------------------------------
// Registry, perf counters, sim plumbing

TEST(ShardRegistry, AtSuffixBuildsShardedScheduler) {
  const Fabric fabric(8, gbps(1.0));
  const Trace trace = grouped_trace(fabric, 4, 29, 6, 3, 1.0);
  const Snapshot snap = snapshot_all_active(fabric, trace, true);
  const auto sched = make_scheduler("drf@4");
  const Allocation alloc = sched->allocate(snap.input);
  EXPECT_GT(alloc.num_flows(), 0u);
  ASSERT_NE(sched->perf_counters(), nullptr);
  EXPECT_GT(sched->perf_counters()->shard_regions, 0);
}

TEST(ShardRegistry, RejectsMalformedOrUnsupportedSuffixes) {
  EXPECT_THROW(make_scheduler("drf@"), CheckError);
  EXPECT_THROW(make_scheduler("drf@x4"), CheckError);
  EXPECT_THROW(make_scheduler("drf@4x"), CheckError);
  EXPECT_THROW(make_scheduler("drf@0"), CheckError);
  EXPECT_THROW(make_scheduler("drf@-2"), CheckError);
  EXPECT_THROW(make_scheduler("@4"), CheckError);
  // Only drf and tcp have a sharded path.
  SchedulerOptions two;
  two.shards = 2;
  for (const std::string& name : scheduler_names()) {
    if (name == "drf" || name == "tcp") {
      EXPECT_NE(make_scheduler(name + "@2"), nullptr) << name;
      EXPECT_NE(make_scheduler(name, two), nullptr) << name;
    } else {
      EXPECT_THROW(make_scheduler(name + "@2"), CheckError) << name;
      EXPECT_THROW(make_scheduler(name, two), CheckError) << name;
      EXPECT_NE(make_scheduler(name + "@1"), nullptr) << name;
    }
  }
}

TEST(ShardRegistry, RejectsHostileShardCounts) {
  // Each shard is a pool thread started at construction, so the count is
  // bounded before any fabric is known; a suffix too long for an int is
  // malformed, not an escaping std::out_of_range.
  EXPECT_THROW(make_scheduler("drf@65"), CheckError);
  EXPECT_THROW(make_scheduler("tcp@" + std::string(20, '9')), CheckError);
  SchedulerOptions too_many;
  too_many.shards = ShardRuntime::kMaxShards + 1;
  EXPECT_THROW(make_scheduler("drf", too_many), CheckError);
  EXPECT_THROW(make_scheduler("tcp", too_many), CheckError);
  EXPECT_THROW(ShardRuntime::create(too_many), CheckError);
}

TEST(ShardPerf, CountersAccumulateOnlyOnShardedPath) {
  const Fabric fabric(16, gbps(1.0));
  const Trace trace = grouped_trace(fabric, 4, 31, 10, 4, 0.8);
  const Snapshot snap = snapshot_all_active(fabric, trace, true);

  const auto serial = make_scheduler("tcp", SchedulerOptions{});
  serial->allocate(snap.input);
  ASSERT_NE(serial->perf_counters(), nullptr);
  EXPECT_EQ(serial->perf_counters()->shard_regions, 0);
  EXPECT_EQ(serial->perf_counters()->shard_busy_seconds, 0.0);

  SchedulerOptions four;
  four.shards = 4;
  const auto sharded = make_scheduler("tcp", four);
  sharded->allocate(snap.input);
  const SchedPerf* perf = sharded->perf_counters();
  ASSERT_NE(perf, nullptr);
  EXPECT_GT(perf->shard_regions, 0);
  // The critical path is a per-region max of per-task CPU, so the busy
  // total can never be smaller.
  EXPECT_GE(perf->shard_busy_seconds, perf->shard_critical_seconds);
  EXPECT_GE(perf->shard_critical_seconds, 0.0);
}

TEST(ShardSim, ShardedTcpSimulatesLocalTraceLikeSerial) {
  // End-to-end through the simulator: on a fully shard-local trace the
  // sharded path allocates identically, so every completion time matches.
  const Fabric fabric(16, gbps(1.0));
  const Trace trace = grouped_trace(fabric, 4, 37, 12, 4, 1.0);

  const auto serial = make_scheduler("tcp");
  SimOptions options;
  options.record_intervals = false;
  const RunResult base = simulate(fabric, trace, *serial, options);

  const auto sharded = make_scheduler("tcp@4");
  options.validate_allocations = true;
  const RunResult run = simulate(fabric, trace, *sharded, options);

  ASSERT_EQ(run.coflows.size(), base.coflows.size());
  EXPECT_NEAR(run.total_bits_delivered, base.total_bits_delivered,
              1e-3 * base.total_bits_delivered);
  for (std::size_t k = 0; k < base.coflows.size(); ++k) {
    EXPECT_NEAR(run.coflows[k].cct, base.coflows[k].cct,
                1e-6 * base.coflows[k].cct)
        << "coflow " << k;
  }
}

TEST(ShardSim, CrossShardTraceCompletesUnderValidation) {
  const Fabric fabric(16, gbps(1.0));
  const Trace trace = grouped_trace(fabric, 4, 41, 12, 4, 0.5);
  const auto sched = make_scheduler("tcp@4");
  SimOptions options;
  options.record_intervals = false;
  options.validate_allocations = true;  // throws on oversubscription
  const RunResult run = simulate(fabric, trace, *sched, options);
  ASSERT_EQ(run.coflows.size(), trace.coflows.size());
  for (const CoflowRecord& record : run.coflows) {
    EXPECT_GT(record.cct, 0.0);
  }
}

TEST(ShardSim, DrfOnOneMachineFabricMatchesSerial) {
  // Four demand blocks over nine coflows on a one-machine fabric: every
  // coflow must still be refreshed and counted into P*, as serial does.
  const Fabric fabric(1, gbps(1.0));
  TraceBuilder builder(1);
  for (int c = 0; c < 9; ++c) {
    builder.begin_coflow(0.01 * c);
    builder.add_flow(0, 0, megabits(10.0 * (9 - c)));
  }
  const Trace trace = builder.build();
  SimOptions options;
  options.record_intervals = false;
  const auto serial = make_scheduler("drf");
  const RunResult base = simulate(fabric, trace, *serial, options);
  const auto sharded = make_scheduler("drf@4");
  const RunResult run = simulate(fabric, trace, *sharded, options);
  ASSERT_EQ(run.coflows.size(), base.coflows.size());
  for (std::size_t k = 0; k < base.coflows.size(); ++k) {
    EXPECT_EQ(run.coflows[k].cct, base.coflows[k].cct) << "coflow " << k;
  }
}

// ---------------------------------------------------------------------------
// Theorem 1 envelope against a sharded clairvoyant-DRF baseline

Trace theorem_instance(std::uint64_t seed, int machines, int coflows) {
  Rng rng(seed);
  TraceBuilder builder(machines);
  for (int c = 0; c < coflows; ++c) {
    builder.begin_coflow(0.0);
    const int m_k = static_cast<int>(rng.uniform_int(2, machines));
    const int r_k = static_cast<int>(rng.uniform_int(1, m_k - 1));
    const std::vector<int> ups =
        rng.sample_without_replacement(machines, m_k);
    const std::vector<int> downs =
        rng.sample_without_replacement(machines, r_k);
    const double base = rng.uniform(megabits(20.0), megabits(200.0));
    for (const int down : downs) {
      const double size = base * rng.uniform(1.0, 3.0);
      for (const int up : ups) builder.add_flow(up, down, size);
    }
  }
  return builder.build();
}

TEST(ShardTheorem1, EnvelopeHoldsAgainstShardedDrfBaseline) {
  // drf@4 reproduces serial DRF to fp noise (no reconcile approximation),
  // so NC-DRF must stay within the e_max envelope of the *sharded*
  // clairvoyant baseline too — the long-term isolation guarantee survives
  // the parallel allocation path.
  const Fabric fabric(8, gbps(1.0));
  for (const std::uint64_t seed : {1u, 5u}) {
    const Trace trace = theorem_instance(seed, 8, 10);
    double e_max = 1.0;
    for (const Coflow& coflow : trace.coflows) {
      e_max = std::max(e_max, coflow.demand(fabric).disparity());
    }

    NcDrfScheduler ncdrf;
    const auto drf = make_scheduler("drf@4");
    SimOptions options;
    options.record_intervals = false;
    const RunResult run_nc = simulate(fabric, trace, ncdrf, options);
    const RunResult run_drf = simulate(fabric, trace, *drf, options);
    ASSERT_EQ(run_nc.coflows.size(), trace.coflows.size());
    for (std::size_t k = 0; k < trace.coflows.size(); ++k) {
      ASSERT_GT(run_drf.coflows[k].cct, 0.0);
      const double ratio = run_nc.coflows[k].cct / run_drf.coflows[k].cct;
      EXPECT_LE(ratio, e_max * (1.0 + 1e-6))
          << "coflow " << k << " seed " << seed;
    }
  }
}

}  // namespace
}  // namespace ncdrf
