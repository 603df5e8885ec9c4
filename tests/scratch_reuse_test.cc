// Steady-state allocation regression tests for the kernel scratch layer:
// once warmed up, KernelScratch::gather, DemandCache::refresh,
// WaterfillKernel::solve and ResidualBackfill::run must perform zero heap
// allocations per call — including under the engine's swap-pop slot
// shuffling, which used to make DemandCache's per-slot remaining-bits
// vectors reallocate whenever a large coflow landed in a slot that last
// held a small one — and a round of interleaved policy allocate() calls
// must not allocate more than the previous round. A warm
// LinkLoadState::rebuild of the same snapshot allocates nothing, and a
// warm serving front-end makes no allocation per admitted coflow.
//
// The whole binary's global operator new/delete are replaced with
// counting malloc/free wrappers (this test gets its own executable for
// exactly that reason); counters are sampled only around the calls under
// test so gtest's own allocations never pollute a measurement. The
// wrappers pair new->malloc with delete->free symmetrically, so the
// binary stays ASan-clean.
#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "alloc/demand_cache.h"
#include "alloc/kernel_scratch.h"
#include "alloc/link_state.h"
#include "alloc/waterfill.h"
#include "common/rng.h"
#include "common/units.h"
#include "core/ncdrf.h"
#include "core/registry.h"
#include "sched/scheduler.h"
#include "serve/loadgen.h"
#include "serve/server.h"
#include "test_util.h"
#include "trace/trace.h"

namespace {
std::atomic<long long> g_allocations{0};
}  // namespace

// The replacements stay out of line: where the inliner exposes malloc or
// free on one side of a new/delete pair but not the other, GCC's
// -Wmismatched-new-delete reports a mismatch that depends only on how the
// test bodies happen to be inlined.
[[gnu::noinline]] void* operator new(std::size_t size) {
  ++g_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void* operator new[](std::size_t size) {
  return ::operator new(size);
}
[[gnu::noinline]] void* operator new(std::size_t size,
                                     const std::nothrow_t&) noexcept {
  ++g_allocations;
  return std::malloc(size == 0 ? 1 : size);
}
[[gnu::noinline]] void* operator new[](std::size_t size,
                                       const std::nothrow_t& t) noexcept {
  return ::operator new(size, t);
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete(void* p,
                                       const std::nothrow_t&) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p,
                                         const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace ncdrf {
namespace {

using testing::Snapshot;
using testing::snapshot_all_active;

// Allocations performed by `fn`.
template <typename Fn>
long long count_allocations(Fn&& fn) {
  const long long before = g_allocations.load();
  fn();
  return g_allocations.load() - before;
}

Trace random_trace(const Fabric& fabric, std::uint64_t seed,
                   int num_coflows, int max_flows) {
  Rng rng(seed);
  TraceBuilder builder(fabric.num_machines());
  for (int c = 0; c < num_coflows; ++c) {
    builder.begin_coflow(0.0);
    const auto flows = static_cast<int>(rng.uniform_int(1, max_flows));
    for (int f = 0; f < flows; ++f) {
      builder.add_flow(
          static_cast<MachineId>(
              rng.uniform_int(0, fabric.num_machines() - 1)),
          static_cast<MachineId>(
              rng.uniform_int(0, fabric.num_machines() - 1)),
          1e7 * static_cast<double>(rng.uniform_int(1, 40)));
    }
  }
  return builder.build();
}

TEST(ScratchReuse, RepeatedGatherAllocatesNothingOnceWarm) {
  const Fabric fabric(16, gbps(1.0));
  const Trace trace = random_trace(fabric, 3, 24, 8);
  const Snapshot snap = snapshot_all_active(fabric, trace, false);

  KernelScratch scratch;
  scratch.gather(snap.input, nullptr, GatherCounts::kNone);
  // Second call coalesces any first-call block chain to the high-water
  // block; from then on every gather is allocation-free.
  scratch.gather(snap.input, nullptr, GatherCounts::kNone);
  EXPECT_EQ(scratch.arena().num_blocks(), 1u);
  const std::size_t settled = scratch.arena().capacity_bytes();
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(count_allocations([&] {
                scratch.gather(snap.input, nullptr, GatherCounts::kNone);
              }),
              0)
        << "gather " << i;
  }
  EXPECT_EQ(scratch.arena().capacity_bytes(), settled);
}

TEST(ScratchReuse, ArenaSettlesToHighWaterAcrossAlternatingSizes) {
  const Fabric fabric(16, gbps(1.0));
  const Trace small_trace = random_trace(fabric, 5, 4, 3);
  const Trace big_trace = random_trace(fabric, 7, 60, 12);
  const Snapshot small = snapshot_all_active(fabric, small_trace, false);
  const Snapshot big = snapshot_all_active(fabric, big_trace, false);

  KernelScratch scratch;
  // Warm through both shapes twice so the arena reaches the larger
  // snapshot's high-water mark and coalesces.
  for (int i = 0; i < 2; ++i) {
    scratch.gather(small.input, nullptr, GatherCounts::kNone);
    scratch.gather(big.input, nullptr, GatherCounts::kNone);
  }
  for (int i = 0; i < 4; ++i) {
    const Snapshot& snap = (i % 2 == 0) ? small : big;
    EXPECT_EQ(count_allocations([&] {
                scratch.gather(snap.input, nullptr, GatherCounts::kNone);
              }),
              0)
        << "gather " << i;
  }
}

TEST(ScratchReuse, DemandCacheRefreshIsAllocationFreeUnderSlotShuffling) {
  const Fabric fabric(16, gbps(1.0));
  const Trace trace = random_trace(fabric, 11, 16, 10);
  Snapshot snap = snapshot_all_active(fabric, trace, true);

  DemandCache cache;
  // Two full rotations of the coflow slots warm every slot to its
  // high-water touched-list capacity under every coflow it can host.
  const std::size_t n = snap.input.coflows.size();
  for (std::size_t warm = 0; warm < 2 * n; ++warm) {
    cache.refresh(snap.input);
    std::rotate(snap.input.coflows.begin(),
                snap.input.coflows.begin() + 1, snap.input.coflows.end());
  }
  // A third rotation revisits slot/coflow pairings seen during warm-up:
  // the flat remaining-bits buffer and the per-slot vectors must all be
  // reused as-is. (The per-slot remaining vectors this replaced would
  // reallocate here whenever a wide coflow rotated into a narrow slot.)
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(count_allocations([&] { cache.refresh(snap.input); }), 0)
        << "refresh " << i;
    EXPECT_GT(cache.drf_progress(snap.input), 0.0);
    std::rotate(snap.input.coflows.begin(),
                snap.input.coflows.begin() + 1, snap.input.coflows.end());
  }
}

TEST(ScratchReuse, LinkLoadStateWarmRebuildAllocatesAtMostTwoPerCoflow) {
  // A caller that delivers no events (a direct harness, a HooklessScheduler
  // reference run) hands the scheduler a bare snapshot on every
  // allocation, so each one rebuilds LinkLoadState from scratch.
  const Fabric fabric(150, gbps(1.0));
  const Trace trace = random_trace(fabric, 19, 1000, 4);
  const Snapshot snap = snapshot_all_active(fabric, trace, false);
  const auto num_coflows = static_cast<long long>(snap.input.coflows.size());
  for (const bool stale : {true, false}) {
    LinkLoadState state(stale);
    state.rebuild(snap.input);
    state.rebuild(snap.input);
    // The map node and one exact-size row run per coflow; the link -> row
    // scratch, the per-link totals and the map's buckets are reused.
    EXPECT_LE(count_allocations([&] { state.rebuild(snap.input); }),
              2 * num_coflows)
        << "stale=" << stale;
    EXPECT_EQ(state.num_coflows(), snap.input.coflows.size());
  }
}

TEST(ScratchReuse, LinkLoadStateWarmRebuildAllocatesNothing) {
  // The same snapshot again: reset() frees every slot in index order, so
  // each coflow's rows land in the run capacity it left there, and the id
  // map keeps its table.
  const Fabric fabric(150, gbps(1.0));
  const Trace trace = random_trace(fabric, 19, 1000, 4);
  const Snapshot snap = snapshot_all_active(fabric, trace, false);
  for (const bool stale : {true, false}) {
    LinkLoadState state(stale);
    state.rebuild(snap.input);
    EXPECT_EQ(count_allocations([&] { state.rebuild(snap.input); }), 0)
        << "stale=" << stale;
    EXPECT_EQ(state.num_coflows(), snap.input.coflows.size());
  }
}

TEST(ScratchReuse, WarmServeFrontAllocatesNothingPerAdmittedCoflow) {
  // serve-open's shape: 150 machines, four clients, 5 ms epochs, 20 ms
  // mean dwell. The front-end warms up on 0.2 s at 100k coflows/s, then
  // serves 0.3 s at 50k/s (~250 admissions and as many retirements per
  // epoch), and its last 0.2 s is measured. Warm means past every
  // high-water mark: the warm-up's peak, about twice the measured active
  // set, left every pool and each machine's live-flow count above
  // anything the measured epochs need. Submissions are enqueued outside
  // the count.
  constexpr double kEpochS = 0.005;
  constexpr double kWarmS = 0.2;
  serve::LoadGenOptions warm_load;
  warm_load.seed = 29;
  warm_load.num_clients = 4;
  warm_load.num_machines = 150;
  warm_load.arrival_rate_per_s = 100000.0;
  warm_load.duration_s = kWarmS;
  warm_load.mean_lifetime_s = 0.02;
  serve::LoadGenOptions steady_load = warm_load;
  steady_load.seed = 30;
  steady_load.arrival_rate_per_s = 50000.0;
  steady_load.duration_s = 0.3;
  std::vector<std::vector<serve::Submission>> schedule =
      serve::LoadGenerator(warm_load).generate();
  // The steady phase follows the warm one, with fresh coflow and flow ids.
  CoflowId coflow_end = 0;
  FlowId flow_end = 0;
  for (const auto& client : schedule) {
    for (const serve::Submission& s : client) {
      coflow_end = std::max(coflow_end, s.coflow + 1);
      for (const Flow& f : s.flows) flow_end = std::max(flow_end, f.id + 1);
    }
  }
  const std::vector<std::vector<serve::Submission>> steady =
      serve::LoadGenerator(steady_load).generate();
  for (std::size_t c = 0; c < steady.size(); ++c) {
    for (serve::Submission s : steady[c]) {
      s.submit_time += kWarmS;
      s.coflow += coflow_end;
      for (Flow& f : s.flows) {
        f.id += flow_end;
        f.coflow += coflow_end;
      }
      schedule[c].push_back(std::move(s));
    }
  }

  const Fabric fabric(warm_load.num_machines, gbps(1.0));
  NcDrfOptions ncdrf;
  ncdrf.verify_incremental = false;  // Debug's oracle rebuilds per epoch
  NcDrfScheduler sched(ncdrf);
  serve::ServeOptions options;
  options.epoch_s = kEpochS;
  options.max_batch_per_epoch = 0;
  serve::ServeFront front(fabric, sched, warm_load.num_clients, options);
  std::vector<std::size_t> next(schedule.size(), 0);
  const int warm_epochs = 60;  // 0.2 s warm-up and 0.1 s of settling
  const int measured_epochs = 40;
  long long allocations = 0;
  long long admitted = 0;
  for (int epoch = 0; epoch < warm_epochs + measured_epochs; ++epoch) {
    const double now = epoch * kEpochS;
    for (std::size_t c = 0; c < schedule.size(); ++c) {
      while (next[c] < schedule[c].size() &&
             schedule[c][next[c]].submit_time <= now) {
        ASSERT_TRUE(front.queue(static_cast<int>(c))
                        .try_enqueue(schedule[c][next[c]++]));
      }
    }
    if (epoch < warm_epochs) {
      front.step_epoch(now);
      continue;
    }
    const long long before = front.admitted();
    allocations += count_allocations([&] { front.step_epoch(now); });
    admitted += front.admitted() - before;
  }
  EXPECT_GE(admitted, 50 * measured_epochs);
  EXPECT_EQ(sched.perf().full_rebuilds, 0);
  // Every measured epoch reallocates, and the policy's returned
  // Allocation is two blocks (its presence bitmap and rate table). Nothing
  // else allocates, however many coflows the epoch admits.
  EXPECT_LE(allocations, 2 * measured_epochs)
      << allocations << " allocations for " << admitted
      << " admitted coflows";
}

TEST(ScratchReuse, WaterfillSolveAllocatesNothingOnceWarm) {
  const Fabric fabric(16, gbps(1.0));
  // Many pair classes (random endpoints) against few (four hot pairs), so
  // the class columns shrink and regrow between solves.
  const Trace many_trace = random_trace(fabric, 17, 60, 12);
  TraceBuilder builder(fabric.num_machines());
  for (int c = 0; c < 30; ++c) {
    builder.begin_coflow(0.0);
    for (int f = 0; f < 8; ++f) {
      builder.add_flow(f % 2, 2 + (f / 2) % 2, 1e7);
    }
  }
  const Trace few_trace = builder.build();
  const Snapshot many = snapshot_all_active(fabric, many_trace, false);
  const Snapshot few = snapshot_all_active(fabric, few_trace, false);

  // One scratch per snapshot keeps both tables valid throughout.
  KernelScratch many_scratch;
  KernelScratch few_scratch;
  const FlowTable& many_table =
      many_scratch.gather(many.input, nullptr, GatherCounts::kNone);
  const FlowTable& few_table =
      few_scratch.gather(few.input, nullptr, GatherCounts::kNone);
  std::vector<double> capacities;
  for (LinkId i = 0; i < fabric.num_links(); ++i) {
    capacities.push_back(fabric.capacity(i));
  }
  Rng rng(23);
  std::vector<double> many_weights(many_table.num_flows);
  for (double& w : many_weights) w = rng.uniform(0.5, 2.0);
  std::vector<double> few_weights(few_table.num_flows);
  for (double& w : few_weights) w = rng.uniform(0.5, 2.0);
  std::vector<double> rates(
      std::max(many_table.num_flows, few_table.num_flows));

  WaterfillKernel kernel;
  ResidualBackfill backfill;
  const auto solve_all = [&](const FlowTable& table,
                             const std::vector<double>& weights) {
    kernel.solve(fabric,
                 WaterfillProblem{table.num_flows, table.up, table.dn,
                                  /*weight=*/nullptr},
                 capacities, /*link_mask=*/nullptr, rates.data());
    kernel.solve(fabric,
                 WaterfillProblem{table.num_flows, table.up, table.dn,
                                  weights.data()},
                 capacities, /*link_mask=*/nullptr, rates.data());
    // Start each backfill from empty rates so it fills the whole fabric.
    std::fill(table.rate, table.rate + table.num_flows, 0.0);
    backfill.run(fabric, table);
  };
  for (int i = 0; i < 2; ++i) {
    solve_all(many_table, many_weights);
    solve_all(few_table, few_weights);
  }
  for (int i = 0; i < 4; ++i) {
    const bool wide = i % 2 == 0;
    EXPECT_EQ(count_allocations([&] {
                solve_all(wide ? many_table : few_table,
                          wide ? many_weights : few_weights);
              }),
              0)
        << "solve " << i;
    EXPECT_GT(rates[0], 0.0);
  }
}

TEST(ScratchReuse, InterleavedPoliciesSettleToFlatPerCallAllocations) {
  const Fabric fabric(16, gbps(1.0));
  const Trace trace = random_trace(fabric, 13, 24, 8);
  const Snapshot snap = snapshot_all_active(fabric, trace, true);

  // One scheduler per policy family that owns kernel scratch state; the
  // round-robin interleaving ensures no policy's scratch is invalidated
  // by another's calls (each owns its own arena/cache).
  const std::vector<std::string> names = {"fifo", "aalo",  "baraat",
                                          "psp",  "varys", "tcp"};
  std::vector<std::unique_ptr<Scheduler>> scheds;
  for (const std::string& name : names) {
    scheds.push_back(make_scheduler(name));
  }
  const auto round = [&]() {
    for (auto& sched : scheds) {
      Allocation alloc = sched->allocate(snap.input);
      ASSERT_GT(alloc.num_flows(), 0u);
    }
  };
  round();
  round();  // warm-up: arenas coalesce, caches reach high water
  const long long warm = count_allocations(round);
  for (int i = 0; i < 3; ++i) {
    const long long next = count_allocations(round);
    // The returned Allocation still allocates its rate table per call;
    // everything else must be reused, so the per-round count stays flat.
    EXPECT_LE(next, warm) << "round " << i;
  }
}

}  // namespace
}  // namespace ncdrf
