// Tests for the scheduling framework and the baseline policies, anchored
// on the paper's worked example (Figs. 3-4): PS-P's 0.25 Gbps per-flow
// shares and wasted bandwidth, DRF's 1/3 Gbps shares and equal progress.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "coflow/coflow.h"
#include "common/check.h"
#include "common/rng.h"
#include "common/units.h"
#include "sched/aalo.h"
#include "sched/allocation.h"
#include "sched/backfill.h"
#include "sched/drf.h"
#include "sched/hug.h"
#include "sched/maxmin.h"
#include "sched/perflow.h"
#include "sched/psp.h"
#include "sched/varys.h"
#include "test_util.h"

namespace ncdrf {
namespace {

using testing::coflow_link_usage;
using testing::fig3_trace;
using testing::snapshot_all_active;

double progress_of(const Fabric& fabric, const ActiveCoflow& coflow,
                   const std::vector<double>& remaining,
                   const Allocation& alloc) {
  std::vector<Flow> flows;
  std::vector<double> sizes;
  for (const ActiveFlow& f : coflow.flows) {
    flows.push_back(Flow{f.id, f.coflow, f.src, f.dst, 0.0});
    sizes.push_back(remaining[static_cast<std::size_t>(f.id)]);
  }
  return coflow_progress(compute_demand(fabric, flows, sizes),
                         coflow_link_usage(fabric, coflow, alloc));
}

// ---------------------------------------------------------------- helpers

TEST(Allocation, DefaultsToZeroAndValidates) {
  Allocation alloc;
  EXPECT_DOUBLE_EQ(alloc.rate(42), 0.0);
  alloc.set_rate(1, 5.0);
  alloc.add_rate(1, 2.0);
  EXPECT_DOUBLE_EQ(alloc.rate(1), 7.0);
  EXPECT_DOUBLE_EQ(alloc.total_rate(), 7.0);
  EXPECT_THROW(alloc.set_rate(2, -1.0), CheckError);
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_THROW(alloc.set_rate(2, inf), CheckError);
}

TEST(Allocation, UnsetAndExplicitZeroStayDistinct) {
  Allocation alloc;
  EXPECT_FALSE(alloc.has_rate(3));
  EXPECT_FALSE(alloc.has_rate(-1));
  alloc.set_rate(3, 0.0);
  EXPECT_TRUE(alloc.has_rate(3));
  EXPECT_EQ(alloc.rate(3), 0.0);
  EXPECT_FALSE(alloc.has_rate(2));
  EXPECT_FALSE(alloc.has_rate(4));
  EXPECT_FALSE(alloc.has_rate(1 << 20));  // past the table
  alloc.add_rate(5, 0.0);
  EXPECT_TRUE(alloc.has_rate(5));
  EXPECT_EQ(alloc.num_flows(), 2u);
  EXPECT_THROW(alloc.set_rate(-1, 1.0), CheckError);
}

TEST(Allocation, IdsOnBothSidesOfABitmapWord) {
  Allocation alloc;
  for (const FlowId id : {0, 63, 64, 127, 128, 191}) {
    alloc.set_rate(id, 1.0 + id);
  }
  for (const FlowId id : {0, 63, 64, 127, 128, 191}) {
    EXPECT_TRUE(alloc.has_rate(id)) << id;
    EXPECT_EQ(alloc.rate(id), 1.0 + id) << id;
  }
  for (const FlowId id : {1, 62, 65, 126, 129, 190, 192}) {
    EXPECT_FALSE(alloc.has_rate(id)) << id;
    EXPECT_EQ(alloc.rate(id), 0.0) << id;
  }
  EXPECT_EQ(alloc.num_flows(), 6u);
}

TEST(Allocation, GrowthPastReserveKeepsEveryRate) {
  Allocation alloc;
  alloc.reserve(10);
  alloc.set_rate(9, 9.0);
  alloc.set_rate(2, 0.0);
  // Each id forces a reallocation beyond the last one.
  for (const FlowId id : {10, 100, 1000, 5000, 100000}) {
    alloc.set_rate(id, 0.5 * id);
  }
  EXPECT_EQ(alloc.num_flows(), 7u);
  EXPECT_EQ(alloc.rate(9), 9.0);
  EXPECT_TRUE(alloc.has_rate(2));
  EXPECT_EQ(alloc.rate(2), 0.0);
  for (const FlowId id : {10, 100, 1000, 5000, 100000}) {
    EXPECT_EQ(alloc.rate(id), 0.5 * id) << id;
  }
  EXPECT_FALSE(alloc.has_rate(99999));
}

TEST(Allocation, CopyIsDeep) {
  Allocation a;
  a.set_rate(1, 1.0);
  a.set_rate(70, 7.0);
  Allocation b = a;
  b.set_rate(1, 2.0);
  b.set_rate(500, 5.0);
  EXPECT_EQ(a.rate(1), 1.0);
  EXPECT_FALSE(a.has_rate(500));
  EXPECT_EQ(a.num_flows(), 2u);
  EXPECT_EQ(b.rate(1), 2.0);
  EXPECT_EQ(b.rate(70), 7.0);
  EXPECT_EQ(b.num_flows(), 3u);
  Allocation c;
  c.set_rate(3, 3.0);
  c = a;  // copy-assign replaces c's contents
  EXPECT_FALSE(c.has_rate(3));
  EXPECT_EQ(c.rate(70), 7.0);
  a.add_rate(70, 1.0);
  EXPECT_EQ(c.rate(70), 7.0);
  EXPECT_EQ(c.num_flows(), 2u);
}

TEST(Allocation, MovedFromIsEmptyAndReusable) {
  Allocation a;
  a.set_rate(4, 4.0);
  a.set_rate(200, 2.0);
  Allocation b = std::move(a);
  EXPECT_EQ(b.rate(200), 2.0);
  EXPECT_EQ(b.num_flows(), 2u);
  EXPECT_TRUE(a.empty());
  EXPECT_FALSE(a.has_rate(4));
  EXPECT_EQ(a.total_rate(), 0.0);
  a.set_rate(4, 1.5);
  EXPECT_EQ(a.rate(4), 1.5);
  EXPECT_EQ(a.num_flows(), 1u);

  Allocation c;
  c.set_rate(9, 9.0);
  c = std::move(b);
  EXPECT_FALSE(c.has_rate(9));
  EXPECT_EQ(c.rate(4), 4.0);
  EXPECT_TRUE(b.empty());
  b.add_rate(300, 3.0);
  EXPECT_EQ(b.rate(300), 3.0);
  EXPECT_EQ(b.num_flows(), 1u);
}

TEST(Allocation, NumFlowsCountsAnIdOnceUnderMixedWrites) {
  Allocation alloc;
  alloc.add_rate(7, 1.0);
  alloc.set_rate(7, 2.0);
  alloc.add_rate(7, 3.0);
  alloc.set_rate(8, 0.0);
  alloc.add_rate(8, 1.0);
  alloc.set_rate(8, 4.0);
  EXPECT_EQ(alloc.num_flows(), 2u);
  EXPECT_EQ(alloc.rate(7), 5.0);
  EXPECT_EQ(alloc.rate(8), 4.0);
}

TEST(Allocation, TotalRateSumsInFlowIdOrderBitForBit) {
  // Rates spanning many magnitudes make the sum depend on its order; the
  // assignment order is shuffled, the expected sum runs by ascending id.
  Rng rng(77);
  std::vector<FlowId> ids;
  for (FlowId id = 0; id < 400; id += 1 + static_cast<FlowId>(
                                            rng.uniform_int(0, 5))) {
    ids.push_back(id);
  }
  std::vector<double> rate_of(400, 0.0);
  for (const FlowId id : ids) {
    rate_of[static_cast<std::size_t>(id)] =
        rng.uniform(0.0, 1.0) * (id % 7 == 0 ? 1e16 : 1.0);
  }
  std::vector<FlowId> order = ids;
  rng.shuffle(order);
  Allocation alloc;
  double insertion_sum = 0.0;
  for (const FlowId id : order) {
    alloc.set_rate(id, rate_of[static_cast<std::size_t>(id)]);
    insertion_sum += rate_of[static_cast<std::size_t>(id)];
  }
  double expected = 0.0;
  for (const FlowId id : ids) expected += rate_of[static_cast<std::size_t>(id)];
  ASSERT_NE(std::bit_cast<std::uint64_t>(insertion_sum),
            std::bit_cast<std::uint64_t>(expected))
      << "rates too tame to tell the orders apart";
  EXPECT_EQ(std::bit_cast<std::uint64_t>(alloc.total_rate()),
            std::bit_cast<std::uint64_t>(expected));
}

TEST(Allocation, LinkUsageAndCapacityCheck) {
  const Fabric fabric(2, gbps(1.0));
  auto snap = snapshot_all_active(fabric, fig3_trace(), false);
  Allocation alloc;
  for (const ActiveCoflow& c : snap.input.coflows) {
    for (const ActiveFlow& f : c.flows) alloc.set_rate(f.id, gbps(0.25));
  }
  const std::vector<double> usage = link_usage(snap.input, alloc);
  EXPECT_DOUBLE_EQ(usage[0], gbps(0.25));  // uplink 0: one flow
  EXPECT_DOUBLE_EQ(usage[1], gbps(0.75));  // uplink 1: three flows
  EXPECT_DOUBLE_EQ(usage[3], gbps(0.75));  // downlink 1: three flows
  EXPECT_NO_THROW(check_capacity(snap.input, alloc));

  for (const ActiveCoflow& c : snap.input.coflows) {
    for (const ActiveFlow& f : c.flows) alloc.set_rate(f.id, gbps(0.5));
  }
  EXPECT_THROW(check_capacity(snap.input, alloc), CheckError);
  clamp_to_capacity(snap.input, alloc);
  EXPECT_NO_THROW(check_capacity(snap.input, alloc));
}

TEST(MaxMin, SingleFlowTakesTheWholePath) {
  const Fabric fabric(2, gbps(1.0));
  std::vector<MaxMinFlow> flows{{0, 0, 1, 1.0}};
  std::vector<double> cap(4, gbps(1.0));
  const auto rates = weighted_max_min(fabric, flows, cap);
  EXPECT_DOUBLE_EQ(rates[0], gbps(1.0));
}

TEST(MaxMin, EqualSplitOnSharedBottleneck) {
  const Fabric fabric(2, gbps(1.0));
  // Two flows into the same downlink from different uplinks.
  std::vector<MaxMinFlow> flows{{0, 0, 1, 1.0}, {1, 1, 1, 1.0}};
  std::vector<double> cap(4, gbps(1.0));
  const auto rates = weighted_max_min(fabric, flows, cap);
  EXPECT_DOUBLE_EQ(rates[0], gbps(0.5));
  EXPECT_DOUBLE_EQ(rates[1], gbps(0.5));
}

TEST(MaxMin, UnfreezesSecondLevel) {
  const Fabric fabric(3, gbps(1.0));
  // Flows 0,1 share downlink of machine 2; flow 2 rides alone 1→0 but
  // shares uplink 1 with flow 1. Classic two-level max-min: flow 1 is
  // bottlenecked at 0.5 on the downlink, then flow 2 gets the remaining
  // 0.5 of uplink 1... and then grows to its own bottleneck.
  std::vector<MaxMinFlow> flows{{0, 0, 2, 1.0}, {1, 1, 2, 1.0}, {2, 1, 0, 1.0}};
  std::vector<double> cap(6, gbps(1.0));
  const auto rates = weighted_max_min(fabric, flows, cap);
  EXPECT_DOUBLE_EQ(rates[0], gbps(0.5));
  EXPECT_DOUBLE_EQ(rates[1], gbps(0.5));
  EXPECT_DOUBLE_EQ(rates[2], gbps(0.5));
}

TEST(MaxMin, RespectsWeights) {
  const Fabric fabric(2, gbps(1.0));
  std::vector<MaxMinFlow> flows{{0, 0, 1, 3.0}, {1, 1, 1, 1.0}};
  std::vector<double> cap(4, gbps(1.0));
  const auto rates = weighted_max_min(fabric, flows, cap);
  EXPECT_DOUBLE_EQ(rates[0], gbps(0.75));
  EXPECT_DOUBLE_EQ(rates[1], gbps(0.25));
}

TEST(MaxMin, ZeroCapacityLinkStarves) {
  const Fabric fabric(2, gbps(1.0));
  std::vector<MaxMinFlow> flows{{0, 0, 1, 1.0}, {1, 1, 0, 1.0}};
  std::vector<double> cap{gbps(1.0), gbps(1.0), 0.0, gbps(1.0)};
  const auto rates = weighted_max_min(fabric, flows, cap);
  EXPECT_DOUBLE_EQ(rates[1], 0.0);           // downlink 0 has no capacity
  EXPECT_DOUBLE_EQ(rates[0], gbps(1.0));     // unaffected
}

TEST(Backfill, FillsOnlyWhereBothEndsHaveSpare) {
  const Fabric fabric(2, gbps(1.0));
  auto snap = snapshot_all_active(fabric, fig3_trace(), false);
  Allocation alloc;  // start from an empty allocation
  for (const ActiveCoflow& c : snap.input.coflows) {
    for (const ActiveFlow& f : c.flows) alloc.set_rate(f.id, 0.0);
  }
  even_backfill(snap.input, alloc, 1);
  // Every link's unused capacity is split evenly over its flows; each flow
  // takes the min of its two shares. Links 1 and 3 carry 3 flows each →
  // share 1/3; links 0 and 2 carry 1 flow → share 1.
  EXPECT_DOUBLE_EQ(alloc.rate(0), gbps(1.0 / 3));  // A: 0→1
  EXPECT_DOUBLE_EQ(alloc.rate(1), gbps(1.0 / 3));  // A: 1→1
  EXPECT_DOUBLE_EQ(alloc.rate(2), gbps(1.0 / 3));  // B: 1→0
  EXPECT_DOUBLE_EQ(alloc.rate(3), gbps(1.0 / 3));  // B: 1→1
  EXPECT_NO_THROW(check_capacity(snap.input, alloc));
}

TEST(Backfill, NeverOversubscribesAcrossRounds) {
  const Fabric fabric(4, gbps(1.0));
  TraceBuilder builder(4);
  builder.begin_coflow(0.0);
  for (int s = 0; s < 4; ++s) {
    for (int d = 0; d < 4; ++d) builder.add_flow(s, d, 1e8);
  }
  builder.begin_coflow(0.0);
  builder.add_flow(0, 3, 1e8);
  const Trace trace = builder.build();
  auto snap = snapshot_all_active(fabric, trace, false);
  Allocation alloc;
  even_backfill(snap.input, alloc, 5);
  EXPECT_NO_THROW(check_capacity(snap.input, alloc));
}

// ---------------------------------------------------------------- PS-P

TEST(Psp, Fig4aSharesWithoutBackfill) {
  const Fabric fabric(2, gbps(1.0));
  auto snap = snapshot_all_active(fabric, fig3_trace(), false);
  PspScheduler psp(PspOptions{.work_conserving = false});
  const Allocation alloc = psp.allocate(snap.input);
  // The paper's Fig. 4a: every flow ends up at 0.25 Gbps, wasting
  // 0.25 Gbps of each coflow's allocation on the contended links.
  for (FlowId f = 0; f < 4; ++f) {
    EXPECT_DOUBLE_EQ(alloc.rate(f), gbps(0.25)) << "flow " << f;
  }
  // The waste: links 1 and 3 are only half-used despite full allocation.
  const auto usage = link_usage(snap.input, alloc);
  EXPECT_DOUBLE_EQ(usage[1], gbps(0.75));
  EXPECT_DOUBLE_EQ(usage[3], gbps(0.75));
}

TEST(Psp, WorkConservingStaysFeasible) {
  const Fabric fabric(2, gbps(1.0));
  auto snap = snapshot_all_active(fabric, fig3_trace(), false);
  PspScheduler psp;
  const Allocation alloc = psp.allocate(snap.input);
  EXPECT_NO_THROW(check_capacity(snap.input, alloc));
  EXPECT_GT(alloc.total_rate(), 4 * gbps(0.25) - 1.0);  // backfill helped
}

TEST(Psp, SingleCoflowGetsFullLinks) {
  const Fabric fabric(2, gbps(1.0));
  TraceBuilder builder(2);
  builder.begin_coflow(0.0);
  builder.add_flow(0, 1, 1e8);
  const Trace trace = builder.build();
  auto snap = snapshot_all_active(fabric, trace, false);
  PspScheduler psp(PspOptions{.work_conserving = false});
  const Allocation alloc = psp.allocate(snap.input);
  EXPECT_DOUBLE_EQ(alloc.rate(0), gbps(1.0));
}

// ---------------------------------------------------------------- DRF

TEST(Drf, Fig4bAllocation) {
  const Fabric fabric(2, gbps(1.0));
  auto snap = snapshot_all_active(fabric, fig3_trace(), true);
  EXPECT_NEAR(DrfScheduler::optimal_progress(snap.input), gbps(2.0 / 3),
              1.0);
  DrfScheduler drf;
  const Allocation alloc = drf.allocate(snap.input);
  // Fig. 4b: all four flows at 1/3 Gbps; links 1 and 3 fully used.
  for (FlowId f = 0; f < 4; ++f) {
    EXPECT_NEAR(alloc.rate(f), gbps(1.0 / 3), 1.0) << "flow " << f;
  }
  const auto usage = link_usage(snap.input, alloc);
  EXPECT_NEAR(usage[1], gbps(1.0), 1.0);
  EXPECT_NEAR(usage[3], gbps(1.0), 1.0);
}

TEST(Drf, EqualizesProgressAcrossHeterogeneousCoflows) {
  const Fabric fabric(3, gbps(1.0));
  TraceBuilder builder(3);
  builder.begin_coflow(0.0);
  builder.add_flow(0, 1, 4e8);
  builder.add_flow(0, 2, 1e8);  // skewed coflow
  builder.begin_coflow(0.0);
  builder.add_flow(1, 2, 3e8);
  builder.add_flow(2, 1, 3e8);
  const Trace trace = builder.build();
  auto snap = snapshot_all_active(fabric, trace, true);
  DrfScheduler drf;
  const Allocation alloc = drf.allocate(snap.input);
  const double p0 = progress_of(fabric, snap.input.coflows[0],
                                *snap.remaining, alloc);
  const double p1 = progress_of(fabric, snap.input.coflows[1],
                                *snap.remaining, alloc);
  EXPECT_NEAR(p0, p1, 1.0);
  EXPECT_NO_THROW(check_capacity(snap.input, alloc));
}

TEST(Drf, RequiresClairvoyance) {
  const Fabric fabric(2, gbps(1.0));
  auto snap = snapshot_all_active(fabric, fig3_trace(), false);
  DrfScheduler drf;
  EXPECT_THROW(drf.allocate(snap.input), CheckError);
}

// ---------------------------------------------------------------- HUG

TEST(Hug, MatchesDrfWhenNoSpareHelps) {
  const Fabric fabric(2, gbps(1.0));
  auto snap = snapshot_all_active(fabric, fig3_trace(), true);
  HugScheduler hug;
  const Allocation alloc = hug.allocate(snap.input);
  for (FlowId f = 0; f < 4; ++f) {
    EXPECT_NEAR(alloc.rate(f), gbps(1.0 / 3), 1.0);
  }
}

TEST(Hug, NeverBelowDrfAndCapped) {
  const Fabric fabric(3, gbps(1.0));
  TraceBuilder builder(3);
  builder.begin_coflow(0.0);
  builder.add_flow(0, 1, 2e8);
  builder.add_flow(0, 2, 2e8);
  builder.begin_coflow(0.0);
  builder.add_flow(1, 2, 4e8);
  const Trace trace = builder.build();
  auto snap = snapshot_all_active(fabric, trace, true);
  DrfScheduler drf;
  HugScheduler hug;
  const Allocation base = drf.allocate(snap.input);
  const Allocation boosted = hug.allocate(snap.input);
  for (const ActiveCoflow& c : snap.input.coflows) {
    for (const ActiveFlow& f : c.flows) {
      EXPECT_GE(boosted.rate(f.id), base.rate(f.id) - 1.0);
    }
  }
  EXPECT_GE(boosted.total_rate(), base.total_rate());
  EXPECT_NO_THROW(check_capacity(snap.input, boosted));
}

// ---------------------------------------------------------------- TCP

TEST(PerFlow, Fig3AllFlowsEqualAtContendedLinks) {
  const Fabric fabric(2, gbps(1.0));
  auto snap = snapshot_all_active(fabric, fig3_trace(), false);
  PerFlowScheduler tcp;
  const Allocation alloc = tcp.allocate(snap.input);
  for (FlowId f = 0; f < 4; ++f) {
    EXPECT_NEAR(alloc.rate(f), gbps(1.0 / 3), 1.0);
  }
}

TEST(PerFlow, MoreFlowsGrabMoreBandwidth) {
  // The paper's criticism of TCP: a coflow with more flows takes an
  // arbitrarily larger share. Coflow 0 runs 3 flows over the same pair,
  // coflow 1 runs 1 — coflow 0 ends up with 3× the bandwidth.
  const Fabric fabric(2, gbps(1.0));
  TraceBuilder builder(2);
  builder.begin_coflow(0.0);
  for (int i = 0; i < 3; ++i) builder.add_flow(0, 1, 1e8);
  builder.begin_coflow(0.0);
  builder.add_flow(0, 1, 1e8);
  const Trace trace = builder.build();
  auto snap = snapshot_all_active(fabric, trace, false);
  PerFlowScheduler tcp;
  const Allocation alloc = tcp.allocate(snap.input);
  const auto usage0 =
      coflow_link_usage(fabric, snap.input.coflows[0], alloc);
  const auto usage1 =
      coflow_link_usage(fabric, snap.input.coflows[1], alloc);
  EXPECT_NEAR(usage0[0] / usage1[0], 3.0, 1e-6);
}

TEST(PerFlow, IsWorkConservingOnSaturableTopologies) {
  const Fabric fabric(2, gbps(1.0));
  auto snap = snapshot_all_active(fabric, fig3_trace(), false);
  PerFlowScheduler tcp;
  const Allocation alloc = tcp.allocate(snap.input);
  const auto usage = link_usage(snap.input, alloc);
  // Both contended links saturated.
  EXPECT_NEAR(usage[1], gbps(1.0), 1.0);
  EXPECT_NEAR(usage[3], gbps(1.0), 1.0);
}

// ---------------------------------------------------------------- Aalo

TEST(Aalo, QueuePlacementFollowsAttainedService) {
  AaloScheduler aalo;  // Q0 = 10 MB, E = 10, K = 10
  EXPECT_EQ(aalo.queue_of(0.0), 0);
  EXPECT_EQ(aalo.queue_of(megabytes(9.9)), 0);
  EXPECT_EQ(aalo.queue_of(megabytes(10.0)), 1);
  EXPECT_EQ(aalo.queue_of(megabytes(99.0)), 1);
  EXPECT_EQ(aalo.queue_of(megabytes(100.0)), 2);
  EXPECT_EQ(aalo.queue_of(megabytes(1e10)), 9);  // last queue is unbounded
  EXPECT_DOUBLE_EQ(aalo.queue_upper_bound(0), megabytes(10.0));
  EXPECT_DOUBLE_EQ(aalo.queue_upper_bound(1), megabytes(100.0));
  EXPECT_TRUE(std::isinf(aalo.queue_upper_bound(9)));
}

TEST(Aalo, HigherPriorityCoflowDominatesSharedLinks) {
  const Fabric fabric(2, gbps(1.0));
  auto snap = snapshot_all_active(fabric, fig3_trace(), false);
  // Push coflow 0 (A) into a lower-priority queue.
  snap.input.coflows[0].attained_bits = megabytes(50.0);
  AaloScheduler aalo(AaloOptions{.work_conserving = false});
  const Allocation alloc = aalo.allocate(snap.input);
  const auto usage_a =
      coflow_link_usage(fabric, snap.input.coflows[0], alloc);
  const auto usage_b =
      coflow_link_usage(fabric, snap.input.coflows[1], alloc);
  // B (queue 0) takes its links first; A only gets leftovers.
  EXPECT_GT(usage_b[1], usage_a[1]);
  EXPECT_NO_THROW(check_capacity(snap.input, alloc));
}

TEST(Aalo, FifoWithinQueue) {
  const Fabric fabric(2, gbps(1.0));
  TraceBuilder builder(2);
  builder.begin_coflow(0.0);
  builder.add_flow(0, 1, 1e8);
  builder.begin_coflow(5.0);
  builder.add_flow(0, 1, 1e8);
  const Trace trace = builder.build();
  auto snap = snapshot_all_active(fabric, trace, false);
  AaloScheduler aalo(AaloOptions{.work_conserving = false});
  const Allocation alloc = aalo.allocate(snap.input);
  // Same queue (attained 0), earlier arrival wins the shared path.
  EXPECT_DOUBLE_EQ(alloc.rate(0), gbps(1.0));
  EXPECT_DOUBLE_EQ(alloc.rate(1), 0.0);
}

TEST(Aalo, NextInternalEventPredictsQueueCrossing) {
  const Fabric fabric(2, gbps(1.0));
  TraceBuilder builder(2);
  builder.begin_coflow(0.0);
  builder.add_flow(0, 1, megabytes(100.0));
  const Trace trace = builder.build();
  auto snap = snapshot_all_active(fabric, trace, false);
  AaloScheduler aalo;
  const Allocation alloc = aalo.allocate(snap.input);
  // Rate 1 Gbps; 10 MB to the first boundary → 0.08 s.
  const auto next = aalo.next_internal_event(snap.input, alloc);
  ASSERT_TRUE(next.has_value());
  EXPECT_NEAR(*next, megabytes(10.0) / gbps(1.0), 1e-9);

  // In the last queue there is no further boundary.
  snap.input.coflows[0].attained_bits = megabytes(1e9);
  const Allocation alloc2 = aalo.allocate(snap.input);
  EXPECT_FALSE(aalo.next_internal_event(snap.input, alloc2).has_value());
}

TEST(Aalo, WorkConservingBackfillUsesLeftovers) {
  const Fabric fabric(2, gbps(1.0));
  auto snap = snapshot_all_active(fabric, fig3_trace(), false);
  snap.input.coflows[0].attained_bits = megabytes(50.0);
  AaloScheduler strict(AaloOptions{.work_conserving = false});
  AaloScheduler conserving;
  const double strict_total = strict.allocate(snap.input).total_rate();
  const double conserving_total =
      conserving.allocate(snap.input).total_rate();
  EXPECT_GE(conserving_total, strict_total);
}

// ---------------------------------------------------------------- Varys

TEST(Varys, SmallestBottleneckGoesFirst) {
  const Fabric fabric(2, gbps(1.0));
  TraceBuilder builder(2);
  builder.begin_coflow(0.0);
  builder.add_flow(0, 1, 8e8);  // Γ = 0.8 s
  builder.begin_coflow(0.0);
  builder.add_flow(0, 1, 1e8);  // Γ = 0.1 s → scheduled first
  const Trace trace = builder.build();
  auto snap = snapshot_all_active(fabric, trace, true);
  VarysScheduler varys(VarysOptions{.work_conserving = false});
  const Allocation alloc = varys.allocate(snap.input);
  EXPECT_DOUBLE_EQ(alloc.rate(1), gbps(1.0));
  EXPECT_DOUBLE_EQ(alloc.rate(0), 0.0);
}

TEST(Varys, MaddFinishesFlowsTogether) {
  const Fabric fabric(3, gbps(1.0));
  TraceBuilder builder(3);
  builder.begin_coflow(0.0);
  builder.add_flow(0, 1, 4e8);
  builder.add_flow(0, 2, 2e8);
  const Trace trace = builder.build();
  auto snap = snapshot_all_active(fabric, trace, true);
  VarysScheduler varys(VarysOptions{.work_conserving = false});
  const Allocation alloc = varys.allocate(snap.input);
  // Bottleneck is uplink 0 (6e8 bits): Γ = 0.6 s; rates = size / Γ.
  EXPECT_NEAR(alloc.rate(0), 4e8 / 0.6, 1.0);
  EXPECT_NEAR(alloc.rate(1), 2e8 / 0.6, 1.0);
  // Completion times equal: 4e8 / r0 == 2e8 / r1.
  EXPECT_NEAR(4e8 / alloc.rate(0), 2e8 / alloc.rate(1), 1e-9);
}

TEST(Varys, RequiresClairvoyance) {
  const Fabric fabric(2, gbps(1.0));
  auto snap = snapshot_all_active(fabric, fig3_trace(), false);
  VarysScheduler varys;
  EXPECT_THROW(varys.allocate(snap.input), CheckError);
}

// -------------------------------------------------- cross-policy checks

TEST(AllPolicies, CapacityFeasibleOnFig3) {
  const Fabric fabric(2, gbps(1.0));
  PspScheduler psp;
  PerFlowScheduler tcp;
  AaloScheduler aalo;
  DrfScheduler drf;
  HugScheduler hug;
  VarysScheduler varys;
  for (Scheduler* sched : std::initializer_list<Scheduler*>{
           &psp, &tcp, &aalo, &drf, &hug, &varys}) {
    auto snap =
        snapshot_all_active(fabric, fig3_trace(), sched->clairvoyant());
    const Allocation alloc = sched->allocate(snap.input);
    EXPECT_NO_THROW(check_capacity(snap.input, alloc))
        << sched->name();
  }
}

TEST(LinkFlowCounts, CountsBothEndpoints) {
  const Fabric fabric(2, gbps(1.0));
  auto snap = snapshot_all_active(fabric, fig3_trace(), false);
  const std::vector<int> counts = link_flow_counts(snap.input);
  EXPECT_EQ(counts[0], 1);
  EXPECT_EQ(counts[1], 3);
  EXPECT_EQ(counts[2], 1);
  EXPECT_EQ(counts[3], 3);
  EXPECT_EQ(count_active_flows(snap.input), 4);
}

}  // namespace
}  // namespace ncdrf
