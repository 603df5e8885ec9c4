// Unit tests for the allocation-kernel layer (src/alloc/): persistent
// link-load state, the saturation-order water-filling kernel, the memoized
// demand cache, and the KernelScheduler sync machinery. The breadth
// legacy-vs-kernel equivalence lives in alloc_golden_test.cc; this file
// covers the layer's own invariants and the edge cases (zero available
// capacity, empty snapshots, extreme weights).
#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "alloc/demand_cache.h"
#include "alloc/legacy.h"
#include "alloc/link_state.h"
#include "alloc/waterfill.h"
#include "coflow/coflow.h"
#include "common/check.h"
#include "common/rng.h"
#include "common/units.h"
#include "core/registry.h"
#include "obs/perf.h"
#include "sched/psp.h"
#include "test_util.h"

namespace ncdrf {
namespace {

using testing::Snapshot;

// Small random snapshot over its own storage; flow ids dense from 0.
struct RandomInstance {
  Fabric fabric;
  ScheduleInput input;
  std::vector<double> remaining;
  std::unique_ptr<ClairvoyantInfo> info;

  explicit RandomInstance(Rng& rng, bool clairvoyant = false)
      : fabric(make_fabric(rng)) {
    input.fabric = &fabric;
    const int num_coflows = static_cast<int>(rng.uniform_int(1, 6));
    FlowId next_flow = 0;
    for (int k = 0; k < num_coflows; ++k) {
      ActiveCoflow view;
      view.id = k;
      view.arrival_time = rng.uniform(0.0, 10.0);
      view.weight = rng.bernoulli(0.3) ? rng.uniform(0.5, 2.0) : 1.0;
      view.attained_bits = rng.uniform(0.0, 1e9);
      const int flows = static_cast<int>(rng.uniform_int(1, 8));
      for (int f = 0; f < flows; ++f) {
        const auto src = static_cast<MachineId>(
            rng.uniform_int(0, fabric.num_machines() - 1));
        const auto dst = static_cast<MachineId>(
            rng.uniform_int(0, fabric.num_machines() - 1));
        view.flows.push_back(ActiveFlow{next_flow, view.id, src, dst});
        remaining.push_back(rng.bernoulli(0.1) ? 0.0
                                               : rng.uniform(1e6, 1e9));
        ++next_flow;
      }
      input.coflows.push_back(std::move(view));
    }
    if (clairvoyant) {
      info = std::make_unique<ClairvoyantInfo>(&remaining);
      input.clairvoyant = info.get();
    }
  }

  static Fabric make_fabric(Rng& rng) {
    const int m = static_cast<int>(rng.uniform_int(2, 6));
    if (rng.bernoulli(0.5)) return Fabric(m, gbps(1.0));
    std::vector<double> caps;
    for (int i = 0; i < 2 * m; ++i) {
      caps.push_back(rng.uniform(0.2, 2.0) * gbps(1.0));
    }
    return Fabric(std::move(caps));
  }
};

std::vector<WaterfillFlow> snapshot_flows(const ScheduleInput& input,
                                          double weight = 1.0) {
  std::vector<WaterfillFlow> flows;
  for (const ActiveCoflow& coflow : input.coflows) {
    for (const ActiveFlow& f : coflow.flows) {
      flows.push_back({f.id, f.src, f.dst, weight});
    }
  }
  return flows;
}

std::vector<double> full_capacities(const Fabric& fabric) {
  std::vector<double> caps(static_cast<std::size_t>(fabric.num_links()));
  for (LinkId i = 0; i < fabric.num_links(); ++i) {
    caps[static_cast<std::size_t>(i)] = fabric.capacity(i);
  }
  return caps;
}

// --- LinkLoadState --------------------------------------------------------

// Per-link counts of one coflow as dense vectors over every link.
struct DenseCounts {
  std::vector<int> counted;
  std::vector<int> live;
};

// Recomputed from the coflow's flows: counted adds its finished flows
// under stale counting, live never does.
DenseCounts dense_counts(const Fabric& fabric, const ActiveCoflow& coflow,
                         bool stale) {
  const auto links = static_cast<std::size_t>(fabric.num_links());
  DenseCounts dense{std::vector<int>(links, 0), std::vector<int>(links, 0)};
  const auto add = [&](const ActiveFlow& f, int live) {
    for (const LinkId l : {fabric.uplink(f.src), fabric.downlink(f.dst)}) {
      dense.counted[static_cast<std::size_t>(l)] += 1;
      dense.live[static_cast<std::size_t>(l)] += live;
    }
  };
  for (const ActiveFlow& f : coflow.flows) add(f, 1);
  if (stale) {
    for (const ActiveFlow& f : coflow.finished_flows) add(f, 0);
  }
  return dense;
}

// The coflow's rows scattered back over every link; a link has at most
// one row.
DenseCounts scatter_rows(const Fabric& fabric,
                         const LinkLoadState::CoflowLoad& load) {
  const auto links = static_cast<std::size_t>(fabric.num_links());
  DenseCounts dense{std::vector<int>(links, 0), std::vector<int>(links, 0)};
  std::vector<bool> seen(links, false);
  for (const LinkRow& row : load.rows) {
    const auto l = static_cast<std::size_t>(row.link);
    EXPECT_FALSE(seen[l]) << "two rows for link " << row.link;
    seen[l] = true;
    dense.counted[l] = row.counted;
    dense.live[l] = row.live;
  }
  return dense;
}

void expect_rows_match_dense(const LinkLoadState& state,
                             const ScheduleInput& current, bool stale) {
  for (const ActiveCoflow& coflow : current.coflows) {
    const LinkLoadState::CoflowLoad* load = state.find(coflow.id);
    ASSERT_NE(load, nullptr) << "coflow " << coflow.id;
    const DenseCounts want = dense_counts(*current.fabric, coflow, stale);
    const DenseCounts got = scatter_rows(*current.fabric, *load);
    EXPECT_EQ(got.counted, want.counted) << "coflow " << coflow.id;
    EXPECT_EQ(got.live, want.live) << "coflow " << coflow.id;
    EXPECT_EQ(load->bottleneck,
              *std::max_element(want.counted.begin(), want.counted.end()))
        << "coflow " << coflow.id;
  }
}

std::vector<LinkId> row_links(const LinkLoadState::CoflowLoad& load) {
  std::vector<LinkId> links;
  for (const LinkRow& row : load.rows) links.push_back(row.link);
  return links;
}

TEST(LinkLoadStateTest, DeltasMatchRebuildLiveAndStale) {
  for (const bool stale : {false, true}) {
    Rng rng(stale ? 11u : 7u);
    for (int iter = 0; iter < 50; ++iter) {
      RandomInstance inst(rng);
      LinkLoadState state(stale);
      state.reset(inst.fabric);
      ScheduleInput current;
      current.fabric = &inst.fabric;
      // Each coflow's row links at arrival: finishes update rows in place
      // and never add, drop or reorder one.
      std::vector<std::vector<LinkId>> arrival_links;

      for (ActiveCoflow view : inst.input.coflows) {
        arrival_links.push_back(row_links(state.add_coflow(view)));
        current.coflows.push_back(std::move(view));
        state.check_consistent(current);
        expect_rows_match_dense(state, current, stale);
      }
      // Finish flows one by one; depart emptied coflows.
      while (!current.coflows.empty()) {
        const auto k = static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(current.coflows.size()) - 1));
        ActiveCoflow& view = current.coflows[k];
        const auto f = static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(view.flows.size()) - 1));
        const ActiveFlow finished = view.flows[f];
        view.flows[f] = view.flows.back();
        view.flows.pop_back();
        view.finished_flows.push_back(finished);
        EXPECT_EQ(row_links(state.finish_flow(finished)),
                  arrival_links[static_cast<std::size_t>(view.id)]);
        if (view.flows.empty()) {
          state.remove_coflow(view.id);
          current.coflows[k] = std::move(current.coflows.back());
          current.coflows.pop_back();
        }
        state.check_consistent(current);
        expect_rows_match_dense(state, current, stale);
      }
      EXPECT_EQ(state.num_coflows(), 0u);
      const std::vector<int> zeros(
          static_cast<std::size_t>(inst.fabric.num_links()), 0);
      EXPECT_EQ(state.live_link_counts(), zeros);
      EXPECT_EQ(state.counted_coflows_on_link(), zeros);
    }
  }
}

TEST(LinkLoadStateTest, RowsFollowFirstTouchOrder) {
  const Fabric fabric(4, gbps(1.0));
  for (const bool stale : {false, true}) {
    LinkLoadState state(stale);
    state.reset(fabric);
    ActiveCoflow view;
    view.id = 7;
    view.flows = {ActiveFlow{0, 7, 2, 1}, ActiveFlow{1, 7, 2, 3},
                  ActiveFlow{2, 7, 0, 1}};
    view.finished_flows = {ActiveFlow{3, 7, 3, 0}};
    const LinkLoadState::CoflowLoad& load = state.add_coflow(view);
    // Flow order, uplink before downlink; a snapshot's finished flows
    // follow its live ones, and count under stale counting only.
    std::vector<LinkRow> want = {{fabric.uplink(2), 2, 2},
                                 {fabric.downlink(1), 2, 2},
                                 {fabric.downlink(3), 1, 1},
                                 {fabric.uplink(0), 1, 1}};
    if (stale) {
      want.push_back({fabric.uplink(3), 1, 0});
      want.push_back({fabric.downlink(0), 1, 0});
    }
    EXPECT_TRUE(load.rows == want) << "stale=" << stale;
    EXPECT_EQ(load.bottleneck, 2);
    EXPECT_EQ(load.live_flows, 3);
    EXPECT_EQ(load.counted_flows, stale ? 4 : 3);
  }
}

TEST(LinkLoadStateTest, LiveCountingKeepsZeroCountRowsUntilDeparture) {
  const Fabric fabric(3, gbps(1.0));
  LinkLoadState state(/*count_finished_flows=*/false);
  state.reset(fabric);
  ActiveCoflow view;
  view.id = 0;
  view.flows = {ActiveFlow{0, 0, 0, 1}, ActiveFlow{1, 0, 0, 2},
                ActiveFlow{2, 0, 1, 2}};
  const LinkId up0 = fabric.uplink(0);
  const LinkId up1 = fabric.uplink(1);
  const LinkId dn1 = fabric.downlink(1);
  const LinkId dn2 = fabric.downlink(2);
  EXPECT_EQ(state.add_coflow(view).bottleneck, 2);

  // The downlink of machine 1 loses its only flow: its row stays, at zero.
  const LinkLoadState::CoflowLoad& load = state.finish_flow(view.flows[0]);
  EXPECT_TRUE(load.rows == (std::vector<LinkRow>{
                               {up0, 1, 1}, {dn1, 0, 0}, {dn2, 2, 2},
                               {up1, 1, 1}}));
  EXPECT_EQ(load.bottleneck, 2);
  EXPECT_EQ(state.counted_coflows_on_link()[static_cast<std::size_t>(dn1)],
            0);
  EXPECT_EQ(state.live_link_counts()[static_cast<std::size_t>(dn1)], 0);

  // Flow 0→2 takes the uplink of machine 0 to zero and the downlink of
  // machine 2, which sat at n̄_k, to 1; n̄_k falls with it.
  state.finish_flow(view.flows[1]);
  EXPECT_TRUE(load.rows == (std::vector<LinkRow>{
                               {up0, 0, 0}, {dn1, 0, 0}, {dn2, 1, 1},
                               {up1, 1, 1}}));
  EXPECT_EQ(load.bottleneck, 1);

  // A finish on a row with no live flow left is rejected untouched.
  EXPECT_THROW(state.finish_flow(view.flows[0]), CheckError);
  EXPECT_EQ(load.live_flows, 1);

  const LinkLoadState::CoflowLoad removed = state.remove_coflow(0);
  EXPECT_EQ(removed.rows.size(), 4u);
  EXPECT_EQ(state.live_link_counts(), std::vector<int>(6, 0));
  EXPECT_EQ(state.counted_coflows_on_link(), std::vector<int>(6, 0));
}

TEST(LinkLoadStateTest, RejectedArrivalLeavesNoTrace) {
  // An arrival whose endpoint check throws midway must leave no tracked
  // coflow and no stale link -> row entry the next arrival would trust.
  const Fabric fabric(2, gbps(1.0));
  LinkLoadState state(/*count_finished_flows=*/true);
  state.reset(fabric);
  ActiveCoflow bad;
  bad.id = 0;
  bad.flows = {ActiveFlow{0, 0, 0, 1}, ActiveFlow{1, 0, 5, 0}};
  EXPECT_THROW(state.add_coflow(bad), CheckError);
  EXPECT_EQ(state.find(0), nullptr);
  EXPECT_EQ(state.live_link_counts(), std::vector<int>(4, 0));

  ActiveCoflow good;
  good.id = 1;
  good.flows = {ActiveFlow{2, 1, 1, 0}, ActiveFlow{3, 1, 0, 1}};
  const LinkLoadState::CoflowLoad& load = state.add_coflow(good);
  EXPECT_TRUE(load.rows == (std::vector<LinkRow>{{fabric.uplink(1), 1, 1},
                                                 {fabric.downlink(0), 1, 1},
                                                 {fabric.uplink(0), 1, 1},
                                                 {fabric.downlink(1), 1, 1}}));
  ScheduleInput current;
  current.fabric = &fabric;
  current.coflows = {good};
  state.check_consistent(current);
}

TEST(LinkLoadStateTest, MatchesDetectsDivergence) {
  Rng rng(3);
  RandomInstance inst(rng);
  LinkLoadState state(/*count_finished_flows=*/false);
  state.rebuild(inst.input);
  EXPECT_TRUE(state.matches(inst.input));

  ScheduleInput mutated = inst.input;
  mutated.coflows[0].weight += 0.5;
  EXPECT_FALSE(state.matches(mutated));

  mutated = inst.input;
  mutated.coflows.pop_back();
  EXPECT_FALSE(state.matches(mutated));

  mutated = inst.input;
  const ActiveFlow moved = mutated.coflows[0].flows.back();
  mutated.coflows[0].flows.pop_back();
  mutated.coflows[0].finished_flows.push_back(moved);
  EXPECT_FALSE(state.matches(mutated));
}

TEST(LinkLoadStateTest, StaleCountingKeepsFinishedFlowsCounted) {
  Fabric fabric(2, gbps(1.0));
  LinkLoadState state(/*count_finished_flows=*/true);
  state.reset(fabric);
  ActiveCoflow view;
  view.id = 0;
  view.flows = {ActiveFlow{0, 0, 0, 1}, ActiveFlow{1, 0, 1, 0}};
  state.add_coflow(view);
  state.finish_flow(view.flows[0]);
  const LinkLoadState::CoflowLoad* load = state.find(0);
  ASSERT_NE(load, nullptr);
  EXPECT_EQ(load->live_flows, 1);
  EXPECT_EQ(load->counted_flows, 2);
  EXPECT_EQ(load->bottleneck, 1);
  // The finished flow's links keep their counted flow; only live fell.
  EXPECT_TRUE(load->rows == (std::vector<LinkRow>{{fabric.uplink(0), 1, 0},
                                                  {fabric.downlink(1), 1, 0},
                                                  {fabric.uplink(1), 1, 1},
                                                  {fabric.downlink(0), 1, 1}}));
  // The link the finished flow used still counts the coflow as present.
  EXPECT_EQ(state.counted_coflows_on_link()[static_cast<std::size_t>(
                fabric.uplink(0))],
            1);
  EXPECT_EQ(state.live_link_counts()[static_cast<std::size_t>(
                fabric.uplink(0))],
            0);
}

// --- WaterfillKernel ------------------------------------------------------

TEST(WaterfillTest, MatchesLegacyPerFlowFairness) {
  Rng rng(17);
  for (int iter = 0; iter < 100; ++iter) {
    RandomInstance inst(rng);
    WaterfillKernel kernel;
    std::vector<WaterfillFlow> flows = snapshot_flows(inst.input);
    std::vector<double> rates;
    kernel.solve(inst.fabric, flows, full_capacities(inst.fabric), rates);

    const Allocation legacy = legacy_allocate("tcp", inst.input);
    for (std::size_t i = 0; i < flows.size(); ++i) {
      const double tol =
          1e-9 * std::max({1.0, gbps(2.0), rates[i],
                           legacy.rate(flows[i].id)});
      EXPECT_NEAR(rates[i], legacy.rate(flows[i].id), tol)
          << "iter " << iter << " flow " << flows[i].id;
    }
  }
}

TEST(WaterfillTest, ZeroAvailableCapacityYieldsZeroRates) {
  Rng rng(23);
  RandomInstance inst(rng);
  WaterfillKernel kernel;
  std::vector<WaterfillFlow> flows = snapshot_flows(inst.input);
  std::vector<double> avail(
      static_cast<std::size_t>(inst.fabric.num_links()), 0.0);
  std::vector<double> rates;
  kernel.solve(inst.fabric, flows, avail, rates);
  ASSERT_EQ(rates.size(), flows.size());
  for (const double r : rates) EXPECT_EQ(r, 0.0);
}

TEST(WaterfillTest, PartiallyZeroCapacityFreezesOnlyBlockedFlows) {
  // Machine 0's uplink has no spare; flows from machine 1 still run.
  Fabric fabric(2, gbps(1.0));
  std::vector<WaterfillFlow> flows = {
      {0, 0, 1, 1.0},  // blocked: uplink 0 has zero available
      {1, 1, 0, 1.0},
  };
  std::vector<double> avail = full_capacities(fabric);
  avail[static_cast<std::size_t>(fabric.uplink(0))] = 0.0;
  WaterfillKernel kernel;
  std::vector<double> rates;
  kernel.solve(fabric, flows, avail, rates);
  EXPECT_EQ(rates[0], 0.0);
  EXPECT_NEAR(rates[1], gbps(1.0), 1.0);
}

TEST(WaterfillTest, EmptyFlowListIsFine) {
  Fabric fabric(3, gbps(1.0));
  WaterfillKernel kernel;
  std::vector<double> rates;
  kernel.solve(fabric, {}, full_capacities(fabric), rates);
  EXPECT_TRUE(rates.empty());
}

TEST(WaterfillTest, ExtremeWeightsStayFeasibleAndProportional) {
  Fabric fabric(2, gbps(1.0));
  // Two flows sharing uplink 0: weights 1e6 vs 1e-6.
  std::vector<WaterfillFlow> flows = {
      {0, 0, 0, 1e6},
      {1, 0, 1, 1e-6},
  };
  WaterfillKernel kernel;
  std::vector<double> rates;
  kernel.solve(fabric, flows, full_capacities(fabric), rates);
  EXPECT_GT(rates[0], 0.0);
  EXPECT_GE(rates[1], 0.0);
  EXPECT_LE(rates[0] + rates[1], gbps(1.0) * (1.0 + 1e-9));
  // Shared-bottleneck shares split by weight: flow 0 takes ~everything.
  EXPECT_NEAR(rates[0] / (rates[0] + rates[1]), 1.0, 1e-6);
}

TEST(WaterfillTest, NeverOversubscribesAndSaturatesABottleneckPerFlow) {
  Rng rng(29);
  for (int iter = 0; iter < 50; ++iter) {
    RandomInstance inst(rng);
    WaterfillKernel kernel;
    std::vector<WaterfillFlow> flows = snapshot_flows(inst.input);
    for (WaterfillFlow& f : flows) f.weight = rng.uniform(0.1, 10.0);
    const std::vector<double> caps = full_capacities(inst.fabric);
    std::vector<double> rates;
    kernel.solve(inst.fabric, flows, caps, rates);

    std::vector<double> usage(caps.size(), 0.0);
    for (std::size_t i = 0; i < flows.size(); ++i) {
      EXPECT_GE(rates[i], 0.0);
      usage[static_cast<std::size_t>(inst.fabric.uplink(flows[i].src))] +=
          rates[i];
      usage[static_cast<std::size_t>(inst.fabric.downlink(flows[i].dst))] +=
          rates[i];
    }
    for (std::size_t l = 0; l < caps.size(); ++l) {
      EXPECT_LE(usage[l], caps[l] * (1.0 + 1e-9)) << "link " << l;
    }
    // Max-min: every flow is limited by some saturated link it crosses.
    for (std::size_t i = 0; i < flows.size(); ++i) {
      const auto u =
          static_cast<std::size_t>(inst.fabric.uplink(flows[i].src));
      const auto d =
          static_cast<std::size_t>(inst.fabric.downlink(flows[i].dst));
      const bool up_sat = usage[u] >= caps[u] - 1e-6 * caps[u] - 1.0;
      const bool down_sat = usage[d] >= caps[d] - 1e-6 * caps[d] - 1.0;
      EXPECT_TRUE(up_sat || down_sat) << "flow " << i << " unbottlenecked";
    }
  }
}

// --- Pair-class solve ----------------------------------------------------

// A null weight column is solved over (uplink, downlink) pair classes, an
// explicit one flow by flow; with all-1.0 weights both must return the
// same bits for every flow. Returns the unit-weight rates.
std::vector<double> expect_class_solve_matches_per_flow(
    WaterfillKernel& kernel, const Fabric& fabric,
    const std::vector<std::int32_t>& up, const std::vector<std::int32_t>& dn,
    const std::vector<double>& avail, const std::vector<char>* mask,
    const std::string& context) {
  const std::size_t n = up.size();
  const std::vector<double> ones(n, 1.0);
  std::vector<double> unit(n, -1.0);
  std::vector<double> per_flow(n, -1.0);
  kernel.solve(fabric, WaterfillProblem{n, up.data(), dn.data(), nullptr},
               avail, mask, unit.data());
  kernel.solve(fabric, WaterfillProblem{n, up.data(), dn.data(), ones.data()},
               avail, mask, per_flow.data());
  for (std::size_t k = 0; k < n; ++k) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(unit[k]),
              std::bit_cast<std::uint64_t>(per_flow[k]))
        << context << " flow " << k << ": " << unit[k] << " vs "
        << per_flow[k];
  }
  return unit;
}

TEST(WaterfillTest, PairClassSolveMatchesPerFlowSolveBitForBit) {
  Rng rng(53);
  // One kernel throughout: its pair table must come back clean after
  // every solve, across fabric sizes.
  WaterfillKernel kernel;
  for (int iter = 0; iter < 300; ++iter) {
    // Few machines and many flows, so pairs repeat heavily.
    const auto m = static_cast<int>(rng.uniform_int(1, 12));
    const Fabric fabric(m, gbps(1.0));
    const auto n = static_cast<std::size_t>(rng.uniform_int(1, 400));
    std::vector<std::int32_t> up(n);
    std::vector<std::int32_t> dn(n);
    for (std::size_t k = 0; k < n; ++k) {
      up[k] = fabric.uplink(static_cast<MachineId>(rng.uniform_int(0, m - 1)));
      dn[k] =
          fabric.downlink(static_cast<MachineId>(rng.uniform_int(0, m - 1)));
    }
    std::vector<double> avail(static_cast<std::size_t>(fabric.num_links()));
    for (double& a : avail) {
      switch (rng.uniform_int(0, 2)) {
        case 0:
          a = 0.0;
          break;
        case 1:
          a = gbps(1.0);
          break;
        default:
          a = rng.uniform(0.0, gbps(1.0));
      }
    }
    std::vector<char> mask(avail.size());
    for (char& in : mask) in = rng.bernoulli(0.7) ? 1 : 0;
    const std::string context = "iter " + std::to_string(iter);
    expect_class_solve_matches_per_flow(kernel, fabric, up, dn, avail,
                                        nullptr, context);
    expect_class_solve_matches_per_flow(kernel, fabric, up, dn, avail, &mask,
                                        context + " masked");
  }
}

TEST(WaterfillTest, PairClassSolveMatchesPerFlowOnDegenerateShapes) {
  const Fabric fabric(150, gbps(1.0));
  const std::vector<double> caps = full_capacities(fabric);
  WaterfillKernel kernel;
  Rng rng(59);

  // Every flow on one hot uplink: it saturates first, split evenly.
  std::vector<std::int32_t> up(3000, fabric.uplink(7));
  std::vector<std::int32_t> dn(3000);
  for (std::int32_t& d : dn) {
    d = fabric.downlink(static_cast<MachineId>(rng.uniform_int(0, 149)));
  }
  std::vector<double> rates = expect_class_solve_matches_per_flow(
      kernel, fabric, up, dn, caps, nullptr, "hot link");
  for (const double r : rates) EXPECT_DOUBLE_EQ(r, gbps(1.0) / 3000.0);

  // One pair carrying 10^4 flows.
  up.assign(10000, fabric.uplink(3));
  dn.assign(10000, fabric.downlink(4));
  rates = expect_class_solve_matches_per_flow(kernel, fabric, up, dn, caps,
                                              nullptr, "one pair");
  for (const double r : rates) EXPECT_EQ(r, gbps(1.0) / 10000.0);

  // An all-zero-capacity fabric: every flow freezes at 0.
  for (std::size_t k = 0; k < up.size(); ++k) {
    up[k] = fabric.uplink(static_cast<MachineId>(rng.uniform_int(0, 149)));
    dn[k] = fabric.downlink(static_cast<MachineId>(rng.uniform_int(0, 149)));
  }
  const std::vector<double> zero(caps.size(), 0.0);
  rates = expect_class_solve_matches_per_flow(kernel, fabric, up, dn, zero,
                                              nullptr, "zero capacity");
  for (const double r : rates) EXPECT_EQ(r, 0.0);
}

// --- residual_capacity / ResidualBackfill ---------------------------------

TEST(ResidualTest, ResidualCapacityMatchesLinkUsage) {
  Rng rng(31);
  RandomInstance inst(rng);
  Allocation alloc;
  for (const ActiveCoflow& coflow : inst.input.coflows) {
    for (const ActiveFlow& f : coflow.flows) {
      alloc.set_rate(f.id, rng.uniform(0.0, 1e8));
    }
  }
  const std::vector<double> usage = link_usage(inst.input, alloc);
  std::vector<double> residual;
  residual_capacity(inst.input, alloc, residual);
  ASSERT_EQ(residual.size(), usage.size());
  for (LinkId i = 0; i < inst.fabric.num_links(); ++i) {
    const auto idx = static_cast<std::size_t>(i);
    EXPECT_DOUBLE_EQ(residual[idx], inst.fabric.capacity(i) - usage[idx]);
  }
}

TEST(ResidualTest, BackfillOnlyAddsAndStaysFeasible) {
  Rng rng(37);
  for (int iter = 0; iter < 50; ++iter) {
    RandomInstance inst(rng);
    Allocation alloc;
    for (const ActiveCoflow& coflow : inst.input.coflows) {
      for (const ActiveFlow& f : coflow.flows) {
        alloc.set_rate(f.id, rng.uniform(0.0, 5e7));
      }
    }
    Allocation before = alloc;
    ResidualBackfill backfill;
    backfill.run(inst.input, alloc);
    for (const ActiveCoflow& coflow : inst.input.coflows) {
      for (const ActiveFlow& f : coflow.flows) {
        EXPECT_GE(alloc.rate(f.id), before.rate(f.id));
      }
    }
    check_capacity(inst.input, alloc);
  }
}

// --- DemandCache ----------------------------------------------------------

TEST(DemandCacheTest, MatchesComputeDemand) {
  Rng rng(41);
  for (int iter = 0; iter < 50; ++iter) {
    RandomInstance inst(rng, /*clairvoyant=*/true);
    DemandCache cache;
    cache.refresh(inst.input);
    ASSERT_EQ(cache.size(), inst.input.coflows.size());
    for (std::size_t k = 0; k < inst.input.coflows.size(); ++k) {
      const ActiveCoflow& coflow = inst.input.coflows[k];
      std::vector<Flow> flows;
      std::vector<double> sizes;
      for (const ActiveFlow& f : coflow.flows) {
        flows.push_back(Flow{f.id, f.coflow, f.src, f.dst, 0.0});
        sizes.push_back(inst.remaining[static_cast<std::size_t>(f.id)]);
      }
      const DemandVectors expected =
          compute_demand(inst.fabric, flows, sizes);
      // Scatter the rows back to dense vectors: each link at most once,
      // and every link with a live flow has a row.
      const auto num_links = static_cast<std::size_t>(inst.fabric.num_links());
      std::vector<double> demand(num_links, 0.0);
      std::vector<int> flow_count(num_links, 0);
      std::vector<LinkId> row_links;
      for (const DemandRow& row : cache.rows(k)) {
        const auto i = static_cast<std::size_t>(row.link);
        ASSERT_LT(i, num_links);
        EXPECT_EQ(flow_count[i], 0) << "link " << row.link << " twice";
        EXPECT_GT(row.flows, 0);
        demand[i] = row.bits;
        flow_count[i] = row.flows;
        row_links.push_back(row.link);
      }
      EXPECT_EQ(demand, expected.demand);
      EXPECT_EQ(flow_count, expected.flow_count);
      EXPECT_EQ(cache.bottleneck_bits(k), expected.bottleneck_demand);
      EXPECT_EQ(cache.bottleneck_link(k), expected.bottleneck_link);
      // n̄_k and its first arg max, read off the rows.
      const auto n_bar =
          std::max_element(flow_count.begin(), flow_count.end());
      EXPECT_EQ(*n_bar, expected.bottleneck_flow_count);
      EXPECT_EQ(static_cast<LinkId>(n_bar - flow_count.begin()),
                expected.flow_count_bottleneck_link);
      // Rows come in first-touch order: flow order, uplink first.
      std::vector<LinkId> first_touch;
      for (const ActiveFlow& f : coflow.flows) {
        for (const LinkId l :
             {inst.fabric.uplink(f.src), inst.fabric.downlink(f.dst)}) {
          if (std::find(first_touch.begin(), first_touch.end(), l) ==
              first_touch.end()) {
            first_touch.push_back(l);
          }
        }
      }
      EXPECT_EQ(row_links, first_touch);
      EXPECT_EQ(std::vector<double>(cache.remaining(k),
                                    cache.remaining(k) + sizes.size()),
                sizes);
    }
  }
}

TEST(DemandCacheTest, DrfAllocateMatchesLegacyDrf) {
  Rng rng(43);
  for (int iter = 0; iter < 50; ++iter) {
    RandomInstance inst(rng, /*clairvoyant=*/true);
    DemandCache cache;
    cache.refresh(inst.input);
    Allocation alloc;
    drf_allocate(inst.input, cache, alloc);
    const Allocation legacy = legacy_allocate("drf", inst.input);
    for (const ActiveCoflow& coflow : inst.input.coflows) {
      for (const ActiveFlow& f : coflow.flows) {
        EXPECT_EQ(alloc.rate(f.id), legacy.rate(f.id))
            << "iter " << iter << " flow " << f.id;
      }
    }
  }
}

// --- KernelScheduler sync paths -------------------------------------------

TEST(KernelSchedulerTest, BareSnapshotsAlwaysRebuild) {
  Rng rng(47);
  RandomInstance inst(rng);
  PspScheduler sched;
  (void)sched.allocate(inst.input);
  (void)sched.allocate(inst.input);
  const SchedPerf* perf = sched.perf_counters();
  ASSERT_NE(perf, nullptr);
  EXPECT_EQ(perf->allocate_calls, 2);
  EXPECT_EQ(perf->full_rebuilds, 2);
  EXPECT_EQ(perf->incremental_allocs, 0);
}

TEST(KernelSchedulerTest, EventDrivenAllocatesIncrementally) {
  Rng rng(53);
  RandomInstance inst(rng);
  PspScheduler sched;
  ASSERT_TRUE(sched.wants_events());
  sched.on_reset(inst.fabric);
  for (const ActiveCoflow& view : inst.input.coflows) {
    sched.on_coflow_arrival(view);
  }
  const Allocation first = sched.allocate(inst.input);
  // Finish one flow through the hooks and mirror it in the snapshot.
  ActiveCoflow& view = inst.input.coflows[0];
  const ActiveFlow finished = view.flows.back();
  view.flows.pop_back();
  view.finished_flows.push_back(finished);
  sched.on_flow_finish(finished);
  if (view.flows.empty()) {
    sched.on_coflow_departure(view.id);
    inst.input.coflows.erase(inst.input.coflows.begin());
  }
  (void)sched.allocate(inst.input);
  const SchedPerf* perf = sched.perf_counters();
  ASSERT_NE(perf, nullptr);
  EXPECT_EQ(perf->incremental_allocs, 2);
  EXPECT_EQ(perf->full_rebuilds, 0);
  EXPECT_EQ(perf->flow_finish_events, 1);
  EXPECT_GT(perf->links_touched, 0);
  (void)first;
}

// --- Registry-wide edges --------------------------------------------------

TEST(AllocEdgeTest, EmptySnapshotYieldsEmptyAllocationForEveryPolicy) {
  Fabric fabric(3, gbps(1.0));
  std::vector<double> remaining;
  ClairvoyantInfo info(&remaining);
  ScheduleInput input;
  input.fabric = &fabric;
  input.clairvoyant = &info;
  input.total_live_flows = 0;
  for (const std::string& name : scheduler_names()) {
    auto sched = make_scheduler(name);
    const Allocation alloc = sched->allocate(input);
    EXPECT_TRUE(alloc.empty()) << name;
  }
}

TEST(AllocEdgeTest, ExtremeCoflowWeightsStayFeasibleForEveryPolicy) {
  Fabric fabric(2, gbps(1.0));
  std::vector<double> remaining = {1e8, 1e8, 1e8};
  ClairvoyantInfo info(&remaining);
  ScheduleInput input;
  input.fabric = &fabric;
  input.clairvoyant = &info;
  input.coflows.resize(2);
  input.coflows[0].id = 0;
  input.coflows[0].weight = 1e6;
  input.coflows[0].flows = {ActiveFlow{0, 0, 0, 1}, ActiveFlow{1, 0, 1, 0}};
  input.coflows[1].id = 1;
  input.coflows[1].weight = 1e-6;
  input.coflows[1].flows = {ActiveFlow{2, 1, 0, 1}};
  input.total_live_flows = 3;
  for (const std::string& name : scheduler_names()) {
    auto sched = make_scheduler(name);
    const Allocation alloc = sched->allocate(input);
    check_capacity(input, alloc);
  }
}

}  // namespace
}  // namespace ncdrf
