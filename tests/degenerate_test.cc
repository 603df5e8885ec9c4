// Degenerate instances for every registry policy — each name in
// scheduler_names(), serial and each sharded variant ("@2", "@4") the
// registry accepts, which today means drf and tcp only — through the
// simulator with every allocation validated against link capacities. The
// contract: every coflow finishes with a finite CCT, and no coflow
// finishes faster than its min_cct (its bottleneck alone in the fabric).
// Shapes:
//   * a 10^4-flow coflow on one (uplink, downlink) pair next to a 2-flow
//     coflow;
//   * coflow weights 1e12 and 1e-12 on one link;
//   * flows at the 1-bit completion epsilon;
//   * a one-machine fabric;
//   * one hot uplink that every flow of six weighted coflows leaves by,
//     next to an incast.
//
// The epsilon shape checks finiteness only: the engine retires a flow of
// exactly completion_epsilon_bits unsent, while min_cct counts that bit, so
// a coflow can finish a hair under its min_cct.
//
// The suite keeps the name it had when it covered the clairvoyant family
// alone, so the ids of those cases stay put.
#include <cmath>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/check.h"
#include "common/units.h"
#include "core/registry.h"
#include "sim/sim.h"
#include "trace/trace.h"

namespace ncdrf {
namespace {

class ClairvoyantDegenerate : public ::testing::TestWithParam<std::string> {
 protected:
  void expect_finishes(const Fabric& fabric, const Trace& trace,
                       bool check_min_cct) {
    const auto sched = make_scheduler(GetParam());
    SimOptions options;
    options.validate_allocations = true;
    options.record_intervals = false;
    const RunResult run = simulate(fabric, trace, *sched, options);
    ASSERT_EQ(run.coflows.size(), trace.coflows.size());
    for (const CoflowRecord& rec : run.coflows) {
      EXPECT_TRUE(std::isfinite(rec.cct)) << "coflow " << rec.id;
      if (check_min_cct) {
        EXPECT_GE(rec.cct, rec.min_cct) << "coflow " << rec.id;
      }
    }
  }
};

TEST_P(ClairvoyantDegenerate, WideCoflowOnOnePairNextToTwoFlows) {
  const Fabric fabric(4, gbps(1.0));
  TraceBuilder builder(4);
  builder.begin_coflow(0.0);
  for (int f = 0; f < 10000; ++f) builder.add_flow(0, 1, megabits(1.0));
  builder.begin_coflow(0.5);
  builder.add_flow(0, 2, megabits(5.0));
  builder.add_flow(3, 1, megabits(5.0));
  expect_finishes(fabric, builder.build(), /*check_min_cct=*/true);
}

TEST_P(ClairvoyantDegenerate, ExtremeWeightsOnOneLink) {
  const Fabric fabric(2, gbps(1.0));
  TraceBuilder builder(2);
  builder.begin_coflow(0.0, /*weight=*/1e12);
  builder.add_flow(0, 1, megabits(100.0));
  builder.add_flow(0, 1, megabits(30.0));
  builder.begin_coflow(0.0, /*weight=*/1e-12);
  builder.add_flow(0, 1, megabits(100.0));
  builder.begin_coflow(0.05);
  builder.add_flow(0, 1, megabits(10.0));
  expect_finishes(fabric, builder.build(), /*check_min_cct=*/true);
}

TEST_P(ClairvoyantDegenerate, FlowsAtTheCompletionEpsilon) {
  // SimOptions::completion_epsilon_bits defaults to one bit.
  const Fabric fabric(3, gbps(1.0));
  TraceBuilder builder(3);
  builder.begin_coflow(0.0);
  builder.add_flow(0, 1, 1.0);
  builder.add_flow(0, 2, megabits(1.0));
  builder.begin_coflow(0.0);
  builder.add_flow(1, 2, 1.0);
  builder.begin_coflow(0.0);
  builder.add_flow(2, 1, 2.0);
  builder.add_flow(2, 0, 1.0 + 1e-9);
  builder.add_flow(1, 1, 1.0);
  builder.begin_coflow(1e-4);
  builder.add_flow(0, 1, 1.5);
  builder.add_flow(1, 0, megabits(0.5));
  expect_finishes(fabric, builder.build(), /*check_min_cct=*/false);
}

TEST_P(ClairvoyantDegenerate, OneMachineFabric) {
  const Fabric fabric(1, gbps(1.0));
  TraceBuilder builder(1);
  builder.begin_coflow(0.0);
  builder.add_flow(0, 0, megabits(500.0));
  builder.begin_coflow(0.0);
  builder.add_flow(0, 0, megabits(200.0));
  builder.add_flow(0, 0, megabits(100.0));
  builder.begin_coflow(0.1, /*weight=*/2.0);
  builder.add_flow(0, 0, megabits(50.0));
  expect_finishes(fabric, builder.build(), /*check_min_cct=*/true);
}

TEST_P(ClairvoyantDegenerate, OneHotLinkCarriesEverything) {
  // Six coflows 10 ms apart, weights 1-6 and 1-6 flows, all leaving
  // machine 0; a 5-flow incast into machine 1 shares that machine's
  // downlink with the hot uplink's traffic.
  const Fabric fabric(6, gbps(1.0));
  TraceBuilder builder(6);
  for (int c = 0; c < 6; ++c) {
    builder.begin_coflow(0.01 * c, /*weight=*/c + 1.0);
    for (int f = 0; f <= c; ++f) {
      builder.add_flow(0, 1 + f % 5, megabits(10.0 * (f + 1)));
    }
  }
  builder.begin_coflow(0.015);
  for (const MachineId src : {0, 2, 3, 4, 5}) {
    builder.add_flow(src, 1, megabits(20.0));
  }
  expect_finishes(fabric, builder.build(), /*check_min_cct=*/true);
}

// Every registry name, each followed by the sharded variants the
// registry accepts for it (only drf and tcp have a sharded path).
std::vector<std::string> policy_variants() {
  std::vector<std::string> variants;
  for (const std::string& name : scheduler_names()) {
    variants.push_back(name);
    for (const char* shards : {"@2", "@4"}) {
      try {
        make_scheduler(name + shards);
        variants.push_back(name + shards);
      } catch (const CheckError&) {
      }
    }
  }
  return variants;
}

INSTANTIATE_TEST_SUITE_P(
    Policies, ClairvoyantDegenerate, ::testing::ValuesIn(policy_variants()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      std::string name = info.param;
      for (char& c : name) {
        if (c == '@' || c == '-') c = '_';
      }
      return name;
    });

}  // namespace
}  // namespace ncdrf
