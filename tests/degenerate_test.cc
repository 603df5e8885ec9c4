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
// The same five shapes also run through the serve plane (ServeFront in
// virtual time), where coflows depart after modeled lifetimes that end
// mid-epoch: every allocation must be finite, non-negative and within
// capacity, and every submission must be admitted exactly once.
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
#include "serve/server.h"
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

// The five shapes, each a fabric and a trace on it.
struct Shape {
  Fabric fabric;
  Trace trace;
};

Shape wide_coflow_on_one_pair() {
  TraceBuilder builder(4);
  builder.begin_coflow(0.0);
  for (int f = 0; f < 10000; ++f) builder.add_flow(0, 1, megabits(1.0));
  builder.begin_coflow(0.5);
  builder.add_flow(0, 2, megabits(5.0));
  builder.add_flow(3, 1, megabits(5.0));
  return {Fabric(4, gbps(1.0)), builder.build()};
}

Shape extreme_weights_on_one_link() {
  TraceBuilder builder(2);
  builder.begin_coflow(0.0, /*weight=*/1e12);
  builder.add_flow(0, 1, megabits(100.0));
  builder.add_flow(0, 1, megabits(30.0));
  builder.begin_coflow(0.0, /*weight=*/1e-12);
  builder.add_flow(0, 1, megabits(100.0));
  builder.begin_coflow(0.05);
  builder.add_flow(0, 1, megabits(10.0));
  return {Fabric(2, gbps(1.0)), builder.build()};
}

Shape flows_at_the_completion_epsilon() {
  // SimOptions::completion_epsilon_bits defaults to one bit.
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
  return {Fabric(3, gbps(1.0)), builder.build()};
}

Shape one_machine_fabric() {
  TraceBuilder builder(1);
  builder.begin_coflow(0.0);
  builder.add_flow(0, 0, megabits(500.0));
  builder.begin_coflow(0.0);
  builder.add_flow(0, 0, megabits(200.0));
  builder.add_flow(0, 0, megabits(100.0));
  builder.begin_coflow(0.1, /*weight=*/2.0);
  builder.add_flow(0, 0, megabits(50.0));
  return {Fabric(1, gbps(1.0)), builder.build()};
}

Shape one_hot_link() {
  // Six coflows 10 ms apart, weights 1-6 and 1-6 flows, all leaving
  // machine 0; a 5-flow incast into machine 1 shares that machine's
  // downlink with the hot uplink's traffic.
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
  return {Fabric(6, gbps(1.0)), builder.build()};
}

TEST_P(ClairvoyantDegenerate, WideCoflowOnOnePairNextToTwoFlows) {
  const Shape shape = wide_coflow_on_one_pair();
  expect_finishes(shape.fabric, shape.trace, /*check_min_cct=*/true);
}

TEST_P(ClairvoyantDegenerate, ExtremeWeightsOnOneLink) {
  const Shape shape = extreme_weights_on_one_link();
  expect_finishes(shape.fabric, shape.trace, /*check_min_cct=*/true);
}

TEST_P(ClairvoyantDegenerate, FlowsAtTheCompletionEpsilon) {
  const Shape shape = flows_at_the_completion_epsilon();
  expect_finishes(shape.fabric, shape.trace, /*check_min_cct=*/false);
}

TEST_P(ClairvoyantDegenerate, OneMachineFabric) {
  const Shape shape = one_machine_fabric();
  expect_finishes(shape.fabric, shape.trace, /*check_min_cct=*/true);
}

TEST_P(ClairvoyantDegenerate, OneHotLinkCarriesEverything) {
  const Shape shape = one_hot_link();
  expect_finishes(shape.fabric, shape.trace, /*check_min_cct=*/true);
}

// The serve plane: each coflow is submitted at its trace arrival and
// departs a modeled lifetime after admission; with 1 ms epochs the
// lifetimes (2.5, 5 and 7.5 ms) end mid-epoch, so departures land between
// allocations and several retire together.
class ServeDegenerate : public ::testing::TestWithParam<std::string> {
 protected:
  void expect_serves(const Shape& shape) {
    const auto sched = make_scheduler(GetParam());
    serve::ServeOptions options;
    options.epoch_s = 1e-3;
    options.max_batch_per_epoch = 0;
    serve::ServeFront front(shape.fabric, *sched, 1, options);
    long long allocations = 0;
    front.alloc_hook = [&](double now, const ScheduleInput& view,
                           const Allocation& alloc) {
      ++allocations;
      for (const ActiveCoflow& coflow : view.coflows) {
        for (const ActiveFlow& f : coflow.flows) {
          const double r = alloc.rate(f.id);
          EXPECT_TRUE(std::isfinite(r) && r >= 0.0)
              << "flow " << f.id << " rate " << r << " at t=" << now;
        }
      }
      EXPECT_NO_THROW(check_capacity(view, alloc)) << "at t=" << now;
    };
    std::vector<int> admits(shape.trace.coflows.size(), 0);
    front.admit_hook = [&](const serve::AdmitRecord& r) {
      ++admits[static_cast<std::size_t>(r.coflow)];
    };

    std::vector<serve::Submission> due;
    for (const Coflow& c : shape.trace.coflows) {
      serve::Submission s;
      s.coflow = c.id();
      s.client = 0;
      s.submit_time = c.arrival_time();
      s.weight = c.weight();
      s.sizes_known = sched->clairvoyant();
      s.flows = c.flows();
      s.lifetime_s = 2.5e-3 * static_cast<double>(1 + c.id() % 3);
      due.push_back(std::move(s));
    }
    std::size_t next = 0;
    for (long long epoch = 0; epoch < 100000; ++epoch) {
      const double now = static_cast<double>(epoch) * options.epoch_s;
      for (; next < due.size() && due[next].submit_time <= now; ++next) {
        ASSERT_TRUE(front.queue(0).try_enqueue(due[next]));
      }
      front.step_epoch(now);
      if (HasFatalFailure()) return;
      if (next == due.size() && front.backlog() == 0 &&
          front.master().active_coflows() == 0) {
        break;
      }
    }
    EXPECT_EQ(front.master().active_coflows(), 0);
    EXPECT_GT(allocations, 0);
    for (std::size_t c = 0; c < admits.size(); ++c) {
      EXPECT_EQ(admits[c], 1) << "coflow " << c;
    }
  }
};

TEST_P(ServeDegenerate, WideCoflowOnOnePairNextToTwoFlows) {
  expect_serves(wide_coflow_on_one_pair());
}

TEST_P(ServeDegenerate, ExtremeWeightsOnOneLink) {
  expect_serves(extreme_weights_on_one_link());
}

TEST_P(ServeDegenerate, FlowsAtTheCompletionEpsilon) {
  expect_serves(flows_at_the_completion_epsilon());
}

TEST_P(ServeDegenerate, OneMachineFabric) {
  expect_serves(one_machine_fabric());
}

TEST_P(ServeDegenerate, OneHotLinkCarriesEverything) {
  expect_serves(one_hot_link());
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

std::string variant_name(const ::testing::TestParamInfo<std::string>& info) {
  std::string name = info.param;
  for (char& c : name) {
    if (c == '@' || c == '-') c = '_';
  }
  return name;
}

INSTANTIATE_TEST_SUITE_P(Policies, ClairvoyantDegenerate,
                         ::testing::ValuesIn(policy_variants()), variant_name);
INSTANTIATE_TEST_SUITE_P(Policies, ServeDegenerate,
                         ::testing::ValuesIn(policy_variants()), variant_name);

}  // namespace
}  // namespace ncdrf
