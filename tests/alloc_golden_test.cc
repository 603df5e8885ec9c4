// Golden equivalence suite for the allocation-kernel refactor: every
// registry policy must allocate identically (within 1e-9 of the capacity
// scale) to its frozen pre-refactor implementation (alloc/legacy.h), on
// bare snapshots AND through the event-driven incremental path, across
// hundreds of seeded random instances. The NC-DRF family — which has no
// legacy twin in alloc/ — is cross-checked through the same churn against
// a from-scratch twin that never receives the event hooks.
#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "alloc/legacy.h"
#include "common/rng.h"
#include "common/units.h"
#include "core/ncdrf.h"
#include "core/registry.h"
#include "obs/perf.h"
#include "sched/aalo.h"
#include "sched/baraat.h"
#include "sched/fifo.h"
#include "sched/scheduler.h"

namespace ncdrf {
namespace {

constexpr int kBareSeeds = 200;
constexpr int kEventSeeds = 40;
constexpr int kEventSteps = 25;

const std::vector<std::string>& legacy_names() {
  static const std::vector<std::string> names = {
      "tcp",  "persource", "perpair", "psp",    "psp-live", "drf",
      "hug",  "aalo",      "varys",   "baraat", "fifo"};
  return names;
}

// A mutable random world: snapshot + remaining sizes, supporting the
// arrival / flow-finish / departure deltas the simulator engine delivers.
class GoldenWorld {
 public:
  explicit GoldenWorld(Rng& rng) : rng_(rng), fabric_(make_fabric(rng)) {
    input_.fabric = &fabric_;
    info_ = std::make_unique<ClairvoyantInfo>(&remaining_);
    input_.clairvoyant = info_.get();
    const int coflows = static_cast<int>(rng_.uniform_int(1, 6));
    for (int k = 0; k < coflows; ++k) add_coflow();
  }

  const Fabric& fabric() const { return fabric_; }
  ScheduleInput& input() {
    input_.total_live_flows = live_flows_;
    return input_;
  }

  // Appends a new coflow view; returns it for the arrival hook.
  const ActiveCoflow& add_coflow() {
    ActiveCoflow view;
    view.id = next_coflow_++;
    view.arrival_time = rng_.uniform(0.0, 100.0);
    view.weight = rng_.bernoulli(0.3) ? rng_.uniform(0.5, 2.0) : 1.0;
    view.attained_bits = rng_.uniform(0.0, 5e8);
    const int flows = static_cast<int>(rng_.uniform_int(1, 8));
    for (int f = 0; f < flows; ++f) {
      const auto src = static_cast<MachineId>(
          rng_.uniform_int(0, fabric_.num_machines() - 1));
      const auto dst = static_cast<MachineId>(
          rng_.uniform_int(0, fabric_.num_machines() - 1));
      view.flows.push_back(ActiveFlow{next_flow_, view.id, src, dst});
      remaining_.push_back(rng_.bernoulli(0.1) ? 0.0
                                               : rng_.uniform(1e6, 1e9));
      ++next_flow_;
      ++live_flows_;
    }
    input_.coflows.push_back(std::move(view));
    return input_.coflows.back();
  }

  bool empty() const { return input_.coflows.empty(); }

  // Finishes one random live flow (moving it to finished_flows) and
  // departs its coflow when it was the last one. Mirrors the engine's
  // hook order: finish first, then departure.
  void finish_random_flow(Scheduler* sched) {
    const auto k = static_cast<std::size_t>(rng_.uniform_int(
        0, static_cast<std::int64_t>(input_.coflows.size()) - 1));
    ActiveCoflow& view = input_.coflows[k];
    const auto f = static_cast<std::size_t>(rng_.uniform_int(
        0, static_cast<std::int64_t>(view.flows.size()) - 1));
    const ActiveFlow finished = view.flows[f];
    view.flows[f] = view.flows.back();
    view.flows.pop_back();
    view.finished_flows.push_back(finished);
    view.attained_bits +=
        remaining_[static_cast<std::size_t>(finished.id)];
    remaining_[static_cast<std::size_t>(finished.id)] = 0.0;
    --live_flows_;
    if (sched != nullptr) sched->on_flow_finish(finished);
    if (view.flows.empty()) {
      const CoflowId id = view.id;
      input_.coflows[k] = std::move(input_.coflows.back());
      input_.coflows.pop_back();
      if (sched != nullptr) sched->on_coflow_departure(id);
    }
  }

  // Background churn the hooks do not track: attained service and
  // remaining sizes drift between events.
  void advance_service() {
    for (ActiveCoflow& view : input_.coflows) {
      double moved = 0.0;
      for (const ActiveFlow& f : view.flows) {
        double& rem = remaining_[static_cast<std::size_t>(f.id)];
        const double delta = rem * rng_.uniform(0.0, 0.5);
        rem -= delta;
        moved += delta;
      }
      view.attained_bits += moved;
    }
  }

 private:
  static Fabric make_fabric(Rng& rng) {
    const int m = static_cast<int>(rng.uniform_int(2, 6));
    if (rng.bernoulli(0.5)) return Fabric(m, gbps(1.0));
    std::vector<double> caps;
    for (int i = 0; i < 2 * m; ++i) {
      caps.push_back(rng.uniform(0.2, 2.0) * gbps(1.0));
    }
    return Fabric(std::move(caps));
  }

  Rng& rng_;
  Fabric fabric_;
  ScheduleInput input_;
  std::vector<double> remaining_;
  std::unique_ptr<ClairvoyantInfo> info_;
  CoflowId next_coflow_ = 0;
  FlowId next_flow_ = 0;
  int live_flows_ = 0;
};

void expect_allocations_match(const ScheduleInput& input,
                              const Allocation& got, const Allocation& want,
                              const std::string& context) {
  double scale = 1.0;
  for (LinkId i = 0; i < input.fabric->num_links(); ++i) {
    scale = std::max(scale, input.fabric->capacity(i));
  }
  for (const ActiveCoflow& coflow : input.coflows) {
    for (const ActiveFlow& f : coflow.flows) {
      const double a = got.rate(f.id);
      const double b = want.rate(f.id);
      const double tol =
          1e-9 * std::max({1.0, scale, std::abs(a), std::abs(b)});
      ASSERT_NEAR(a, b, tol) << context << " flow " << f.id;
    }
  }
}

TEST(AllocGoldenTest, BareSnapshotsMatchLegacyForEveryPolicy) {
  for (const std::string& name : legacy_names()) {
    ASSERT_TRUE(legacy_supports(name)) << name;
    for (int seed = 0; seed < kBareSeeds; ++seed) {
      Rng rng(static_cast<std::uint64_t>(seed) * 977u + 13u);
      GoldenWorld world(rng);
      auto sched = make_scheduler(name);
      const Allocation got = sched->allocate(world.input());
      const Allocation want = legacy_allocate(name, world.input());
      expect_allocations_match(world.input(), got, want,
                               name + " seed " + std::to_string(seed));
    }
  }
}

TEST(AllocGoldenTest, EventDrivenMatchesLegacyForEveryPolicy) {
  for (const std::string& name : legacy_names()) {
    for (int seed = 0; seed < kEventSeeds; ++seed) {
      Rng rng(static_cast<std::uint64_t>(seed) * 1543u + 29u);
      GoldenWorld world(rng);
      auto sched = make_scheduler(name);
      Scheduler* hooks = sched->wants_events() ? sched.get() : nullptr;
      if (hooks != nullptr) {
        hooks->on_reset(world.fabric());
        for (const ActiveCoflow& view : world.input().coflows) {
          hooks->on_coflow_arrival(view);
        }
      }
      for (int step = 0; step < kEventSteps && !world.empty(); ++step) {
        const Allocation got = sched->allocate(world.input());
        const Allocation want = legacy_allocate(name, world.input());
        expect_allocations_match(world.input(), got, want,
                                 name + " seed " + std::to_string(seed) +
                                     " step " + std::to_string(step));
        // Mutate: mostly completions, some arrivals, constant churn in
        // attained service / remaining sizes.
        world.advance_service();
        if (rng.bernoulli(0.25)) {
          const ActiveCoflow& arrived = world.add_coflow();
          if (hooks != nullptr) hooks->on_coflow_arrival(arrived);
        }
        if (!world.empty() && rng.bernoulli(0.9)) {
          world.finish_random_flow(hooks);
        }
      }
      if (hooks != nullptr) {
        const SchedPerf* perf = sched->perf_counters();
        ASSERT_NE(perf, nullptr) << name;
        EXPECT_GT(perf->incremental_allocs, 0)
            << name << " seed " << seed
            << ": event-driven path never used incrementally";
        EXPECT_EQ(perf->full_rebuilds, 0)
            << name << " seed " << seed
            << ": event-driven run fell back to snapshot rebuilds";
      }
    }
  }
}

// The persistent priority-queue state (PriorityOrder) must make the
// event-driven path *exactly* the rebuild-every-call path: same order,
// same fill, bitwise-identical rates. 50 seeded churn instances per
// priority policy (200 total) with arrivals, finishes, departures and
// attained-service drift (Aalo queue promotions), cross-checked every
// step; the tracked order is additionally audited against the fresh-sort
// oracle (check_consistent) after each resolve.
TEST(AllocGoldenTest, PriorityQueueChurnMatchesRebuildBitwise) {
  const std::vector<std::string> names = {"aalo", "baraat", "fifo", "varys"};
  constexpr int kChurnSeeds = 50;
  for (const std::string& name : names) {
    for (int seed = 0; seed < kChurnSeeds; ++seed) {
      Rng rng(static_cast<std::uint64_t>(seed) * 3571u + 41u);
      GoldenWorld world(rng);
      auto incremental = make_scheduler(name);
      auto rebuild = make_scheduler(name);  // never sees an event
      Scheduler* hooks =
          incremental->wants_events() ? incremental.get() : nullptr;
      if (hooks != nullptr) {
        hooks->on_reset(world.fabric());
        for (const ActiveCoflow& view : world.input().coflows) {
          hooks->on_coflow_arrival(view);
        }
      }
      auto* aalo = dynamic_cast<AaloScheduler*>(incremental.get());
      auto* baraat = dynamic_cast<BaraatScheduler*>(incremental.get());
      auto* fifo = dynamic_cast<FifoScheduler*>(incremental.get());
      const auto audit_order = [&]() {
        // After allocate()'s resolve the tracked buckets are current, so
        // the maintained order must equal a fresh sort of the snapshot.
        if (aalo != nullptr) {
          aalo->priority_order().check_consistent(
              world.input(), [&](const ActiveCoflow& c) {
                return aalo->queue_of(c.attained_bits);
              });
        }
        const auto zero_bucket = [](const ActiveCoflow&) { return 0; };
        if (baraat != nullptr) {
          baraat->priority_order().check_consistent(world.input(),
                                                    zero_bucket);
        }
        if (fifo != nullptr) {
          fifo->priority_order().check_consistent(world.input(),
                                                  zero_bucket);
        }
      };
      for (int step = 0; step < kEventSteps && !world.empty(); ++step) {
        const Allocation got = incremental->allocate(world.input());
        const Allocation want = rebuild->allocate(world.input());
        ASSERT_NO_THROW(audit_order())
            << name << " seed " << seed << " step " << step;
        for (const ActiveCoflow& coflow : world.input().coflows) {
          for (const ActiveFlow& f : coflow.flows) {
            ASSERT_EQ(got.rate(f.id), want.rate(f.id))
                << name << " seed " << seed << " step " << step << " flow "
                << f.id;
          }
        }
        world.advance_service();
        if (rng.bernoulli(0.3)) {
          const ActiveCoflow& arrived = world.add_coflow();
          if (hooks != nullptr) hooks->on_coflow_arrival(arrived);
        }
        if (!world.empty() && rng.bernoulli(0.9)) {
          world.finish_random_flow(hooks);
        }
      }
      if (hooks != nullptr) {
        const SchedPerf* perf = incremental->perf_counters();
        ASSERT_NE(perf, nullptr) << name;
        EXPECT_EQ(perf->full_rebuilds, 0)
            << name << " seed " << seed
            << ": churn run fell back to snapshot rebuilds";
      }
    }
  }
}

// NC-DRF keeps floating-point sums across events, so its event-driven
// path may drift from a rebuild by a few ulps: each family member is
// driven through the same churn as above with its Debug consistency check
// on, and compared every step, within 1e-9, to a twin that never receives
// on_reset() and so rebuilds from every snapshot.
TEST(AllocGoldenTest, NcDrfFamilyMatchesFromScratchTwin) {
  for (const bool stale : {true, false}) {
    const std::string name = stale ? "ncdrf" : "ncdrf-live";
    for (int seed = 0; seed < kBareSeeds; ++seed) {
      Rng rng(static_cast<std::uint64_t>(seed) * 2221u + 5u);
      GoldenWorld world(rng);
      const NcDrfOptions options{.count_finished_flows = stale,
                                 .verify_incremental = true};
      NcDrfScheduler hooked(options);
      NcDrfScheduler scratch(options);
      hooked.on_reset(world.fabric());
      for (const ActiveCoflow& view : world.input().coflows) {
        hooked.on_coflow_arrival(view);
      }
      for (int step = 0; step < kEventSteps && !world.empty(); ++step) {
        expect_allocations_match(world.input(),
                                 hooked.allocate(world.input()),
                                 scratch.allocate(world.input()),
                                 name + " seed " + std::to_string(seed) +
                                     " step " + std::to_string(step));
        world.advance_service();
        if (rng.bernoulli(0.3)) {
          hooked.on_coflow_arrival(world.add_coflow());
        }
        if (!world.empty() && rng.bernoulli(0.9)) {
          world.finish_random_flow(&hooked);
        }
      }
      EXPECT_EQ(hooked.perf().full_rebuilds, 0)
          << name << " seed " << seed
          << ": churn run fell back to snapshot rebuilds";
      EXPECT_EQ(hooked.perf().consistency_checks,
                hooked.perf().incremental_allocs)
          << name << " seed " << seed;
      EXPECT_EQ(scratch.perf().incremental_allocs, 0) << name;
    }
  }
}

}  // namespace
}  // namespace ncdrf
