// Golden RunResult digests: every registry policy replays one fixed
// Rng-built trace, and a 64-bit digest of every RunResult field's bit
// pattern must match the value pinned below. determinism_test compares two
// runs of one build; this test compares a run against the recorded output
// of earlier builds, so an engine or Allocation rewrite that moves a
// single event time, rate sum or CCT by one ulp fails here.
//
// The trace draws only from Rng::uniform / uniform_int (no libm), so the
// inputs, and with them the digests, are the same under every compiler
// and build type. When a change is *meant* to alter results, the failure
// message prints each policy's new digest for re-pinning.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/units.h"
#include "core/registry.h"
#include "sim/engine.h"
#include "sim/sim.h"
#include "test_util.h"

namespace ncdrf {
namespace {

// 48 coflows of 1-12 flows on 8 machines, arrivals over 3 s: a few
// hundred flow ids (several presence-bitmap words), overlapping coflows,
// mixed weights and tenants.
Trace golden_trace() {
  constexpr int kMachines = 8;
  Rng rng(20180702);
  TraceBuilder builder(kMachines);
  for (int c = 0; c < 48; ++c) {
    builder.begin_coflow(rng.uniform(0.0, 3.0), rng.uniform(0.5, 2.0),
                         static_cast<int>(rng.uniform_int(0, 3)));
    const auto flows = rng.uniform_int(1, 12);
    for (std::int64_t f = 0; f < flows; ++f) {
      builder.add_flow(
          static_cast<MachineId>(rng.uniform_int(0, kMachines - 1)),
          static_cast<MachineId>(rng.uniform_int(0, kMachines - 1)),
          rng.uniform(megabits(1.0), megabits(400.0)));
    }
  }
  return builder.build();
}

// FNV-1a over 64-bit words: doubles enter by bit pattern, so -0.0, NaN
// payloads and one-ulp moves all change the digest.
class Digest {
 public:
  void add(std::uint64_t word) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (word >> (8 * i)) & 0xffu;
      hash_ *= 0x100000001b3ull;
    }
  }
  void add(double value) { add(std::bit_cast<std::uint64_t>(value)); }
  void add(long long value) { add(static_cast<std::uint64_t>(value)); }
  void add(int value) { add(static_cast<long long>(value)); }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

std::uint64_t run_digest(const RunResult& run) {
  Digest d;
  d.add(run.num_events);
  d.add(run.num_allocations);
  d.add(run.makespan);
  d.add(run.total_bits_delivered);
  d.add(static_cast<long long>(run.coflows.size()));
  for (const CoflowRecord& c : run.coflows) {
    d.add(c.id);
    d.add(c.arrival);
    d.add(c.completion);
    d.add(c.cct);
    d.add(c.min_cct);
    d.add(c.width);
    d.add(c.max_flow_bits);
    d.add(c.total_bits);
  }
  d.add(static_cast<long long>(run.intervals.size()));
  for (const IntervalRecord& r : run.intervals) {
    d.add(r.t0);
    d.add(r.t1);
    d.add(r.active_coflows);
    d.add(r.link_usage_bps);
    d.add(r.min_progress);
    d.add(r.max_progress);
  }
  d.add(static_cast<long long>(run.progress.size()));
  for (const ProgressSample& p : run.progress) {
    d.add(p.t0);
    d.add(p.t1);
    d.add(p.coflow);
    d.add(p.progress);
  }
  return d.value();
}

// One digest per registry policy (a new policy needs its own pin), plus
// NC-DRF run without its event hooks.
const std::map<std::string, std::uint64_t>& golden_digests() {
  static const std::map<std::string, std::uint64_t> digests = {
      {"tcp", 0xf245c2804addd92full},
      {"persource", 0x560d3507c0019898ull},
      {"perpair", 0xfe0d472b5d92405dull},
      {"psp", 0x2c13b7c942152140ull},
      {"psp-live", 0xad03fdf33d62e62dull},
      {"ncdrf", 0xeb1fa39b67196b44ull},
      {"ncdrf-live", 0xd44f5b6bf2dc1956ull},
      {"drf", 0x56c5ad06ea79b0bdull},
      {"hug", 0x5b0bcbe57ef992b0ull},
      {"aalo", 0x98c449f9c329e1e2ull},
      {"varys", 0x09222c51088a18f5ull},
      {"baraat", 0x235ce0b7d6af6a48ull},
      {"fifo", 0x441338204320d75bull},
      {"karma", 0x6d33b307c49ae3daull},
      {"ncdrf (no hooks)", 0x46abb3aae4976fe1ull},
  };
  return digests;
}

TEST(RunGolden, EveryPolicyMatchesPinnedDigest) {
  const Fabric fabric(8, gbps(1.0));
  const Trace trace = golden_trace();
  ASSERT_GT(trace.total_flows, 128);
  SimOptions options;
  options.record_intervals = true;
  options.record_progress_timeseries = true;
  std::vector<std::string> names = scheduler_names();
  names.push_back("ncdrf (no hooks)");
  std::string repin;
  for (const std::string& name : names) {
    SCOPED_TRACE(name);
    const bool hookless = name == "ncdrf (no hooks)";
    const auto inner = make_scheduler(hookless ? "ncdrf" : name);
    testing::HooklessScheduler wrapper(*inner);
    Scheduler& scheduler = hookless ? wrapper : *inner;
    const RunResult run = simulate(fabric, trace, scheduler, options);
    ASSERT_FALSE(run.intervals.empty());
    const std::uint64_t digest = run_digest(run);
    char line[96];
    std::snprintf(line, sizeof line, "      {\"%s\", 0x%016llxull},\n",
                  name.c_str(), static_cast<unsigned long long>(digest));
    repin += line;
    const auto it = golden_digests().find(name);
    if (it == golden_digests().end()) {
      ADD_FAILURE() << "no pinned digest for policy " << name;
    } else {
      EXPECT_EQ(it->second, digest) << name << " drifted from its pin";
    }
  }
  if (HasFailure()) ADD_FAILURE() << "digests of this build:\n" << repin;
}

// DynamicSimulator::run_until() must not change a run. Each policy gets
// the golden trace one coflow at a time, each coflow submitted only after
// the run has paused at the last pause instant before its arrival. The
// run pauses at every arrival and at 200 seeded instants over the 10-15 s
// makespans, then drains with run(), and must hit the unpaused run's pin.
TEST(RunGolden, PausedRunsMatchPinnedDigest) {
  const Fabric fabric(8, gbps(1.0));
  const Trace trace = golden_trace();
  SimOptions options;
  options.record_intervals = true;
  options.record_progress_timeseries = true;
  std::vector<double> pauses;
  for (const Coflow& coflow : trace.coflows) {
    pauses.push_back(coflow.arrival_time());
  }
  Rng rng(16);
  for (int i = 0; i < 200; ++i) pauses.push_back(rng.uniform(0.0, 16.0));
  std::sort(pauses.begin(), pauses.end());

  for (const std::string& name : scheduler_names()) {
    SCOPED_TRACE(name);
    const auto scheduler = make_scheduler(name);
    DynamicSimulator sim(fabric, *scheduler, options);
    std::size_t next = 0;  // trace.coflows is in arrival order
    for (const double pause : pauses) {
      while (next < trace.coflows.size() &&
             trace.coflows[next].arrival_time() <= pause) {
        sim.submit(trace.coflows[next++]);
      }
      sim.run_until(pause);
    }
    sim.run();
    const auto it = golden_digests().find(name);
    ASSERT_NE(it, golden_digests().end()) << "no pinned digest for " << name;
    EXPECT_EQ(it->second, run_digest(sim.take_result()))
        << name << " paused run drifted from its pin";
  }
}

// 24 shuffle coflows of 50-400 flows (~2.8k in all) on 16 machines,
// arrivals over 8 s: makespans of 8.6-12 s with ~5 coflows active on
// average. Each coflow's flows are listed mapper-major (every reducer of
// mapper 0, then of mapper 1, ...), with mapper and reducer tasks placed
// on random machines, so a coflow's live flows spread over many links and
// finish out of list order. golden_trace()'s 1-12-flow coflows barely
// exercise the engine's per-coflow compaction or its rescale pass over
// wide coflows; this trace does. Like golden_trace(), it draws no libm,
// and it takes one draw per statement, so no argument evaluation order
// enters the trace.
Trace wide_golden_trace() {
  constexpr int kMachines = 16;
  Rng rng(20180703);
  TraceBuilder builder(kMachines);
  for (int c = 0; c < 24; ++c) {
    const double arrival = rng.uniform(0.0, 8.0);
    const double weight = rng.uniform(0.5, 2.0);
    const auto tenant = static_cast<int>(rng.uniform_int(0, 3));
    builder.begin_coflow(arrival, weight, tenant);
    // Half the coflows have 5 mappers, the rest 5-20.
    const bool many_mappers = rng.uniform_int(0, 1) == 1;
    const std::int64_t extra_mappers = rng.uniform_int(0, 15);
    std::vector<MachineId> mappers(
        static_cast<std::size_t>(5 + (many_mappers ? extra_mappers : 0)));
    std::vector<MachineId> reducers(
        static_cast<std::size_t>(rng.uniform_int(10, 20)));
    for (MachineId& m : mappers) {
      m = static_cast<MachineId>(rng.uniform_int(0, kMachines - 1));
    }
    for (MachineId& r : reducers) {
      r = static_cast<MachineId>(rng.uniform_int(0, kMachines - 1));
    }
    for (const MachineId m : mappers) {
      for (const MachineId r : reducers) {
        builder.add_flow(m, r, rng.uniform(megabits(0.5), megabits(40.0)));
      }
    }
  }
  return builder.build();
}

// Pinned digests of the wide trace, keyed like golden_digests().
const std::map<std::string, std::uint64_t>& wide_golden_digests() {
  static const std::map<std::string, std::uint64_t> digests = {
      {"tcp", 0x12377aaaa66dc783ull},
      {"persource", 0x2f41bd0a2295482eull},
      {"perpair", 0x99144c22f0c13b8full},
      {"psp", 0x3f4171a2c51808fdull},
      {"psp-live", 0x8e6a24648e0da2f4ull},
      {"ncdrf", 0xcf7dc54789335176ull},
      {"ncdrf-live", 0x7c71c772c2f93f61ull},
      {"drf", 0xa67b0bbe9dab6f2eull},
      {"hug", 0xa905f42dbad26b50ull},
      {"aalo", 0x5c14a56215d82769ull},
      {"varys", 0xfc54132b53aa71d4ull},
      {"baraat", 0x428bf050c392e809ull},
      {"fifo", 0xfdb66612edc649c3ull},
      {"karma", 0x58fdf58ac2593c88ull},
      {"ncdrf (no hooks)", 0xff020f749e49e16bull},
  };
  return digests;
}

// Runs `scheduler` over `trace` in one run(), or, when `paused`, the way
// PausedRunsMatchPinnedDigest does: pausing at every arrival and at 100
// seeded instants, each coflow submitted at the last pause before it
// arrives.
RunResult run_wide(const Fabric& fabric, const Trace& trace,
                   Scheduler& scheduler, bool paused) {
  SimOptions options;
  options.record_intervals = true;
  options.record_progress_timeseries = true;
  if (!paused) return simulate(fabric, trace, scheduler, options);
  std::vector<double> pauses;
  for (const Coflow& coflow : trace.coflows) {
    pauses.push_back(coflow.arrival_time());
  }
  Rng rng(17);
  for (int i = 0; i < 100; ++i) pauses.push_back(rng.uniform(0.0, 16.0));
  std::sort(pauses.begin(), pauses.end());
  DynamicSimulator sim(fabric, scheduler, options);
  std::size_t next = 0;
  for (const double pause : pauses) {
    while (next < trace.coflows.size() &&
           trace.coflows[next].arrival_time() <= pause) {
      sim.submit(trace.coflows[next++]);
    }
    sim.run_until(pause);
  }
  sim.run();
  return sim.take_result();
}

void expect_wide_digests(bool paused) {
  const Fabric fabric(16, gbps(1.0));
  const Trace trace = wide_golden_trace();
  for (const Coflow& coflow : trace.coflows) {
    ASSERT_GE(coflow.width(), 50);
    ASSERT_LE(coflow.width(), 400);
  }
  std::vector<std::string> names = scheduler_names();
  names.push_back("ncdrf (no hooks)");
  std::string repin;
  for (const std::string& name : names) {
    SCOPED_TRACE(name);
    const bool hookless = name == "ncdrf (no hooks)";
    const auto inner = make_scheduler(hookless ? "ncdrf" : name);
    testing::HooklessScheduler wrapper(*inner);
    const RunResult run =
        run_wide(fabric, trace, hookless ? wrapper : *inner, paused);
    ASSERT_FALSE(run.intervals.empty());
    const std::uint64_t digest = run_digest(run);
    char line[96];
    std::snprintf(line, sizeof line, "      {\"%s\", 0x%016llxull},\n",
                  name.c_str(), static_cast<unsigned long long>(digest));
    repin += line;
    const auto it = wide_golden_digests().find(name);
    if (it == wide_golden_digests().end()) {
      ADD_FAILURE() << "no pinned wide digest for policy " << name;
    } else {
      EXPECT_EQ(it->second, digest) << name << " drifted from its pin";
    }
  }
  if (::testing::Test::HasFailure()) {
    ADD_FAILURE() << "wide digests of this build:\n" << repin;
  }
}

TEST(RunGolden, WideCoflowsMatchPinnedDigest) { expect_wide_digests(false); }

// The engine keeps each event's rates between a run_until() pause and
// the resumed advance; a paused replay of the wide trace must hit the
// same pins as the unpaused one.
TEST(RunGolden, PausedWideRunsMatchPinnedDigest) { expect_wide_digests(true); }

}  // namespace
}  // namespace ncdrf
