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

}  // namespace
}  // namespace ncdrf
