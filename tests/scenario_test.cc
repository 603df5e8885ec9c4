// Scenario-spine tests (src/scenario/): strategic-tenant transformer
// contracts (determinism per seed, ground-truth byte conservation),
// ScenarioSpec JSON round-trips, the one-id-assignment-path regression
// between LoadGenerator schedules and materialized traces, cross-plane
// CCT equivalence (run_on_sim vs run_on_serve, the serve front-end's
// control plane on the same fluid engine),
// karma's allocation invariants over the seeded property workloads, and
// the incentive headline: karma beats NC-DRF against the flow-splitter.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/units.h"
#include "core/registry.h"
#include "obs/json_lint.h"
#include "scenario/eval.h"
#include "scenario/source.h"
#include "scenario/spec.h"
#include "scenario/strategy.h"
#include "serve/loadgen.h"
#include "test_util.h"

namespace ncdrf {
namespace {

using scenario::ScenarioRun;
using scenario::ScenarioSpec;
using scenario::StrategySpec;
using scenario::TransformedWorkload;
using serve::LoadGenerator;
using serve::LoadGenOptions;
using serve::Submission;

LoadGenOptions small_workload(std::uint64_t seed) {
  LoadGenOptions load;
  load.seed = seed;
  load.num_clients = 3;
  load.num_machines = 6;
  load.arrival_rate_per_s = 40.0;
  load.duration_s = 0.5;
  load.min_flows_per_coflow = 1;
  load.max_flows_per_coflow = 4;
  load.mean_flow_bits = 4e6;
  load.mean_lifetime_s = 0.0;  // completion-driven retirement everywhere
  return load;
}

ScenarioSpec small_spec(const std::string& policy, std::uint64_t seed = 11) {
  ScenarioSpec spec;
  spec.name = "scenario-test";
  spec.policy = policy;
  spec.link_gbps = 1.0;
  spec.workload = small_workload(seed);
  return spec;
}

double total_bits(const std::vector<Submission>& schedule) {
  double bits = 0.0;
  for (const Submission& s : schedule) {
    for (const Flow& f : s.flows) bits += f.size_bits;
  }
  return bits;
}

void expect_identical_streams(const TransformedWorkload& a,
                              const TransformedWorkload& b,
                              const std::string& context) {
  ASSERT_EQ(a.per_client.size(), b.per_client.size()) << context;
  for (std::size_t c = 0; c < a.per_client.size(); ++c) {
    ASSERT_EQ(a.per_client[c].size(), b.per_client[c].size())
        << context << " client " << c;
    for (std::size_t i = 0; i < a.per_client[c].size(); ++i) {
      const Submission& x = a.per_client[c][i];
      const Submission& y = b.per_client[c][i];
      EXPECT_EQ(x.coflow, y.coflow) << context;
      EXPECT_EQ(x.submit_time, y.submit_time) << context;
      ASSERT_EQ(x.flows.size(), y.flows.size()) << context;
      for (std::size_t f = 0; f < x.flows.size(); ++f) {
        EXPECT_EQ(x.flows[f].id, y.flows[f].id) << context;
        EXPECT_EQ(x.flows[f].src, y.flows[f].src) << context;
        EXPECT_EQ(x.flows[f].dst, y.flows[f].dst) << context;
        EXPECT_EQ(x.flows[f].size_bits, y.flows[f].size_bits) << context;
      }
    }
  }
  EXPECT_EQ(a.derived, b.derived) << context;
}

// -------------------------------------------------------------------
// Tenant strategies: deterministic per seed, byte-conserving, and
// time-order preserving for every kind.
// -------------------------------------------------------------------

TEST(TenantStrategies, DeterministicPerSeedAndByteConserving) {
  const auto honest = LoadGenerator(small_workload(21)).generate();
  for (const std::string kind :
       {"honest", "flow-splitter", "demand-inflator", "dust-padder",
        "on-off-hoarder"}) {
    StrategySpec sspec;
    sspec.kind = kind;
    sspec.seed = 5;
    const auto strategy_a = scenario::make_strategy(sspec);
    const auto strategy_b = scenario::make_strategy(sspec);
    std::vector<scenario::TenantStrategy*> slots_a{strategy_a.get(), nullptr,
                                                   strategy_a.get()};
    std::vector<scenario::TenantStrategy*> slots_b{strategy_b.get(), nullptr,
                                                   strategy_b.get()};
    const TransformedWorkload first =
        scenario::apply_strategies(honest, slots_a, 6);
    const TransformedWorkload second =
        scenario::apply_strategies(honest, slots_b, 6);
    expect_identical_streams(first, second, kind + " across instances");
    // reset() must restore seeded state: the same instance replays
    // identically on a second application.
    const TransformedWorkload third =
        scenario::apply_strategies(honest, slots_a, 6);
    expect_identical_streams(first, third, kind + " across replays");

    for (std::size_t c = 0; c < honest.size(); ++c) {
      EXPECT_NEAR(total_bits(first.per_client[c]), total_bits(honest[c]),
                  total_bits(honest[c]) * 1e-9)
          << kind << " client " << c << " does not conserve bytes";
      for (std::size_t i = 1; i < first.per_client[c].size(); ++i) {
        EXPECT_GE(first.per_client[c][i].submit_time,
                  first.per_client[c][i - 1].submit_time)
            << kind << " broke time order";
      }
    }
    // Derived sets partition the transformed stream: every honest
    // submission maps to >= 1 coflow and ids are globally dense.
    std::set<CoflowId> seen;
    for (std::size_t c = 0; c < honest.size(); ++c) {
      ASSERT_EQ(first.derived[c].size(), honest[c].size()) << kind;
      for (const auto& ids : first.derived[c]) {
        EXPECT_FALSE(ids.empty()) << kind;
        for (const CoflowId id : ids) EXPECT_TRUE(seen.insert(id).second);
      }
    }
    std::size_t transformed_total = 0;
    for (const auto& sched : first.per_client) {
      transformed_total += sched.size();
    }
    EXPECT_EQ(seen.size(), transformed_total) << kind;
    EXPECT_EQ(*seen.rbegin(), static_cast<CoflowId>(seen.size() - 1)) << kind;
  }
}

TEST(TenantStrategies, FlowSplitterMultipliesCoflows) {
  const auto honest = LoadGenerator(small_workload(22)).generate();
  StrategySpec sspec;
  sspec.kind = "flow-splitter";
  sspec.k = 3;
  const auto strategy = scenario::make_strategy(sspec);
  std::vector<scenario::TenantStrategy*> slots{strategy.get(), nullptr,
                                               nullptr};
  const TransformedWorkload out = scenario::apply_strategies(honest, slots, 6);
  EXPECT_EQ(out.per_client[0].size(), 3 * honest[0].size());
  for (const auto& ids : out.derived[0]) EXPECT_EQ(ids.size(), 3u);
  EXPECT_EQ(out.per_client[1].size(), honest[1].size());
}

TEST(TenantStrategies, DustPadderWidensEndpointFootprint) {
  const auto honest = LoadGenerator(small_workload(23)).generate();
  StrategySpec sspec;
  sspec.kind = "dust-padder";
  sspec.pad = 3;
  const auto strategy = scenario::make_strategy(sspec);
  std::vector<scenario::TenantStrategy*> slots{strategy.get(), nullptr,
                                               nullptr};
  const TransformedWorkload out = scenario::apply_strategies(honest, slots, 6);
  bool widened = false;
  for (std::size_t i = 0; i < honest[0].size(); ++i) {
    std::set<MachineId> before;
    for (const Flow& f : honest[0][i].flows) before.insert(f.src);
    std::set<MachineId> after;
    for (const Flow& f : out.per_client[0][i].flows) after.insert(f.src);
    EXPECT_GE(after.size(), before.size());
    if (after.size() > before.size()) widened = true;
  }
  EXPECT_TRUE(widened) << "padding never reached a fresh source machine";
}

// -------------------------------------------------------------------
// ScenarioSpec JSON: parse(to_json(spec)) is an identity, including the
// strategy map and the fault plan.
// -------------------------------------------------------------------

TEST(ScenarioSpecJson, RoundTripsExactly) {
  ScenarioSpec spec = small_spec("karma", 0x9e3779b97f4a7c15ull);
  spec.name = "round \"trip\"";  // exercises string escaping
  spec.link_gbps = 0.125;
  spec.workload.flow_size_sigma = 1.75;
  spec.workload.burst_factor = 3.0;
  spec.workload.sizes_known = true;
  StrategySpec splitter;
  splitter.kind = "flow-splitter";
  splitter.k = 7;
  spec.strategies[0] = splitter;
  StrategySpec padder;
  padder.kind = "dust-padder";
  padder.pad = 2;
  padder.dust_bits = 1.5e3;
  padder.seed = 99;
  spec.strategies[2] = padder;
  spec.faults.crash_slave(0.25, 3)
      .restart_slave(0.5, 3)
      .crash_master(1.0)
      .restart_master(1.25)
      .partition(1.5, 2.0, 1)
      .loss_burst(2.5, 3.0, 0.375);

  const std::string json = to_json(spec);
  const ScenarioSpec parsed = scenario::parse_scenario(json);
  EXPECT_EQ(to_json(parsed), json);

  EXPECT_EQ(parsed.name, spec.name);
  EXPECT_EQ(parsed.policy, "karma");
  EXPECT_EQ(parsed.link_gbps, 0.125);
  EXPECT_EQ(parsed.workload.seed, spec.workload.seed);
  EXPECT_EQ(parsed.workload.flow_size_sigma, 1.75);
  EXPECT_TRUE(parsed.workload.sizes_known);
  ASSERT_EQ(parsed.strategies.size(), 2u);
  EXPECT_EQ(parsed.strategies.at(0).k, 7);
  EXPECT_EQ(parsed.strategies.at(2).dust_bits, 1.5e3);
  EXPECT_EQ(parsed.strategies.at(2).seed, 99u);
  ASSERT_EQ(parsed.faults.events().size(), spec.faults.events().size());
  for (std::size_t i = 0; i < spec.faults.events().size(); ++i) {
    EXPECT_EQ(parsed.faults.events()[i].kind, spec.faults.events()[i].kind);
    EXPECT_EQ(parsed.faults.events()[i].time, spec.faults.events()[i].time);
    EXPECT_EQ(parsed.faults.events()[i].machine,
              spec.faults.events()[i].machine);
  }
}

TEST(ScenarioSpecJson, RejectsUnknownKeys) {
  EXPECT_THROW(scenario::parse_scenario("{\"policy\": \"ncdrf\", "
                                        "\"polciy\": \"typo\"}"),
               CheckError);
  EXPECT_THROW(scenario::parse_scenario("{\"faults\": [{\"kind\": "
                                        "\"warp_core_breach\"}]}"),
               CheckError);
}

// Names are fully escaped on the way out and decoded on the way in, so any
// bytes round-trip and the document stays valid JSON.
TEST(ScenarioSpecJson, NamesWithControlCharactersRoundTrip) {
  ScenarioSpec spec = small_spec("ncdrf", 5);
  spec.name = std::string("line\nbreak\ttab\x01 \"quote\" back\\slash ") +
              "\xc3\xa9\xe2\x82\xac";
  const std::string json = to_json(spec);
  EXPECT_EQ(obs::validate_json(json), "");
  const ScenarioSpec parsed = scenario::parse_scenario(json);
  EXPECT_EQ(parsed.name, spec.name);
  EXPECT_EQ(to_json(parsed), json);

  const ScenarioSpec decoded = scenario::parse_scenario(
      R"({"name": "a\nb", "policy": "\u0041"})");
  EXPECT_EQ(decoded.name, "a\nb");
  EXPECT_EQ(decoded.policy, "A");
}

// JSON has no infinity or NaN: a spec holding one does not serialize.
TEST(ScenarioSpecJson, NonFiniteNumbersDoNotSerialize) {
  for (const double bad : {std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity(),
                           std::numeric_limits<double>::quiet_NaN()}) {
    ScenarioSpec spec = small_spec("ncdrf", 5);
    spec.link_gbps = bad;
    EXPECT_THROW(to_json(spec), CheckError) << bad;
    spec = small_spec("ncdrf", 5);
    spec.workload.mean_flow_bits = bad;
    EXPECT_THROW(to_json(spec), CheckError) << bad;
  }
  EXPECT_EQ(obs::validate_json(to_json(small_spec("ncdrf", 5))), "");
}

// The spec reader and the artifact validators share one JSON reader, so
// input that is not JSON fails both, a repeated key included.
TEST(ScenarioSpecJson, RejectsWhatValidateJsonRejects) {
  for (const char* json : {
           R"({"link_gbps": +1})",
           R"({"link_gbps": .5})",
           R"({"link_gbps": 01})",
           R"({"link_gbps": 1.})",
           R"({"workload": {"num_clients": +4}})",
           R"({"workload": {"seed": 007}})",
           "{\"link_gbps\":\v1}",
           R"({"policy": "ncdrf", "policy": "karma"})",
       }) {
    EXPECT_THROW(scenario::parse_scenario(json), CheckError) << json;
    EXPECT_NE(obs::validate_json(json), "") << json;
  }
}

// Every number must be a whole, finite token that fits its field.
TEST(ScenarioSpecJson, RejectsMalformedNumbers) {
  for (const char* json : {
           R"({"link_gbps": 1.2.3})",
           R"({"link_gbps": 1e})",
           R"({"link_gbps": -})",
           R"({"link_gbps": 1e999})",
           R"({"workload": {"num_clients": 1e3}})",
           R"({"workload": {"num_clients": 4.9}})",
           R"({"workload": {"num_clients": 3000000000}})",
           R"({"workload": {"seed": -1}})",
           R"({"workload": {"seed": 18446744073709551616}})",
           R"({"strategies": {"zero": {}}})",
           R"({"strategies": {"1x": {}}})",
           R"({"strategies": {"0": {"k": 2.5}}})",
           R"({"strategies": {"007": {}}})",
       }) {
    EXPECT_THROW(scenario::parse_scenario(json), CheckError) << json;
  }
  // Denormals and the full u64 range still parse.
  const ScenarioSpec spec = scenario::parse_scenario(
      R"({"link_gbps": 4.9406564584124654e-324,)"
      R"( "workload": {"seed": 18446744073709551615}})");
  EXPECT_EQ(spec.link_gbps, std::numeric_limits<double>::denorm_min());
  EXPECT_EQ(spec.workload.seed, std::numeric_limits<std::uint64_t>::max());
}

// -------------------------------------------------------------------
// One id-assignment path: a LoadGenerator schedule, its as_trace()
// materialization, and a second materialization of the same schedule all
// carry byte-identical ids, times and sizes.
// -------------------------------------------------------------------

TEST(WorkloadSourceSpine, LoadGenScheduleAndTraceShareIds) {
  LoadGenOptions load = small_workload(31);
  load.num_clients = 4;
  const LoadGenerator gen(load);
  const auto schedule = gen.generate();
  const Trace trace = gen.as_trace();

  scenario::VectorSource source(schedule, load.num_machines);
  const Trace again = scenario::materialize(source);

  ASSERT_EQ(trace.coflows.size(), again.coflows.size());
  EXPECT_EQ(trace.total_flows, again.total_flows);
  EXPECT_EQ(trace.num_machines, again.num_machines);
  std::size_t scheduled = 0;
  for (const auto& sched : schedule) scheduled += sched.size();
  ASSERT_EQ(trace.coflows.size(), scheduled);

  // Trace vs trace: byte-identical.
  for (std::size_t i = 0; i < trace.coflows.size(); ++i) {
    const Coflow& a = trace.coflows[i];
    const Coflow& b = again.coflows[i];
    EXPECT_EQ(a.id(), b.id());
    EXPECT_EQ(a.arrival_time(), b.arrival_time());
    EXPECT_EQ(a.tenant(), b.tenant());
    ASSERT_EQ(a.flows().size(), b.flows().size());
    for (std::size_t f = 0; f < a.flows().size(); ++f) {
      EXPECT_EQ(a.flows()[f].id, b.flows()[f].id);
      EXPECT_EQ(a.flows()[f].src, b.flows()[f].src);
      EXPECT_EQ(a.flows()[f].dst, b.flows()[f].dst);
      EXPECT_EQ(a.flows()[f].size_bits, b.flows()[f].size_bits);
    }
  }

  // Schedule vs trace: same ids in the same global order.
  for (const auto& sched : schedule) {
    for (const Submission& s : sched) {
      const Coflow& c = trace.coflows[static_cast<std::size_t>(s.coflow)];
      EXPECT_EQ(c.id(), s.coflow);
      EXPECT_EQ(c.arrival_time(), s.submit_time);
      EXPECT_EQ(c.tenant(), s.client);
      ASSERT_EQ(c.flows().size(), s.flows.size());
      for (std::size_t f = 0; f < s.flows.size(); ++f) {
        EXPECT_EQ(c.flows()[f].id, s.flows[f].id);
        EXPECT_EQ(c.flows()[f].size_bits, s.flows[f].size_bits);
      }
    }
  }
}

TEST(WorkloadSourceSpine, TraceSourceRoundTripsATrace) {
  const Trace trace = LoadGenerator(small_workload(32)).as_trace();
  scenario::TraceSource source(&trace);
  const Trace round = scenario::materialize(source);
  ASSERT_EQ(round.coflows.size(), trace.coflows.size());
  for (std::size_t i = 0; i < trace.coflows.size(); ++i) {
    EXPECT_EQ(round.coflows[i].id(), trace.coflows[i].id());
    EXPECT_EQ(round.coflows[i].arrival_time(),
              trace.coflows[i].arrival_time());
    ASSERT_EQ(round.coflows[i].flows().size(),
              trace.coflows[i].flows().size());
  }
}

// -------------------------------------------------------------------
// Cross-plane equivalence: the same ScenarioSpec produces the same CCTs
// and event counts on the simulator and on the serve front-end's control
// plane, which runs under the same fluid engine. Policies whose
// allocations are a pure function of the view match to float-noise;
// heartbeat-fed clairvoyant policies see remaining sizes as size minus
// attained, which rounds differently, and get the looser (existing)
// tolerance. Policies with internal events (aalo's epoch ladder, baraat's
// counters) are not representable on the serve plane's arrival/finish
// event grid.
// -------------------------------------------------------------------

void expect_cct_equivalence(const ScenarioSpec& spec, double rel_tolerance) {
  const ScenarioRun sim = scenario::run_on_sim(spec);
  const ScenarioRun serve = scenario::run_on_serve(spec);
  ASSERT_EQ(sim.result.coflows.size(), serve.result.coflows.size())
      << spec.policy;
  EXPECT_EQ(sim.result.num_events, serve.result.num_events) << spec.policy;
  for (std::size_t i = 0; i < sim.result.coflows.size(); ++i) {
    const CoflowRecord& a = sim.result.coflows[i];
    const CoflowRecord& b = serve.result.coflows[i];
    EXPECT_EQ(a.id, b.id) << spec.policy;
    EXPECT_EQ(a.arrival, b.arrival) << spec.policy;
    EXPECT_NEAR(a.cct, b.cct, rel_tolerance * (1.0 + a.cct))
        << spec.policy << " coflow " << a.id;
  }
  EXPECT_NEAR(sim.result.total_bits_delivered,
              serve.result.total_bits_delivered,
              sim.result.total_bits_delivered * 1e-6)
      << spec.policy;
}

TEST(CrossPlaneEquivalence, ViewPurePoliciesMatchTightly) {
  for (const std::string policy :
       {"tcp", "perpair", "persource", "psp", "psp-live", "ncdrf",
        "ncdrf-live", "fifo", "karma"}) {
    expect_cct_equivalence(small_spec(policy), 1e-9);
  }
}

// Several seeds: at seed 11 alone, hug and varys also match when the
// heartbeats report no attained bits at all.
TEST(CrossPlaneEquivalence, HeartbeatFedPoliciesMatchLoosely) {
  for (const std::string policy : {"drf", "hug", "varys"}) {
    for (std::uint64_t seed = 11; seed <= 15; ++seed) {
      expect_cct_equivalence(small_spec(policy, seed), 1e-6);
    }
  }
}

TEST(CrossPlaneEquivalence, HoldsUnderStrategicTenants) {
  for (const std::string policy : {"ncdrf", "karma"}) {
    ScenarioSpec spec = small_spec(policy, 12);
    StrategySpec splitter;
    splitter.kind = "flow-splitter";
    spec.strategies[0] = splitter;
    StrategySpec padder;
    padder.kind = "dust-padder";
    spec.strategies[1] = padder;
    expect_cct_equivalence(spec, 1e-9);
  }
}

// The simulator retires a flow at or below the completion epsilon on
// arrival; the serve plane's equivalence driver refuses such flows.
TEST(CrossPlaneEquivalence, ServePlaneRejectsSubEpsilonFlows) {
  ScenarioSpec spec = small_spec("ncdrf");
  StrategySpec padder;
  padder.kind = "dust-padder";
  padder.dust_bits = 0.5;
  spec.strategies[0] = padder;
  EXPECT_NO_THROW(scenario::run_on_sim(spec));
  EXPECT_THROW(scenario::run_on_serve(spec), CheckError);
}

TEST(CrossPlaneEquivalence, DeploymentRunsTheSameSpec) {
  ScenarioSpec spec = small_spec("ncdrf", 13);
  spec.faults.crash_slave(0.2, 2).restart_slave(0.3, 2);
  DeploymentOptions options;
  options.tick_s = 0.005;
  const DeploymentResult result = scenario::run_on_deployment(spec, options);
  const ScenarioRun sim = scenario::run_on_sim(spec);
  ASSERT_EQ(result.coflows.size(), sim.result.coflows.size());
  EXPECT_EQ(result.fault_counters.slave_crashes, 1);
  for (const CoflowRecord& rec : result.coflows) {
    EXPECT_GT(rec.completion, 0.0);
  }
}

// -------------------------------------------------------------------
// Karma: allocation invariants over the seeded property workloads, and
// the incentive headline against the flow-splitter.
// -------------------------------------------------------------------

class KarmaInvariants : public ::testing::TestWithParam<int> {};

TEST_P(KarmaInvariants, FeasibleNonNegativeWorkConserving) {
  LoadGenOptions load = small_workload(
      static_cast<std::uint64_t>(GetParam()) + 90'000);
  load.num_clients = 4;
  const Trace trace = LoadGenerator(load).as_trace();
  const Fabric fabric(load.num_machines, gbps(1.0));
  const auto scheduler = make_scheduler("karma");
  testing::Snapshot snap =
      testing::snapshot_all_active(fabric, trace, scheduler->clairvoyant());
  const Allocation alloc = scheduler->allocate(snap.input);
  testing::expect_allocation_invariants(
      snap.input, alloc, "karma seed " + std::to_string(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, KarmaInvariants, ::testing::Range(0, 50));

double splitter_gain(const std::string& policy) {
  ScenarioSpec spec;
  spec.policy = policy;
  spec.link_gbps = 1.0;
  spec.workload.seed = 7;
  spec.workload.num_clients = 4;
  spec.workload.num_machines = 8;
  spec.workload.arrival_rate_per_s = 60.0;
  spec.workload.duration_s = 1.0;
  spec.workload.min_flows_per_coflow = 1;
  spec.workload.max_flows_per_coflow = 4;
  spec.workload.mean_flow_bits = 2e7;  // contended: splitting can pay off
  spec.workload.mean_lifetime_s = 0.0;
  const ScenarioRun honest = scenario::run_on_sim(spec);
  StrategySpec splitter;
  splitter.kind = "flow-splitter";
  spec.strategies[0] = splitter;
  const ScenarioRun strategic = scenario::run_on_sim(spec);
  const double honest_cct = scenario::mean_derived_cct(
      honest.result, honest.workload.honest[0],
      honest.workload.transformed.derived[0]);
  const double strategic_cct = scenario::mean_derived_cct(
      strategic.result, strategic.workload.honest[0],
      strategic.workload.transformed.derived[0]);
  EXPECT_GT(strategic_cct, 0.0) << policy;
  return honest_cct / strategic_cct;
}

TEST(KarmaIncentives, BeatsNcdrfAgainstTheFlowSplitter) {
  const double karma_gain = splitter_gain("karma");
  const double ncdrf_gain = splitter_gain("ncdrf");
  // The CI floor (tools/bench_gaming_report.py) gates the same cell.
  EXPECT_LE(karma_gain, 1.05);
  EXPECT_LT(karma_gain, ncdrf_gain);
  EXPECT_GT(ncdrf_gain, 1.05)
      << "workload no longer contended enough to reward splitting — the "
         "comparison is vacuous";
}

}  // namespace
}  // namespace ncdrf
