#include "scenario/spec.h"

#include <charconv>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <memory>
#include <string>
#include <system_error>
#include <utility>
#include <vector>

#include "cluster/message.h"
#include "common/check.h"
#include "common/json.h"
#include "core/registry.h"
#include "fabric/fabric.h"
#include "scenario/source.h"
#include "serve/server.h"

namespace ncdrf::scenario {
namespace {

// ---------------------------------------------------------------------------
// JSON writer. Doubles print with %.17g so every value round-trips exactly,
// which is what makes parse_scenario(to_json(spec)) an identity.
// ---------------------------------------------------------------------------

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void append_field(std::string& out, const char* key, const std::string& value,
                  bool quoted) {
  if (out.back() != '{' && out.back() != '[') out += ',';
  append_json_string(out, key);
  out += ':';
  if (quoted) {
    append_json_string(out, value);
  } else {
    out += value;
  }
}

void append_workload(std::string& out, const serve::LoadGenOptions& w) {
  out += '{';
  append_field(out, "seed", std::to_string(w.seed), false);
  append_field(out, "num_clients", std::to_string(w.num_clients), false);
  append_field(out, "num_machines", std::to_string(w.num_machines), false);
  append_field(out, "arrival_rate_per_s", fmt(w.arrival_rate_per_s), false);
  append_field(out, "duration_s", fmt(w.duration_s), false);
  append_field(out, "min_flows_per_coflow",
               std::to_string(w.min_flows_per_coflow), false);
  append_field(out, "max_flows_per_coflow",
               std::to_string(w.max_flows_per_coflow), false);
  append_field(out, "mean_flow_bits", fmt(w.mean_flow_bits), false);
  append_field(out, "flow_size_sigma", fmt(w.flow_size_sigma), false);
  append_field(out, "burst_factor", fmt(w.burst_factor), false);
  append_field(out, "burst_duty", fmt(w.burst_duty), false);
  append_field(out, "burst_period_s", fmt(w.burst_period_s), false);
  append_field(out, "mean_lifetime_s", fmt(w.mean_lifetime_s), false);
  append_field(out, "sizes_known", w.sizes_known ? "true" : "false", false);
  append_field(out, "weight", fmt(w.weight), false);
  out += '}';
}

void append_strategy(std::string& out, const StrategySpec& s) {
  out += '{';
  append_field(out, "kind", s.kind, true);
  append_field(out, "k", std::to_string(s.k), false);
  append_field(out, "factor", std::to_string(s.factor), false);
  append_field(out, "pad", std::to_string(s.pad), false);
  append_field(out, "dust_bits", fmt(s.dust_bits), false);
  append_field(out, "period_s", fmt(s.period_s), false);
  append_field(out, "duty", fmt(s.duty), false);
  append_field(out, "seed", std::to_string(s.seed), false);
  out += '}';
}

void append_fault(std::string& out, const FaultEvent& e) {
  out += '{';
  append_field(out, "time", fmt(e.time), false);
  append_field(out, "kind", fault_kind_name(e.kind), true);
  append_field(out, "machine", std::to_string(e.machine), false);
  append_field(out, "loss_probability", fmt(e.loss_probability), false);
  out += '}';
}

// ---------------------------------------------------------------------------
// Spec schema over the common/json DOM. Unknown keys are errors — a typo in
// a checked-in spec should fail loudly, not silently fall back to a default.
// ---------------------------------------------------------------------------

void expect_type(const std::string& key, const JsonValue& v,
                 JsonValue::Type type, const char* what) {
  NCDRF_CHECK(v.type == type,
              "scenario json: \"" + key + "\" must be " + what);
}

const std::vector<std::pair<std::string, JsonValue>>& members(
    const std::string& key, const JsonValue& v) {
  expect_type(key, v, JsonValue::Type::kObject, "an object");
  return v.members;
}

double to_double(const std::string& key, const JsonValue& v) {
  expect_type(key, v, JsonValue::Type::kNumber, "a number");
  return v.number;  // the reader rejects numbers that overflow a double
}

// The whole token in decimal, within T: an int field rejects 4.9, 1e3 and
// 3000000000, and a 64-bit seed converts without a trip through double.
template <typename T>
T integer_token(const std::string& token) {
  T value{};
  const char* end = token.data() + token.size();
  const auto [stop, ec] = std::from_chars(token.data(), end, value);
  NCDRF_CHECK(ec == std::errc() && stop == end,
              "scenario json: malformed integer '" + token + "'");
  return value;
}

template <typename T>
T to_integer(const std::string& key, const JsonValue& v) {
  expect_type(key, v, JsonValue::Type::kNumber, "a number");
  return integer_token<T>(v.text);
}

bool to_bool(const std::string& key, const JsonValue& v) {
  expect_type(key, v, JsonValue::Type::kBool, "true or false");
  return v.boolean;
}

const std::string& to_text(const std::string& key, const JsonValue& v) {
  expect_type(key, v, JsonValue::Type::kString, "a string");
  return v.text;
}

// A strategy's client key is an int in the canonical form to_json writes,
// so no two keys name one client.
int client_key(const std::string& key) {
  const int client = integer_token<int>(key);
  NCDRF_CHECK(std::to_string(client) == key,
              "scenario json: malformed client key '" + key + "'");
  return client;
}

serve::LoadGenOptions parse_workload(const JsonValue& object) {
  serve::LoadGenOptions w;
  for (const auto& [key, v] : members("workload", object)) {
    if (key == "seed") {
      w.seed = to_integer<std::uint64_t>(key, v);
    } else if (key == "num_clients") {
      w.num_clients = to_integer<int>(key, v);
    } else if (key == "num_machines") {
      w.num_machines = to_integer<int>(key, v);
    } else if (key == "arrival_rate_per_s") {
      w.arrival_rate_per_s = to_double(key, v);
    } else if (key == "duration_s") {
      w.duration_s = to_double(key, v);
    } else if (key == "min_flows_per_coflow") {
      w.min_flows_per_coflow = to_integer<int>(key, v);
    } else if (key == "max_flows_per_coflow") {
      w.max_flows_per_coflow = to_integer<int>(key, v);
    } else if (key == "mean_flow_bits") {
      w.mean_flow_bits = to_double(key, v);
    } else if (key == "flow_size_sigma") {
      w.flow_size_sigma = to_double(key, v);
    } else if (key == "burst_factor") {
      w.burst_factor = to_double(key, v);
    } else if (key == "burst_duty") {
      w.burst_duty = to_double(key, v);
    } else if (key == "burst_period_s") {
      w.burst_period_s = to_double(key, v);
    } else if (key == "mean_lifetime_s") {
      w.mean_lifetime_s = to_double(key, v);
    } else if (key == "sizes_known") {
      w.sizes_known = to_bool(key, v);
    } else if (key == "weight") {
      w.weight = to_double(key, v);
    } else {
      NCDRF_CHECK(false, "scenario json: unknown workload key: " + key);
    }
  }
  return w;
}

StrategySpec parse_strategy(const std::string& client, const JsonValue& object) {
  StrategySpec s;
  for (const auto& [key, v] : members(client, object)) {
    if (key == "kind") {
      s.kind = to_text(key, v);
    } else if (key == "k") {
      s.k = to_integer<int>(key, v);
    } else if (key == "factor") {
      s.factor = to_integer<int>(key, v);
    } else if (key == "pad") {
      s.pad = to_integer<int>(key, v);
    } else if (key == "dust_bits") {
      s.dust_bits = to_double(key, v);
    } else if (key == "period_s") {
      s.period_s = to_double(key, v);
    } else if (key == "duty") {
      s.duty = to_double(key, v);
    } else if (key == "seed") {
      s.seed = to_integer<std::uint64_t>(key, v);
    } else {
      NCDRF_CHECK(false, "scenario json: unknown strategy key: " + key);
    }
  }
  return s;
}

FaultKind parse_fault_kind(const std::string& name) {
  static constexpr FaultKind kKinds[] = {
      FaultKind::kSlaveCrash,     FaultKind::kSlaveRestart,
      FaultKind::kMasterCrash,    FaultKind::kMasterRestart,
      FaultKind::kPartitionStart, FaultKind::kPartitionHeal,
      FaultKind::kLossBurstStart, FaultKind::kLossBurstEnd,
  };
  for (const FaultKind kind : kKinds) {
    if (name == fault_kind_name(kind)) return kind;
  }
  NCDRF_CHECK(false, "scenario json: unknown fault kind: " + name);
  return FaultKind::kSlaveCrash;
}

FaultEvent parse_fault(const JsonValue& object) {
  FaultEvent e;
  for (const auto& [key, v] : members("faults", object)) {
    if (key == "time") {
      e.time = to_double(key, v);
    } else if (key == "kind") {
      e.kind = parse_fault_kind(to_text(key, v));
    } else if (key == "machine") {
      e.machine = to_integer<int>(key, v);
    } else if (key == "loss_probability") {
      e.loss_probability = to_double(key, v);
    } else {
      NCDRF_CHECK(false, "scenario json: unknown fault key: " + key);
    }
  }
  return e;
}

// The serve plane's control plane, run by the simulator's engine as its
// Scheduler: the engine is the one fluid data plane and plays the clients
// and slaves. An arrival becomes a submission on its client's queue and a
// flow finish a FlowFinished report. Each allocate() reports the buffered
// finishes, sends one heartbeat per machine with exact attained bits and
// steps one epoch at the engine's instant. Every instant carries an
// arrival or a finish, so the master reallocates exactly once per event,
// and stateful policies (karma's credit clock) see the same (now, view)
// sequence as under run_on_sim. The wrapped policy runs on the Master's
// view, where non-clairvoyant coflows register without sizes.
class ServeControlPlane final : public Scheduler {
 public:
  ServeControlPlane(const Fabric& fabric, Scheduler& policy, int num_clients,
                    const TransformedWorkload& workload)
      : policy_(policy),
        front_(fabric, policy, num_clients, event_aligned_options()),
        heartbeats_(static_cast<std::size_t>(fabric.num_machines())) {
    for (MachineId m = 0; m < fabric.num_machines(); ++m) {
      heartbeats_[static_cast<std::size_t>(m)].machine = m;
    }
    std::size_t flows = 0;
    for (const auto& schedule : workload.per_client) {
      for (const serve::Submission& s : schedule) {
        const auto c = static_cast<std::size_t>(s.coflow);
        if (c >= submissions_.size()) submissions_.resize(c + 1, nullptr);
        submissions_[c] = &s;
        flows += s.flows.size();
      }
    }
    size_bits_.assign(flows, 0.0);
  }

  std::string name() const override { return policy_.name(); }
  // Asks the engine for remaining bits, which is what the slaves report
  // in their heartbeats; the Master still hands size estimates only to
  // clairvoyant policies.
  bool clairvoyant() const override { return true; }
  bool wants_events() const override { return true; }
  long long allocations() const { return front_.allocations(); }

  void on_coflow_arrival(const ActiveCoflow& coflow) override {
    serve::Submission s = *submissions_[static_cast<std::size_t>(coflow.id)];
    s.sizes_known = policy_.clairvoyant();
    s.lifetime_s = 0.0;  // completion-driven retirement only
    for (const Flow& f : s.flows) {
      NCDRF_CHECK(f.size_bits > SimOptions{}.completion_epsilon_bits,
                  "serve equivalence driver needs flows above the "
                  "completion epsilon");
      size_bits_[static_cast<std::size_t>(f.id)] = f.size_bits;
    }
    NCDRF_CHECK(front_.queue(s.client).try_enqueue(std::move(s)),
                "unbounded equivalence queue rejected a submission");
  }

  void on_flow_finish(const ActiveFlow& flow) override {
    finished_.push_back(FlowFinishedMsg{flow.id, flow.coflow, 0.0});
  }

  Allocation allocate(const ScheduleInput& input) override {
    for (FlowFinishedMsg& msg : finished_) msg.finish_time = input.now;
    front_.master().on_flows_finished(finished_);
    finished_.clear();
    for (HeartbeatMsg& hb : heartbeats_) hb.attained_bits.clear();
    for (const ActiveCoflow& coflow : input.coflows) {
      for (const ActiveFlow& f : coflow.flows) {
        heartbeats_[static_cast<std::size_t>(f.src)].attained_bits.emplace_back(
            f.id, size_bits_[static_cast<std::size_t>(f.id)] -
                      input.clairvoyant->remaining_bits(f.id));
      }
    }
    for (const HeartbeatMsg& hb : heartbeats_) {
      front_.master().on_heartbeat(hb, input.now);
    }
    front_.step_epoch(input.now);
    return front_.last_allocation();
  }

 private:
  // One epoch per engine instant, with every queued submission admitted
  // and nothing shed.
  static serve::ServeOptions event_aligned_options() {
    serve::ServeOptions options;
    options.epoch_s = 1.0;            // nominal: epochs are event-aligned
    options.max_batch_per_epoch = 0;  // admit everything due at the instant
    options.queue_capacity = std::numeric_limits<std::size_t>::max() / 4;
    options.slowdown_watermark = options.queue_capacity;
    options.shed_watermark = options.queue_capacity;
    return options;
  }

  Scheduler& policy_;
  serve::ServeFront front_;
  std::vector<HeartbeatMsg> heartbeats_;  // one per machine, reused
  std::vector<const serve::Submission*> submissions_;  // by coflow id
  std::vector<double> size_bits_;                      // by flow id
  std::vector<FlowFinishedMsg> finished_;  // reported at the next allocate
};

}  // namespace

std::string to_json(const ScenarioSpec& spec) {
  std::string out = "{";
  append_field(out, "name", spec.name, true);
  append_field(out, "policy", spec.policy, true);
  append_field(out, "link_gbps", fmt(spec.link_gbps), false);
  append_field(out, "workload", "", false);  // empty value: writer continues
  append_workload(out, spec.workload);
  append_field(out, "strategies", "", false);
  out += '{';
  for (const auto& [client, strategy] : spec.strategies) {
    append_field(out, std::to_string(client).c_str(), "", false);
    append_strategy(out, strategy);
  }
  out += '}';
  append_field(out, "faults", "", false);
  out += '[';
  for (std::size_t i = 0; i < spec.faults.events().size(); ++i) {
    if (i > 0) out += ',';
    append_fault(out, spec.faults.events()[i]);
  }
  out += "]}";
  return out;
}

ScenarioSpec parse_scenario(const std::string& json) {
  JsonValue root;
  const std::string error = parse_json(json, &root);
  NCDRF_CHECK(error.empty(), "scenario json: " + error);
  ScenarioSpec spec;
  for (const auto& [key, v] : members("spec", root)) {
    if (key == "name") {
      spec.name = to_text(key, v);
    } else if (key == "policy") {
      spec.policy = to_text(key, v);
    } else if (key == "link_gbps") {
      spec.link_gbps = to_double(key, v);
    } else if (key == "workload") {
      spec.workload = parse_workload(v);
    } else if (key == "strategies") {
      for (const auto& [client, strategy] : members(key, v)) {
        spec.strategies[client_key(client)] = parse_strategy(client, strategy);
      }
    } else if (key == "faults") {
      expect_type(key, v, JsonValue::Type::kArray, "an array");
      for (const JsonValue& event : v.items) spec.faults.add(parse_fault(event));
    } else {
      NCDRF_CHECK(false, "scenario json: unknown spec key: " + key);
    }
  }
  return spec;
}

Fabric make_fabric(const ScenarioSpec& spec) {
  NCDRF_CHECK(spec.link_gbps > 0.0, "scenario needs a positive link rate");
  return Fabric(spec.workload.num_machines, spec.link_gbps * 1e9);
}

ScenarioWorkload build_workload(const ScenarioSpec& spec) {
  ScenarioWorkload workload;
  workload.honest = serve::LoadGenerator(spec.workload).generate();
  std::vector<std::unique_ptr<TenantStrategy>> owned(workload.honest.size());
  std::vector<TenantStrategy*> strategies(workload.honest.size(), nullptr);
  for (const auto& [client, strategy_spec] : spec.strategies) {
    NCDRF_CHECK(client >= 0 &&
                    static_cast<std::size_t>(client) < workload.honest.size(),
                "scenario strategy for a client outside the workload");
    if (strategy_spec.kind == "honest") continue;  // null slot = pass-through
    owned[static_cast<std::size_t>(client)] = make_strategy(strategy_spec);
    strategies[static_cast<std::size_t>(client)] =
        owned[static_cast<std::size_t>(client)].get();
  }
  workload.transformed = apply_strategies(workload.honest, strategies,
                                          spec.workload.num_machines);
  std::size_t total = 0;
  for (const auto& schedule : workload.transformed.per_client) {
    total += schedule.size();
  }
  workload.tenant_of.assign(total, -1);
  for (const auto& schedule : workload.transformed.per_client) {
    for (const serve::Submission& s : schedule) {
      workload.tenant_of[static_cast<std::size_t>(s.coflow)] = s.client;
    }
  }
  return workload;
}

ScenarioRun run_on_sim(const ScenarioSpec& spec) {
  ScenarioRun run;
  run.workload = build_workload(spec);
  const Fabric fabric = make_fabric(spec);
  const std::unique_ptr<Scheduler> scheduler = make_scheduler(spec.policy);
  VectorSource source(run.workload.transformed.per_client,
                      spec.workload.num_machines);
  run.result = simulate(fabric, source, *scheduler);
  return run;
}

DeploymentResult run_on_deployment(const ScenarioSpec& spec,
                                   const DeploymentOptions& options) {
  ScenarioWorkload workload = build_workload(spec);
  const Fabric fabric = make_fabric(spec);
  const std::unique_ptr<Scheduler> scheduler = make_scheduler(spec.policy);
  DeploymentOptions opts = options;
  opts.faults = spec.faults;
  VectorSource source(std::move(workload.transformed.per_client),
                      spec.workload.num_machines);
  return run_deployment(fabric, source, *scheduler, opts);
}

ScenarioRun run_on_serve(const ScenarioSpec& spec) {
  ScenarioRun run;
  run.workload = build_workload(spec);
  const Fabric fabric = make_fabric(spec);
  const std::unique_ptr<Scheduler> scheduler = make_scheduler(spec.policy);
  ServeControlPlane plane(fabric, *scheduler, spec.workload.num_clients,
                          run.workload.transformed);
  VectorSource source(run.workload.transformed.per_client,
                      spec.workload.num_machines);
  run.result = simulate(fabric, source, plane);
  run.result.num_allocations = plane.allocations();
  return run;
}

}  // namespace ncdrf::scenario
