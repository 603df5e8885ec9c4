#include "scenario/spec.h"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cluster/message.h"
#include "common/check.h"
#include "core/registry.h"
#include "fabric/fabric.h"
#include "scenario/source.h"
#include "serve/server.h"

namespace ncdrf::scenario {
namespace {

// ---------------------------------------------------------------------------
// JSON writer. Doubles print with %.17g so every value round-trips exactly;
// the reader below parses the same grammar, which is what makes
// parse_scenario(to_json(spec)) an identity.
// ---------------------------------------------------------------------------

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void append_quoted(std::string& out, const std::string& s) {
  out += '"';
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  out += '"';
}

void append_field(std::string& out, const char* key, const std::string& value,
                  bool quoted) {
  if (out.back() != '{' && out.back() != '[') out += ',';
  append_quoted(out, key);
  out += ':';
  if (quoted) {
    append_quoted(out, value);
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
// JSON reader: a strict recursive-descent parser over the spec schema.
// Unknown keys are errors — a typo in a checked-in spec should fail loudly,
// not silently fall back to a default.
// ---------------------------------------------------------------------------

// Throws unless the conversion of `token` stopped at its end and `ok` holds.
void check_number(const std::string& token, const char* end, bool ok) {
  NCDRF_CHECK(ok && !token.empty() && end == token.c_str() + token.size(),
              "scenario json: malformed number '" + token + "'");
}

// An int field or a strategy client key: the whole token, within int.
int parse_int_token(const std::string& token) {
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(token.c_str(), &end, 10);
  check_number(token, end,
               errno != ERANGE && v >= std::numeric_limits<int>::min() &&
                   v <= std::numeric_limits<int>::max());
  return static_cast<int>(v);
}

class JsonReader {
 public:
  explicit JsonReader(const std::string& text) : text_(text) {}

  char peek() {
    skip_ws();
    NCDRF_CHECK(pos_ < text_.size(), "scenario json: unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    NCDRF_CHECK(peek() == c,
                std::string("scenario json: expected '") + c + "' near offset " +
                    std::to_string(pos_));
    ++pos_;
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      NCDRF_CHECK(pos_ < text_.size(), "scenario json: unterminated string");
      const char c = text_[pos_++];
      if (c == '"') break;
      if (c == '\\') {
        NCDRF_CHECK(pos_ < text_.size(), "scenario json: dangling escape");
        out += text_[pos_++];
      } else {
        out += c;
      }
    }
    return out;
  }

  // Numbers convert from their text, so a 64-bit seed keeps every bit, and
  // each conversion must consume the whole token.
  double parse_double() {
    const std::string token = number_token();
    char* end = nullptr;
    const double v = std::strtod(token.c_str(), &end);
    // No ERANGE check: glibc sets it for denormals, which %.17g writes.
    check_number(token, end, std::isfinite(v));
    return v;
  }

  int parse_int() { return parse_int_token(number_token()); }

  std::uint64_t parse_u64() {
    const std::string token = number_token();
    char* end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(token.c_str(), &end, 10);
    check_number(token, end, token[0] != '-' && errno != ERANGE);
    return v;
  }

  bool parse_bool() {
    if (peek() == 't') {
      literal("true");
      return true;
    }
    literal("false");
    return false;
  }

  // Parses `{"k1": <v>, ...}` calling on_key for each member with the
  // reader positioned at the value.
  void parse_object(const std::function<void(const std::string&)>& on_key) {
    expect('{');
    if (peek() == '}') {
      ++pos_;
      return;
    }
    while (true) {
      const std::string key = parse_string();
      expect(':');
      on_key(key);
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return;
    }
  }

  void parse_array(const std::function<void()>& on_element) {
    expect('[');
    if (peek() == ']') {
      ++pos_;
      return;
    }
    while (true) {
      on_element();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return;
    }
  }

  void finish() {
    skip_ws();
    NCDRF_CHECK(pos_ == text_.size(),
                "scenario json: trailing characters after the document");
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])) != 0) {
      ++pos_;
    }
  }

  void literal(const char* word) {
    skip_ws();
    for (const char* p = word; *p != '\0'; ++p) {
      NCDRF_CHECK(pos_ < text_.size() && text_[pos_] == *p,
                  std::string("scenario json: expected literal ") + word);
      ++pos_;
    }
  }

  std::string number_token() {
    skip_ws();
    const std::size_t start = pos_;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (std::isdigit(static_cast<unsigned char>(c)) != 0 || c == '-' ||
          c == '+' || c == '.' || c == 'e' || c == 'E') {
        ++pos_;
      } else {
        break;
      }
    }
    NCDRF_CHECK(pos_ > start, "scenario json: expected a number near offset " +
                                  std::to_string(start));
    return text_.substr(start, pos_ - start);
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

serve::LoadGenOptions parse_workload(JsonReader& r) {
  serve::LoadGenOptions w;
  r.parse_object([&](const std::string& key) {
    if (key == "seed") {
      w.seed = r.parse_u64();
    } else if (key == "num_clients") {
      w.num_clients = r.parse_int();
    } else if (key == "num_machines") {
      w.num_machines = r.parse_int();
    } else if (key == "arrival_rate_per_s") {
      w.arrival_rate_per_s = r.parse_double();
    } else if (key == "duration_s") {
      w.duration_s = r.parse_double();
    } else if (key == "min_flows_per_coflow") {
      w.min_flows_per_coflow = r.parse_int();
    } else if (key == "max_flows_per_coflow") {
      w.max_flows_per_coflow = r.parse_int();
    } else if (key == "mean_flow_bits") {
      w.mean_flow_bits = r.parse_double();
    } else if (key == "flow_size_sigma") {
      w.flow_size_sigma = r.parse_double();
    } else if (key == "burst_factor") {
      w.burst_factor = r.parse_double();
    } else if (key == "burst_duty") {
      w.burst_duty = r.parse_double();
    } else if (key == "burst_period_s") {
      w.burst_period_s = r.parse_double();
    } else if (key == "mean_lifetime_s") {
      w.mean_lifetime_s = r.parse_double();
    } else if (key == "sizes_known") {
      w.sizes_known = r.parse_bool();
    } else if (key == "weight") {
      w.weight = r.parse_double();
    } else {
      NCDRF_CHECK(false, "scenario json: unknown workload key: " + key);
    }
  });
  return w;
}

StrategySpec parse_strategy(JsonReader& r) {
  StrategySpec s;
  r.parse_object([&](const std::string& key) {
    if (key == "kind") {
      s.kind = r.parse_string();
    } else if (key == "k") {
      s.k = r.parse_int();
    } else if (key == "factor") {
      s.factor = r.parse_int();
    } else if (key == "pad") {
      s.pad = r.parse_int();
    } else if (key == "dust_bits") {
      s.dust_bits = r.parse_double();
    } else if (key == "period_s") {
      s.period_s = r.parse_double();
    } else if (key == "duty") {
      s.duty = r.parse_double();
    } else if (key == "seed") {
      s.seed = r.parse_u64();
    } else {
      NCDRF_CHECK(false, "scenario json: unknown strategy key: " + key);
    }
  });
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

FaultEvent parse_fault(JsonReader& r) {
  FaultEvent e;
  r.parse_object([&](const std::string& key) {
    if (key == "time") {
      e.time = r.parse_double();
    } else if (key == "kind") {
      e.kind = parse_fault_kind(r.parse_string());
    } else if (key == "machine") {
      e.machine = r.parse_int();
    } else if (key == "loss_probability") {
      e.loss_probability = r.parse_double();
    } else {
      NCDRF_CHECK(false, "scenario json: unknown fault key: " + key);
    }
  });
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
  ScenarioSpec spec;
  JsonReader r(json);
  r.parse_object([&](const std::string& key) {
    if (key == "name") {
      spec.name = r.parse_string();
    } else if (key == "policy") {
      spec.policy = r.parse_string();
    } else if (key == "link_gbps") {
      spec.link_gbps = r.parse_double();
    } else if (key == "workload") {
      spec.workload = parse_workload(r);
    } else if (key == "strategies") {
      r.parse_object([&](const std::string& client) {
        spec.strategies[parse_int_token(client)] = parse_strategy(r);
      });
    } else if (key == "faults") {
      r.parse_array([&] { spec.faults.add(parse_fault(r)); });
    } else {
      NCDRF_CHECK(false, "scenario json: unknown spec key: " + key);
    }
  });
  r.finish();
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
