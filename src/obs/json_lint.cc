#include "obs/json_lint.h"

#include <initializer_list>
#include <limits>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/json.h"

namespace ncdrf::obs {
namespace {

// Schema checks over the common/json DOM; each returns "" or an error.

constexpr double kNegInf = -std::numeric_limits<double>::infinity();

std::string parse_object(const std::string& text, JsonValue& root) {
  if (std::string err = parse_json(text, &root); !err.empty()) return err;
  return root.is_object() ? "" : "top level is not an object";
}

std::string require_numbers(const JsonValue& object,
                            std::initializer_list<const char*> keys,
                            const std::string& where) {
  for (const char* key : keys) {
    const JsonValue* value = object.find(key);
    if (value == nullptr) return where + ": missing \"" + key + '"';
    if (!value->is_number()) return where + ": \"" + key + "\" not a number";
  }
  return "";
}

// The counters/gauges/histograms sections of both registry schemas.
std::string require_sections(const JsonValue& object,
                             const std::string& prefix) {
  for (const char* section : {"counters", "gauges", "histograms"}) {
    const JsonValue* value = object.find(section);
    if (value == nullptr || !value->is_object()) {
      return prefix + "missing \"" + section + "\" object";
    }
  }
  return "";
}

// A histogram entry: every key in `keys` a number, p50 <= p95 <= p99.
std::string check_histogram(const JsonValue& entry,
                            std::initializer_list<const char*> keys,
                            const std::string& where) {
  if (!entry.is_object()) return where + ": not an object";
  if (std::string err = require_numbers(entry, keys, where); !err.empty()) {
    return err;
  }
  const double p50 = entry.find("p50")->number;
  const double p95 = entry.find("p95")->number;
  const double p99 = entry.find("p99")->number;
  if (!(p50 <= p95 && p95 <= p99)) {
    return where + ": quantiles not ordered (p50 <= p95 <= p99)";
  }
  return "";
}

// What every trace event promises, a flight bundle's trace slice included:
// a slice may cut a span in half, so B/E balance is not checked here.
std::string check_event_fields(const JsonValue& event,
                               const std::string& where) {
  if (!event.is_object()) return where + ": not an object";
  const JsonValue* name = event.find("name");
  if (name == nullptr || !name->is_string()) {
    return where + ": missing string \"name\"";
  }
  const JsonValue* ph = event.find("ph");
  if (ph == nullptr || !ph->is_string() || ph->text.size() != 1) {
    return where + ": missing one-character \"ph\"";
  }
  return require_numbers(event, {"ts", "pid", "tid"}, where);
}

// A full Chrome trace event: the fields above plus a category, an args
// object, a known phase, and B/E spans that nest like parentheses.
std::string check_trace_event(const JsonValue& event, const std::string& where,
                              std::vector<std::string>& open_spans) {
  if (std::string err = check_event_fields(event, where); !err.empty()) {
    return err;
  }
  const JsonValue* cat = event.find("cat");
  if (cat == nullptr || !cat->is_string()) {
    return where + ": missing string \"cat\"";
  }
  const JsonValue* args = event.find("args");
  if (args != nullptr && !args->is_object()) {
    return where + ": \"args\" not an object";
  }
  const std::string& name = event.find("name")->text;
  const char phase = event.find("ph")->text[0];
  switch (phase) {
    case 'B':
      open_spans.push_back(name);
      return "";
    case 'E':
      if (open_spans.empty()) {
        return where + ": 'E' with no open 'B' span";
      }
      if (open_spans.back() != name) {
        return where + ": 'E' for \"" + name +
               "\" but innermost open span is \"" + open_spans.back() + '"';
      }
      open_spans.pop_back();
      return "";
    case 'i': {
      const JsonValue* scope = event.find("s");
      if (scope != nullptr && !scope->is_string()) {
        return where + ": instant scope \"s\" not a string";
      }
      return "";
    }
    case 'b':
    case 'e':
      return require_numbers(event, {"id"}, where);
    case 'X':
      return require_numbers(event, {"dur"}, where);
    case 'M':
    case 'C':
      return "";
    default:
      return where + ": unknown phase '" + std::string(1, phase) + '\'';
  }
}

// MetricsRegistry::write_json schema over an already-parsed object —
// shared between validate_metrics_json and the flight bundle's embedded
// "metrics" section.
std::string check_metrics_object(const JsonValue& top) {
  if (std::string err = require_sections(top, ""); !err.empty()) return err;
  for (const char* section : {"counters", "gauges"}) {
    for (const auto& [name, value] : top.find(section)->members) {
      if (!value.is_number()) {
        return std::string(section) + '.' + name + ": not a number";
      }
    }
  }
  for (const auto& [name, value] : top.find("histograms")->members) {
    if (std::string err = check_histogram(
            value, {"count", "sum", "min", "max", "mean", "p50", "p95", "p99"},
            "histograms." + name);
        !err.empty()) {
      return err;
    }
  }
  return "";
}

// One timeseries snapshot object (a SnapshotStream NDJSON line or a
// flight bundle "timeseries" element), plus the stream-ordering contract:
// strictly increasing windows, t1 > t0, gap-free spans. `prev_window` /
// `prev_t1` carry the contract across snapshots (start at -inf).
std::string check_snapshot_object(const JsonValue& snap,
                                  const std::string& where,
                                  double& prev_window, double& prev_t1) {
  if (!snap.is_object()) return where + ": not an object";
  if (std::string err = require_numbers(snap, {"window", "t0", "t1"}, where);
      !err.empty()) {
    return err;
  }
  const double window = snap.find("window")->number;
  const double t0 = snap.find("t0")->number;
  const double t1 = snap.find("t1")->number;
  if (window <= prev_window) {
    return where + ": window numbers not strictly increasing";
  }
  if (t1 <= t0) return where + ": window span is empty (t1 <= t0)";
  if (prev_t1 > kNegInf && t0 != prev_t1) {
    return where + ": window spans not contiguous (t0 != previous t1)";
  }
  prev_window = window;
  prev_t1 = t1;
  if (std::string err = require_sections(snap, where + ": "); !err.empty()) {
    return err;
  }
  for (const auto& [name, value] : snap.find("counters")->members) {
    const std::string cwhere = where + ".counters." + name;
    if (!value.is_object()) return cwhere + ": not an object";
    if (std::string err =
            require_numbers(value, {"total", "delta", "rate_per_s"}, cwhere);
        !err.empty()) {
      return err;
    }
  }
  for (const auto& [name, value] : snap.find("gauges")->members) {
    if (!value.is_number()) {
      return where + ".gauges." + name + ": not a number";
    }
  }
  for (const auto& [name, value] : snap.find("histograms")->members) {
    if (std::string err =
            check_histogram(value, {"count", "sum", "p50", "p95", "p99"},
                            where + ".histograms." + name);
        !err.empty()) {
      return err;
    }
  }
  return "";
}

// Parses each non-empty line of `text` as a JSON object and runs
// `check(object, where)` on it; `where` names the line.
template <typename Check>
std::string check_lines(const std::string& text, Check check) {
  std::istringstream in(text);
  std::string line;
  std::size_t line_no = 0;
  JsonValue value;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    const std::string where = "line " + std::to_string(line_no);
    if (std::string err = parse_json(line, &value); !err.empty()) {
      return where + ": " + err;
    }
    if (!value.is_object()) return where + ": not a JSON object";
    if (std::string err = check(value, where); !err.empty()) return err;
  }
  return "";
}

}  // namespace

std::string validate_json(const std::string& text) {
  JsonValue root;
  return parse_json(text, &root);
}

std::string validate_chrome_trace_json(const std::string& text) {
  JsonValue top;
  if (std::string err = parse_object(text, top); !err.empty()) return err;
  const JsonValue* events = top.find("traceEvents");
  if (events == nullptr || !events->is_array()) {
    return "missing \"traceEvents\" array";
  }
  if (const JsonValue* dropped = top.find("droppedEvents");
      dropped != nullptr && !dropped->is_number()) {
    return "\"droppedEvents\" not a number";
  }
  std::vector<std::string> open_spans;
  double last_ts = kNegInf;
  for (std::size_t i = 0; i < events->items.size(); ++i) {
    const JsonValue& event = events->items[i];
    const std::string where = "traceEvents[" + std::to_string(i) + ']';
    if (std::string err = check_trace_event(event, where, open_spans);
        !err.empty()) {
      return err;
    }
    const double ts = event.find("ts")->number;
    if (ts < last_ts) return where + ": timestamps not non-decreasing";
    last_ts = ts;
  }
  if (!open_spans.empty()) {
    return "unbalanced spans: \"" + open_spans.back() + "\" never closed";
  }
  return "";
}

std::string validate_metrics_json(const std::string& text) {
  JsonValue top;
  if (std::string err = parse_object(text, top); !err.empty()) return err;
  return check_metrics_object(top);
}

std::string validate_ndjson(const std::string& text) {
  return check_lines(text, [](const JsonValue&, const std::string&) {
    return std::string();
  });
}

std::string validate_timeseries_ndjson(const std::string& text) {
  // An append-only stream ends every record with '\n'; a final line
  // without one is a write cut mid-record.
  if (!text.empty() && text.back() != '\n') {
    return "truncated final line (missing newline)";
  }
  double prev_window = kNegInf;
  double prev_t1 = kNegInf;
  return check_lines(text, [&](const JsonValue& snap, const std::string& where) {
    return check_snapshot_object(snap, where, prev_window, prev_t1);
  });
}

std::string validate_flight_bundle_json(const std::string& text) {
  JsonValue top;
  if (std::string err = parse_object(text, top); !err.empty()) return err;

  const JsonValue* bundle = top.find("bundle");
  if (bundle == nullptr || !bundle->is_string() ||
      bundle->text != "ncdrf.flight") {
    return "missing \"bundle\":\"ncdrf.flight\" marker";
  }
  if (std::string err = require_numbers(top, {"seq"}, "bundle");
      !err.empty()) {
    return err;
  }

  const JsonValue* trigger = top.find("trigger");
  if (trigger == nullptr || !trigger->is_object()) {
    return "missing \"trigger\" object";
  }
  for (const char* key : {"kind", "detail"}) {
    const JsonValue* field = trigger->find(key);
    if (field == nullptr || !field->is_string()) {
      return std::string("trigger: missing string \"") + key + '"';
    }
  }
  if (std::string err = require_numbers(*trigger, {"time", "value"}, "trigger");
      !err.empty()) {
    return err;
  }

  const JsonValue* config = top.find("config");
  if (config == nullptr || !config->is_object()) {
    return "missing \"config\" object";
  }

  const JsonValue* metrics = top.find("metrics");
  if (metrics == nullptr || !metrics->is_object()) {
    return "missing \"metrics\" object";
  }
  if (std::string err = check_metrics_object(*metrics); !err.empty()) {
    return "metrics: " + err;
  }

  const JsonValue* timeseries = top.find("timeseries");
  if (timeseries == nullptr || !timeseries->is_array()) {
    return "missing \"timeseries\" array";
  }
  double prev_window = kNegInf;
  double prev_t1 = kNegInf;
  for (std::size_t i = 0; i < timeseries->items.size(); ++i) {
    if (std::string err = check_snapshot_object(
            timeseries->items[i], "timeseries[" + std::to_string(i) + ']',
            prev_window, prev_t1);
        !err.empty()) {
      return err;
    }
  }

  const JsonValue* trace = top.find("trace");
  if (trace == nullptr || !trace->is_object()) {
    return "missing \"trace\" object";
  }
  if (std::string err = require_numbers(*trace, {"dropped"}, "trace");
      !err.empty()) {
    return err;
  }
  const JsonValue* events = trace->find("events");
  if (events == nullptr || !events->is_array()) {
    return "trace: missing \"events\" array";
  }
  for (std::size_t i = 0; i < events->items.size(); ++i) {
    if (std::string err = check_event_fields(
            events->items[i], "trace.events[" + std::to_string(i) + ']');
        !err.empty()) {
      return err;
    }
  }
  return "";
}

std::string parse_timeseries_line(const std::string& line, SnapshotRow* out) {
  JsonValue snap;
  if (std::string err = parse_object(line, snap); !err.empty()) return err;
  double prev_window = kNegInf;
  double prev_t1 = kNegInf;
  if (std::string err =
          check_snapshot_object(snap, "snapshot", prev_window, prev_t1);
      !err.empty()) {
    return err;
  }
  out->window = snap.find("window")->number;
  out->t0 = snap.find("t0")->number;
  out->t1 = snap.find("t1")->number;
  out->counters.clear();
  out->gauges.clear();
  out->histograms.clear();
  const auto numbers = [](const JsonValue& entry,
                          std::initializer_list<const char*> keys) {
    std::vector<double> values;
    for (const char* key : keys) values.push_back(entry.find(key)->number);
    return values;
  };
  for (const auto& [name, value] : snap.find("counters")->members) {
    out->counters.emplace_back(
        name, numbers(value, {"total", "delta", "rate_per_s"}));
  }
  for (const auto& [name, value] : snap.find("gauges")->members) {
    out->gauges.emplace_back(name, value.number);
  }
  for (const auto& [name, value] : snap.find("histograms")->members) {
    out->histograms.emplace_back(
        name, numbers(value, {"count", "sum", "p50", "p95", "p99"}));
  }
  return "";
}

std::string validate_gaming_json(const std::string& text) {
  JsonValue top;
  if (std::string err = parse_object(text, top); !err.empty()) return err;
  const JsonValue* benchmark = top.find("benchmark");
  if (benchmark == nullptr || !benchmark->is_string() ||
      benchmark->text != "bench_gaming") {
    return "missing \"benchmark\": \"bench_gaming\" tag";
  }
  const JsonValue* rows = top.find("rows");
  if (rows == nullptr || !rows->is_array()) return "missing \"rows\" array";
  for (std::size_t i = 0; i < rows->items.size(); ++i) {
    const std::string where = "rows[" + std::to_string(i) + ']';
    const JsonValue& row = rows->items[i];
    if (!row.is_object()) return where + ": not an object";
    for (const char* key : {"policy", "strategy"}) {
      const JsonValue* field = row.find(key);
      if (field == nullptr || !field->is_string()) {
        return where + ": \"" + key + "\" not a string";
      }
    }
    if (std::string err = require_numbers(
            row,
            {"honest_fraction", "clients", "machines", "attackers", "coflows",
             "utilization", "jain_coflow", "jain_tenant", "log_welfare",
             "attacker_gain", "victim_slowdown", "makespan_s"},
            where);
        !err.empty()) {
      return err;
    }
    const double fraction = row.find("honest_fraction")->number;
    if (fraction <= 0.0 || fraction >= 1.0) {
      return where + ": honest_fraction outside (0, 1)";
    }
    for (const char* key : {"attacker_gain", "victim_slowdown"}) {
      if (row.find(key)->number <= 0.0) {
        return where + ": \"" + std::string(key) + "\" not positive";
      }
    }
    for (const char* key : {"jain_coflow", "jain_tenant", "utilization"}) {
      const double v = row.find(key)->number;
      if (v < 0.0 || v > 1.0 + 1e-9) {
        return where + ": \"" + std::string(key) + "\" outside [0, 1]";
      }
    }
  }
  return "";
}

}  // namespace ncdrf::obs
