// Schema validators for the observability layer's JSON artifacts.
//
// The exporters in tracer/metrics emit JSON by hand (no JSON library in
// the image), so CI needs an independent check that the artifacts are
// well-formed and match the schema downstream tools expect — a trace that
// Perfetto silently refuses to load is worse than a failing test. Each
// validator parses the full text with the strict reader in common/json.h
// (which also rejects repeated keys) and then checks the schema
// structurally:
//
//   * Chrome trace: top-level object with a "traceEvents" array; every
//     event has name/cat/ph/ts/pid/tid with the right types, a known
//     phase, ids on async phases, scopes on instants — and B/E duration
//     events balance like parentheses.
//   * metrics: "counters"/"gauges"/"histograms" objects; histogram
//     entries carry count/sum/min/max/mean/p50/p95/p99 numbers with
//     ordered quantiles.
//   * NDJSON: every non-empty line is one standalone JSON object.
//   * timeseries NDJSON: every line a snapshot (obs/exporter.h) with
//     strictly increasing window numbers and ordered, gap-free spans —
//     a truncated or reordered stream is rejected.
//   * flight bundle: the obs/flight.h diagnostics bundle — trigger
//     provenance, config, an embedded metrics object (checked against
//     the metrics schema), an ordered timeseries array, and a trace
//     slice (field-checked per event; slices may cut spans, so B/E
//     balance is *not* required, unlike full Chrome traces).
//
// Validators return "" on success or a one-line human-readable error.
// Used by tests/obs_test.cc and by tools/obs_validate (the CI gate).
#pragma once

#include <string>
#include <utility>
#include <vector>

namespace ncdrf::obs {

// Any JSON document (syntax only).
std::string validate_json(const std::string& text);

// Chrome trace-event JSON object format (what Tracer::write_chrome_json
// emits and chrome://tracing / Perfetto load).
std::string validate_chrome_trace_json(const std::string& text);

// MetricsRegistry::write_json schema.
std::string validate_metrics_json(const std::string& text);

// One JSON object per non-empty line (Tracer::write_ndjson).
std::string validate_ndjson(const std::string& text);

// Timeseries snapshot NDJSON (obs/exporter.h SnapshotStream). Also fails
// on a final line missing its newline — an append-only stream that was
// truncated mid-write.
std::string validate_timeseries_ndjson(const std::string& text);

// FlightRecorder diagnostics bundle (obs/flight.h).
std::string validate_flight_bundle_json(const std::string& text);

// bench_gaming --json report (bench/bench_gaming.cc): benchmark tag plus
// a rows array whose cells carry the full incentive-metric schema
// tools/bench_gaming_report.py gates on.
std::string validate_gaming_json(const std::string& text);

// --- Parsed snapshot view (tools/obs_top) --------------------------------
// One timeseries NDJSON line decoded into flat name/value rows, in the
// line's order. Numbers only — obs_top renders, it doesn't aggregate.
struct SnapshotRow {
  double window = 0.0;
  double t0 = 0.0;
  double t1 = 0.0;
  // counter name -> {total, delta, rate_per_s}
  std::vector<std::pair<std::string, std::vector<double>>> counters;
  std::vector<std::pair<std::string, double>> gauges;
  // histogram name -> {count, sum, p50, p95, p99}
  std::vector<std::pair<std::string, std::vector<double>>> histograms;
};

// Parses one snapshot line into `out`; returns "" on success or the
// schema/syntax error.
std::string parse_timeseries_line(const std::string& line, SnapshotRow* out);

}  // namespace ncdrf::obs
