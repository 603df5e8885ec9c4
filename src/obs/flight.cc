#include "obs/flight.h"

#include <algorithm>
#include <fstream>
#include <iomanip>
#include <sstream>
#include <utility>

#include "common/check.h"
#include "common/json.h"
#include "obs/exporter.h"
#include "obs/metrics.h"
#include "obs/timeseries.h"
#include "obs/tracer.h"
#include "sim/audit.h"

namespace ncdrf::obs {

FlightRecorder::FlightRecorder(FlightOptions options)
    : options_(std::move(options)) {
  NCDRF_CHECK(options_.cooldown_s >= 0.0,
              "flight cooldown must be non-negative");
  NCDRF_CHECK(options_.trace_slice_s >= 0.0,
              "flight trace slice must be non-negative");
  NCDRF_CHECK(options_.slo_windows >= 1, "flight slo_windows must be >= 1");
  NCDRF_CHECK(options_.slo_burn_rate > 0.0 && options_.slo_burn_rate <= 1.0,
              "flight slo_burn_rate must be in (0, 1]");
}

void FlightRecorder::attach(const Tracer* tracer,
                            const MetricsRegistry* metrics,
                            const Timeseries* timeseries) {
  tracer_ = tracer;
  metrics_ = metrics;
  timeseries_ = timeseries;
}

void FlightRecorder::watch_auditor(const FairnessAuditor* auditor) {
  auditor_ = auditor;
}

void FlightRecorder::set_config_json(std::string config_json) {
  config_json_ = config_json.empty() ? "{}" : std::move(config_json);
}

void FlightRecorder::observe_epoch(double now, const EpochVitals& vitals) {
  if (options_.trigger_shed && vitals.backpressure_level >= 2 &&
      prev_level_ < 2) {
    std::ostringstream detail;
    detail << "backpressure entered kShed (backlog " << vitals.backlog
           << ", shed " << vitals.shed_delta << " this epoch)";
    fire(now, "backpressure_shed", detail.str(),
         static_cast<double>(vitals.shed_delta));
  }
  prev_level_ = vitals.backpressure_level;

  if (options_.staleness_budget_s >= 0.0 &&
      vitals.staleness_s > options_.staleness_budget_s) {
    std::ostringstream detail;
    detail << "push staleness " << vitals.staleness_s << "s over budget "
           << options_.staleness_budget_s << 's';
    fire(now, "staleness_breach", detail.str(), vitals.staleness_s);
  }

  if (options_.trigger_envelope && auditor_ != nullptr) {
    const std::size_t seen = auditor_->violations().size();
    if (seen > violations_seen_) {
      const AuditViolation& v = auditor_->violations().back();
      std::ostringstream detail;
      detail << "Theorem-1 envelope violation: coflow " << v.coflow
             << " ratio " << v.ratio << " over bound " << v.bound;
      fire(now, "envelope_violation", detail.str(), v.ratio);
    }
    violations_seen_ = seen;
  }

  evaluate_slo(now);
}

void FlightRecorder::evaluate_slo(double now) {
  if (timeseries_ == nullptr || options_.slo_histogram.empty() ||
      options_.slo_p99_s < 0.0) {
    return;
  }
  for (const TimeseriesSnapshot& snap : timeseries_->snapshots()) {
    if (snap.window <= last_slo_window_) continue;
    last_slo_window_ = snap.window;
    const auto it = std::find_if(
        snap.histograms.begin(), snap.histograms.end(),
        [&](const auto& entry) { return entry.first == options_.slo_histogram; });
    if (it == snap.histograms.end()) continue;
    const HistogramWindow& w = it->second;
    // An idle window (no samples) cannot breach: burn-rate measures the
    // served traffic's tail, not the absence of traffic.
    slo_breaches_.push_back(w.count > 0 && w.q.p99 > options_.slo_p99_s);
    while (slo_breaches_.size() >
           static_cast<std::size_t>(options_.slo_windows)) {
      slo_breaches_.pop_front();
    }
    if (slo_breaches_.size() <
        static_cast<std::size_t>(options_.slo_windows)) {
      continue;
    }
    const auto breaches = static_cast<double>(
        std::count(slo_breaches_.begin(), slo_breaches_.end(), true));
    const double burn = breaches / static_cast<double>(slo_breaches_.size());
    if (burn >= options_.slo_burn_rate) {
      std::ostringstream detail;
      detail << options_.slo_histogram << " windowed p99 over "
             << options_.slo_p99_s << "s in " << breaches << '/'
             << options_.slo_windows << " windows";
      if (fire(now, "slo_burn", detail.str(), burn)) {
        slo_breaches_.clear();  // restart accounting after a fire
      }
    }
  }
}

bool FlightRecorder::fire(double now, const std::string& kind,
                          const std::string& detail, double value) {
  const auto it = last_fire_.find(kind);
  if (it != last_fire_.end() && now - it->second < options_.cooldown_s) {
    ++triggers_suppressed_;
    return false;
  }
  last_fire_[kind] = now;
  last_bundle_json_ = build_bundle(now, kind, detail, value);
  if (!options_.dir.empty()) {
    std::ostringstream name;
    name << options_.dir << "/flight-" << std::setfill('0') << std::setw(3)
         << seq_ << '-' << kind << ".json";
    std::ofstream out(name.str());
    NCDRF_CHECK(out.good(), "cannot write flight bundle " + name.str());
    out << last_bundle_json_;
    bundle_paths_.push_back(name.str());
  }
  ++seq_;
  ++bundles_written_;
  return true;
}

std::string FlightRecorder::build_bundle(double now, const std::string& kind,
                                         const std::string& detail,
                                         double value) {
  std::string kind_json;
  std::string detail_json;
  append_json_string(kind_json, kind);
  append_json_string(detail_json, detail);
  std::ostringstream out;
  out << std::setprecision(15);
  out << "{\"bundle\":\"ncdrf.flight\",\"seq\":" << seq_
      << ",\"trigger\":{\"kind\":" << kind_json << ",\"time\":" << now
      << ",\"value\":" << value << ",\"detail\":" << detail_json
      << "},\"config\":" << config_json_ << ",\"metrics\":";
  if (metrics_ != nullptr) {
    std::ostringstream metrics;
    metrics_->write_json(metrics);
    std::string text = metrics.str();
    while (!text.empty() && text.back() == '\n') text.pop_back();
    out << text;
  } else {
    out << "{\"counters\":{},\"gauges\":{},\"histograms\":{}}";
  }
  out << ",\"timeseries\":[";
  if (timeseries_ != nullptr) {
    bool first = true;
    for (const TimeseriesSnapshot& snap : timeseries_->snapshots()) {
      if (!first) out << ',';
      first = false;
      std::ostringstream line;
      write_snapshot_json(line, snap);
      std::string text = line.str();
      while (!text.empty() && text.back() == '\n') text.pop_back();
      out << text;
    }
  }
  out << "],\"trace\":{\"dropped\":"
      << (tracer_ != nullptr ? tracer_->dropped_events() : 0)
      << ",\"events\":";
  if (tracer_ != nullptr) {
    tracer_->write_slice_json(out, now - options_.trace_slice_s);
  } else {
    out << "[]";
  }
  out << "}}\n";
  return out.str();
}

}  // namespace ncdrf::obs
