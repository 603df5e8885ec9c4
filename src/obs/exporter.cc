#include "obs/exporter.h"

#include <cctype>
#include <iomanip>
#include <ostream>

#include "obs/metrics.h"
#include "obs/timeseries.h"

namespace ncdrf::obs {
namespace {

// Prometheus metric-name charset: [a-zA-Z_:][a-zA-Z0-9_:]*. Everything
// else (our '.' separators in particular) maps to '_'.
std::string sanitize_name(const std::string& prefix, const std::string& name) {
  std::string out = prefix;
  for (const char c : name) {
    const bool ok = std::isalnum(static_cast<unsigned char>(c)) != 0 ||
                    c == '_' || c == ':';
    out.push_back(ok ? c : '_');
  }
  return out;
}

}  // namespace

void write_prometheus_text(std::ostream& out, const MetricsRegistry& registry,
                           const std::string& prefix) {
  const auto flags = out.flags();
  const auto precision = out.precision();
  out << std::setprecision(15);
  for (const auto& [name, counter] : registry.counters()) {
    const std::string metric = sanitize_name(prefix, name) + "_total";
    out << "# TYPE " << metric << " counter\n"
        << metric << ' ' << counter.value << '\n';
  }
  for (const auto& [name, gauge] : registry.gauges()) {
    const std::string metric = sanitize_name(prefix, name);
    out << "# TYPE " << metric << " gauge\n"
        << metric << ' ' << gauge.value << '\n';
  }
  for (const auto& [name, hist] : registry.histograms()) {
    const std::string metric = sanitize_name(prefix, name);
    const Quantiles q = hist.quantiles();
    out << "# TYPE " << metric << " summary\n"
        << metric << "{quantile=\"0.5\"} " << q.p50 << '\n'
        << metric << "{quantile=\"0.95\"} " << q.p95 << '\n'
        << metric << "{quantile=\"0.99\"} " << q.p99 << '\n'
        << metric << "_sum " << hist.sum() << '\n'
        << metric << "_count " << hist.count() << '\n';
  }
  out.flags(flags);
  out.precision(precision);
}

void write_snapshot_json(std::ostream& out, const TimeseriesSnapshot& snap) {
  const auto flags = out.flags();
  const auto precision = out.precision();
  out << std::setprecision(15);
  out << "{\"window\":" << snap.window << ",\"t0\":" << snap.t0
      << ",\"t1\":" << snap.t1 << ",\"counters\":{";
  bool first = true;
  for (const auto& [name, w] : snap.counters) {
    write_json_key(out, name, first);
    out << "{\"total\":" << w.total << ",\"delta\":" << w.delta
        << ",\"rate_per_s\":" << w.rate_per_s << '}';
  }
  out << "},\"gauges\":{";
  first = true;
  for (const auto& [name, value] : snap.gauges) {
    write_json_key(out, name, first);
    out << value;
  }
  out << "},\"histograms\":{";
  first = true;
  for (const auto& [name, w] : snap.histograms) {
    write_json_key(out, name, first);
    out << "{\"count\":" << w.count << ",\"sum\":" << w.sum
        << ",\"p50\":" << w.q.p50 << ",\"p95\":" << w.q.p95
        << ",\"p99\":" << w.q.p99 << '}';
  }
  out << "}}\n";
  out.flags(flags);
  out.precision(precision);
}

long long SnapshotStream::poll(const Timeseries& timeseries) {
  long long written = 0;
  for (const TimeseriesSnapshot& snap : timeseries.snapshots()) {
    if (snap.window <= last_window_) continue;
    write_snapshot_json(out_, snap);
    last_window_ = snap.window;
    ++written;
  }
  windows_written_ += written;
  return written;
}

}  // namespace ncdrf::obs
