#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <ostream>

#include "common/check.h"
#include "common/json.h"

namespace ncdrf::obs {

void Gauge::set(double v) {
  NCDRF_CHECK(std::isfinite(v), "gauge set to a non-finite value");
  value = v;
}

void write_json_key(std::ostream& out, std::string_view name, bool& first) {
  std::string key;
  if (!first) key += ',';
  append_json_string(key, name);
  key += ':';
  out << key;
  first = false;
}

Histogram::Histogram(double min_value, double max_value, double growth)
    : min_value_(min_value), growth_(growth), log_growth_(std::log(growth)) {
  NCDRF_CHECK(min_value > 0.0 && max_value > min_value && growth > 1.0,
              "histogram needs 0 < min < max and growth > 1");
  const auto spans = static_cast<std::size_t>(
      std::ceil(std::log(max_value / min_value) / log_growth_));
  buckets_.assign(spans + 2, 0);  // [<=min] + spans + overflow
}

std::size_t Histogram::bucket_of(double value) const {
  if (value <= min_value_) return 0;
  const auto i = static_cast<std::size_t>(
      std::ceil(std::log(value / min_value_) / log_growth_ - 1e-12));
  return std::min(i, buckets_.size() - 1);
}

void Histogram::observe(double value) {
  NCDRF_CHECK(std::isfinite(value) && value >= 0.0,
              "histogram values must be finite and non-negative");
  ++buckets_[bucket_of(value)];
  if (count_ == 0) {
    min_ = max_ = value;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
  ++count_;
  sum_ += value;
}

double Histogram::quantile_from_counts(const std::vector<long long>& counts,
                                       double p) const {
  NCDRF_CHECK(p >= 0.0 && p <= 100.0, "percentile must be in [0, 100]");
  NCDRF_CHECK(counts.size() == buckets_.size(),
              "bucket-count vector does not match the histogram geometry");
  long long total = 0;
  for (const long long c : counts) total += c;
  if (total == 0) return 0.0;
  // Rank of the target sample (nearest-rank on the bucketed counts), then
  // a geometric interpolation inside the bucket it falls in.
  const double rank = p / 100.0 * static_cast<double>(total - 1);
  long long seen = 0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    if (counts[i] == 0) continue;
    const auto before = static_cast<double>(seen);
    seen += counts[i];
    if (rank < static_cast<double>(seen)) {
      const double lo =
          i == 0 ? min_value_ * std::pow(growth_, -1.0)
                 : min_value_ * std::pow(growth_, static_cast<double>(i) - 1.0);
      const double hi = min_value_ * std::pow(growth_, static_cast<double>(i));
      const double frac = counts[i] > 1
                              ? (rank - before) /
                                    static_cast<double>(counts[i] - 1)
                              : 0.5;
      return lo * std::pow(hi / lo, frac);
    }
  }
  return min_value_ * std::pow(growth_, static_cast<double>(counts.size()));
}

Quantiles Histogram::quantiles_from_counts(
    const std::vector<long long>& counts) const {
  return Quantiles{quantile_from_counts(counts, 50.0),
                   quantile_from_counts(counts, 95.0),
                   quantile_from_counts(counts, 99.0)};
}

double Histogram::percentile(double p) const {
  if (count_ == 0) {
    NCDRF_CHECK(p >= 0.0 && p <= 100.0, "percentile must be in [0, 100]");
    return 0.0;
  }
  // The cumulative counts additionally know the observed extrema, so the
  // bucket estimate is clamped to [min, max] (exact for the tails).
  return std::clamp(quantile_from_counts(buckets_, p), min_, max_);
}

Quantiles Histogram::quantiles() const {
  return Quantiles{percentile(50.0), percentile(95.0), percentile(99.0)};
}

Counter& MetricsRegistry::counter(const std::string& name) {
  return counters_[name];
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  return gauges_[name];
}

Histogram& MetricsRegistry::histogram(const std::string& name) {
  return histograms_.try_emplace(name).first->second;
}

Histogram& MetricsRegistry::histogram(const std::string& name,
                                      double min_value, double max_value,
                                      double growth) {
  return histograms_
      .try_emplace(name, min_value, max_value, growth)
      .first->second;
}

void MetricsRegistry::write_json(std::ostream& out) const {
  const auto flags = out.flags();
  const auto precision = out.precision();
  out << std::setprecision(15);
  out << "{\"counters\":{";
  bool first = true;
  for (const auto& [name, c] : counters_) {
    write_json_key(out, name, first);
    out << c.value;
  }
  out << "},\"gauges\":{";
  first = true;
  for (const auto& [name, g] : gauges_) {
    write_json_key(out, name, first);
    out << g.value;
  }
  out << "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : histograms_) {
    write_json_key(out, name, first);
    out << "{\"count\":" << h.count()
        << ",\"sum\":" << h.sum() << ",\"min\":" << h.min()
        << ",\"max\":" << h.max() << ",\"mean\":" << h.mean()
        << ",\"p50\":" << h.percentile(50.0)
        << ",\"p95\":" << h.percentile(95.0)
        << ",\"p99\":" << h.percentile(99.0) << '}';
  }
  out << "}}\n";
  out.flags(flags);
  out.precision(precision);
}

}  // namespace ncdrf::obs
