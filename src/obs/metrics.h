// Metrics registry — the aggregate half of the observability layer.
//
// Counters (monotone totals), gauges (last-written values) and
// log-bucketed histograms (latency / utilization distributions with
// p50/p95/p99 export), owned by name in a registry whose JSON export is
// deterministic (names sorted, fixed key order) so metrics files diff
// cleanly between runs.
//
// Components take a `MetricsRegistry*` and look their instruments up once
// (references are stable for the registry's lifetime), so the per-event
// cost is an increment, not a map lookup. A null registry means metrics
// are off; call sites keep the cached pointers null and skip.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace ncdrf::obs {

struct Counter {
  long long value = 0;
  void inc(long long delta = 1) { value += delta; }
};

// Every gauge is a count or a sum of seconds, and JSON has no infinity or
// NaN, so set() throws CheckError on a non-finite value.
struct Gauge {
  double value = 0.0;
  void set(double v);
};

// The three standard latency quantiles, computed in one bucket walk.
// Shared estimator: Histogram::quantiles() (cumulative), the timeseries
// windows (bucket deltas) and bench_serve all report through this, so
// every surface quotes the same numbers for the same samples.
struct Quantiles {
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
};

// Histogram over geometric buckets: bucket i covers
// (min_value·growth^(i-1), min_value·growth^i]; values <= min_value share
// the first bucket and values beyond the top land in an overflow bucket.
// Percentile queries interpolate geometrically inside the bucket and clamp
// to the observed min/max, so the relative error of any quantile is
// bounded by `growth` (the default tracks quantiles within ~26%, tight
// enough to rank latency regressions while storing ~200 longs regardless
// of sample count).
class Histogram {
 public:
  explicit Histogram(double min_value = 1e-9, double max_value = 1e12,
                     double growth = 1.2589254117941673);  // 10^(1/10)

  void observe(double value);

  long long count() const { return count_; }
  double sum() const { return sum_; }
  double min() const { return count_ > 0 ? min_ : 0.0; }
  double max() const { return count_ > 0 ? max_ : 0.0; }
  double mean() const {
    return count_ > 0 ? sum_ / static_cast<double>(count_) : 0.0;
  }
  // p in [0, 100]; 0 on an empty histogram.
  double percentile(double p) const;
  // p50/p95/p99 of the cumulative counts (same estimator as percentile).
  Quantiles quantiles() const;
  // Guaranteed relative quantile accuracy (the bucket growth factor).
  double growth() const { return growth_; }

  // The raw bucket counts (last slot = overflow). A caller holding a
  // previous copy can difference them to get a *windowed* distribution —
  // what obs/timeseries.h does once per window.
  const std::vector<long long>& bucket_counts() const { return buckets_; }

  // Quantile of an arbitrary bucket-count vector interpreted with this
  // histogram's geometry (size must match bucket_counts()). This is the
  // percentile() estimator minus the observed-min/max clamp, which only
  // the cumulative counts can provide. 0 when the counts sum to zero.
  double quantile_from_counts(const std::vector<long long>& counts,
                              double p) const;
  Quantiles quantiles_from_counts(const std::vector<long long>& counts) const;

 private:
  std::size_t bucket_of(double value) const;

  double min_value_;
  double growth_;
  double log_growth_;
  std::vector<long long> buckets_;  // last slot = overflow
  long long count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

class MetricsRegistry {
 public:
  // Look up or create by name. Returned references stay valid for the
  // registry's lifetime (node-based map), so callers cache them.
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name);
  // As histogram() but with explicit bucket geometry on first use.
  Histogram& histogram(const std::string& name, double min_value,
                       double max_value, double growth);

  bool empty() const {
    return counters_.empty() && gauges_.empty() && histograms_.empty();
  }

  // One JSON object, newline-terminated:
  // {"counters":{...},"gauges":{...},"histograms":{name:{count,sum,min,
  //  max,mean,p50,p95,p99},...}} — names sorted, deterministic.
  void write_json(std::ostream& out) const;

  // Name-ordered iteration for exporters (obs/timeseries.h rollups,
  // obs/exporter.h Prometheus text). The maps are node-based, so the
  // references stay valid across concurrent instrument creation.
  const std::map<std::string, Counter>& counters() const { return counters_; }
  const std::map<std::string, Gauge>& gauges() const { return gauges_; }
  const std::map<std::string, Histogram>& histograms() const {
    return histograms_;
  }

 private:
  std::map<std::string, Counter> counters_;
  std::map<std::string, Gauge> gauges_;
  std::map<std::string, Histogram> histograms_;
};

// Writes `name` as a JSON object key, escaped and followed by its colon,
// after a comma unless `first`, which it clears. Shared by the registry's
// and the timeseries snapshots' writers.
void write_json_key(std::ostream& out, std::string_view name, bool& first);

}  // namespace ncdrf::obs
