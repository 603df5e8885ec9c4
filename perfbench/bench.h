// Shared plumbing of the perfbench harness: run arguments, the metric
// report, the in-memory span log, timing helpers and host metadata.
//
// The harness only drives the library through its public entry points
// (simulate(), the Scheduler interface, ServeFront/SubmissionQueue); all
// timing happens out here, around those calls.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  bool seed_given = false;
  double seconds = 30.0;
  bool trace = false;
  std::string out_dir;  // detail JSON + Chrome trace land here
};

// One named measurement with its unit.
struct Metric {
  double value = 0.0;
  std::string unit;
};

// What a workload hands back to main(): the contract metrics (the generic
// set every workload reports, see README.md), the detailed per-cell and
// per-stage metrics under the names the notes use, and the run's outcome.
struct Report {
  std::map<std::string, Metric> metrics;  // contract set for this mode
  std::map<std::string, Metric> detail;   // every named metric
  long long attempted = 0;
  long long failed = 0;
  std::vector<std::string> check_failures;
  std::vector<std::string> notes;  // human-readable lines for the log

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  void put(const std::string& name, double value, const std::string& unit) {
    detail[name] = Metric{value, unit};
  }
  void check(bool ok, const std::string& what) {
    if (!ok) check_failures.push_back(what);
  }
};

// --- Spans --------------------------------------------------------------
//
// Spans are recorded only by the traced pass. Each log belongs to one
// thread (no locking); logs are merged when the run ends.
struct Span {
  const char* name = "";
  double start = 0.0;  // seconds since the log's origin
  double end = 0.0;    // == start for an instant mark
  int parent = -1;     // index into the same log, -1 = root
  std::int64_t request = -1;  // request id (coflow id), -1 = none
};

class SpanLog {
 public:
  SpanLog(Clock::time_point origin, int tid) : origin_(origin), tid_(tid) {}

  double now() const { return seconds_between(origin_, Clock::now()); }
  int tid() const { return tid_; }

  // Opens a span under the innermost open span; returns its index.
  int open(const char* name, std::int64_t request = -1) {
    const int parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back(Span{name, now(), 0.0, parent, request});
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }
  void close() {
    spans_[static_cast<std::size_t>(stack_.back())].end = now();
    stack_.pop_back();
  }
  // Records a finished span [start, end] under the innermost open span.
  void add(const char* name, double start, double end,
           std::int64_t request = -1) {
    const int parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back(Span{name, start, end, parent, request});
  }
  void mark(const char* name, std::int64_t request) {
    const double t = now();
    add(name, t, t, request);
  }

  const std::vector<Span>& spans() const { return spans_; }
  void reserve(std::size_t n) { spans_.reserve(n); }

 private:
  Clock::time_point origin_;
  int tid_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

// Total and self time (span minus the part its children cover) per span
// name, over one or more logs.
struct SpanTotals {
  long long count = 0;
  double total_s = 0.0;
  double self_s = 0.0;
};
std::map<std::string, SpanTotals> span_totals(
    const std::vector<const SpanLog*>& logs);

// Writes the logs as Chrome trace-event JSON ("X" complete events and "i"
// instants, microseconds), loadable in Perfetto / chrome://tracing.
void write_chrome_trace(const std::string& path,
                        const std::vector<const SpanLog*>& logs);

// RAII span on an optional log (null = untraced, costs one branch).
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, std::int64_t request = -1)
      : log_(log) {
    if (log_ != nullptr) log_->open(name, request);
  }
  ~ScopedSpan() {
    if (log_ != nullptr) log_->close();
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
};

// The per-layer totals every workload's traced pass reports under the
// same names (README.md, "Per-layer metrics").
struct LayerTotals {
  double loop_s = 0.0;  // the event loop outside Scheduler calls
  std::vector<double> step_samples;  // seconds per loop step
  double allocate_s = 0.0;
  std::vector<double> allocate_samples;
  double hooks_s = 0.0;
  long long incremental = 0;
  long long rebuilds = 0;
  double backfill_s = 0.0;

  void add_samples(const std::vector<double>& allocate,
                   const std::vector<double>& steps) {
    allocate_samples.insert(allocate_samples.end(), allocate.begin(),
                            allocate.end());
    step_samples.insert(step_samples.end(), steps.begin(), steps.end());
  }
};

// Sets the loop.* and sched.* contract metrics from `t`.
void set_layer_metrics(Report& report, const LayerTotals& t);

// Writes the spans as <out_dir>/<workload>-trace.json (when an output
// directory is given) and logs each span name's count, total and self time.
void finish_trace(Report& report, const Args& args,
                  const std::vector<const SpanLog*>& logs);

// --- Statistics ----------------------------------------------------------

// Linear-interpolated percentile (q in [0, 100]) of an unsorted sample;
// sorts a copy. 0 for an empty sample.
double percentile(std::vector<double> values, double q);
double median(const std::vector<double>& values);
double geomean(const std::vector<double>& values);

// --- Process and host ----------------------------------------------------

// Peak resident set size of this process so far, in MB (VmHWM).
double peak_rss_mb();

// Calling thread's CPU time in seconds.
double thread_cpu_s();

// One-line JSON object: cores, CPU model, compiler, build type, source
// revision (passed in by the launcher, which can see the checkout).
std::string host_json();

// Input seed for a workload: the run's --seed when given, otherwise the
// workload's documented default.
inline std::uint64_t seed_or(const Args& args, std::uint64_t fallback) {
  return args.seed_given ? args.seed : fallback;
}

Report run_fb_replay(const Args& args);
Report run_churn(const Args& args);
Report run_serve_open(const Args& args);

}  // namespace perfbench
