#include <sched.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "bench.h"

namespace perfbench {

std::map<std::string, SpanTotals> span_totals(
    const std::vector<const SpanLog*>& logs) {
  std::map<std::string, SpanTotals> totals;
  for (const SpanLog* log : logs) {
    const std::vector<Span>& spans = log->spans();
    std::vector<double> child_s(spans.size(), 0.0);
    for (const Span& s : spans) {
      if (s.parent >= 0) {
        child_s[static_cast<std::size_t>(s.parent)] += s.end - s.start;
      }
    }
    for (std::size_t i = 0; i < spans.size(); ++i) {
      SpanTotals& t = totals[spans[i].name];
      const double duration = spans[i].end - spans[i].start;
      ++t.count;
      t.total_s += duration;
      t.self_s += duration - child_s[i];
    }
  }
  return totals;
}

void write_chrome_trace(const std::string& path,
                        const std::vector<const SpanLog*>& logs) {
  std::ofstream out(path);
  if (!out) return;
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  const char* sep = "";
  char buf[320];
  for (const SpanLog* log : logs) {
    const std::vector<Span>& spans = log->spans();
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      const double ts = s.start * 1e6;
      const double dur = (s.end - s.start) * 1e6;
      // Marks become thread-scoped instants, spans complete ("X") events.
      std::snprintf(buf, sizeof(buf),
                    dur > 0.0 ? "%s{\"name\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,"
                                "\"dur\":%.3f,\"pid\":1,\"tid\":%d,"
                                "\"args\":{\"id\":%zu,\"parent\":%d,"
                                "\"request\":%lld}}"
                              : "%s{\"name\":\"%s\",\"ph\":\"i\",\"ts\":%.3f,"
                                "\"s\":\"t\",\"dur\":%.3f,\"pid\":1,\"tid\":%d,"
                                "\"args\":{\"id\":%zu,\"parent\":%d,"
                                "\"request\":%lld}}",
                    sep, s.name, ts, dur, log->tid(), i, s.parent,
                    static_cast<long long>(s.request));
      out << buf;
      sep = ",\n";
    }
  }
  out << "\n]}\n";
}

void set_layer_metrics(Report& report, const LayerTotals& t) {
  report.set("loop.self_s", t.loop_s, "s");
  report.set("loop.step_p50_us", 1e6 * median(t.step_samples), "us");
  report.set("loop.step_p99_us", 1e6 * percentile(t.step_samples, 99.0),
             "us");
  report.set("sched.allocate_s", t.allocate_s, "s");
  report.set("sched.allocate_p50_us", 1e6 * median(t.allocate_samples), "us");
  report.set("sched.allocate_p99_us",
             1e6 * percentile(t.allocate_samples, 99.0), "us");
  report.set("sched.allocate_calls",
             static_cast<double>(t.allocate_samples.size()), "count");
  report.set("sched.hooks_s", t.hooks_s, "s");
  report.set("sched.incremental_allocs", static_cast<double>(t.incremental),
             "count");
  report.set("sched.full_rebuilds", static_cast<double>(t.rebuilds), "count");
  report.set("sched.backfill_s", t.backfill_s, "s");
}

void finish_trace(Report& report, const Args& args,
                  const std::vector<const SpanLog*>& logs) {
  if (!args.out_dir.empty()) {
    write_chrome_trace(args.out_dir + "/" + args.workload + "-trace.json",
                       logs);
  }
  for (const auto& [name, t] : span_totals(logs)) {
    report.notes.push_back("span " + name + ": count " +
                           std::to_string(t.count) + ", total " +
                           std::to_string(t.total_s) + " s, self " +
                           std::to_string(t.self_s) + " s");
  }
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = q / 100.0 * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double median(const std::vector<double>& values) {
  return percentile(values, 50.0);
}

double geomean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double log_sum = 0.0;
  for (const double v : values) log_sum += std::log(v);
  return std::exp(log_sum / static_cast<double>(values.size()));
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MB
    }
  }
  return 0.0;
}

double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

std::string cpu_model() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) {
        std::size_t begin = colon + 1;
        while (begin < line.size() && line[begin] == ' ') ++begin;
        return line.substr(begin);
      }
    }
  }
  return "unknown";
}

int usable_cores() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) return CPU_COUNT(&set);
  return static_cast<int>(std::thread::hardware_concurrency());
}

}  // namespace

std::string host_json() {
#if defined(__clang__)
  const std::string compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  const std::string compiler = std::string("gcc ") + __VERSION__;
#else
  const std::string compiler = "unknown";
#endif
  const std::string build_type = PERFBENCH_BUILD_TYPE;
  const char* revision = std::getenv("PERFBENCH_REVISION");
  std::ostringstream out;
  out << "{\"cores\": " << usable_cores()
      << ", \"cpu_model\": \"" << json_escape(cpu_model()) << "\""
      << ", \"compiler\": \"" << json_escape(compiler) << "\""
      << ", \"build_type\": \"" << json_escape(build_type) << "\""
      << ", \"release\": " << (build_type == "Release" ? "true" : "false")
      << ", \"revision\": \""
      << json_escape(revision != nullptr ? revision : "unknown") << "\"}";
  return out.str();
}

}  // namespace perfbench
