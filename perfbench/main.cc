// perfbench: one command that runs the fb-replay, churn-10k and
// serve-open workloads, checks their outputs, and prints every metric by
// name and unit plus the host it ran on. See README.md.
//
//   perfbench --workload <fb-replay|churn-10k|serve-open> [--seed N]
//             [--seconds S] [--trace 0|1] [--out-dir DIR]
//
// The last stdout line is one JSON object {correct, attempted, failed,
// metrics}: the end-to-end metrics with --trace 0, the per-layer metrics
// with --trace 1. Exit code 1 when an output check fails.
#include <cmath>
#include <cstdio>
#include <exception>
#include <string>
#include <vector>

#include "bench.h"

namespace {

using perfbench::Metric;
using perfbench::Report;

struct Declared {
  const char* name;
  const char* unit;
};

// The contract sets, in BENCHMARK.json's order. Every workload reports
// every one: a layer a workload bypasses reads 0, which is only allowed
// for counts, ratios and rates (never for a time).
const std::vector<Declared> kEndToEnd = {
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
    {"events_per_s", "events/s"},
    {"latency_ms", "ms"},
    {"tail_latency_ms", "ms"},
};

const std::vector<Declared> kPerLayer = {
    {"trace.generate_s", "s"},
    {"obs.trace_overhead", "ratio"},
    {"loop.self_s", "s"},
    {"loop.step_p50_us", "us"},
    {"loop.step_p99_us", "us"},
    {"sched.allocate_s", "s"},
    {"sched.allocate_p50_us", "us"},
    {"sched.allocate_p99_us", "us"},
    {"sched.allocate_calls", "count"},
    {"sched.hooks_s", "s"},
    {"sched.incremental_allocs", "count"},
    {"sched.full_rebuilds", "count"},
    {"sched.backfill_s", "s"},
    {"sim.events", "count"},
    {"events_per_s.ncdrf", "events/s"},
    {"events_per_s.psp", "events/s"},
    {"events_per_s.tcp", "events/s"},
    {"events_per_s.aalo", "events/s"},
    {"events_per_s.drf", "events/s"},
    {"events_per_s.drf-x4", "events/s"},
    {"events_per_s.tcp-x4", "events/s"},
    {"shard.regions", "count"},
    {"shard.busy_share", "ratio"},
    {"shard.critical_share", "ratio"},
    {"shard.wait_share", "ratio"},
    {"shard.cpu_ratio.drf", "ratio"},
    {"shard.cpu_ratio.tcp", "ratio"},
    {"shard.rate_ratio.drf", "ratio"},
    {"shard.rate_ratio.tcp", "ratio"},
    {"serve.busy_frac.25k", "ratio"},
    {"serve.busy_frac.50k", "ratio"},
    {"serve.queue_share.50k", "ratio"},
    {"serve.alloc_share.50k", "ratio"},
    {"serve.push_share.50k", "ratio"},
    {"serve.view_share.50k", "ratio"},
    {"serve.allocations.50k", "count"},
    {"serve.rate_pushes.50k", "count"},
    {"serve.backlog_max.50k", "count"},
    {"serve.admit_after_tick.50k", "count"},
    {"max_rate_per_s", "coflows/s"},
};

bool is_time_unit(const std::string& unit) {
  return unit == "s" || unit == "ms" || unit == "us";
}

// Orders the workload's contract metrics as declared, filling layers the
// workload bypasses with 0. A missing time or a unit mismatch is a bug in
// the harness and fails the run.
std::vector<std::pair<std::string, Metric>> contract_metrics(
    Report& report, const std::vector<Declared>& declared) {
  std::vector<std::pair<std::string, Metric>> out;
  for (const Declared& d : declared) {
    const auto it = report.metrics.find(d.name);
    if (it == report.metrics.end()) {
      if (is_time_unit(d.unit)) {
        report.check_failures.push_back(std::string("harness: time metric ") +
                                        d.name + " was not measured");
      }
      out.emplace_back(d.name, Metric{0.0, d.unit});
      continue;
    }
    if (it->second.unit != d.unit) {
      report.check_failures.push_back(std::string("harness: metric ") +
                                      d.name + " has unit " + it->second.unit);
    }
    if (!std::isfinite(it->second.value)) {
      report.check_failures.push_back(std::string("harness: metric ") +
                                      d.name + " is not finite");
      out.emplace_back(d.name, Metric{0.0, d.unit});
      continue;
    }
    out.emplace_back(d.name, Metric{it->second.value, d.unit});
  }
  for (const auto& [name, metric] : report.metrics) {
    bool known = false;
    for (const Declared& d : declared) known = known || name == d.name;
    if (!known) {
      report.check_failures.push_back("harness: undeclared metric " + name);
    }
  }
  return out;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <fb-replay|churn-10k|serve-open> "
               "[--seed N] [--seconds S] [--trace 0|1] [--out-dir DIR]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    try {
      if (flag == "--workload") {
        args.workload = value;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
        args.seed_given = true;
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
      } else if (flag == "--trace") {
        args.trace = value == "1";
      } else if (flag == "--out-dir") {
        args.out_dir = value;
      } else {
        return usage();
      }
    } catch (const std::exception&) {
      return usage();
    }
  }
  if (argc % 2 == 0 || !(args.seconds > 0.0)) return usage();

  Report report;
  try {
    if (args.workload == "fb-replay") {
      report = perfbench::run_fb_replay(args);
    } else if (args.workload == "churn-10k") {
      report = perfbench::run_churn(args);
    } else if (args.workload == "serve-open") {
      report = perfbench::run_serve_open(args);
    } else {
      return usage();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", args.workload.c_str(),
                 e.what());
    return 1;
  }

  std::printf("host %s\n", perfbench::host_json().c_str());
  std::printf("workload %s seed %s trace %d\n", args.workload.c_str(),
              args.seed_given ? std::to_string(args.seed).c_str() : "default",
              args.trace ? 1 : 0);
  for (const std::string& note : report.notes) {
    std::printf("  %s\n", note.c_str());
  }
  for (const auto& [name, metric] : report.detail) {
    std::printf("  %-36s %.6g %s\n", name.c_str(), metric.value,
                metric.unit.c_str());
  }
  const auto metrics =
      contract_metrics(report, args.trace ? kPerLayer : kEndToEnd);
  for (const std::string& failure : report.check_failures) {
    std::printf("CHECK FAILED: %s\n", failure.c_str());
  }
  const bool correct = report.check_failures.empty();

  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(report.attempted);
  json += ", \"failed\": " + std::to_string(report.failed);
  json += ", \"metrics\": {";
  char buf[128];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, ",
                  i == 0 ? "" : ", ", metrics[i].first.c_str(),
                  metrics[i].second.value);
    json += buf;
    json += "\"unit\": \"" + metrics[i].second.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return correct ? 0 : 1;
}
