// ncdrf_cli: a command-line front end to the whole library, for downstream
// users who want results as CSV rather than C++.
//
// Usage:
//   ncdrf_cli [options]
//     --scheduler <name>     ncdrf|drf|hug|psp|tcp|aalo|varys|fifo|baraat|
//                            persource|perpair        (default: ncdrf)
//     --trace <path>         Coflow-Benchmark file (default: synthetic)
//     --seed <n>             synthetic trace seed     (default: 20180701)
//     --coflows <n>          synthetic coflow count   (default: 526)
//     --racks <n>            synthetic rack count     (default: 150)
//     --duration <s>         synthetic arrival window (default: 3600)
//     --capacity-gbps <g>    per-port capacity        (default: 1.0)
//     --csv <path>           write per-coflow results as CSV
//     --intervals-csv <path> write per-interval utilization/disparity CSV
//     --trace-json <path>    write a Chrome trace-event file (Perfetto)
//     --metrics-json <path>  write the counters/histograms registry JSON
//     --progress-csv <path>  write per-coflow progress samples as CSV
//     --audit-json <path>    run the live Theorem 1 fairness audit and
//                            write its report (e_max, violations)
//
// Example:
//   ./ncdrf_cli --scheduler psp --coflows 100 --csv psp.csv
#include <fstream>
#include <iostream>
#include <memory>
#include <string>

#include "common/check.h"
#include "common/units.h"
#include "core/registry.h"
#include "metrics/eval.h"
#include "metrics/export.h"
#include "obs/metrics.h"
#include "obs/tracer.h"
#include "sim/audit.h"
#include "sim/sim.h"
#include "trace/benchmark_format.h"
#include "trace/synthetic_fb.h"

namespace {

struct CliOptions {
  std::string scheduler = "ncdrf";
  std::string trace_path;
  std::string csv_path;
  std::string intervals_csv_path;
  std::string trace_json_path;
  std::string metrics_json_path;
  std::string progress_csv_path;
  std::string audit_json_path;
  ncdrf::SyntheticFbOptions synthetic;
  double capacity_gbps = 1.0;
};

CliOptions parse_args(int argc, char** argv) {
  CliOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      NCDRF_CHECK(i + 1 < argc, "missing value for " + arg);
      return argv[++i];
    };
    if (arg == "--scheduler") {
      options.scheduler = next();
    } else if (arg == "--trace") {
      options.trace_path = next();
    } else if (arg == "--seed") {
      options.synthetic.seed = std::stoull(next());
    } else if (arg == "--coflows") {
      options.synthetic.num_coflows = std::stoi(next());
    } else if (arg == "--racks") {
      options.synthetic.num_racks = std::stoi(next());
    } else if (arg == "--duration") {
      options.synthetic.duration_s = std::stod(next());
    } else if (arg == "--capacity-gbps") {
      options.capacity_gbps = std::stod(next());
    } else if (arg == "--csv") {
      options.csv_path = next();
    } else if (arg == "--intervals-csv") {
      options.intervals_csv_path = next();
    } else if (arg == "--trace-json") {
      options.trace_json_path = next();
    } else if (arg == "--metrics-json") {
      options.metrics_json_path = next();
    } else if (arg == "--progress-csv") {
      options.progress_csv_path = next();
    } else if (arg == "--audit-json") {
      options.audit_json_path = next();
    } else {
      NCDRF_CHECK(false, "unknown argument: " + arg);
    }
  }
  return options;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ncdrf;
  try {
    const CliOptions options = parse_args(argc, argv);

    const Trace trace = options.trace_path.empty()
                            ? generate_synthetic_fb(options.synthetic)
                            : load_benchmark_trace(options.trace_path);
    const Fabric fabric(trace.num_machines, gbps(options.capacity_gbps));
    const auto scheduler = make_scheduler(options.scheduler);

    SimOptions sim_options;
    sim_options.record_intervals = !options.intervals_csv_path.empty();
    sim_options.record_progress_timeseries =
        !options.progress_csv_path.empty();

    // Observability attachments, each enabled only when its output was
    // requested so the default CLI run stays allocation-free of obs state.
    obs::Tracer tracer;
    if (!options.trace_json_path.empty()) sim_options.tracer = &tracer;
    obs::MetricsRegistry metrics;
    if (!options.metrics_json_path.empty()) sim_options.metrics = &metrics;
    std::unique_ptr<obs::FairnessAuditor> auditor;
    if (!options.audit_json_path.empty()) {
      auditor = std::make_unique<obs::FairnessAuditor>(fabric);
      sim_options.auditor = auditor.get();
    }

    const RunResult run = simulate(fabric, trace, *scheduler, sim_options);

    if (!options.csv_path.empty()) {
      std::ofstream out(options.csv_path);
      NCDRF_CHECK(out.good(), "cannot write " + options.csv_path);
      write_coflow_csv(out, run);
      std::cout << "wrote " << run.coflows.size() << " coflow rows to "
                << options.csv_path << "\n";
    }
    if (!options.intervals_csv_path.empty()) {
      std::ofstream out(options.intervals_csv_path);
      NCDRF_CHECK(out.good(), "cannot write " + options.intervals_csv_path);
      write_intervals_csv(out, run);
      std::cout << "wrote " << run.intervals.size() << " interval rows to "
                << options.intervals_csv_path << "\n";
    }
    if (!options.trace_json_path.empty()) {
      std::ofstream out(options.trace_json_path);
      NCDRF_CHECK(out.good(), "cannot write " + options.trace_json_path);
      tracer.write_chrome_json(out);
      std::cout << "wrote " << tracer.size() << " trace events to "
                << options.trace_json_path << "\n";
    }
    if (!options.metrics_json_path.empty()) {
      std::ofstream out(options.metrics_json_path);
      NCDRF_CHECK(out.good(), "cannot write " + options.metrics_json_path);
      metrics.write_json(out);
      std::cout << "wrote metrics registry to " << options.metrics_json_path
                << "\n";
    }
    if (!options.progress_csv_path.empty()) {
      std::ofstream out(options.progress_csv_path);
      NCDRF_CHECK(out.good(), "cannot write " + options.progress_csv_path);
      obs::write_progress_csv(out, run.progress);
      std::cout << "wrote " << run.progress.size() << " progress samples to "
                << options.progress_csv_path << "\n";
    }
    if (auditor != nullptr) {
      auditor->finalize();
      std::ofstream out(options.audit_json_path);
      NCDRF_CHECK(out.good(), "cannot write " + options.audit_json_path);
      auditor->write_report_json(out);
      std::cout << "audited " << auditor->coflows_checked() << " coflows ("
                << auditor->violations().size()
                << " Theorem 1 violations) -> " << options.audit_json_path
                << "\n";
    }

    const Summary slow = summarize(slowdowns(run));
    std::cout << scheduler->name() << " on " << run.coflows.size()
              << " coflows: makespan " << run.makespan << " s, mean slowdown "
              << slow.mean << ", p95 " << slow.p95 << ", "
              << run.num_allocations << " allocations\n";
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
}
