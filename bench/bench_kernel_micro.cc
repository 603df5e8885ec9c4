// Kernel-layer microbenchmark with hardware perf counters: the
// mechanical-sympathy companion to bench_sched_scalability. Where that
// bench measures end-to-end events/sec, this one isolates the hot kernels
// — the SoA snapshot gather, the unit-weight waterfill solve, and each
// policy family's priority-fill allocate() on a warmed incremental
// scheduler — and annotates every case with instructions, branch misses,
// and cache (LLC) misses per event from perf_event_open.
//
// Counters degrade gracefully: when the syscall is unavailable (seccomp'd
// containers, perf_event_paranoid, non-Linux) the bench still reports
// wall and CPU time per event and marks the counter columns "n/a" —
// nothing in CI depends on the hardware columns being present.
//
// `--json` emits one newline-delimited JSON object per case for the CI
// bench-smoke artifact (bench_kernel_micro.json); the numbers feed the
// cache-profile tables in docs/ARCHITECTURE.md §7.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <ctime>
#include <iostream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#if defined(__linux__)
#include <linux/perf_event.h>
#include <sys/ioctl.h>
#include <sys/syscall.h>
#include <unistd.h>
#endif

#include "alloc/kernel_scratch.h"
#include "alloc/legacy.h"
#include "alloc/waterfill.h"
#include "common/table.h"
#include "common/units.h"
#include "core/registry.h"
#include "sched/scheduler.h"
#include "trace/synthetic_fb.h"

namespace {

using namespace ncdrf;

// One hardware event counter. Unavailable counters (no syscall, paranoid
// sysctl, missing PMU) stay closed and read as -1.
class PerfCounter {
 public:
  PerfCounter(std::uint32_t type, std::uint64_t config) {
#if defined(__linux__)
    perf_event_attr attr;
    std::memset(&attr, 0, sizeof(attr));
    attr.type = type;
    attr.size = sizeof(attr);
    attr.config = config;
    attr.disabled = 1;
    attr.exclude_kernel = 1;
    attr.exclude_hv = 1;
    fd_ = static_cast<int>(syscall(SYS_perf_event_open, &attr, /*pid=*/0,
                                   /*cpu=*/-1, /*group_fd=*/-1,
                                   /*flags=*/0UL));
#else
    (void)type;
    (void)config;
#endif
  }
  ~PerfCounter() {
#if defined(__linux__)
    if (fd_ >= 0) close(fd_);
#endif
  }
  PerfCounter(const PerfCounter&) = delete;
  PerfCounter& operator=(const PerfCounter&) = delete;

  bool valid() const { return fd_ >= 0; }

  void start() {
#if defined(__linux__)
    if (fd_ < 0) return;
    ioctl(fd_, PERF_EVENT_IOC_RESET, 0);
    ioctl(fd_, PERF_EVENT_IOC_ENABLE, 0);
#endif
  }

  long long stop() {
#if defined(__linux__)
    if (fd_ < 0) return -1;
    ioctl(fd_, PERF_EVENT_IOC_DISABLE, 0);
    long long value = -1;
    if (read(fd_, &value, sizeof(value)) != sizeof(value)) return -1;
    return value;
#else
    return -1;
#endif
  }

 private:
  int fd_ = -1;
};

// Instructions + branch-misses + LLC-misses around a region of interest.
struct PerfGroup {
  PerfGroup()
#if defined(__linux__)
      : instructions(PERF_TYPE_HARDWARE, PERF_COUNT_HW_INSTRUCTIONS),
        branch_misses(PERF_TYPE_HARDWARE, PERF_COUNT_HW_BRANCH_MISSES),
        cache_misses(PERF_TYPE_HARDWARE, PERF_COUNT_HW_CACHE_MISSES)
#else
      : instructions(0, 0), branch_misses(0, 0), cache_misses(0, 0)
#endif
  {
  }

  void start() {
    instructions.start();
    branch_misses.start();
    cache_misses.start();
  }

  PerfCounter instructions;
  PerfCounter branch_misses;
  PerfCounter cache_misses;
};

double cpu_now_s() {
  timespec ts;
  if (clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts) != 0) return 0.0;
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

struct CaseResult {
  std::string name;
  int coflows = 0;
  int flows = 0;
  long long events = 0;
  double wall_ns_per_event = 0.0;
  double cpu_ns_per_event = 0.0;
  // -1 = counter unavailable on this machine.
  double instructions_per_event = -1.0;
  double branch_misses_per_event = -1.0;
  double cache_misses_per_event = -1.0;
};

// Runs `fn` (one event per call) until `min_time_s` of wall clock has
// accumulated, with perf counters wrapped around the whole timed run.
template <typename Fn>
CaseResult measure(const std::string& name, int coflows, int flows,
                   double min_time_s, Fn&& fn) {
  using Clock = std::chrono::steady_clock;
  fn();
  fn();  // warm-up: arenas coalesce, caches settle, branch predictors train

  // Calibrate an iteration count from one timed call, then run the whole
  // batch under the counters so per-event noise averages out.
  const auto probe_start = Clock::now();
  fn();
  const double probe_s =
      std::chrono::duration<double>(Clock::now() - probe_start).count();
  long long events = 8;
  if (probe_s > 0.0) {
    events = std::max<long long>(
        1, static_cast<long long>(min_time_s / probe_s) + 1);
  }
  events = std::min<long long>(events, 100000);

  PerfGroup perf;
  const double cpu_start = cpu_now_s();
  const auto wall_start = Clock::now();
  perf.start();
  for (long long i = 0; i < events; ++i) fn();
  const long long instructions = perf.instructions.stop();
  const long long branch_misses = perf.branch_misses.stop();
  const long long cache_misses = perf.cache_misses.stop();
  const double wall_s =
      std::chrono::duration<double>(Clock::now() - wall_start).count();
  const double cpu_s = cpu_now_s() - cpu_start;

  CaseResult result;
  result.name = name;
  result.coflows = coflows;
  result.flows = flows;
  result.events = events;
  const double denom = static_cast<double>(events);
  result.wall_ns_per_event = 1e9 * wall_s / denom;
  result.cpu_ns_per_event = 1e9 * cpu_s / denom;
  if (instructions >= 0) {
    result.instructions_per_event =
        static_cast<double>(instructions) / denom;
  }
  if (branch_misses >= 0) {
    result.branch_misses_per_event =
        static_cast<double>(branch_misses) / denom;
  }
  if (cache_misses >= 0) {
    result.cache_misses_per_event =
        static_cast<double>(cache_misses) / denom;
  }
  return result;
}

// The bench_sched_scalability snapshot shape: `num_coflows` concurrently
// active synthetic-FB coflows on 150 racks.
struct Workbench {
  Fabric fabric{150, gbps(1.0)};
  Trace trace;
  ScheduleInput input;
  std::vector<double> remaining;
  std::unique_ptr<ClairvoyantInfo> info;

  explicit Workbench(int num_coflows) {
    SyntheticFbOptions options;
    options.num_coflows = num_coflows;
    options.duration_s = 1.0;
    options.max_flows_per_coflow = 64;
    trace = generate_synthetic_fb(options);

    input.fabric = &fabric;
    remaining.assign(static_cast<std::size_t>(trace.total_flows), 0.0);
    for (const Coflow& coflow : trace.coflows) {
      ActiveCoflow view;
      view.id = coflow.id();
      view.arrival_time = coflow.arrival_time();
      for (const Flow& f : coflow.flows()) {
        view.flows.push_back(ActiveFlow{f.id, f.coflow, f.src, f.dst});
        remaining[static_cast<std::size_t>(f.id)] = f.size_bits;
      }
      input.coflows.push_back(std::move(view));
    }
    info = std::make_unique<ClairvoyantInfo>(&remaining);
  }

  int num_flows() const { return static_cast<int>(trace.total_flows); }
};

std::string fmt_counter(double v, int precision = 0) {
  return v < 0.0 ? "n/a" : AsciiTable::fmt(v, precision);
}

void emit_json(std::ostream& out, const CaseResult& r) {
  out << "{\"bench\":\"kernel_micro\",\"case\":\"" << r.name
      << "\",\"coflows\":" << r.coflows << ",\"flows\":" << r.flows
      << ",\"events\":" << r.events
      << ",\"wall_ns_per_event\":" << r.wall_ns_per_event
      << ",\"cpu_ns_per_event\":" << r.cpu_ns_per_event
      << ",\"counters_valid\":"
      << (r.instructions_per_event >= 0.0 ? "true" : "false")
      << ",\"instructions_per_event\":" << r.instructions_per_event
      << ",\"branch_misses_per_event\":" << r.branch_misses_per_event
      << ",\"cache_misses_per_event\":" << r.cache_misses_per_event
      << "}\n";
}

}  // namespace

int main(int argc, char** argv) {
  bool json = false;
  int coflows = 500;
  double min_time_s = 0.2;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      json = true;
    } else if (std::strcmp(argv[i], "--coflows") == 0 && i + 1 < argc) {
      coflows = std::stoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--min-time") == 0 && i + 1 < argc) {
      min_time_s = std::stod(argv[++i]);
    }
  }

  Workbench bench(coflows);
  std::cerr << "# kernel microbench: " << coflows << " coflows, "
            << bench.num_flows() << " flows, 150 racks\n";
  {
    PerfGroup probe;
    std::cerr << "# perf counters: "
              << (probe.instructions.valid() ? "available"
                                             : "unavailable (wall/CPU only)")
              << "\n";
  }

  std::vector<CaseResult> results;

  // Kernel primitives in isolation: the snapshot mirror and the
  // unit-weight max-min solve over the gathered columns.
  {
    KernelScratch scratch;
    results.push_back(measure("gather", coflows, bench.num_flows(),
                              min_time_s, [&] {
                                scratch.gather(bench.input, nullptr,
                                               GatherCounts::kNone);
                              }));
  }
  {
    KernelScratch scratch;
    const FlowTable& table =
        scratch.gather(bench.input, nullptr, GatherCounts::kNone);
    WaterfillKernel kernel;
    std::vector<double> capacities(
        static_cast<std::size_t>(bench.fabric.num_links()));
    for (std::size_t l = 0; l < capacities.size(); ++l) {
      capacities[l] = bench.fabric.capacity(static_cast<LinkId>(l));
    }
    std::vector<double> rates(table.num_flows, 0.0);
    const WaterfillProblem problem{table.num_flows, table.up, table.dn,
                                   /*weight=*/nullptr};
    results.push_back(
        measure("waterfill_solve", coflows, bench.num_flows(), min_time_s,
                [&] {
                  kernel.solve(bench.fabric, problem, capacities, nullptr,
                               rates.data());
                }));
  }

  // Full allocate() per policy family on a hook-warmed scheduler, so the
  // incremental paths (PriorityOrder, DemandCache, LinkLoadState) are the
  // ones under the counters — the same state a live event loop runs in.
  const std::vector<std::string> policies = {"tcp",   "fifo", "aalo",
                                             "baraat", "varys", "psp",
                                             "drf",   "hug"};
  for (const std::string& name : policies) {
    const auto scheduler = make_scheduler(name);
    bench.input.clairvoyant =
        scheduler->clairvoyant() ? bench.info.get() : nullptr;
    scheduler->on_reset(bench.fabric);
    for (const ActiveCoflow& c : bench.input.coflows) {
      scheduler->on_coflow_arrival(c);
    }
    results.push_back(
        measure(name + "_allocate", coflows, bench.num_flows(), min_time_s,
                [&] {
                  Allocation alloc = scheduler->allocate(bench.input);
                  (void)alloc;
                }));
    // The frozen pre-refactor twin on the same snapshot: the "before"
    // column of the §7 cache-profile tables.
    if (legacy_supports(name)) {
      results.push_back(measure(
          name + "_legacy", coflows, bench.num_flows(), min_time_s, [&] {
            Allocation alloc = legacy_allocate(name, bench.input);
            (void)alloc;
          }));
    }
  }

  AsciiTable table({"Case", "Events", "Wall ns/ev", "CPU ns/ev",
                    "Instr/ev", "BrMiss/ev", "LLCMiss/ev"});
  for (const CaseResult& r : results) {
    table.add_row({r.name, std::to_string(r.events),
                   AsciiTable::fmt(r.wall_ns_per_event, 0),
                   AsciiTable::fmt(r.cpu_ns_per_event, 0),
                   fmt_counter(r.instructions_per_event),
                   fmt_counter(r.branch_misses_per_event),
                   fmt_counter(r.cache_misses_per_event)});
  }
  std::cerr << table.render();

  if (json) {
    for (const CaseResult& r : results) emit_json(std::cout, r);
  }
  return 0;
}
