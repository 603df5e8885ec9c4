// fb-replay: the paper's evaluation (Sec. V) through simulate().
//
// Input: the first half hour of the default FB twin (generator seed
// 20180701, 150 racks, 1 Gbps ports; 304 coflows, ~39k events per
// non-clairvoyant policy), with racks relabelled by a permutation drawn
// from --seed. The whole 526-coflow hour takes ~65 s for the four timed
// policies on a 4-core host, too long for one run.
//
// Relabelling keeps the workload's shape fixed across seeds: drawing a
// new twin per seed moves its active-set size, and with it events/s by
// up to ±20%, which would swamp the changes the benchmark should show.
//
// Every cell is one policy's complete simulate() with interval recording
// on (Figs. 5a/5b need it), serially on one thread.
#include <algorithm>
#include <cmath>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "bench.h"
#include "common/rng.h"
#include "common/units.h"
#include "core/registry.h"
#include "obs/perf.h"
#include "sim/sim.h"
#include "timing_scheduler.h"
#include "trace/synthetic_fb.h"

namespace perfbench {
namespace {

using namespace ncdrf;

constexpr double kWindowS = 1800.0;
// Timed cells; drf runs too (its ~1k events are too few to time) so the
// pass covers the paper's five policies.
const std::vector<std::string> kTimed = {"ncdrf", "psp", "tcp", "aalo"};
const std::vector<std::string> kPolicies = {"ncdrf", "psp", "tcp", "aalo",
                                            "drf"};

// The twin's first kWindowS seconds (at most `max_coflows` coflows), racks
// relabelled by a permutation drawn from `relabel_seed` when `relabel`.
Trace make_input(std::uint64_t relabel_seed, bool relabel,
                 std::size_t max_coflows) {
  const Trace twin = generate_synthetic_fb(SyntheticFbOptions{});
  std::vector<MachineId> label(static_cast<std::size_t>(twin.num_machines));
  std::iota(label.begin(), label.end(), 0);
  if (relabel) {
    Rng rng(relabel_seed);
    for (std::size_t i = label.size(); i > 1; --i) {
      const auto j = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<int>(i) - 1));
      std::swap(label[i - 1], label[j]);
    }
  }
  TraceBuilder builder(twin.num_machines);
  std::size_t taken = 0;
  for (const Coflow& coflow : twin.coflows) {
    if (coflow.arrival_time() >= kWindowS || taken == max_coflows) break;
    builder.begin_coflow(coflow.arrival_time());
    for (const Flow& f : coflow.flows()) {
      builder.add_flow(label[static_cast<std::size_t>(f.src)],
                       label[static_cast<std::size_t>(f.dst)], f.size_bits);
    }
    ++taken;
  }
  return builder.build();
}

// One policy's replay: its outcome and what the checks and metrics need.
struct Cell {
  std::string policy;
  double wall_s = 0.0;
  RunResult run;
  SchedPerf perf;
  // Traced pass only.
  double allocate_s = 0.0;
  double hooks_s = 0.0;
  std::vector<double> allocate_samples;
  std::vector<double> step_samples;
};

SimOptions sim_options() {
  SimOptions options;
  options.record_intervals = true;
  return options;
}

Cell replay(const Fabric& fabric, const Trace& trace, const std::string& policy,
            SpanLog* log) {
  Cell cell;
  cell.policy = policy;
  const std::unique_ptr<Scheduler> sched = make_scheduler(policy);
  if (log == nullptr) {
    const Clock::time_point start = Clock::now();
    cell.run = simulate(fabric, trace, *sched, sim_options());
    cell.wall_s = seconds_between(start, Clock::now());
  } else {
    const ScopedSpan cell_span(log, "cell");
    TimingScheduler timed(*sched, log);
    const Clock::time_point start = Clock::now();
    {
      const ScopedSpan sim_span(log, "simulate");
      cell.run = simulate(fabric, trace, timed, sim_options());
    }
    cell.wall_s = seconds_between(start, Clock::now());
    cell.allocate_s = timed.allocate_s();
    cell.hooks_s = timed.hooks_s();
    cell.allocate_samples = timed.allocate_samples();
    cell.step_samples = timed.step_samples();
  }
  if (sched->perf_counters() != nullptr) cell.perf = *sched->perf_counters();
  return cell;
}

// Output checks (outside the timed region): every coflow completes, the
// fabric delivered exactly the trace's bits, and no CCT beats the
// coflow's bottleneck-alone minimum.
void check_cell(const Trace& trace, const Cell& cell, Report& report) {
  const RunResult& run = cell.run;
  const std::string who = "fb-replay/" + cell.policy + ": ";
  report.check(run.coflows.size() == trace.coflows.size(),
               who + "not every coflow has a record");
  bool complete = true;
  bool above_min = true;
  for (const CoflowRecord& rec : run.coflows) {
    complete = complete && std::isfinite(rec.completion) &&
               rec.completion >= rec.arrival;
    above_min = above_min && rec.cct >= rec.min_cct * (1.0 - 1e-9);
  }
  report.check(complete, who + "a coflow did not complete");
  report.check(above_min, who + "a CCT is below its min_cct");
  const double bits = trace.total_bits();
  report.check(std::abs(run.total_bits_delivered - bits) <= 1e-9 * bits,
               who + "delivered bits differ from the trace's bits");
}

double cct_sum(const RunResult& run) {
  double sum = 0.0;
  for (const CoflowRecord& rec : run.coflows) sum += rec.cct;
  return sum;
}

// Bitwise comparison of a wrapped replay against the bare one.
bool same_outcome(const Cell& bare, const Cell& wrapped) {
  if (bare.run.num_events != wrapped.run.num_events ||
      bare.run.coflows.size() != wrapped.run.coflows.size() ||
      bare.perf.incremental_allocs != wrapped.perf.incremental_allocs ||
      bare.perf.full_rebuilds != wrapped.perf.full_rebuilds) {
    return false;
  }
  for (std::size_t i = 0; i < bare.run.coflows.size(); ++i) {
    if (bare.run.coflows[i].cct != wrapped.run.coflows[i].cct) return false;
  }
  return true;
}

struct Setup {
  Trace trace;
  Fabric fabric{1, 1.0};
  double generate_s = 0.0;
  double total_s = 0.0;
};

// Input generation, fabric and scheduler construction, and a warm-up
// replay of the window's first coflows under every policy.
Setup set_up(const Args& args) {
  Setup setup;
  const Clock::time_point start = Clock::now();
  setup.trace = make_input(args.seed, args.seed_given, std::size_t(-1));
  setup.generate_s = seconds_between(start, Clock::now());
  setup.fabric = Fabric(setup.trace.num_machines, gbps(1.0));
  const Trace warm = make_input(args.seed, args.seed_given, 24);
  for (const std::string& policy : kPolicies) {
    const std::unique_ptr<Scheduler> sched = make_scheduler(policy);
    simulate(setup.fabric, warm, *sched, sim_options());
  }
  setup.total_s = seconds_between(start, Clock::now());
  return setup;
}

}  // namespace

Report run_fb_replay(const Args& args) {
  Report report;
  std::vector<double> setup_s;
  std::vector<double> generate_s;
  Setup setup;
  for (int i = 0; i < 3; ++i) {
    setup = set_up(args);
    setup_s.push_back(setup.total_s);
    generate_s.push_back(setup.generate_s);
  }
  const Trace& trace = setup.trace;
  report.notes.push_back(
      "input: FB twin seed 20180701, first " + std::to_string(kWindowS) +
      " s, " + std::to_string(trace.coflows.size()) + " coflows, " +
      std::to_string(trace.total_flows) + " flows, racks relabelled by " +
      (args.seed_given ? "seed " + std::to_string(args.seed) : "identity"));

  // Untraced passes: whole passes over the five policies while another
  // pass still fits in the budget (one pass in trace mode).
  std::map<std::string, double> wall;
  std::map<std::string, long long> events;
  std::map<std::string, Cell> first;
  const Clock::time_point begin = Clock::now();
  double last_pass = 0.0;
  int passes = 0;
  while (passes == 0 ||
         (!args.trace && seconds_between(begin, Clock::now()) + last_pass <=
                             args.seconds)) {
    const Clock::time_point pass_start = Clock::now();
    for (const std::string& policy : kPolicies) {
      ++report.attempted;
      const std::size_t failures = report.check_failures.size();
      try {
        Cell cell = replay(setup.fabric, trace, policy, nullptr);
        wall[policy] += cell.wall_s;
        events[policy] += cell.run.num_events;
        check_cell(trace, cell, report);
        if (!first.contains(policy)) first.emplace(policy, std::move(cell));
      } catch (const std::exception& e) {
        report.check_failures.push_back("fb-replay/" + policy +
                                        " threw: " + e.what());
      }
      if (report.check_failures.size() != failures) ++report.failed;
    }
    last_pass = seconds_between(pass_start, Clock::now());
    ++passes;
  }
  report.notes.push_back("untraced passes: " + std::to_string(passes));

  std::vector<double> rates;
  std::vector<double> cell_walls;
  double untraced_wall = 0.0;
  for (const std::string& policy : kTimed) {
    if (wall[policy] <= 0.0) continue;
    const double rate = static_cast<double>(events[policy]) / wall[policy];
    rates.push_back(rate);
    cell_walls.push_back(wall[policy] / passes);
    untraced_wall += wall[policy] / passes;
    report.put("events_per_s." + policy, rate, "events/s");
    report.put("wall_s." + policy, wall[policy] / passes, "s");
  }
  if (first.contains("drf")) {
    report.put("wall_s.drf", wall["drf"] / passes, "s");
  }
  for (const auto& [policy, cell] : first) {
    report.put("sim.events." + policy,
               static_cast<double>(cell.run.num_events), "count");
    report.put("sim.cct_sum_s." + policy, cct_sum(cell.run), "s");
  }
  report.put("setup_s", median(setup_s), "s");
  report.put("trace.generate_s", median(generate_s), "s");

  if (!args.trace) {
    report.set("setup_s", median(setup_s), "s");
    report.set("peak_rss_mb", peak_rss_mb(), "MB");
    report.set("events_per_s", geomean(rates), "events/s");
    report.set("latency_ms", 1e3 * median(cell_walls), "ms");
    report.set("tail_latency_ms",
               1e3 * *std::max_element(cell_walls.begin(), cell_walls.end()),
               "ms");
    return report;
  }

  // Traced pass: the same five replays through the timing wrapper, with
  // spans. Each must reproduce its bare replay exactly.
  SpanLog log(Clock::now(), 1);
  log.reserve(1 << 20);
  std::map<std::string, Cell> traced;
  double traced_wall = 0.0;
  for (const std::string& policy : kPolicies) {
    Cell cell = replay(setup.fabric, trace, policy, &log);
    check_cell(trace, cell, report);
    const auto bare = first.find(policy);
    report.check(bare != first.end() && same_outcome(bare->second, cell),
                 "fb-replay/" + policy +
                     ": the timing wrapper changed the outcome (events, CCTs "
                     "or incremental/rebuild counts)");
    if (std::find(kTimed.begin(), kTimed.end(), policy) != kTimed.end()) {
      traced_wall += cell.wall_s;
    }
    traced.emplace(policy, std::move(cell));
  }

  LayerTotals layers;
  for (const auto& [policy, cell] : traced) {
    const double engine = cell.wall_s - cell.allocate_s - cell.hooks_s;
    report.put("sim.engine_s." + policy, engine, "s");
    report.put("sched.allocate_s." + policy, cell.allocate_s, "s");
    report.put("sched.allocate_p99_us." + policy,
               1e6 * percentile(cell.allocate_samples, 99.0), "us");
    report.put("sched.hooks_s." + policy, cell.hooks_s, "s");
    report.put("sched.incremental_allocs." + policy,
               static_cast<double>(cell.perf.incremental_allocs), "count");
    report.put("sched.full_rebuilds." + policy,
               static_cast<double>(cell.perf.full_rebuilds), "count");
    report.put("sched.backfill_s." + policy, cell.perf.backfill_seconds, "s");
    layers.loop_s += engine;
    layers.allocate_s += cell.allocate_s;
    layers.hooks_s += cell.hooks_s;
    layers.backfill_s += cell.perf.backfill_seconds;
    layers.incremental += cell.perf.incremental_allocs;
    layers.rebuilds += cell.perf.full_rebuilds;
    layers.add_samples(cell.allocate_samples, cell.step_samples);
  }
  const double overhead = traced_wall / untraced_wall - 1.0;
  report.put("obs.trace_overhead", overhead, "ratio");

  for (const std::string& policy : kTimed) {
    report.set("events_per_s." + policy,
               report.detail["events_per_s." + policy].value, "events/s");
  }
  report.set("trace.generate_s", median(generate_s), "s");
  report.set("obs.trace_overhead", overhead, "ratio");
  set_layer_metrics(report, layers);
  report.set("sim.events", static_cast<double>(traced["ncdrf"].run.num_events),
             "count");

  finish_trace(report, args, {&log});
  return report;
}

}  // namespace perfbench
