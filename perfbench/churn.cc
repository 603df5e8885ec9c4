// churn-10k: the scheduler at cluster scale through the Scheduler
// interface alone.
//
// Input: 10,000 concurrently active coflows from the FB twin generator
// (seed = --seed, default 20180701), on the generator's own endpoints over
// 150 racks, width capped at 64 flows as bench_scale does. No rack
// locality is added: bench_scale's 0.9 rack-group locality is a best case
// built for sharding, and this workload measures the shard layer on the
// traffic the twin itself produces.
//
// Replay: finish -> depart -> re-arrive triples (bench_scale's), each
// event delivered through the event hooks and followed by one allocate().
// allocate() is nearly all of the time; the sim engine does no work.
#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "common/units.h"
#include "core/registry.h"
#include "obs/perf.h"
#include "sched/scheduler.h"
#include "timing_scheduler.h"
#include "trace/synthetic_fb.h"

namespace perfbench {
namespace {

using namespace ncdrf;

constexpr int kCoflows = 10000;
constexpr int kRacks = 150;
constexpr int kMaxWidth = 64;

struct CellSpec {
  std::string name;
  std::string policy;
  // Serial cells make up the end-to-end metrics. The 4-shard cells run
  // four threads on a host whose four cores other tenants share; their
  // wall rate moved by 2x between runs minutes apart, so they are
  // reported (per-layer and in the log) but not gated.
  bool gated;
};
const std::vector<CellSpec> kCells = {{"ncdrf", "ncdrf", true},
                                      {"drf", "drf", true},
                                      {"tcp", "tcp", true},
                                      {"drf-x4", "drf@4", false},
                                      {"tcp-x4", "tcp@4", false}};

struct Workload {
  Fabric fabric{kRacks, gbps(1.0)};
  std::vector<ActiveCoflow> pristine;
  std::vector<double> remaining;  // by FlowId, for the clairvoyant cells
};

Workload make_workload(std::uint64_t seed) {
  SyntheticFbOptions options;
  options.seed = seed;
  options.num_coflows = kCoflows;
  options.num_racks = kRacks;
  options.duration_s = 1.0;  // everything concurrently active
  options.max_flows_per_coflow = kMaxWidth;
  const Trace trace = generate_synthetic_fb(options);
  Workload w;
  w.remaining.assign(static_cast<std::size_t>(trace.total_flows), 0.0);
  w.pristine.reserve(trace.coflows.size());
  for (const Coflow& coflow : trace.coflows) {
    ActiveCoflow view;
    view.id = coflow.id();
    view.arrival_time = coflow.arrival_time();
    for (const Flow& f : coflow.flows()) {
      view.flows.push_back(ActiveFlow{f.id, f.coflow, f.src, f.dst});
      w.remaining[static_cast<std::size_t>(f.id)] = f.size_bits;
    }
    w.pristine.push_back(std::move(view));
  }
  return w;
}

// One scheduler under replay: the live snapshot, the cursor, and the
// event it is about to replay.
class Replay {
 public:
  Replay(const Workload& w, const std::string& policy)
      : w_(w), sched_(make_scheduler(policy)), info_(&w.remaining) {
    input_.fabric = &w.fabric;
    input_.coflows = w.pristine;
    input_.clairvoyant = &info_;
    for (const ActiveCoflow& c : input_.coflows) {
      live_ += static_cast<int>(c.flows.size());
    }
    input_.total_live_flows = live_;
  }

  Scheduler& scheduler() { return *sched_; }
  const ScheduleInput& input() const { return input_; }

  // Seeds the event-driven state with the whole active set.
  void seed_hooks(Scheduler& via) {
    if (!via.wants_events()) return;
    via.on_reset(w_.fabric);
    for (const ActiveCoflow& c : input_.coflows) via.on_coflow_arrival(c);
  }

  // Applies the next event of the finish -> depart -> re-arrive triple at
  // the cursor to the snapshot and delivers its hook.
  void apply_next_event(Scheduler& via) {
    const bool hooks = via.wants_events();
    switch (phase_) {
      case 0: {
        ActiveCoflow& coflow = input_.coflows[cursor_];
        const CoflowId id = coflow.id;
        cursor_flows_ = static_cast<int>(
            w_.pristine[static_cast<std::size_t>(id)].flows.size());
        const ActiveFlow finished = coflow.flows.back();
        coflow.flows.pop_back();
        coflow.finished_flows.push_back(finished);
        live_ -= 1;
        if (hooks) via.on_flow_finish(finished);
        break;
      }
      case 1: {
        departed_ = input_.coflows[cursor_].id;
        if (cursor_ + 1 != input_.coflows.size()) {
          input_.coflows[cursor_] = std::move(input_.coflows.back());
        }
        input_.coflows.pop_back();
        live_ -= cursor_flows_ - 1;
        if (hooks) via.on_coflow_departure(departed_);
        break;
      }
      default: {
        input_.coflows.push_back(
            w_.pristine[static_cast<std::size_t>(departed_)]);
        live_ += cursor_flows_;
        if (hooks) via.on_coflow_arrival(input_.coflows.back());
        cursor_ = (cursor_ + 1) % input_.coflows.size();
        break;
      }
    }
    phase_ = (phase_ + 1) % 3;
    input_.total_live_flows = live_;
  }

 private:
  const Workload& w_;
  std::unique_ptr<Scheduler> sched_;
  ClairvoyantInfo info_;
  ScheduleInput input_;
  int live_ = 0;
  std::size_t cursor_ = 0;
  int phase_ = 0;
  int cursor_flows_ = 0;
  CoflowId departed_ = -1;
};

// Every rate finite and non-negative, every link within capacity. Returns
// the allocation's total rate (bps), or -1 on a violation.
double checked_total_rate(const ScheduleInput& input, const Allocation& alloc,
                          std::vector<double>& usage) {
  const Fabric& fabric = *input.fabric;
  usage.assign(static_cast<std::size_t>(fabric.num_links()), 0.0);
  double total = 0.0;
  for (const ActiveCoflow& c : input.coflows) {
    for (const ActiveFlow& f : c.flows) {
      const double r = alloc.rate(f.id);
      if (!std::isfinite(r) || r < 0.0) return -1.0;
      usage[static_cast<std::size_t>(fabric.uplink(f.src))] += r;
      usage[static_cast<std::size_t>(fabric.downlink(f.dst))] += r;
      total += r;
    }
  }
  for (int l = 0; l < fabric.num_links(); ++l) {
    if (usage[static_cast<std::size_t>(l)] >
        fabric.capacity(l) * (1.0 + 1e-9)) {
      return -1.0;
    }
  }
  return total;
}

struct CellResult {
  long long events = 0;
  double event_s = 0.0;  // summed per-event wall (apply + hook + allocate)
  std::vector<double> event_samples;
  std::vector<double> total_rates;  // per checked event (shard contract)
  bool feasible = true;
  SchedPerf perf;  // timed-region delta
  double setup_s = 0.0;
  // Traced pass only.
  double allocate_s = 0.0;
  double hooks_s = 0.0;
  double allocate_cpu_s = 0.0;
  std::vector<double> allocate_samples;
};

SchedPerf perf_delta(const SchedPerf* after, const SchedPerf& before) {
  if (after == nullptr) return SchedPerf{};
  SchedPerf d = *after;
  d.allocate_calls -= before.allocate_calls;
  d.incremental_allocs -= before.incremental_allocs;
  d.full_rebuilds -= before.full_rebuilds;
  d.backfill_seconds -= before.backfill_seconds;
  d.allocate_seconds -= before.allocate_seconds;
  d.shard_regions -= before.shard_regions;
  d.shard_busy_seconds -= before.shard_busy_seconds;
  d.shard_critical_seconds -= before.shard_critical_seconds;
  return d;
}

// Replays one cell: an untimed set-up (construction, hook seeding, two
// warm-up triples), kVerifyEvents checked events, then the timed replay
// for `budget_s` of wall clock.
//
// The checked events come before the timed ones and sit at the same event
// indices in every cell, so a sharded cell is compared with its serial
// cell on identical snapshots. The timed events are not checked in place:
// a check walks all ~300k flows and evicts the scheduler's working set,
// which slowed the serial drf cell from ~105 to ~75 events/s. The last
// timed allocation is checked after the clock stops.
constexpr int kVerifyEvents = 12;

CellResult run_cell(const Workload& w, const CellSpec& spec, double budget_s,
                    SpanLog* log) {
  CellResult out;
  const Clock::time_point setup_start = Clock::now();
  Replay replay(w, spec.policy);
  std::unique_ptr<TimingScheduler> timed;
  if (log != nullptr) {
    timed = std::make_unique<TimingScheduler>(replay.scheduler(), log);
  }
  Scheduler& via = timed ? *timed : replay.scheduler();
  replay.seed_hooks(via);
  for (int i = 0; i < 6; ++i) {
    replay.apply_next_event(via);
    via.allocate(replay.input());
  }
  out.setup_s = seconds_between(setup_start, Clock::now());

  std::vector<double> usage;
  const auto check = [&](const Allocation& alloc) {
    const double total = checked_total_rate(replay.input(), alloc, usage);
    out.feasible = out.feasible && total >= 0.0;
    return total;
  };
  for (int i = 0; i < kVerifyEvents; ++i) {
    replay.apply_next_event(via);
    out.total_rates.push_back(check(via.allocate(replay.input())));
  }

  const SchedPerf* perf = replay.scheduler().perf_counters();
  const SchedPerf before = perf != nullptr ? *perf : SchedPerf{};
  const double alloc_before = timed ? timed->allocate_s() : 0.0;
  const double hooks_before = timed ? timed->hooks_s() : 0.0;
  const std::size_t samples_before =
      timed ? timed->allocate_samples().size() : 0;
  Allocation last;
  const Clock::time_point begin = Clock::now();
  while (out.events < 3 || seconds_between(begin, Clock::now()) < budget_s) {
    const Clock::time_point start = Clock::now();
    {
      const ScopedSpan event_span(log, "event");
      replay.apply_next_event(via);
      const double cpu = log != nullptr ? thread_cpu_s() : 0.0;
      last = via.allocate(replay.input());
      if (log != nullptr) out.allocate_cpu_s += thread_cpu_s() - cpu;
    }
    const double seconds = seconds_between(start, Clock::now());
    out.event_s += seconds;
    out.event_samples.push_back(seconds);
    ++out.events;
  }
  out.perf = perf_delta(perf, before);
  check(last);
  if (timed) {
    out.allocate_s = timed->allocate_s() - alloc_before;
    out.hooks_s = timed->hooks_s() - hooks_before;
    out.allocate_samples.assign(
        timed->allocate_samples().begin() +
            static_cast<std::ptrdiff_t>(samples_before),
        timed->allocate_samples().end());
  }
  return out;
}

}  // namespace

Report run_churn(const Args& args) {
  Report report;
  const std::uint64_t seed = seed_or(args, 20180701);
  std::vector<double> generate_s;
  Workload w;
  for (int i = 0; i < 3; ++i) {
    const Clock::time_point start = Clock::now();
    w = make_workload(seed);
    generate_s.push_back(seconds_between(start, Clock::now()));
  }
  long long flows = 0;
  for (const ActiveCoflow& c : w.pristine) {
    flows += static_cast<long long>(c.flows.size());
  }
  report.notes.push_back("input: FB twin generator seed " +
                         std::to_string(seed) + ", " +
                         std::to_string(w.pristine.size()) + " coflows, " +
                         std::to_string(flows) + " active flows");

  const double budget = args.seconds / static_cast<double>(kCells.size());
  std::map<std::string, CellResult> cells;
  double setup_total = median(generate_s);
  for (const CellSpec& spec : kCells) {
    ++report.attempted;
    try {
      cells.emplace(spec.name, run_cell(w, spec, budget, nullptr));
      setup_total += cells[spec.name].setup_s;
    } catch (const std::exception& e) {
      report.check_failures.push_back("churn-10k/" + spec.name +
                                      " threw: " + e.what());
    }
  }

  // Checks. Feasibility everywhere: a violation is an incorrect output and
  // fails the run. Each sharded cell should also keep >= 0.95x the serial
  // total rate at every event (the shard tier's contract, which
  // tests/shard_test.cc asserts on 0.6-0.7 locality traffic). A cell that
  // misses it produced feasible output but failed the operation: it counts
  // in `failed`, and the run still reports.
  for (const auto& [name, cell] : cells) {
    report.check(cell.feasible,
                 "churn-10k/" + name +
                     ": an allocation was non-finite, negative or over "
                     "capacity");
  }
  std::map<std::string, double> rate_ratio;
  long long contract_misses = 0;
  for (const auto& [sharded, serial] :
       std::vector<std::pair<std::string, std::string>>{{"drf-x4", "drf"},
                                                        {"tcp-x4", "tcp"}}) {
    if (!cells.contains(sharded) || !cells.contains(serial)) continue;
    const std::vector<double>& a = cells[sharded].total_rates;
    const std::vector<double>& b = cells[serial].total_rates;
    const std::size_t n = std::min(a.size(), b.size());
    double sum_a = 0.0;
    double sum_b = 0.0;
    double worst = 1.0;
    for (std::size_t i = 0; i < n; ++i) {
      worst = std::min(worst, a[i] / b[i]);
      sum_a += a[i];
      sum_b += b[i];
    }
    rate_ratio[sharded] = sum_b > 0.0 ? sum_a / sum_b : 0.0;
    report.put("shard.worst_rate_ratio." + sharded, worst, "ratio");
    report.put("shard.rate_ratio." + sharded, rate_ratio[sharded], "ratio");
    if (worst < 0.95) {
      ++contract_misses;
      report.notes.push_back("CONTRACT MISS: churn-10k/" + sharded +
                             " allocated " + std::to_string(worst) +
                             "x the serial total rate at its worst event "
                             "(contract: >= 0.95x)");
    }
  }
  report.failed = static_cast<long long>(kCells.size() - cells.size()) +
                  contract_misses;
  for (const auto& [name, cell] : cells) {
    if (!cell.feasible) ++report.failed;
  }

  std::vector<double> rates;
  std::vector<double> p50s;
  std::vector<double> p90s;
  double untraced_s = 0.0;
  for (const CellSpec& spec : kCells) {
    if (!cells.contains(spec.name)) continue;
    const CellResult& c = cells[spec.name];
    const double rate = static_cast<double>(c.events) / c.event_s;
    const double p50 = median(c.event_samples);
    const double p90 = percentile(c.event_samples, 90.0);
    if (spec.gated) {
      rates.push_back(rate);
      p50s.push_back(p50);
      p90s.push_back(p90);
    }
    untraced_s += c.event_s / static_cast<double>(c.events);
    report.put("events_per_s." + spec.name, rate, "events/s");
    report.put("event_p50_ms." + spec.name, 1e3 * p50, "ms");
    report.put("event_p90_ms." + spec.name, 1e3 * p90, "ms");
    report.put("events." + spec.name, static_cast<double>(c.events), "count");
  }
  report.put("setup_s", setup_total, "s");
  report.put("trace.generate_s", median(generate_s), "s");

  if (!args.trace) {
    report.set("setup_s", setup_total, "s");
    report.set("peak_rss_mb", peak_rss_mb(), "MB");
    report.set("events_per_s", geomean(rates), "events/s");
    report.set("latency_ms", 1e3 * geomean(p50s), "ms");
    report.set("tail_latency_ms", 1e3 * geomean(p90s), "ms");
    return report;
  }

  // Traced pass: the same cells through the timing wrapper, with spans.
  SpanLog log(Clock::now(), 1);
  log.reserve(1 << 16);
  std::map<std::string, CellResult> traced;
  double traced_s = 0.0;
  for (const CellSpec& spec : kCells) {
    const ScopedSpan cell_span(&log, "cell");
    traced.emplace(spec.name, run_cell(w, spec, budget, &log));
    const CellResult& c = traced[spec.name];
    traced_s += c.event_s / static_cast<double>(c.events);
  }
  const double overhead = traced_s / untraced_s - 1.0;
  report.put("obs.trace_overhead", overhead, "ratio");

  LayerTotals layers;
  for (const auto& [name, c] : traced) {
    layers.loop_s += c.event_s - c.allocate_s - c.hooks_s;
    layers.allocate_s += c.allocate_s;
    layers.hooks_s += c.hooks_s;
    layers.backfill_s += c.perf.backfill_seconds;
    layers.incremental += c.perf.incremental_allocs;
    layers.rebuilds += c.perf.full_rebuilds;
    layers.add_samples(c.allocate_samples, c.event_samples);
    report.put("sched.allocate_s." + name, c.allocate_s, "s");
    report.put("sched.allocate_cpu_s." + name, c.allocate_cpu_s, "s");
    report.put("sched.allocate_p99_us." + name,
               1e6 * percentile(c.allocate_samples, 99.0), "us");
    report.put("sched.hooks_s." + name, c.hooks_s, "s");
    report.put("sched.incremental_allocs." + name,
               static_cast<double>(c.perf.incremental_allocs), "count");
    report.put("sched.full_rebuilds." + name,
               static_cast<double>(c.perf.full_rebuilds), "count");
    report.put("sched.backfill_s." + name, c.perf.backfill_seconds, "s");
  }

  // Shard layer, per sharded cell and in total.
  long long regions = 0;
  double busy = 0.0;
  double critical = 0.0;
  double wait = 0.0;
  double sharded_alloc_s = 0.0;
  for (const auto& [sharded, serial] :
       std::vector<std::pair<std::string, std::string>>{{"drf-x4", "drf"},
                                                        {"tcp-x4", "tcp"}}) {
    const CellResult& x = traced[sharded];
    const CellResult& s = traced[serial];
    const double cell_wait = x.allocate_s - x.allocate_cpu_s;
    const double per_event_cpu =
        (x.allocate_cpu_s + x.perf.shard_busy_seconds) /
        static_cast<double>(x.events);
    const double serial_cpu =
        s.allocate_cpu_s / static_cast<double>(s.events);
    const double cpu_ratio =
        serial_cpu > 0.0 ? per_event_cpu / serial_cpu : 0.0;
    report.put("shard.regions." + sharded,
               static_cast<double>(x.perf.shard_regions), "count");
    report.put("shard.busy_s." + sharded, x.perf.shard_busy_seconds, "s");
    report.put("shard.critical_s." + sharded, x.perf.shard_critical_seconds,
               "s");
    report.put("shard.wait_s." + sharded, cell_wait, "s");
    report.put("shard.cpu_ratio." + sharded, cpu_ratio, "ratio");
    report.put("shard.rate_ratio." + sharded, rate_ratio[sharded], "ratio");
    const std::string policy = serial;
    report.set("shard.cpu_ratio." + policy, cpu_ratio, "ratio");
    report.set("shard.rate_ratio." + policy, rate_ratio[sharded], "ratio");
    regions += x.perf.shard_regions;
    busy += x.perf.shard_busy_seconds;
    critical += x.perf.shard_critical_seconds;
    wait += cell_wait;
    sharded_alloc_s += x.allocate_s;
  }

  for (const CellSpec& spec : kCells) {
    report.set("events_per_s." + spec.name,
               report.detail["events_per_s." + spec.name].value, "events/s");
  }
  report.set("trace.generate_s", median(generate_s), "s");
  report.set("obs.trace_overhead", overhead, "ratio");
  set_layer_metrics(report, layers);
  report.set("shard.regions", static_cast<double>(regions), "count");
  report.set("shard.busy_share", busy / sharded_alloc_s, "ratio");
  report.set("shard.critical_share", critical / sharded_alloc_s, "ratio");
  report.set("shard.wait_share", wait / sharded_alloc_s, "ratio");

  finish_trace(report, args, {&log});
  return report;
}

}  // namespace perfbench
