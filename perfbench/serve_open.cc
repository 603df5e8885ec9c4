// serve-open: NC-DRF as an online service on the wall clock, through
// ServeFront and its SubmissionQueues.
//
// Set-up: 150 machines, 4 client queues, 5 ms epochs, 20 ms mean dwell,
// unbounded batches and no shedding (as the soak tier runs it). One
// generator thread replays the four clients' seeded Poisson LoadGenerator
// schedules open loop (seed = --seed, default 2026); the main thread steps
// a fixed epoch grid. Batched admission, the Master view build and the
// rate pushes do most of the work; the scheduler runs its bare-snapshot
// rebuild path. The sim engine and the shard layer are idle.
//
// Latency is timed from each submission's *due* time, so generator stalls
// count against the server, to the return of the step_epoch that first
// pushed its rates (a new coflow's flows change its slaves' rate vectors
// structurally, so the epoch that admits it pushes it).
//
// ServeOptions::metrics stays unset: with a registry attached, a
// submission enqueued after an epoch samples `now` but before its drain
// gets a negative admit latency, and Histogram::observe aborts the run.
// The benchmark takes latencies from its own timestamps and counts those
// admissions as serve.admit_after_tick.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "common/units.h"
#include "core/registry.h"
#include "obs/perf.h"
#include "serve/loadgen.h"
#include "serve/server.h"
#include "timing_scheduler.h"

namespace perfbench {
namespace {

using namespace ncdrf;

constexpr int kMachines = 150;
constexpr int kClients = 4;
constexpr double kEpochS = 0.005;
constexpr double kDwellS = 0.020;
constexpr double kP99LimitS = 0.020;  // 4 epochs
constexpr double kLeadS = 0.010;      // origin lead over the first epoch

serve::ServeOptions serve_options() {
  serve::ServeOptions options;
  options.epoch_s = kEpochS;
  options.max_batch_per_epoch = 0;
  options.queue_capacity = 1 << 18;
  options.slowdown_watermark = 1 << 20;
  options.shed_watermark = 1 << 20;
  return options;
}

// One trial's submissions in global due order.
struct Schedule {
  double rate = 0.0;
  double duration = 0.0;
  std::vector<serve::Submission> due_order;
};

Schedule make_schedule(std::uint64_t seed, double rate, double duration) {
  serve::LoadGenOptions load;
  load.seed = seed;
  load.num_clients = kClients;
  load.num_machines = kMachines;
  load.arrival_rate_per_s = rate;
  load.duration_s = duration;
  load.mean_lifetime_s = kDwellS;
  Schedule s;
  s.rate = rate;
  s.duration = duration;
  for (auto& client : serve::LoadGenerator(load).generate()) {
    for (serve::Submission& sub : client) s.due_order.push_back(std::move(sub));
  }
  std::sort(s.due_order.begin(), s.due_order.end(),
            [](const serve::Submission& a, const serve::Submission& b) {
              return a.coflow < b.coflow;  // dense ids follow due order
            });
  return s;
}

// Push-latency p99 as the median over 1-second windows of due time. One
// stall of the host (tens of ms on a shared machine) delays every coflow
// due in it, which is enough to move a whole trial's p99; the median
// window shows the p99 the server holds, and a backlog that keeps growing
// still raises every late window.
double windowed_p99(const std::vector<double>& due,
                    const std::vector<double>& push) {
  std::vector<std::vector<double>> windows;
  for (std::size_t i = 0; i < due.size(); ++i) {
    const auto w = static_cast<std::size_t>(std::max(due[i], 0.0));
    if (w >= windows.size()) windows.resize(w + 1);
    windows[w].push_back(push[i]);
  }
  std::vector<double> p99s;
  for (const std::vector<double>& w : windows) {
    if (w.size() >= 1000) p99s.push_back(percentile(w, 99.0));
  }
  return p99s.empty() ? percentile(push, 99.0) : median(p99s);
}

struct Trial {
  double rate = 0.0;
  long long offered = 0;
  long long accepted = 0;
  long long admitted = 0;
  long long rejected = 0;
  long long shed = 0;
  long long pushed = 0;
  long long duplicate_admits = 0;
  long long admit_after_tick = 0;
  long long allocations = 0;
  long long rate_pushes = 0;
  long long backlog_max = 0;
  double busy_s = 0.0;
  double span_s = 0.0;
  // Epoch grid slip when the load ends: a backlog the server has not
  // worked off. More than the latency limit counts as a growing backlog.
  double end_slip_s = 0.0;
  std::vector<double> push_s;
  std::vector<double> push_due;  // due time of each push_s sample
  std::vector<double> late_s;
  std::vector<double> enqueue_s;
  std::vector<double> queue_wait_s;
  std::vector<double> alloc_stage_s;
  std::vector<double> push_stage_s;
  std::vector<double> step_s;
  // Traced only.
  double allocate_s = 0.0;
  double hooks_s = 0.0;
  double view_s = 0.0;
  std::vector<double> allocate_samples;
  SchedPerf perf;

  double busy_frac() const { return span_s > 0.0 ? busy_s / span_s : 0.0; }
  double push_p99() const { return windowed_p99(push_due, push_s); }
  bool sustainable() const {
    return push_p99() <= kP99LimitS && end_slip_s <= kP99LimitS;
  }
};

// Runs one open-loop trial. `gen_log`/`main_log` non-null = traced.
Trial run_trial(Schedule&& schedule, SpanLog* main_log, SpanLog* gen_log) {
  const std::size_t n = schedule.due_order.size();
  Trial t;
  t.rate = schedule.rate;
  t.offered = static_cast<long long>(n);
  const Fabric fabric(kMachines, gbps(1.0));
  const std::unique_ptr<Scheduler> sched = make_scheduler("ncdrf");
  std::unique_ptr<TimingScheduler> timed;
  if (main_log != nullptr) {
    timed = std::make_unique<TimingScheduler>(*sched, main_log);
  }
  serve::ServeFront front(fabric, timed ? *timed : *sched, kClients,
                          serve_options());

  // Per-coflow timestamps (seconds since origin), indexed by dense id.
  std::vector<double> due(n);
  std::vector<double> enq(n, -1.0);
  std::vector<double> admit(n, -1.0);
  std::vector<long long> admit_epoch(n, -1);
  std::vector<int> admits(n, 0);
  std::vector<char> accepted(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    due[i] = schedule.due_order[i].submit_time;
  }
  std::vector<double> epoch_alloc;   // alloc-hook time per epoch (-1 none)
  std::vector<double> epoch_end;     // step_epoch return per epoch
  std::vector<double> epoch_last_admit;
  std::vector<double> epoch_allocate;  // allocate() wall per epoch (traced)
  long long epoch = 0;

  const Clock::time_point origin =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(kLeadS));
  const auto since = [origin] { return seconds_between(origin, Clock::now()); };
  const auto at = [origin](double s) {
    return origin + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(s));
  };

  front.admit_hook = [&](const serve::AdmitRecord& r) {
    const auto id = static_cast<std::size_t>(r.coflow);
    const double now = since();
    if (++admits[id] > 1) ++t.duplicate_admits;
    admit[id] = now;
    admit_epoch[id] = epoch;
    epoch_last_admit.back() = now;
    // The epoch sampled `now` before this submission was enqueued.
    if (r.admit_time < r.submit_time) ++t.admit_after_tick;
    if (main_log != nullptr) main_log->mark("serve.admit", r.coflow);
  };
  front.alloc_hook = [&](double, const ScheduleInput&, const Allocation&) {
    epoch_alloc.back() = since();
    if (timed) {
      epoch_allocate.back() = timed->allocate_s() - epoch_allocate.back();
    }
    if (main_log != nullptr) main_log->mark("serve.alloc", -1);
  };

  std::atomic<bool> generator_done{false};
  std::jthread generator([&] {
    for (std::size_t i = 0; i < n; ++i) {
      serve::Submission s = std::move(schedule.due_order[i]);
      std::this_thread::sleep_until(at(due[i]));
      const int client = s.client;
      const Clock::time_point start = Clock::now();
      s.submit_time = seconds_between(origin, start);
      enq[i] = s.submit_time;
      bool ok = false;
      {
        const ScopedSpan span(gen_log, "queue.enqueue",
                              static_cast<std::int64_t>(i));
        ok = front.queue(client).try_enqueue(std::move(s));
      }
      // enq[] and accepted[] are read only after the join.
      accepted[i] = ok ? 1 : 0;
      t.enqueue_s.push_back(seconds_between(start, Clock::now()));
    }
    generator_done.store(true, std::memory_order_release);
  });

  const long long load_epochs =
      static_cast<long long>(std::ceil(schedule.duration / kEpochS));
  double first_start = -1.0;
  for (;; ++epoch) {
    const double grid = static_cast<double>(epoch) * kEpochS;
    std::this_thread::sleep_until(at(grid));
    const bool done = generator_done.load(std::memory_order_acquire);
    t.backlog_max = std::max(t.backlog_max,
                             static_cast<long long>(front.backlog()));
    epoch_alloc.push_back(-1.0);
    epoch_last_admit.push_back(-1.0);
    epoch_allocate.push_back(timed ? timed->allocate_s() : 0.0);
    const double start = since();
    if (first_start < 0.0) first_start = start;
    {
      const ScopedSpan span(main_log, "serve.step_epoch");
      front.step_epoch(start);
    }
    const double end = since();
    epoch_end.push_back(end);
    t.step_s.push_back(end - start);
    t.busy_s += end - start;
    if (epoch == load_epochs) t.end_slip_s = start - grid;
    if (done && front.backlog() == 0 && epoch >= load_epochs) break;
  }
  generator.join();
  t.span_s = epoch_end.back() - first_start;

  t.admitted = front.admitted();
  t.rejected = front.total_rejected();
  t.shed = front.total_shed();
  t.allocations = front.allocations();
  t.rate_pushes = front.rate_pushes();
  for (std::size_t i = 0; i < n; ++i) {
    t.accepted += accepted[i];
    if (admits[i] == 0) continue;
    const auto e = static_cast<std::size_t>(admit_epoch[i]);
    const double pushed_at = epoch_end[e];
    ++t.pushed;
    t.push_s.push_back(pushed_at - due[i]);
    t.push_due.push_back(due[i]);
    t.late_s.push_back(enq[i] - due[i]);
    t.queue_wait_s.push_back(admit[i] - due[i]);
    if (epoch_alloc[e] >= 0.0) {
      t.alloc_stage_s.push_back(epoch_alloc[e] - admit[i]);
      t.push_stage_s.push_back(pushed_at - epoch_alloc[e]);
    }
  }
  if (timed) {
    t.allocate_s = timed->allocate_s();
    t.hooks_s = timed->hooks_s();
    t.allocate_samples = timed->allocate_samples();
    // Master view build, clamp and per-slave split: the allocation phase
    // (last admission -> alloc hook) minus the allocate() inside it, over
    // the epochs that admitted something (the others have no bracket).
    for (std::size_t e = 0; e < epoch_alloc.size(); ++e) {
      if (epoch_alloc[e] >= 0.0 && epoch_last_admit[e] >= 0.0) {
        t.view_s += epoch_alloc[e] - epoch_last_admit[e] - epoch_allocate[e];
      }
    }
  }
  if (sched->perf_counters() != nullptr) t.perf = *sched->perf_counters();
  return t;
}

std::string rate_tag(double rate) {
  return std::to_string(static_cast<long long>(std::lround(rate / 1000.0))) +
         "k";
}

void check_trial(const Trial& t, Report& report) {
  const std::string who = "serve-open/" + rate_tag(t.rate) + ": ";
  report.check(t.offered == t.admitted + t.rejected + t.shed,
               who + "offered != admitted + rejected + shed");
  report.check(t.duplicate_admits == 0 && t.admitted == t.accepted,
               who + "an accepted submission was not admitted exactly once");
}

}  // namespace

Report run_serve_open(const Args& args) {
  Report report;
  const std::uint64_t seed = seed_or(args, 2026);
  const std::vector<double> fixed = {25000.0, 50000.0};
  // Time split of the measured budget: a share per fixed rate, the rest
  // for the knee search.
  const double fixed_s = 0.15 * args.seconds;
  const int probes = 6;
  const double probe_s = 0.5 * args.seconds / probes;

  // Set-up: generating the fixed-rate schedules (three times, median),
  // then a short warm-up trial through a fresh front-end.
  std::vector<double> gen_s;
  for (int i = 0; i < 3; ++i) {
    const Clock::time_point start = Clock::now();
    for (const double rate : fixed) make_schedule(seed, rate, fixed_s);
    gen_s.push_back(seconds_between(start, Clock::now()));
  }
  const Clock::time_point warm_start = Clock::now();
  run_trial(make_schedule(seed + 1, fixed[0], 0.2), nullptr, nullptr);
  const double setup =
      median(gen_s) + seconds_between(warm_start, Clock::now());

  std::vector<Trial> trials;
  for (const double rate : fixed) {
    trials.push_back(
        run_trial(make_schedule(seed, rate, fixed_s), nullptr, nullptr));
    check_trial(trials.back(), report);
  }
  for (const Trial& t : trials) {
    report.attempted += t.offered;
    report.failed += t.offered - t.pushed;
  }
  // Memory of the defined load. The knee probes come later and their
  // rates depend on the run (a probe near saturation holds a backlog), so
  // they would make the peak depend on where the knee fell.
  const double rss_mb = peak_rss_mb();

  // Server busy seconds per admitted coflow at the heavier fixed rate; its
  // inverse is the serving capacity (the rate at which the epoch loop
  // would be 100% busy at this per-coflow cost).
  const Trial& heavy = trials.back();
  const auto cost = [](const Trial& t) {
    return t.busy_s / static_cast<double>(std::max<long long>(t.admitted, 1));
  };
  const double capacity = 1.0 / cost(heavy);

  // Knee: bisection on the offered rate, starting from what the fixed
  // rates showed, up to just above the capacity (past it the backlog must
  // grow; probing further only costs memory).
  double lo = 0.0;
  double hi = std::max(1.1 * capacity, fixed.back());
  for (const Trial& t : trials) {
    if (t.sustainable()) {
      lo = std::max(lo, t.rate);
    } else {
      hi = std::min(hi, t.rate);
    }
  }
  for (int i = 0; i < probes && lo < hi; ++i) {
    const double rate = 0.5 * (lo + hi);
    const Trial probe = run_trial(
        make_schedule(seed + 2 + static_cast<std::uint64_t>(i), rate, probe_s),
        nullptr, nullptr);
    check_trial(probe, report);
    report.notes.push_back(
        "knee probe " + rate_tag(rate) + ": push p99 " +
        std::to_string(1e3 * probe.push_p99()) + " ms, busy " +
        std::to_string(probe.busy_frac()) + ", end slip " +
        std::to_string(1e3 * probe.end_slip_s) + " ms");
    (probe.sustainable() ? lo : hi) = rate;
  }
  const double max_rate = lo;

  for (const Trial& t : trials) {
    const std::string tag = rate_tag(t.rate);
    report.put("push_p50_ms." + tag, 1e3 * median(t.push_s), "ms");
    report.put("push_p90_ms." + tag, 1e3 * percentile(t.push_s, 90.0), "ms");
    report.put("push_p99_ms." + tag, 1e3 * t.push_p99(), "ms");
    report.put("push_samples." + tag, static_cast<double>(t.push_s.size()),
               "count");
    report.put("loadgen.late_p99_ms." + tag, 1e3 * percentile(t.late_s, 99.0),
               "ms");
    report.put("queue.enqueue_p99_us." + tag,
               1e6 * percentile(t.enqueue_s, 99.0), "us");
    report.put("serve.busy_frac." + tag, t.busy_frac(), "ratio");
    report.put("serve.step_p50_ms." + tag, 1e3 * median(t.step_s), "ms");
    report.put("serve.step_p99_ms." + tag, 1e3 * percentile(t.step_s, 99.0),
               "ms");
    report.put("serve.queue_wait_p99_ms." + tag,
               1e3 * percentile(t.queue_wait_s, 99.0), "ms");
    report.put("serve.alloc_stage_p99_ms." + tag,
               1e3 * percentile(t.alloc_stage_s, 99.0), "ms");
    report.put("serve.push_stage_p99_ms." + tag,
               1e3 * percentile(t.push_stage_s, 99.0), "ms");
    report.put("serve.allocations." + tag, static_cast<double>(t.allocations),
               "count");
    report.put("serve.rate_pushes." + tag, static_cast<double>(t.rate_pushes),
               "count");
    report.put("serve.backlog_max." + tag, static_cast<double>(t.backlog_max),
               "count");
    report.put("serve.admit_after_tick." + tag,
               static_cast<double>(t.admit_after_tick), "count");
  }
  report.put("max_rate_per_s", max_rate, "coflows/s");
  report.put("fail_frac", static_cast<double>(report.failed) /
                              static_cast<double>(report.attempted),
             "ratio");
  report.put("setup_s", setup, "s");
  report.put("trace.generate_s", median(gen_s), "s");

  report.put("capacity_per_s", capacity, "coflows/s");

  if (!args.trace) {
    report.set("setup_s", setup, "s");
    report.set("peak_rss_mb", rss_mb, "MB");
    report.set("events_per_s", capacity, "events/s");
    report.set("latency_ms", 1e3 * median(heavy.push_s), "ms");
    report.set("tail_latency_ms", 1e3 * percentile(heavy.push_s, 90.0), "ms");
    return report;
  }

  // Traced pass: the fixed-rate trials again, through the timing wrapper
  // and with spans on both threads.
  const Clock::time_point log_origin = Clock::now();
  SpanLog main_log(log_origin, 1);
  SpanLog gen_log(log_origin, 2);
  main_log.reserve(1 << 20);
  gen_log.reserve(1 << 20);
  std::vector<Trial> traced;
  for (const double rate : fixed) {
    traced.push_back(
        run_trial(make_schedule(seed, rate, fixed_s), &main_log, &gen_log));
    check_trial(traced.back(), report);
  }
  const double overhead = cost(traced.back()) / cost(heavy) - 1.0;
  report.put("obs.trace_overhead", overhead, "ratio");

  LayerTotals layers;
  for (const Trial& t : traced) {
    const std::string tag = rate_tag(t.rate);
    report.put("sched.allocate_s." + tag, t.allocate_s, "s");
    report.put("cluster.view_s." + tag, t.view_s, "s");
    layers.loop_s += t.busy_s - t.allocate_s - t.hooks_s;
    layers.allocate_s += t.allocate_s;
    layers.hooks_s += t.hooks_s;
    layers.incremental += t.perf.incremental_allocs;
    layers.rebuilds += t.perf.full_rebuilds;
    layers.backfill_s += t.perf.backfill_seconds;
    layers.add_samples(t.allocate_samples, t.step_s);
  }

  // Stage shares of the mean push latency at the heavier fixed rate
  // (untraced trial): due -> admit, admit -> alloc hook, alloc -> return.
  const auto mean = [](const std::vector<double>& v) {
    double sum = 0.0;
    for (const double x : v) sum += x;
    return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
  };
  const double push_mean = mean(heavy.push_s);
  const std::string htag = rate_tag(heavy.rate);
  report.set("serve.queue_share." + htag, mean(heavy.queue_wait_s) / push_mean,
             "ratio");
  report.set("serve.alloc_share." + htag, mean(heavy.alloc_stage_s) / push_mean,
             "ratio");
  report.set("serve.push_share." + htag, mean(heavy.push_stage_s) / push_mean,
             "ratio");
  const Trial& traced_heavy = traced.back();
  double alloc_phase_s = traced_heavy.view_s + traced_heavy.allocate_s;
  report.set("serve.view_share." + htag,
             alloc_phase_s > 0.0 ? traced_heavy.view_s / alloc_phase_s : 0.0,
             "ratio");
  for (const Trial& t : trials) {
    const std::string tag = rate_tag(t.rate);
    report.set("serve.busy_frac." + tag, t.busy_frac(), "ratio");
  }
  for (const char* name : {"serve.allocations.", "serve.rate_pushes.",
                           "serve.backlog_max.", "serve.admit_after_tick."}) {
    const std::string key = name + htag;
    report.set(key, report.detail[key].value, "count");
  }
  report.set("max_rate_per_s", max_rate, "coflows/s");
  report.set("trace.generate_s", median(gen_s), "s");
  report.set("obs.trace_overhead", overhead, "ratio");
  set_layer_metrics(report, layers);
  finish_trace(report, args, {&main_log, &gen_log});
  return report;
}

}  // namespace perfbench
