// Scheduler scalability microbenchmark (google-benchmark): wall-clock cost
// of one allocate() call as the number of active coflows grows, for every
// policy. The paper's master recomputes the allocation on every coflow
// event, so allocation latency bounds how fast a cluster can churn
// coflows; NC-DRF's allocation is O(flows + coflows·links), no LP solves.
//
// The EventReplay benchmarks measure the online loop itself: a scripted
// stream of flow-finish / departure / arrival events at a steady number of
// concurrent coflows, with one allocate() per event. "Incremental" drives
// NC-DRF through its delta hooks (persistent per-coflow state, O(links
// touched) updates); "FromScratch" forces a full snapshot rescan per
// event. items_per_second in the JSON output is events/sec — the number
// the CI bench-smoke job archives as the perf trajectory.
#include <benchmark/benchmark.h>

#include <memory>
#include <string>
#include <utility>

#include "alloc/legacy.h"
#include "common/rng.h"
#include "common/units.h"
#include "core/ncdrf.h"
#include "core/registry.h"
#include "obs/metrics.h"
#include "obs/tracer.h"
#include "sched/scheduler.h"
#include "sim/sim.h"
#include "trace/synthetic_fb.h"

namespace {

using namespace ncdrf;

// A reusable snapshot with `num_coflows` active coflows on 150 racks.
struct Workbench {
  Fabric fabric{150, gbps(1.0)};
  Trace trace;
  ScheduleInput input;
  std::vector<double> remaining;
  std::unique_ptr<ClairvoyantInfo> info;

  explicit Workbench(int num_coflows, int max_flows_per_coflow = 200) {
    SyntheticFbOptions options;
    options.num_coflows = num_coflows;
    options.duration_s = 1.0;  // everything concurrently active
    options.max_flows_per_coflow = max_flows_per_coflow;
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
};

void run_allocate(benchmark::State& state, const std::string& name) {
  const auto coflows = static_cast<int>(state.range(0));
  Workbench bench(coflows);
  const auto scheduler = make_scheduler(name);
  bench.input.clairvoyant = scheduler->clairvoyant() ? bench.info.get()
                                                     : nullptr;
  int flows = 0;
  for (const ActiveCoflow& c : bench.input.coflows) {
    flows += static_cast<int>(c.flows.size());
  }
  for (auto _ : state) {
    Allocation alloc = scheduler->allocate(bench.input);
    benchmark::DoNotOptimize(alloc);
  }
  state.counters["coflows"] = coflows;
  state.counters["flows"] = flows;
}

// One replay step at coflow cursor k — three events, each followed by an
// allocate(), leaving the snapshot unchanged (modulo coflow order):
//   1. the last flow of coflow k finishes;
//   2. coflow k departs;
//   3. coflow k re-arrives in its original form.
// `pristine` holds the untouched view of k for the re-arrival.
template <typename OnEvent>
void replay_triple(ScheduleInput& input, std::size_t k,
                   const ActiveCoflow& pristine, OnEvent&& on_event) {
  ActiveCoflow& coflow = input.coflows[k];
  const ActiveFlow finished = coflow.flows.back();
  coflow.flows.pop_back();
  coflow.finished_flows.push_back(finished);
  on_event(/*finish=*/&finished, /*depart=*/static_cast<CoflowId>(-1),
           /*arrive=*/static_cast<const ActiveCoflow*>(nullptr));

  const CoflowId departed = coflow.id;
  if (k + 1 != input.coflows.size()) {
    input.coflows[k] = std::move(input.coflows.back());
  }
  input.coflows.pop_back();
  on_event(nullptr, departed, nullptr);

  input.coflows.push_back(pristine);
  on_event(nullptr, static_cast<CoflowId>(-1), &input.coflows.back());
}

void run_event_replay(benchmark::State& state, bool incremental) {
  const auto coflows = static_cast<int>(state.range(0));
  // Modest widths: the FB trace is narrow-heavy, and the event loop is the
  // subject here, not flow fan-out.
  Workbench bench(coflows, /*max_flows_per_coflow=*/64);
  const std::vector<ActiveCoflow> pristine = bench.input.coflows;

  // The from-scratch arm never calls on_reset(), so every allocate()
  // rebuilds from the snapshot.
  NcDrfScheduler scheduler(NcDrfOptions{.verify_incremental = false});
  if (incremental) {
    scheduler.on_reset(bench.fabric);
    for (const ActiveCoflow& c : bench.input.coflows) {
      scheduler.on_coflow_arrival(c);
    }
  }

  const auto on_event = [&](const ActiveFlow* finish, CoflowId depart,
                            const ActiveCoflow* arrive) {
    if (incremental) {
      if (finish != nullptr) scheduler.on_flow_finish(*finish);
      if (depart >= 0) scheduler.on_coflow_departure(depart);
      if (arrive != nullptr) scheduler.on_coflow_arrival(*arrive);
    }
    Allocation alloc = scheduler.allocate(bench.input);
    benchmark::DoNotOptimize(alloc);
  };

  // Cycle the cursor over coflows wide enough to never drain one (every
  // pristine coflow has ≥ 1 flow; the triple restores it immediately).
  std::size_t cursor = 0;
  for (auto _ : state) {
    // The departed slot moves under swap-pop, so locate the pristine view
    // by id rather than by position.
    const CoflowId id = bench.input.coflows[cursor].id;
    replay_triple(bench.input, cursor,
                  pristine[static_cast<std::size_t>(id)], on_event);
    cursor = (cursor + 1) % bench.input.coflows.size();
  }
  state.SetItemsProcessed(state.iterations() * 3);  // events/sec
  state.counters["coflows"] = coflows;
}

// Per-baseline event replay, kernel vs legacy: the same scripted
// finish/depart/arrive stream with one allocate() per event, driven either
// through the registry scheduler (allocation-kernel layer, delta hooks
// when the policy wants events) or through the frozen pre-refactor
// implementation in alloc/legacy.h. Both run in the same process on the
// same instance, so the kernel/legacy events-per-second ratio is
// machine-independent — that ratio is what the CI speedup guard checks
// and what BENCH_sched.json records.
void run_policy_event_replay(benchmark::State& state,
                             const std::string& name, bool kernel) {
  const auto coflows = static_cast<int>(state.range(0));
  Workbench bench(coflows, /*max_flows_per_coflow=*/64);
  const std::vector<ActiveCoflow> pristine = bench.input.coflows;
  // Clairvoyant info is always attached; non-clairvoyant policies ignore
  // it, and both modes see the identical snapshot.
  bench.input.clairvoyant = bench.info.get();

  std::unique_ptr<Scheduler> sched;
  Scheduler* hooks = nullptr;
  if (kernel) {
    sched = make_scheduler(name);
    if (sched->wants_events()) {
      hooks = sched.get();
      hooks->on_reset(bench.fabric);
      for (const ActiveCoflow& c : bench.input.coflows) {
        hooks->on_coflow_arrival(c);
      }
    }
  }

  int live = 0;
  for (const ActiveCoflow& c : bench.input.coflows) {
    live += static_cast<int>(c.flows.size());
  }

  // Flow count of the coflow the current triple cycles; set per iteration.
  int cursor_flows = 0;
  const auto on_event = [&](const ActiveFlow* finish, CoflowId depart,
                            const ActiveCoflow* arrive) {
    if (finish != nullptr) {
      live -= 1;
      if (hooks != nullptr) hooks->on_flow_finish(*finish);
    }
    if (depart >= 0) {
      live -= cursor_flows - 1;
      if (hooks != nullptr) hooks->on_coflow_departure(depart);
    }
    if (arrive != nullptr) {
      live += cursor_flows;
      if (hooks != nullptr) hooks->on_coflow_arrival(*arrive);
    }
    bench.input.total_live_flows = live;
    Allocation alloc = kernel ? sched->allocate(bench.input)
                              : legacy_allocate(name, bench.input);
    benchmark::DoNotOptimize(alloc);
  };

  std::size_t cursor = 0;
  for (auto _ : state) {
    const CoflowId id = bench.input.coflows[cursor].id;
    const ActiveCoflow& base = pristine[static_cast<std::size_t>(id)];
    cursor_flows = static_cast<int>(base.flows.size());
    replay_triple(bench.input, cursor, base, on_event);
    cursor = (cursor + 1) % bench.input.coflows.size();
  }
  state.SetItemsProcessed(state.iterations() * 3);  // events/sec
  state.counters["coflows"] = coflows;
}

// Full engine loop: replay a synthetic trace whose coflows are all
// concurrently active through the DynamicSimulator and report simulated
// events/sec — the number the engine hot-path work (incremental snapshot,
// completion times, interval recording) moves. Unlike the EventReplay benchmarks above, this
// includes the engine's own per-event cost, not just allocate().
void run_engine_replay(benchmark::State& state, const std::string& name,
                       bool traced = false) {
  const auto coflows = static_cast<int>(state.range(0));
  SyntheticFbOptions options;
  options.num_coflows = coflows;
  options.duration_s = 1.0;  // everything concurrently active
  options.max_flows_per_coflow = 64;
  const Trace trace = generate_synthetic_fb(options);
  const Fabric fabric(150, gbps(1.0));

  SimOptions sim_options;
  sim_options.record_intervals = false;
  // Traced variant: full tracer + metrics attached, sized so the ring
  // never drops (overflow handling is not what this measures). CI's
  // overhead guard compares this against the untraced run.
  obs::Tracer tracer(1 << 20);
  obs::MetricsRegistry metrics;
  if (traced) {
    sim_options.tracer = &tracer;
    sim_options.metrics = &metrics;
  }
  long long events = 0;
  for (auto _ : state) {
    tracer.clear();
    const auto scheduler = make_scheduler(name);
    const RunResult run = simulate(fabric, trace, *scheduler, sim_options);
    events += run.num_events;
    benchmark::DoNotOptimize(run.makespan);
  }
  state.SetItemsProcessed(events);  // events/sec
  state.counters["coflows"] = coflows;
  if (traced) state.counters["trace_events"] = tracer.size();
}

}  // namespace

#define NCDRF_SCALE_BENCH(tag, name)                       \
  void BM_##tag(benchmark::State& state) {                 \
    run_allocate(state, name);                             \
  }                                                        \
  BENCHMARK(BM_##tag)->Arg(10)->Arg(50)->Arg(200)->Unit(   \
      benchmark::kMillisecond)

NCDRF_SCALE_BENCH(NcDrf, "ncdrf");
NCDRF_SCALE_BENCH(Drf, "drf");
NCDRF_SCALE_BENCH(Hug, "hug");
NCDRF_SCALE_BENCH(Psp, "psp");
NCDRF_SCALE_BENCH(Tcp, "tcp");
NCDRF_SCALE_BENCH(Aalo, "aalo");
NCDRF_SCALE_BENCH(Varys, "varys");

// Kernel-vs-legacy matrix: every policy with a frozen legacy twin, at
// 100/500/1000 concurrent coflows. tools/bench_sched_report.py turns the
// JSON into BENCH_sched.json and enforces the ≥2× kernel speedup floor.
#define NCDRF_EVENT_REPLAY_BENCH(tag, name)                            \
  void BM_EventReplayKernel_##tag(benchmark::State& state) {           \
    run_policy_event_replay(state, name, /*kernel=*/true);             \
  }                                                                    \
  void BM_EventReplayLegacy_##tag(benchmark::State& state) {           \
    run_policy_event_replay(state, name, /*kernel=*/false);            \
  }                                                                    \
  BENCHMARK(BM_EventReplayKernel_##tag)                                \
      ->Arg(100)                                                       \
      ->Arg(500)                                                       \
      ->Arg(1000)                                                      \
      ->Unit(benchmark::kMillisecond);                                 \
  BENCHMARK(BM_EventReplayLegacy_##tag)                                \
      ->Arg(100)                                                       \
      ->Arg(500)                                                       \
      ->Arg(1000)                                                      \
      ->Unit(benchmark::kMillisecond)

NCDRF_EVENT_REPLAY_BENCH(Tcp, "tcp");
NCDRF_EVENT_REPLAY_BENCH(Persource, "persource");
NCDRF_EVENT_REPLAY_BENCH(Perpair, "perpair");
NCDRF_EVENT_REPLAY_BENCH(Psp, "psp");
NCDRF_EVENT_REPLAY_BENCH(PspLive, "psp-live");
NCDRF_EVENT_REPLAY_BENCH(Drf, "drf");
NCDRF_EVENT_REPLAY_BENCH(Hug, "hug");
NCDRF_EVENT_REPLAY_BENCH(Aalo, "aalo");
NCDRF_EVENT_REPLAY_BENCH(Varys, "varys");
NCDRF_EVENT_REPLAY_BENCH(Baraat, "baraat");
NCDRF_EVENT_REPLAY_BENCH(Fifo, "fifo");

void BM_NcDrfEventReplay_Incremental(benchmark::State& state) {
  run_event_replay(state, /*incremental=*/true);
}
void BM_NcDrfEventReplay_FromScratch(benchmark::State& state) {
  run_event_replay(state, /*incremental=*/false);
}
BENCHMARK(BM_NcDrfEventReplay_Incremental)
    ->Arg(100)
    ->Arg(500)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_NcDrfEventReplay_FromScratch)
    ->Arg(100)
    ->Arg(500)
    ->Unit(benchmark::kMillisecond);

void BM_EngineReplay_NcDrf(benchmark::State& state) {
  run_engine_replay(state, "ncdrf");
}
BENCHMARK(BM_EngineReplay_NcDrf)
    ->Arg(100)
    ->Arg(500)
    ->Unit(benchmark::kMillisecond);

// Same loop with the observability layer attached (tracer + metrics):
// the delta against BM_EngineReplay_NcDrf is the total tracing overhead;
// CI guards it at ≤ 5% of events/sec.
void BM_EngineReplayTraced_NcDrf(benchmark::State& state) {
  run_engine_replay(state, "ncdrf", /*traced=*/true);
}
BENCHMARK(BM_EngineReplayTraced_NcDrf)
    ->Arg(100)
    ->Arg(500)
    ->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
