// Tests for the observability layer (src/obs/): tracer ring + exports,
// metrics registry + histogram quantiles, SchedPerf aggregation, the JSON
// schema validators, and the streaming Theorem 1 fairness auditor.
#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/check.h"
#include "common/json.h"
#include "common/rng.h"
#include "common/units.h"
#include "core/ncdrf.h"
#include "core/registry.h"
#include "obs/json_lint.h"
#include "obs/metrics.h"
#include "obs/perf.h"
#include "obs/tracer.h"
#include "runner/sweep.h"
#include "sched/drf.h"
#include "sim/audit.h"
#include "sim/sim.h"
#include "test_util.h"
#include "trace/synthetic_fb.h"

namespace ncdrf {
namespace {

using obs::EventKind;
using obs::Tracer;

// --- Tracer ---------------------------------------------------------------

TEST(TracerTest, RecordsEventsInOrder) {
  Tracer tracer(16);
  tracer.instant(EventKind::kCoflowArrival, 1.0, 7, 3);
  tracer.begin(EventKind::kAllocate, 2.0, 1);
  tracer.end(EventKind::kAllocate, 2.0);
  const std::vector<obs::TraceEvent> events = tracer.events();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].kind, EventKind::kCoflowArrival);
  EXPECT_EQ(events[0].phase, 'i');
  EXPECT_EQ(events[0].a0, 7);
  EXPECT_EQ(events[1].phase, 'B');
  EXPECT_EQ(events[2].phase, 'E');
  EXPECT_EQ(tracer.dropped_events(), 0);
}

TEST(TracerTest, RingOverflowDropsOldestAndCounts) {
  Tracer tracer(4);
  for (int i = 0; i < 10; ++i) {
    tracer.instant(EventKind::kFlowFinish, static_cast<double>(i), i);
  }
  EXPECT_EQ(tracer.size(), 4u);
  EXPECT_EQ(tracer.capacity(), 4u);
  EXPECT_EQ(tracer.dropped_events(), 6);
  const std::vector<obs::TraceEvent> events = tracer.events();
  ASSERT_EQ(events.size(), 4u);
  // The survivors are the newest four, oldest surviving first.
  for (int i = 0; i < 4; ++i) EXPECT_EQ(events[i].a0, 6 + i);
}

TEST(TracerTest, OverflowedTraceStillExportsValidChromeJson) {
  // Overflow drops oldest-first, which can orphan an 'E' whose 'B' was
  // overwritten; the exporter must prune those so the trace still loads.
  Tracer tracer(3);
  {
    obs::ScopedSpan outer(&tracer, EventKind::kAllocate, 1.0);
    { obs::ScopedSpan inner(&tracer, EventKind::kPStarSearch, 1.0); }
    { obs::ScopedSpan inner(&tracer, EventKind::kBackfill, 2.0); }
  }  // record order: B B E B E E — ring of 3 keeps B E E (one orphan E)
  EXPECT_GT(tracer.dropped_events(), 0);
  std::ostringstream json;
  tracer.write_chrome_json(json);
  EXPECT_EQ(obs::validate_chrome_trace_json(json.str()), "");
  // The backfill span survived intact; the orphaned outer 'E' is gone.
  EXPECT_NE(json.str().find("backfill"), std::string::npos);
}

TEST(TracerTest, ScopedSpanNestsAndNullTracerIsNoOp) {
  Tracer tracer(16);
  {
    obs::ScopedSpan outer(&tracer, EventKind::kAllocate, 1.0, 2);
    obs::ScopedSpan inner(&tracer, EventKind::kPStarSearch, 1.0);
    obs::ScopedSpan ignored(nullptr, EventKind::kBackfill, 1.0);
  }
  const std::vector<obs::TraceEvent> events = tracer.events();
  ASSERT_EQ(events.size(), 4u);  // B B E E — LIFO destruction order
  EXPECT_EQ(events[0].kind, EventKind::kAllocate);
  EXPECT_EQ(events[1].kind, EventKind::kPStarSearch);
  EXPECT_EQ(events[2].kind, EventKind::kPStarSearch);
  EXPECT_EQ(events[3].kind, EventKind::kAllocate);

  std::ostringstream json;
  tracer.write_chrome_json(json);
  EXPECT_EQ(obs::validate_chrome_trace_json(json.str()), "");
}

TEST(TracerTest, MacrosAcceptNullTracer) {
  [[maybe_unused]] Tracer* null_tracer = nullptr;
  NCDRF_TRACE_INSTANT(null_tracer, EventKind::kCoflowArrival, 0.0, 1);
  NCDRF_TRACE_ASYNC_BEGIN(null_tracer, EventKind::kSlaveDown, 0.0, 3);
  NCDRF_TRACE_ASYNC_END(null_tracer, EventKind::kSlaveDown, 1.0, 3);
  NCDRF_TRACE_SPAN(null_tracer, EventKind::kAllocate, 0.0);
#if !NCDRF_TRACE_ENABLED
  // Disabled builds must compile the macros away entirely.
  Tracer tracer(4);
  NCDRF_TRACE_INSTANT(&tracer, EventKind::kCoflowArrival, 0.0, 1);
  EXPECT_EQ(tracer.size(), 0u);
#endif
}

TEST(TracerTest, ChromeExportIsTimeSortedAndValid) {
  Tracer tracer(16);
  // Deliberately record out of time order (a delivered bus message keeps
  // its earlier deliver-time stamp); the exporter must emit sorted ts.
  tracer.instant(EventKind::kClusterHeartbeat, 2.0, 1);
  tracer.instant(EventKind::kClusterHeartbeat, 1.0, 2);
  tracer.async_begin(EventKind::kSlaveDown, 2.5, 4);
  tracer.async_end(EventKind::kSlaveDown, 3.0, 4);
  std::ostringstream json;
  tracer.write_chrome_json(json);
  EXPECT_EQ(obs::validate_chrome_trace_json(json.str()), "");
  EXPECT_NE(json.str().find("\"droppedEvents\":0"), std::string::npos);

  std::ostringstream ndjson;
  tracer.write_ndjson(ndjson);
  EXPECT_EQ(obs::validate_ndjson(ndjson.str()), "");
}

TEST(TracerTest, SimulationTraceIsByteIdenticalAcrossRuns) {
  SyntheticFbOptions options;
  options.num_coflows = 20;
  options.num_racks = 10;
  options.duration_s = 60.0;
  const Trace trace = generate_synthetic_fb(options);
  const Fabric fabric(options.num_racks, gbps(1.0));

  const auto run_traced = [&]() {
    Tracer tracer(1 << 16);
    SimOptions sim;
    sim.record_intervals = false;
    sim.tracer = &tracer;
    NcDrfScheduler scheduler;
    simulate(fabric, trace, scheduler, sim);
    std::ostringstream out;
    tracer.write_chrome_json(out);
    return out.str();
  };

  const std::string first = run_traced();
  const std::string second = run_traced();
  EXPECT_EQ(first, second);
  EXPECT_EQ(obs::validate_chrome_trace_json(first), "");
#if NCDRF_TRACE_ENABLED
  // The run must have produced real content: arrivals, spans, finishes.
  EXPECT_NE(first.find("coflow_arrival"), std::string::npos);
  EXPECT_NE(first.find("ncdrf_alloc"), std::string::npos);
  EXPECT_NE(first.find("coflow_finish"), std::string::npos);
  EXPECT_NE(first.find("p_star_search"), std::string::npos);
#endif
}

// --- Histogram / metrics registry ----------------------------------------

TEST(HistogramTest, PercentilesTrackSortedSampleOracle) {
  obs::Histogram hist(1e-6, 1e3, 1.2589254117941673);
  std::vector<double> samples;
  // Deterministic log-uniform-ish spread over 5 decades.
  double v = 1e-5;
  for (int i = 0; i < 2000; ++i) {
    samples.push_back(v);
    hist.observe(v);
    v *= 1.0093;  // ~2000 steps cover 1e-5 .. ~1e3
  }
  std::vector<double> sorted = samples;
  std::sort(sorted.begin(), sorted.end());

  EXPECT_EQ(hist.count(), 2000);
  EXPECT_DOUBLE_EQ(hist.min(), sorted.front());
  EXPECT_DOUBLE_EQ(hist.max(), sorted.back());
  for (const double p : {10.0, 50.0, 90.0, 95.0, 99.0}) {
    const auto rank = static_cast<std::size_t>(
        p / 100.0 * static_cast<double>(sorted.size() - 1));
    const double oracle = sorted[rank];
    const double got = hist.percentile(p);
    // Bucketed quantiles are accurate to one growth factor.
    EXPECT_LE(got, oracle * hist.growth() * 1.0001) << "p" << p;
    EXPECT_GE(got, oracle / hist.growth() * 0.9999) << "p" << p;
  }
}

TEST(HistogramTest, ClampsToObservedRangeAndHandlesEmpty) {
  obs::Histogram hist;
  EXPECT_EQ(hist.count(), 0);
  EXPECT_DOUBLE_EQ(hist.percentile(50.0), 0.0);
  hist.observe(5.0);
  EXPECT_DOUBLE_EQ(hist.percentile(0.0), 5.0);
  EXPECT_DOUBLE_EQ(hist.percentile(100.0), 5.0);
  EXPECT_DOUBLE_EQ(hist.mean(), 5.0);
}

TEST(MetricsRegistryTest, JsonExportIsDeterministicAndValid) {
  const auto build = []() {
    std::ostringstream out;
    obs::MetricsRegistry registry;
    registry.counter("b.count").inc(3);
    registry.counter("a.count").inc();
    registry.gauge("x.level").set(0.5);
    registry.histogram("lat").observe(1e-3);
    registry.histogram("lat").observe(2e-3);
    registry.write_json(out);
    return out.str();
  };
  const std::string first = build();
  EXPECT_EQ(first, build());
  EXPECT_EQ(obs::validate_metrics_json(first), "");
  EXPECT_NE(first.find("\"a.count\":1"), std::string::npos);
  EXPECT_NE(first.find("\"b.count\":3"), std::string::npos);
  // Sorted keys: a.count precedes b.count.
  EXPECT_LT(first.find("a.count"), first.find("b.count"));
}

// Instrument names go through the JSON string escaper, so any name (a
// client tag in quotes, a backslash, a control byte) yields JSON the
// metrics validator accepts and reads back under the same name.
TEST(MetricsRegistryTest, JsonExportEscapesNames) {
  const std::string name = "serve.client \"7\" \\ \x01\n";
  obs::MetricsRegistry registry;
  registry.counter(name).inc(2);
  registry.gauge(name).set(1.5);
  registry.histogram(name).observe(1e-3);
  std::ostringstream out;
  registry.write_json(out);
  EXPECT_EQ(obs::validate_metrics_json(out.str()), "");
  JsonValue root;
  ASSERT_EQ(parse_json(out.str(), &root), "");
  for (const char* kind : {"counters", "gauges", "histograms"}) {
    const JsonValue* section = root.find(kind);
    ASSERT_NE(section, nullptr) << kind;
    ASSERT_EQ(section->members.size(), 1u) << kind;
    EXPECT_EQ(section->members[0].first, name) << kind;
  }
}

// JSON has no infinity or NaN, so a gauge refuses one rather than write
// a registry no reader accepts.
TEST(MetricsRegistryTest, GaugeRejectsNonFiniteValues) {
  obs::MetricsRegistry registry;
  obs::Gauge& gauge = registry.gauge("g");
  gauge.set(2.0);
  for (const double bad : {std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity(),
                           std::numeric_limits<double>::quiet_NaN()}) {
    EXPECT_THROW(gauge.set(bad), CheckError) << bad;
  }
  EXPECT_EQ(gauge.value, 2.0);
  std::ostringstream out;
  registry.write_json(out);
  EXPECT_EQ(obs::validate_metrics_json(out.str()), "");
}

TEST(MetricsRegistryTest, InstrumentReferencesAreStable) {
  obs::MetricsRegistry registry;
  obs::Counter& counter = registry.counter("events");
  for (int i = 0; i < 100; ++i) registry.counter("filler" + std::to_string(i));
  counter.inc(5);
  EXPECT_EQ(registry.counter("events").value, 5);
}

// --- SchedPerf ------------------------------------------------------------

TEST(SchedPerfTest, AccumulatesAndSerializesBackfillCounters) {
  SchedPerf a;
  a.allocate_calls = 2;
  a.backfill_rounds = 3;
  a.backfill_seconds = 0.5;
  SchedPerf b;
  b.allocate_calls = 1;
  b.backfill_rounds = 4;
  b.backfill_seconds = 0.25;
  b.links_touched = 7;
  a += b;
  EXPECT_EQ(a.allocate_calls, 3);
  EXPECT_EQ(a.backfill_rounds, 7);
  EXPECT_DOUBLE_EQ(a.backfill_seconds, 0.75);
  EXPECT_EQ(a.links_touched, 7);

  const std::string json = to_json(a);
  EXPECT_EQ(obs::validate_json(json), "");
  EXPECT_NE(json.find("\"backfill_rounds\":7"), std::string::npos);
  EXPECT_NE(json.find("backfill_seconds"), std::string::npos);
}

TEST(SchedPerfTest, MergesIntoRegistry) {
  SchedPerf perf;
  perf.allocate_calls = 10;
  perf.incremental_allocs = 8;
  perf.backfill_rounds = 9;
  perf.allocate_seconds = 0.125;
  obs::MetricsRegistry registry;
  merge_sched_perf(registry, perf);
  EXPECT_EQ(registry.counter("sched.allocate_calls").value, 10);
  EXPECT_EQ(registry.counter("sched.incremental_allocs").value, 8);
  EXPECT_EQ(registry.counter("sched.backfill_rounds").value, 9);
  EXPECT_DOUBLE_EQ(registry.gauge("sched.allocate_seconds").value, 0.125);
  std::ostringstream out;
  registry.write_json(out);
  EXPECT_EQ(obs::validate_metrics_json(out.str()), "");
}

TEST(SchedPerfTest, NcDrfCountsBackfillRounds) {
  const Trace trace = testing::fig3_trace();
  const Fabric fabric(2, gbps(1.0));
  NcDrfScheduler scheduler;
  SimOptions sim;
  sim.record_intervals = false;
  simulate(fabric, trace, scheduler, sim);
  EXPECT_GT(scheduler.perf().allocate_calls, 0);
  // Fig. 3's asymmetric coflows leave spare capacity, so backfilling runs.
  EXPECT_GT(scheduler.perf().backfill_rounds, 0);
  EXPECT_GE(scheduler.perf().backfill_seconds, 0.0);
  ASSERT_NE(scheduler.perf_counters(), nullptr);
  EXPECT_EQ(scheduler.perf_counters()->allocate_calls,
            scheduler.perf().allocate_calls);
}

// A stage counted in backfill_rounds must also be timed into
// backfill_seconds, on the serial and the sharded paths, or the per-layer
// split hides where a priority scheduler's allocate() goes.
TEST(SchedPerfTest, EveryCountedBackfillStageIsTimed) {
  const Fabric fabric(16, gbps(1.0));
  Rng rng(19);
  TraceBuilder builder(fabric.num_machines());
  for (int c = 0; c < 20; ++c) {
    builder.begin_coflow(0.0);
    const auto flows = static_cast<int>(rng.uniform_int(1, 6));
    for (int f = 0; f < flows; ++f) {
      builder.add_flow(
          static_cast<MachineId>(
              rng.uniform_int(0, fabric.num_machines() - 1)),
          static_cast<MachineId>(
              rng.uniform_int(0, fabric.num_machines() - 1)),
          1e7 * static_cast<double>(rng.uniform_int(1, 40)));
    }
  }
  const Trace trace = builder.build();
  const testing::Snapshot snap =
      testing::snapshot_all_active(fabric, trace, /*clairvoyant=*/true);

  std::vector<std::pair<std::string, std::unique_ptr<Scheduler>>> cells;
  for (const std::string& name : scheduler_names()) {
    cells.emplace_back(name, make_scheduler(name));
  }
  // DRF backfills only as an ablation, and is the one sharded path that
  // backfills.
  const DrfOptions ablation{.work_conserving = true};
  cells.emplace_back("drf+backfill", std::make_unique<DrfScheduler>(ablation));
  cells.emplace_back("drf+backfill@2",
                     std::make_unique<DrfScheduler>(
                         ablation, SchedulerOptions{.shards = 2}));

  std::set<std::string> counted;
  for (auto& [label, scheduler] : cells) {
    const SchedPerf* perf = scheduler->perf_counters();
    if (perf == nullptr) continue;
    const SchedPerf before = *perf;
    scheduler->allocate(snap.input);
    if (perf->backfill_rounds > before.backfill_rounds) {
      counted.insert(label);
      EXPECT_GT(perf->backfill_seconds, before.backfill_seconds) << label;
    }
  }
  // Not vacuous: every backfilling family counted a stage on this snapshot.
  for (const char* label : {"aalo", "fifo", "varys", "baraat", "hug", "ncdrf",
                            "drf+backfill", "drf+backfill@2"}) {
    EXPECT_EQ(counted.count(label), 1u) << label;
  }
}

TEST(SweepTest, MergesPerfAcrossCells) {
  SyntheticFbOptions options;
  options.num_coflows = 12;
  options.num_racks = 8;
  options.duration_s = 30.0;
  SweepSpec spec;
  spec.fabric = Fabric(options.num_racks, gbps(1.0));
  spec.policies = {"ncdrf", "ncdrf-live"};
  spec.traces.push_back(SweepCase{"a", generate_synthetic_fb(options)});
  options.seed = 99;
  spec.traces.push_back(SweepCase{"b", generate_synthetic_fb(options)});
  spec.sim.record_intervals = false;
  const SweepResult sweep = run_sweep(spec);

  ASSERT_EQ(sweep.cells.size(), 4u);
  SchedPerf expected;
  for (const SweepCellResult& cell : sweep.cells) {
    EXPECT_GT(cell.perf.allocate_calls, 0) << cell.policy;
    expected += cell.perf;
  }
  EXPECT_EQ(sweep.perf.allocate_calls, expected.allocate_calls);
  EXPECT_EQ(sweep.perf.full_rebuilds, expected.full_rebuilds);
  EXPECT_EQ(sweep.perf.backfill_rounds, expected.backfill_rounds);
}

// --- JSON validators ------------------------------------------------------

TEST(JsonLintTest, AcceptsAndRejectsSyntax) {
  EXPECT_EQ(obs::validate_json("{\"a\":[1,2.5e-3,null,true,\"x\\n\"]}"), "");
  EXPECT_NE(obs::validate_json("{\"a\":}"), "");
  EXPECT_NE(obs::validate_json("{\"a\":1,}"), "");
  EXPECT_NE(obs::validate_json("{\"a\":01}"), "");  // leading zero
  EXPECT_NE(obs::validate_json("{} extra"), "");
  EXPECT_NE(obs::validate_json(""), "");
}

TEST(JsonLintTest, ChromeTraceSchemaChecks) {
  const std::string good =
      "{\"traceEvents\":[{\"name\":\"allocate\",\"cat\":\"ncdrf\","
      "\"ph\":\"B\",\"ts\":1,\"pid\":0,\"tid\":0},"
      "{\"name\":\"allocate\",\"cat\":\"ncdrf\",\"ph\":\"E\",\"ts\":2,"
      "\"pid\":0,\"tid\":0}]}";
  EXPECT_EQ(obs::validate_chrome_trace_json(good), "");

  // Unbalanced span.
  EXPECT_NE(obs::validate_chrome_trace_json(
                "{\"traceEvents\":[{\"name\":\"a\",\"cat\":\"c\","
                "\"ph\":\"B\",\"ts\":1,\"pid\":0,\"tid\":0}]}"),
            "");
  // Async phase without an id.
  EXPECT_NE(obs::validate_chrome_trace_json(
                "{\"traceEvents\":[{\"name\":\"a\",\"cat\":\"c\","
                "\"ph\":\"b\",\"ts\":1,\"pid\":0,\"tid\":0}]}"),
            "");
  // Decreasing timestamps.
  EXPECT_NE(obs::validate_chrome_trace_json(
                "{\"traceEvents\":[{\"name\":\"a\",\"cat\":\"c\","
                "\"ph\":\"i\",\"ts\":2,\"pid\":0,\"tid\":0},"
                "{\"name\":\"a\",\"cat\":\"c\",\"ph\":\"i\",\"ts\":1,"
                "\"pid\":0,\"tid\":0}]}"),
            "");
  EXPECT_NE(obs::validate_chrome_trace_json("{\"events\":[]}"), "");
}

TEST(JsonLintTest, MetricsSchemaChecks) {
  EXPECT_EQ(obs::validate_metrics_json(
                "{\"counters\":{\"a\":1},\"gauges\":{},\"histograms\":{}}"),
            "");
  // Quantiles out of order.
  EXPECT_NE(obs::validate_metrics_json(
                "{\"counters\":{},\"gauges\":{},\"histograms\":{\"h\":"
                "{\"count\":1,\"sum\":1,\"min\":1,\"max\":1,\"mean\":1,"
                "\"p50\":2,\"p95\":1,\"p99\":3}}}"),
            "");
  // Missing histogram key.
  EXPECT_NE(obs::validate_metrics_json(
                "{\"counters\":{},\"gauges\":{},\"histograms\":{\"h\":"
                "{\"count\":1}}}"),
            "");
}

// --- Engine + metrics integration ----------------------------------------

TEST(SimObservabilityTest, EngineFeedsCountersAndHistograms) {
  const Trace trace = testing::fig3_trace();
  const Fabric fabric(2, gbps(1.0));
  obs::MetricsRegistry metrics;
  SimOptions sim;
  sim.metrics = &metrics;
  NcDrfScheduler scheduler;
  const RunResult run = simulate(fabric, trace, scheduler, sim);

  EXPECT_EQ(metrics.counter("sim.coflow_arrivals").value, 2);
  EXPECT_EQ(metrics.counter("sim.coflow_finishes").value, 2);
  EXPECT_EQ(metrics.counter("sim.flow_finishes").value, 4);
  EXPECT_EQ(metrics.counter("sim.allocations").value, run.num_allocations);
  EXPECT_EQ(metrics.histogram("sched.allocate_latency_s").count(),
            run.num_allocations);
  EXPECT_GT(metrics.histogram("sim.link_utilization").count(), 0);
  std::ostringstream out;
  metrics.write_json(out);
  EXPECT_EQ(obs::validate_metrics_json(out.str()), "");
}

// --- Fairness auditor -----------------------------------------------------

TEST(AuditTest, NcDrfRunPassesTheoremEnvelope) {
  SyntheticFbOptions options;
  options.num_coflows = 15;
  options.num_racks = 8;
  options.duration_s = 60.0;
  const Trace trace = generate_synthetic_fb(options);
  const Fabric fabric(options.num_racks, gbps(1.0));

  obs::FairnessAuditor auditor(fabric);
  SimOptions sim;
  sim.record_intervals = false;
  sim.auditor = &auditor;
  NcDrfScheduler scheduler;
  simulate(fabric, trace, scheduler, sim);
  auditor.finalize();

  EXPECT_EQ(auditor.coflows_checked(),
            static_cast<long long>(trace.coflows.size()));
  EXPECT_TRUE(auditor.violations().empty());
  EXPECT_GE(auditor.e_max(), 1.0);
  EXPECT_FALSE(auditor.series().empty());
  for (const Coflow& coflow : trace.coflows) {
    EXPECT_GT(auditor.shadow_cct(coflow.id()), 0.0) << coflow.id();
  }

  std::ostringstream report;
  auditor.write_report_json(report);
  EXPECT_EQ(obs::validate_json(report.str()), "");
  EXPECT_NE(report.str().find("\"violations\":[]"), std::string::npos);

  std::ostringstream csv;
  auditor.write_series_csv(csv);
  EXPECT_EQ(csv.str().rfind("t0,t1,coflow,progress_bps", 0), 0u);
}

TEST(AuditTest, FlagsEnvelopeViolation) {
  // Two identical single-flow coflows on one pair of links: e_max = 1, so
  // any completion later than the shadow DRF CCT (times the tolerance) is
  // a violation. Report one coflow finishing 10x too late.
  TraceBuilder builder(2);
  builder.begin_coflow(0.0);
  builder.add_flow(0, 1, 1e9);
  builder.begin_coflow(0.0);
  builder.add_flow(0, 1, 1e9);
  const Trace trace = builder.build();
  const Fabric fabric(2, gbps(1.0));

  obs::FairnessAuditor auditor(fabric);
  for (const Coflow& coflow : trace.coflows) auditor.on_submit(coflow);
  // Shadow DRF: both coflows share the machine-0 uplink, each at 500 Mbps
  // -> both finish at t=2. A real run reporting t=1.99 and t=20 must flag
  // exactly the second coflow.
  auditor.on_complete(0, 0.0, 1.99);
  auditor.on_complete(1, 0.0, 20.0);
  auditor.finalize();

  EXPECT_DOUBLE_EQ(auditor.e_max(), 1.0);
  ASSERT_EQ(auditor.violations().size(), 1u);
  const obs::AuditViolation& v = auditor.violations()[0];
  EXPECT_EQ(v.coflow, 1);
  EXPECT_NEAR(v.shadow_cct, 2.0, 1e-6);
  EXPECT_NEAR(v.ratio, 10.0, 1e-3);

  std::ostringstream report;
  auditor.write_report_json(report);
  EXPECT_EQ(obs::validate_json(report.str()), "");
  EXPECT_NE(report.str().find("\"coflow\":1"), std::string::npos);
}

TEST(AuditTest, SeriesCarriesShadowProgressFromArrival) {
  // Coflows 0 and 1 share machine 0's uplink; coflow 2 arrives at 0.5 s on
  // the reverse links. Shadow DRF holds every coflow at P* = 1 Gbps / 2
  // until the first finishes at 2 s, so every real-run sample, including
  // each coflow's first, pairs with P_k^D = 500 Mbps.
  TraceBuilder builder(2);
  builder.begin_coflow(0.0);
  builder.add_flow(0, 1, 1e9);
  builder.begin_coflow(0.0);
  builder.add_flow(0, 1, 1e9);
  builder.begin_coflow(0.5);
  builder.add_flow(1, 0, 1e9);
  const Trace trace = builder.build();
  const Fabric fabric(2, gbps(1.0));

  obs::FairnessAuditor auditor(fabric);
  SimOptions sim;
  sim.auditor = &auditor;
  NcDrfScheduler scheduler;
  simulate(fabric, trace, scheduler, sim);
  auditor.finalize();

  std::set<CoflowId> sampled;
  for (const obs::AuditSample& s : auditor.series()) {
    ASSERT_LT(s.t0, 2.0);
    EXPECT_DOUBLE_EQ(s.shadow_progress, 5e8)
        << "coflow " << s.coflow << " at " << s.t0;
    sampled.insert(s.coflow);
  }
  EXPECT_EQ(sampled.size(), 3u);
  EXPECT_TRUE(auditor.violations().empty());
}

TEST(AuditTest, RelativeProgressGapHelper) {
  std::vector<ProgressSample> samples;
  // Two coflows with equal progress -> gap 0.
  samples.push_back(ProgressSample{0.0, 1.0, 0, 100.0});
  samples.push_back(ProgressSample{0.0, 1.0, 1, 100.0});
  samples.push_back(ProgressSample{1.0, 2.0, 0, 200.0});
  samples.push_back(ProgressSample{1.0, 2.0, 1, 200.0});
  EXPECT_DOUBLE_EQ(obs::relative_progress_gap(samples, 0, 1, 0.0, 2.0), 0.0);

  // 100 vs 300 at one instant: gap 200 over mean level 200 -> 1.0.
  samples.clear();
  samples.push_back(ProgressSample{0.0, 1.0, 0, 100.0});
  samples.push_back(ProgressSample{0.0, 1.0, 1, 300.0});
  EXPECT_DOUBLE_EQ(obs::relative_progress_gap(samples, 0, 1, 0.0, 1.0), 1.0);

  // Window excludes everything -> 0 (no instants with both positive).
  EXPECT_DOUBLE_EQ(obs::relative_progress_gap(samples, 0, 1, 5.0, 9.0), 0.0);
}

}  // namespace
}  // namespace ncdrf
