// Tests for the live telemetry plane (obs/timeseries, obs/exporter,
// obs/flight) and the causal trace-id path: deterministic window rollups,
// the Prometheus / snapshot-NDJSON exposition surfaces, flight-recorder
// triggers with cooldowns, schema validators for the new artifact kinds,
// and trace-id continuity from submission through the master's rate
// pushes to the slaves under a lossy bus with retries.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <variant>
#include <vector>

#include "cluster/bus.h"
#include "cluster/faults.h"
#include "cluster/slave.h"
#include "common/json.h"
#include "common/units.h"
#include "core/registry.h"
#include "obs/exporter.h"
#include "obs/flight.h"
#include "obs/json_lint.h"
#include "obs/metrics.h"
#include "obs/timeseries.h"
#include "obs/tracer.h"
#include "serve/loadgen.h"
#include "serve/server.h"
#include "sim/audit.h"
#include "trace/trace.h"

namespace ncdrf {
namespace {

using obs::EpochVitals;
using obs::FlightOptions;
using obs::FlightRecorder;
using obs::MetricsRegistry;
using obs::Timeseries;
using obs::TimeseriesOptions;
using obs::TimeseriesSnapshot;
using serve::LoadGenerator;
using serve::LoadGenOptions;
using serve::ServeFront;
using serve::ServeOptions;
using serve::Submission;

// --- Histogram quantile helper --------------------------------------------

TEST(QuantilesTest, FromCountsMatchesCumulativePercentiles) {
  obs::Histogram hist;
  for (int i = 1; i <= 200; ++i) hist.observe(i * 1e-4);
  const obs::Quantiles q = hist.quantiles();
  EXPECT_DOUBLE_EQ(q.p50, hist.percentile(50.0));
  EXPECT_DOUBLE_EQ(q.p95, hist.percentile(95.0));
  EXPECT_DOUBLE_EQ(q.p99, hist.percentile(99.0));
  // The helper over the full cumulative counts is the same estimator
  // minus the observed-min/max clamp, so it agrees within the clamp.
  const double p50 = hist.quantile_from_counts(hist.bucket_counts(), 50.0);
  EXPECT_NEAR(p50, q.p50, q.p50 * (hist.growth() - 1.0));
  EXPECT_EQ(hist.quantile_from_counts(
                std::vector<long long>(hist.bucket_counts().size(), 0), 99.0),
            0.0);
}

// --- Timeseries window rollups --------------------------------------------

TEST(TimeseriesTest, WindowsRollUpDeltasAndRates) {
  MetricsRegistry metrics;
  obs::Counter& requests = metrics.counter("requests");
  obs::Gauge& depth = metrics.gauge("depth");
  obs::Histogram& lat = metrics.histogram("lat");

  Timeseries ts(&metrics, TimeseriesOptions{1.0, 8});
  ts.sample(0.0);  // opens window 0
  requests.inc(10);
  depth.set(3.0);
  lat.observe(0.5);
  lat.observe(0.5);
  ts.sample(0.5);            // window still open
  EXPECT_EQ(ts.windows_closed(), 0);
  ts.sample(1.0);            // closes [0, 1]
  requests.inc(30);
  depth.set(7.0);
  lat.observe(2.0);
  ts.sample(2.0);            // closes [1, 2]

  ASSERT_EQ(ts.windows_closed(), 2);
  const TimeseriesSnapshot& w0 = ts.snapshots()[0];
  EXPECT_EQ(w0.window, 0);
  EXPECT_DOUBLE_EQ(w0.t0, 0.0);
  EXPECT_DOUBLE_EQ(w0.t1, 1.0);
  ASSERT_EQ(w0.counters.size(), 1u);
  EXPECT_EQ(w0.counters[0].second.total, 10);
  EXPECT_EQ(w0.counters[0].second.delta, 10);
  EXPECT_DOUBLE_EQ(w0.counters[0].second.rate_per_s, 10.0);
  EXPECT_DOUBLE_EQ(w0.gauges[0].second, 3.0);
  EXPECT_EQ(w0.histograms[0].second.count, 2);
  EXPECT_DOUBLE_EQ(w0.histograms[0].second.sum, 1.0);
  EXPECT_NEAR(w0.histograms[0].second.q.p99, 0.5, 0.5 * 0.26);

  const TimeseriesSnapshot& w1 = ts.snapshots()[1];
  EXPECT_EQ(w1.window, 1);
  EXPECT_DOUBLE_EQ(w1.t0, 1.0);  // contiguous with w0.t1
  EXPECT_EQ(w1.counters[0].second.total, 40);
  EXPECT_EQ(w1.counters[0].second.delta, 30);
  EXPECT_DOUBLE_EQ(w1.gauges[0].second, 7.0);
  // The windowed histogram sees only the window's own observation.
  EXPECT_EQ(w1.histograms[0].second.count, 1);
  EXPECT_DOUBLE_EQ(w1.histograms[0].second.sum, 2.0);
  EXPECT_NEAR(w1.histograms[0].second.q.p50, 2.0, 2.0 * 0.26);

  // flush closes the open tail regardless of span.
  requests.inc(1);
  ts.sample(2.25);
  ts.flush(2.5);
  ASSERT_EQ(ts.windows_closed(), 3);
  EXPECT_DOUBLE_EQ(ts.latest()->t1, 2.5);
  EXPECT_EQ(ts.latest()->counters[0].second.delta, 1);
}

TEST(TimeseriesTest, ServeDrivenStreamIsByteIdenticalAndValid) {
  const auto run_once = [] {
    const Fabric fabric(8, gbps(1.0));
    const auto sched = make_scheduler("ncdrf");
    LoadGenOptions load;
    load.seed = 7;
    load.num_clients = 2;
    load.num_machines = 8;
    load.arrival_rate_per_s = 800.0;
    load.duration_s = 0.1;
    load.mean_lifetime_s = 0.02;
    const LoadGenerator gen(load);

    MetricsRegistry metrics;
    Timeseries ts(&metrics, TimeseriesOptions{0.01, 64});
    ServeOptions options;
    options.epoch_s = 1e-3;
    options.metrics = &metrics;
    options.timeseries = &ts;
    ServeFront front(fabric, *sched, load.num_clients, options);
    const double end = front.run(gen.generate());
    ts.flush(end + options.epoch_s);

    std::ostringstream out;
    obs::SnapshotStream stream(out);
    stream.poll(ts);
    return out.str();
  };
  const std::string first = run_once();
  const std::string second = run_once();
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, second);
  EXPECT_EQ(obs::validate_timeseries_ndjson(first), "");
}

TEST(SnapshotStreamTest, PollAppendsOnlyNewWindows) {
  MetricsRegistry metrics;
  metrics.counter("c").inc(5);
  Timeseries ts(&metrics, TimeseriesOptions{1.0, 8});
  std::ostringstream out;
  obs::SnapshotStream stream(out);
  EXPECT_EQ(stream.poll(ts), 0);  // nothing closed yet

  ts.sample(0.0);
  ts.sample(1.0);
  EXPECT_EQ(stream.poll(ts), 1);
  EXPECT_EQ(stream.poll(ts), 0);  // idempotent between closes
  metrics.counter("c").inc(2);
  ts.sample(2.0);
  ts.sample(3.0);
  EXPECT_EQ(stream.poll(ts), 2);
  EXPECT_EQ(stream.windows_written(), 3);
  EXPECT_EQ(obs::validate_timeseries_ndjson(out.str()), "");
}

TEST(SnapshotStreamTest, EscapesInstrumentNames) {
  const std::string name = "serve.client \"7\" \\ \x01";
  MetricsRegistry metrics;
  metrics.counter(name).inc(3);
  metrics.gauge(name).set(4.0);
  metrics.histogram(name).observe(2e-3);
  Timeseries ts(&metrics, TimeseriesOptions{1.0, 8});
  ts.sample(0.0);
  ts.sample(1.0);
  std::ostringstream out;
  obs::SnapshotStream stream(out);
  EXPECT_EQ(stream.poll(ts), 1);
  EXPECT_EQ(obs::validate_timeseries_ndjson(out.str()), "");
  JsonValue root;
  ASSERT_EQ(parse_json(out.str().substr(0, out.str().size() - 1), &root), "");
  for (const char* kind : {"counters", "gauges", "histograms"}) {
    const JsonValue* section = root.find(kind);
    ASSERT_NE(section, nullptr) << kind;
    ASSERT_EQ(section->members.size(), 1u) << kind;
    EXPECT_EQ(section->members[0].first, name) << kind;
  }
}

// --- Prometheus exposition -------------------------------------------------

TEST(ExporterTest, PrometheusTextExposesAllInstrumentKinds) {
  MetricsRegistry metrics;
  metrics.counter("serve.admitted").inc(42);
  metrics.gauge("serve.backlog").set(17.0);
  obs::Histogram& lat = metrics.histogram("serve.admit_latency_s");
  for (int i = 0; i < 100; ++i) lat.observe(0.001 * (i + 1));

  std::ostringstream out;
  obs::write_prometheus_text(out, metrics);
  const std::string text = out.str();
  EXPECT_NE(text.find("# TYPE ncdrf_serve_admitted_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("ncdrf_serve_admitted_total 42"), std::string::npos);
  EXPECT_NE(text.find("# TYPE ncdrf_serve_backlog gauge"), std::string::npos);
  EXPECT_NE(text.find("ncdrf_serve_backlog 17"), std::string::npos);
  EXPECT_NE(text.find("# TYPE ncdrf_serve_admit_latency_s summary"),
            std::string::npos);
  EXPECT_NE(text.find("ncdrf_serve_admit_latency_s{quantile=\"0.99\"}"),
            std::string::npos);
  EXPECT_NE(text.find("ncdrf_serve_admit_latency_s_count 100"),
            std::string::npos);
}

// --- Flight recorder -------------------------------------------------------

TEST(FlightTest, CooldownSuppressesRepeatFires) {
  FlightOptions options;
  options.cooldown_s = 1.0;
  FlightRecorder flight(options);
  EXPECT_TRUE(flight.fire(0.0, "manual", "first"));
  EXPECT_FALSE(flight.fire(0.5, "manual", "too soon"));
  EXPECT_TRUE(flight.fire(0.2, "other_kind", "independent cooldown"));
  EXPECT_TRUE(flight.fire(1.5, "manual", "cooldown elapsed"));
  EXPECT_EQ(flight.bundles_written(), 3);
  EXPECT_EQ(flight.triggers_suppressed(), 1);
  EXPECT_EQ(obs::validate_flight_bundle_json(flight.last_bundle_json()), "");
}

TEST(FlightTest, StalenessTriggerFiresOverBudget) {
  FlightOptions options;
  options.cooldown_s = 0.0;
  options.staleness_budget_s = 0.01;
  FlightRecorder flight(options);
  EpochVitals vitals;
  vitals.staleness_s = 0.005;
  flight.observe_epoch(0.001, vitals);
  EXPECT_EQ(flight.bundles_written(), 0);
  vitals.staleness_s = 0.02;
  flight.observe_epoch(0.002, vitals);
  EXPECT_EQ(flight.bundles_written(), 1);
  EXPECT_NE(flight.last_bundle_json().find("staleness_breach"),
            std::string::npos);
}

TEST(FlightTest, EnvelopeTriggerFiresOnNewAuditViolation) {
  // Same scenario as AuditTest.FlagsEnvelopeViolation: one coflow
  // finishing 10x past its shadow DRF CCT.
  TraceBuilder builder(2);
  builder.begin_coflow(0.0);
  builder.add_flow(0, 1, 1e9);
  builder.begin_coflow(0.0);
  builder.add_flow(0, 1, 1e9);
  const Trace trace = builder.build();
  const Fabric fabric(2, gbps(1.0));
  obs::FairnessAuditor auditor(fabric);
  for (const Coflow& coflow : trace.coflows) auditor.on_submit(coflow);

  FlightOptions options;
  options.trigger_envelope = true;
  FlightRecorder flight(options);
  flight.watch_auditor(&auditor);
  flight.observe_epoch(0.5, EpochVitals{});
  EXPECT_EQ(flight.bundles_written(), 0);  // no violation yet

  auditor.on_complete(0, 0.0, 1.99);
  auditor.on_complete(1, 0.0, 20.0);
  auditor.finalize();
  flight.observe_epoch(21.0, EpochVitals{});
  EXPECT_EQ(flight.bundles_written(), 1);
  EXPECT_NE(flight.last_bundle_json().find("envelope_violation"),
            std::string::npos);
  // Seen violations are not re-fired on the next epoch.
  flight.observe_epoch(22.0, EpochVitals{});
  EXPECT_EQ(flight.bundles_written(), 1);
}

TEST(FlightTest, SloBurnRateAccountsClosedWindows) {
  MetricsRegistry metrics;
  obs::Histogram& lat = metrics.histogram("lat");
  Timeseries ts(&metrics, TimeseriesOptions{1.0, 16});

  FlightOptions options;
  options.cooldown_s = 0.0;
  options.slo_histogram = "lat";
  options.slo_p99_s = 0.01;
  options.slo_windows = 3;
  options.slo_burn_rate = 1.0;
  FlightRecorder flight(options);
  flight.attach(nullptr, &metrics, &ts);

  ts.sample(0.0);
  // Two breaching windows: not enough history to fire yet.
  for (int w = 1; w <= 2; ++w) {
    lat.observe(0.1);
    ts.sample(static_cast<double>(w));
    flight.observe_epoch(static_cast<double>(w), EpochVitals{});
    EXPECT_EQ(flight.bundles_written(), 0);
  }
  // Third breaching window completes the horizon: burn = 3/3 >= 1.0.
  lat.observe(0.1);
  ts.sample(3.0);
  flight.observe_epoch(3.0, EpochVitals{});
  EXPECT_EQ(flight.bundles_written(), 1);
  EXPECT_NE(flight.last_bundle_json().find("slo_burn"), std::string::npos);

  // Accounting restarted on fire; an idle window (count == 0) never
  // breaches, so while it sits in the horizon the burn stays at 2/3.
  ts.sample(4.0);
  flight.observe_epoch(4.0, EpochVitals{});
  for (int w = 5; w <= 6; ++w) {
    lat.observe(0.1);
    ts.sample(static_cast<double>(w));
    flight.observe_epoch(static_cast<double>(w), EpochVitals{});
  }
  EXPECT_EQ(flight.bundles_written(), 1);
  // One more breaching window slides the idle one out of the horizon and
  // the burn reaches 3/3 again.
  lat.observe(0.1);
  ts.sample(7.0);
  flight.observe_epoch(7.0, EpochVitals{});
  EXPECT_EQ(flight.bundles_written(), 2);
}

// Hand-built burst of submissions: `count` single-flow coflows from one
// client, all submitted at t=0.
std::vector<std::vector<Submission>> burst_schedule(int count, int clients) {
  std::vector<std::vector<Submission>> schedule(
      static_cast<std::size_t>(clients));
  for (int i = 0; i < count; ++i) {
    Submission s;
    s.coflow = i;
    s.client = i % clients;
    s.submit_time = 0.0;
    s.trace_id = static_cast<std::uint64_t>(i) + 1;
    s.lifetime_s = 0.002;
    Flow flow;
    flow.id = i;
    flow.coflow = i;
    flow.src = static_cast<MachineId>(i % 4);
    flow.dst = static_cast<MachineId>((i + 1) % 4);
    flow.size_bits = 1e6;
    s.flows.push_back(flow);
    schedule[static_cast<std::size_t>(s.client)].push_back(s);
  }
  return schedule;
}

TEST(FlightTest, ShedTriggerFiresOncePerEntryUnderOverload) {
  const Fabric fabric(4, gbps(1.0));
  const auto sched = make_scheduler("tcp");
  MetricsRegistry metrics;
  obs::Tracer tracer(1 << 12);
  Timeseries ts(&metrics, TimeseriesOptions{0.002, 32});
  FlightOptions flight_options;
  flight_options.trigger_shed = true;
  flight_options.cooldown_s = 100.0;
  FlightRecorder flight(flight_options);

  ServeOptions options;
  options.epoch_s = 1e-3;
  options.max_batch_per_epoch = 2;
  options.queue_capacity = 256;
  options.slowdown_watermark = 8;
  options.shed_watermark = 16;
  options.metrics = &metrics;
  options.tracer = &tracer;
  options.timeseries = &ts;
  options.flight = &flight;
  ServeFront front(fabric, *sched, 2, options);
  front.run(burst_schedule(120, 2));

  EXPECT_GT(front.total_shed(), 0);
  // Edge-triggered: the backlog enters kShed once and then only drains,
  // so a sustained shed regime produces exactly one bundle.
  EXPECT_EQ(flight.bundles_written(), 1);
  EXPECT_EQ(flight.triggers_suppressed(), 0);
  const std::string& bundle = flight.last_bundle_json();
  EXPECT_EQ(obs::validate_flight_bundle_json(bundle), "");
  EXPECT_NE(bundle.find("backpressure_shed"), std::string::npos);
  // The bundle embeds the front-end's config and the trace slice.
  EXPECT_NE(bundle.find("\"shed_watermark\":16"), std::string::npos);
  EXPECT_NE(bundle.find("serve_epoch"), std::string::npos);
}

TEST(FlightTest, BundleBytesAreDeterministic) {
  const auto run_once = [] {
    const Fabric fabric(4, gbps(1.0));
    const auto sched = make_scheduler("tcp");
    MetricsRegistry metrics;
    obs::Tracer tracer(1 << 12);
    Timeseries ts(&metrics, TimeseriesOptions{0.002, 32});
    FlightOptions flight_options;
    flight_options.trigger_shed = true;
    FlightRecorder flight(flight_options);
    ServeOptions options;
    options.epoch_s = 1e-3;
    options.max_batch_per_epoch = 2;
    options.queue_capacity = 256;
    options.slowdown_watermark = 8;
    options.shed_watermark = 16;
    options.metrics = &metrics;
    options.tracer = &tracer;
    options.timeseries = &ts;
    options.flight = &flight;
    ServeFront front(fabric, *sched, 2, options);
    front.run(burst_schedule(120, 2));
    return flight.last_bundle_json();
  };
  const std::string first = run_once();
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, run_once());
}

// --- Tracer drop accounting ------------------------------------------------

TEST(TracerTest, DroppedEventsMirrorIntoCounterAndChromeMetadata) {
  MetricsRegistry metrics;
  obs::Tracer tracer(4);
  tracer.bind_drop_counter(&metrics.counter("trace.dropped_events"));
  for (int i = 0; i < 10; ++i) {
    tracer.instant(obs::EventKind::kCoflowArrival, 0.001 * (i + 1), i);
  }
  EXPECT_EQ(tracer.dropped_events(), 6);
  EXPECT_EQ(metrics.counter("trace.dropped_events").value, 6);

  std::ostringstream out;
  tracer.write_chrome_json(out);
  const std::string text = out.str();
  EXPECT_NE(text.find("trace_dropped_events"), std::string::npos);
  EXPECT_NE(text.find("\"dropped\":6"), std::string::npos);
  EXPECT_EQ(obs::validate_chrome_trace_json(text), "");
}

// --- Schema validators -----------------------------------------------------

TEST(ValidatorTest, TimeseriesNdjsonRejectsTruncationAndDisorder) {
  MetricsRegistry metrics;
  metrics.counter("c").inc(1);
  Timeseries ts(&metrics, TimeseriesOptions{1.0, 8});
  ts.sample(0.0);
  ts.sample(1.0);
  metrics.counter("c").inc(1);
  ts.sample(2.0);
  std::ostringstream out;
  obs::SnapshotStream stream(out);
  stream.poll(ts);
  const std::string good = out.str();
  ASSERT_EQ(obs::validate_timeseries_ndjson(good), "");

  // Truncated final line (writer died mid-record).
  const std::string truncated = good.substr(0, good.size() - 10);
  EXPECT_NE(obs::validate_timeseries_ndjson(truncated), "");

  // Window-ordering violation: duplicate the first line at the end.
  const std::string first_line = good.substr(0, good.find('\n') + 1);
  EXPECT_NE(obs::validate_timeseries_ndjson(good + first_line), "");

  // parse_timeseries_line round-trips one good line.
  obs::SnapshotRow row;
  EXPECT_EQ(obs::parse_timeseries_line(
                first_line.substr(0, first_line.size() - 1), &row),
            "");
  EXPECT_EQ(row.window, 0.0);
  ASSERT_EQ(row.counters.size(), 1u);
  EXPECT_EQ(row.counters[0].first, "c");
}

TEST(ValidatorTest, FlightBundleRejectsMissingSections) {
  FlightRecorder flight{};
  ASSERT_TRUE(flight.fire(1.0, "manual", "probe"));
  const std::string good = flight.last_bundle_json();
  ASSERT_EQ(obs::validate_flight_bundle_json(good), "");

  EXPECT_NE(obs::validate_flight_bundle_json("{}"), "");
  EXPECT_NE(obs::validate_flight_bundle_json(
                "{\"bundle\":\"ncdrf.flight\",\"seq\":0}"),
            "");
  // Wrong magic.
  std::string wrong = good;
  wrong.replace(wrong.find("ncdrf.flight"), 12, "ncdrf.wrong!");
  EXPECT_NE(obs::validate_flight_bundle_json(wrong), "");
}

// --- Trace-id continuity ---------------------------------------------------

TEST(TraceIdTest, SubmissionIdsReachSlavesAcrossLossBurstWithRetries) {
  const int kMachines = 4;
  const Fabric fabric(kMachines, gbps(1.0));
  const auto sched = make_scheduler("tcp");

  LoadGenOptions load;
  load.seed = 11;
  load.num_clients = 2;
  load.num_machines = kMachines;
  load.arrival_rate_per_s = 2000.0;
  load.duration_s = 0.05;
  load.mean_lifetime_s = 0.0;  // coflows never retire: every flow stays live
  const LoadGenerator gen(load);
  const auto schedule = gen.generate();

  // Expected trace id per coflow / per flow's owning coflow.
  std::map<CoflowId, std::uint64_t> expected;
  std::map<FlowId, CoflowId> owner;
  int total_flows = 0;
  for (const auto& client_schedule : schedule) {
    for (const Submission& s : client_schedule) {
      ASSERT_NE(s.trace_id, 0u);  // the generator stamps every submission
      expected[s.coflow] = s.trace_id;
      for (const Flow& f : s.flows) {
        owner[f.id] = s.coflow;
        ++total_flows;
      }
    }
  }

  const double kBaseLoss = 0.1;
  SimBus bus(2e-4, kBaseLoss, 99);
  std::vector<std::unique_ptr<Slave>> slaves;
  for (int m = 0; m < kMachines; ++m) {
    slaves.push_back(std::make_unique<Slave>(m, 1.0));
    for (const auto& client_schedule : schedule) {
      for (const Submission& s : client_schedule) {
        for (const Flow& f : s.flows) {
          if (f.src == m) slaves.back()->add_flow(f);
        }
      }
    }
  }

  ServeOptions options;
  options.epoch_s = 1e-3;
  options.bus = &bus;
  options.push_retry = RetryPolicy{4, 2.5e-4, 2.0};
  ServeFront front(fabric, *sched, load.num_clients, options);

  FaultPlan plan;
  plan.loss_burst(0.01, 0.03, 0.9);

  std::vector<std::size_t> cursor(schedule.size(), 0);
  for (int epoch = 0; epoch <= 80; ++epoch) {
    const double now = epoch * options.epoch_s;
    for (const FaultEvent& event : plan.due(now)) {
      if (event.kind == FaultKind::kLossBurstStart) {
        bus.set_loss_probability(event.loss_probability);
      } else if (event.kind == FaultKind::kLossBurstEnd) {
        bus.set_loss_probability(kBaseLoss);
      }
    }
    for (std::size_t c = 0; c < schedule.size(); ++c) {
      while (cursor[c] < schedule[c].size() &&
             schedule[c][cursor[c]].submit_time <= now) {
        ASSERT_TRUE(front.queue(static_cast<int>(c))
                        .try_enqueue(schedule[c][cursor[c]]));
        ++cursor[c];
      }
    }
    front.step_epoch(now);
    for (SimBus::Delivery& delivery : bus.deliver_due(now)) {
      if (auto* update = std::get_if<RateUpdateMsg>(&delivery.payload)) {
        slaves[static_cast<std::size_t>(delivery.to.machine)]
            ->on_rate_update(*update);
      }
    }
  }

  // The lossy path and the retry path were both actually exercised.
  EXPECT_GT(bus.total_dropped(), 0);
  EXPECT_GT(bus.total_retries(), 0);

  // The master remembers every active coflow's submission trace id.
  for (const auto& [coflow, trace_id] : expected) {
    EXPECT_EQ(front.master().trace_id(coflow), trace_id) << coflow;
  }

  // Continuity: every slave-side trace id matches the submission that
  // spawned the flow's coflow — ids never cross flows. Loss can leave a
  // late-admitted flow untagged, but retries keep that rare.
  int traced = 0;
  for (const auto& [flow, coflow] : owner) {
    const auto& slave = *slaves[static_cast<std::size_t>(
        [&] {
          for (const auto& client_schedule : schedule) {
            for (const Submission& s : client_schedule) {
              for (const Flow& f : s.flows) {
                if (f.id == flow) return f.src;
              }
            }
          }
          return MachineId{0};
        }())];
    const std::uint64_t got = slave.trace_id(flow);
    if (got != 0) {
      EXPECT_EQ(got, expected.at(coflow)) << "flow " << flow;
      ++traced;
    }
  }
  EXPECT_GT(traced, (total_flows * 9) / 10);
}

// Untraced deployments keep the RateUpdate side channel empty: no coflow
// registered with a trace id, so pushes carry no trace_ids vector.
TEST(TraceIdTest, UntracedRegistrationsKeepPushesClean) {
  const Fabric fabric(4, gbps(1.0));
  const auto sched = make_scheduler("tcp");
  SimBus bus(1e-4, 0.0, 1);
  ServeOptions options;
  options.epoch_s = 1e-3;
  options.bus = &bus;
  ServeFront front(fabric, *sched, 1, options);

  auto schedule = burst_schedule(4, 1);
  for (auto& client_schedule : schedule) {
    for (Submission& s : client_schedule) s.trace_id = 0;
  }
  for (const Submission& s : schedule[0]) {
    ASSERT_TRUE(front.queue(0).try_enqueue(s));
  }
  front.step_epoch(0.0);
  int updates = 0;
  for (SimBus::Delivery& delivery : bus.deliver_due(1.0)) {
    if (auto* update = std::get_if<RateUpdateMsg>(&delivery.payload)) {
      EXPECT_TRUE(update->trace_ids.empty());
      ++updates;
    }
  }
  EXPECT_GT(updates, 0);
}

}  // namespace
}  // namespace ncdrf
