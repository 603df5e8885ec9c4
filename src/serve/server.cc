#include "serve/server.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <iomanip>
#include <sstream>
#include <utility>

#include "common/check.h"
#include "obs/flight.h"
#include "obs/metrics.h"
#include "obs/timeseries.h"
#include "obs/tracer.h"
#include "scenario/source.h"

namespace ncdrf::serve {
namespace {

// Magnitude divergence between one pushed rate and its fresh value,
// relative to the larger of the two (symmetric, scale-free).
bool diverged(double pushed, double fresh, double threshold) {
  const double scale = std::max(std::abs(pushed), std::abs(fresh));
  return std::abs(fresh - pushed) > threshold * scale;
}

// Time from a submission's stamp to `now`, floored at 0, for the latency
// histograms and trace instants. A submission enqueued after the epoch
// sampled `now` is admitted with now < submit_time; its latency reads 0
// instead of aborting the histogram, while AdmitRecord and the causal
// record keep the raw times.
double elapsed(double now, double since) {
  return std::max(0.0, now - since);
}

}  // namespace

ServeFront::ServeFront(const Fabric& fabric, Scheduler& scheduler,
                       int num_clients, const ServeOptions& options)
    : options_(options),
      num_machines_(fabric.num_machines()),
      // A serving master lives forever, so retired state must be dropped or
      // memory grows with history; the front-end's sources assign fresh ids
      // and never re-register, which makes forgetting safe (see
      // MasterOptions::forget_retired). Liveness tracking stays off: no
      // slave is quarantined, so every registered flow gets a rate vector.
      master_(fabric, scheduler, MasterOptions{.forget_retired = true}),
      push_state_(static_cast<std::size_t>(fabric.num_machines())) {
  NCDRF_CHECK(num_clients >= 1, "serving front-end needs >= 1 client");
  NCDRF_CHECK(options_.epoch_s > 0.0, "epoch length must be positive");
  NCDRF_CHECK(options_.staleness_s >= 0.0,
              "staleness budget must be non-negative");
  NCDRF_CHECK(options_.push_threshold >= 0.0,
              "push threshold must be non-negative");
  NCDRF_CHECK(options_.slowdown_watermark <= options_.shed_watermark,
              "slowdown watermark must not exceed the shed watermark");
  queues_.reserve(static_cast<std::size_t>(num_clients));
  for (int c = 0; c < num_clients; ++c) {
    queues_.push_back(
        std::make_unique<SubmissionQueue>(c, options_.queue_capacity));
  }
  if (options_.metrics != nullptr) {
    obs::MetricsRegistry& m = *options_.metrics;
    admitted_counter_ = &m.counter("serve.admitted");
    shed_counter_ = &m.counter("serve.shed");
    push_counter_ = &m.counter("serve.rate_pushes");
    deferred_counter_ = &m.counter("serve.pushes_deferred");
    epoch_counter_ = &m.counter("serve.epochs");
    backlog_gauge_ = &m.gauge("serve.backlog");
    active_gauge_ = &m.gauge("serve.active_coflows");
    admit_latency_ = &m.histogram("serve.admit_latency_s");
    alloc_latency_ = &m.histogram("serve.alloc_latency_s");
    push_latency_ = &m.histogram("serve.push_latency_s");
    batch_size_ = &m.histogram("serve.batch_size");
    stage_queue_ = &m.histogram("serve.stage.queue_s");
    stage_alloc_ = &m.histogram("serve.stage.alloc_s");
    stage_push_ = &m.histogram("serve.stage.push_s");
    stage_total_ = &m.histogram("serve.stage.total_s");
    client_instruments_.resize(queues_.size());
    for (std::size_t c = 0; c < queues_.size(); ++c) {
      const std::string base = "serve.client." + std::to_string(c) + ".";
      ClientInstruments& ci = client_instruments_[c];
      ci.backlog = &m.gauge(base + "backlog");
      ci.accepted = &m.counter(base + "accepted");
      ci.rejected = &m.counter(base + "rejected");
      ci.shed = &m.counter(base + "shed");
    }
    if (options_.tracer != nullptr) {
      // Ring-overflow drops surface in the metrics plane, not only behind
      // Tracer::dropped_events().
      options_.tracer->bind_drop_counter(&m.counter("trace.dropped_events"));
    }
  }
  if (options_.flight != nullptr) {
    options_.flight->attach(options_.tracer, options_.metrics,
                            options_.timeseries);
    options_.flight->set_config_json(config_json());
  }
}

ServeFront::~ServeFront() = default;

void ServeFront::retire_due(double now) {
  finish_batch_.clear();
  while (!departures_.empty() && departures_.top().time <= now) {
    const Departure& due = departures_.top();
    for (const FlowId f : due.flows) {
      finish_batch_.push_back(FlowFinishedMsg{f, due.coflow, now});
    }
    departures_.pop();
  }
  // One bulk report per epoch: the master marks every flow, then sweeps
  // its retirement list once (per-finish sweeps made epoch cost quadratic
  // in the arrival rate).
  if (!finish_batch_.empty()) master_.on_flows_finished(finish_batch_);
}

int ServeFront::admit_batch(double now) {
  batch_.clear();
  // Round-robin, one submission per client per round: the batch cap can
  // never starve a client behind another's burst.
  bool any = true;
  while (any && (options_.max_batch_per_epoch <= 0 ||
                 static_cast<int>(batch_.size()) <
                     options_.max_batch_per_epoch)) {
    any = false;
    for (auto& queue : queues_) {
      if (options_.max_batch_per_epoch > 0 &&
          static_cast<int>(batch_.size()) >= options_.max_batch_per_epoch) {
        break;
      }
      any = queue->drain(1, batch_) > 0 || any;
    }
  }
  const std::size_t drained = batch_.size();
  std::size_t registered = 0;  // batch_[0, registered) were registered
  for (std::size_t i = 0; i < drained; ++i) {
    Submission& s = batch_[i];
    RegisterCoflowMsg msg;
    msg.coflow = s.coflow;
    msg.arrival_time = s.submit_time;
    msg.weight = s.weight;
    msg.tenant = s.client;  // client attribution for tenant-aware policies
    msg.sizes_known = s.sizes_known;
    msg.trace_id = s.trace_id;
    msg.flows = s.flows;
    if (!s.sizes_known) {
      // The non-clairvoyant contract: sizes never cross the register API.
      for (Flow& f : msg.flows) f.size_bits = 0.0;
    }
    // A registration the master ignored (it reuses an id the master
    // holds) is still admitted and counted, but nothing of it is
    // scheduled: it gets no departure and no causal stage.
    const bool applied = master_.on_register(msg);
    if (applied && s.lifetime_s > 0.0) {
      Departure departure{now + s.lifetime_s, s.coflow, {}};
      departure.flows.reserve(s.flows.size());
      for (const Flow& f : s.flows) departure.flows.push_back(f.id);
      departures_.push(std::move(departure));
    }
    ++admitted_;
    if (admitted_counter_ != nullptr) admitted_counter_->inc();
    if (admit_latency_ != nullptr) {
      admit_latency_->observe(elapsed(now, s.submit_time));
    }
    if (applied && stage_queue_ != nullptr) {
      stage_queue_->observe(elapsed(now, s.submit_time));
    }
    NCDRF_TRACE_INSTANT(options_.tracer, obs::EventKind::kServeAdmit, now,
                        s.coflow, static_cast<std::int64_t>(s.trace_id),
                        elapsed(now, s.submit_time));
    if (admit_hook) {
      double bits = 0.0;
      for (const Flow& f : s.flows) bits += f.size_bits;
      admit_hook(AdmitRecord{s.coflow, s.client, s.submit_time, now,
                             static_cast<int>(s.flows.size()), bits});
    }
    if (!applied) continue;
    for (const Flow& f : s.flows) {
      push_state_[static_cast<std::size_t>(f.src)].gained = true;
    }
    if (registered != i) batch_[registered] = std::move(s);
    ++registered;
  }
  if (batch_size_ != nullptr && drained > 0) {
    batch_size_->observe(static_cast<double>(drained));
  }
  batch_.resize(registered);
  return static_cast<int>(drained);
}

void ServeFront::shed_over_watermark(double now) {
  std::size_t over = backlog();
  if (over <= options_.shed_watermark) return;
  std::size_t need = over - options_.shed_watermark;
  // Round-robin shedding of the *oldest* queued submissions: overload cost
  // is spread across clients instead of landing on one.
  while (need > 0) {
    bool any = false;
    for (auto& queue : queues_) {
      if (need == 0) break;
      const std::size_t dropped = queue->shed(1);
      if (dropped == 0) continue;
      any = true;
      need -= dropped;
      if (shed_counter_ != nullptr) {
        shed_counter_->inc(static_cast<long long>(dropped));
      }
      NCDRF_TRACE_INSTANT(options_.tracer, obs::EventKind::kServeShed, now,
                          queue->client(),
                          static_cast<std::int64_t>(dropped));
    }
    if (!any) break;
  }
}

void ServeFront::reallocate(double now) {
  if (!master_.dirty()) return;
  const ScheduleInput& view =
      master_.compute_allocation(now, alloc_, per_slave_);
  ++allocations_;
  if (alloc_hook) alloc_hook(now, view, alloc_);
  // Every coflow registered this epoch marked the view dirty, so this
  // allocation is the first to cover it: its alloc stage closes at the
  // admitting epoch's `now`.
  for (const Submission& s : batch_) {
    if (alloc_latency_ != nullptr) {
      alloc_latency_->observe(elapsed(now, s.submit_time));
    }
    if (stage_alloc_ != nullptr) stage_alloc_->observe(0.0);
    NCDRF_TRACE_INSTANT(options_.tracer, obs::EventKind::kServeAllocCover,
                        now, s.coflow, static_cast<std::int64_t>(s.trace_id),
                        0.0);
  }
}

void ServeFront::push_rates(double now) {
  // Machines with no live flows left dropped out of per_slave_ (sorted by
  // machine id); their slaves have nothing to enforce (every local flow
  // finished), so the push state is simply discarded.
  auto fresh = per_slave_.begin();
  for (std::size_t m = 0; m < push_state_.size(); ++m) {
    if (fresh != per_slave_.end() &&
        static_cast<std::size_t>(fresh->machine) == m) {
      ++fresh;
      continue;
    }
    push_state_[m].rates.clear();
    push_state_[m].dirty_since = -1.0;
  }
  const auto by_flow = [](const std::pair<FlowId, double>& a,
                          const std::pair<FlowId, double>& b) {
    return a.first < b.first;
  };
  for (const SlaveRates& sr : per_slave_) {
    PushState& state = push_state_[static_cast<std::size_t>(sr.machine)];
    // Classify the fresh vector against the last pushed one: with both
    // sorted by flow id and equally long, the flow sets agree exactly
    // when every position pairs the same flow.
    fresh_sorted_.assign(sr.msg.rates_bps.begin(), sr.msg.rates_bps.end());
    if (!std::is_sorted(fresh_sorted_.begin(), fresh_sorted_.end(),
                        by_flow)) {
      std::sort(fresh_sorted_.begin(), fresh_sorted_.end(), by_flow);
    }
    bool structural =
        state.gained || fresh_sorted_.size() != state.rates.size();
    bool magnitude = false;
    for (std::size_t i = 0; !structural && i < fresh_sorted_.size(); ++i) {
      const auto& [flow, rate] = fresh_sorted_[i];
      const auto& [pushed_flow, pushed_rate] = state.rates[i];
      structural = flow != pushed_flow;
      magnitude =
          magnitude || diverged(pushed_rate, rate, options_.push_threshold);
    }
    if (!structural && !magnitude) {
      state.dirty_since = -1.0;  // converged back — nothing pending
      continue;
    }
    bool force_deadline = false;
    if (!structural) {
      if (state.dirty_since < 0.0) state.dirty_since = now;
      // Push before waiting one more epoch could exceed the budget
      // (guaranteed on any epoch grid with spacing <= epoch_s).
      force_deadline =
          (now - state.dirty_since) + options_.epoch_s > options_.staleness_s;
      if (!force_deadline) {
        ++pushes_deferred_;
        if (deferred_counter_ != nullptr) deferred_counter_->inc();
        continue;
      }
    }
    const double staleness =
        state.dirty_since >= 0.0 ? now - state.dirty_since : 0.0;
    max_push_staleness_ = std::max(max_push_staleness_, staleness);
    epoch_staleness_ = std::max(epoch_staleness_, staleness);
    state.rates.swap(fresh_sorted_);
    state.dirty_since = -1.0;
    state.gained = false;
    ++rate_pushes_;
    if (push_counter_ != nullptr) push_counter_->inc();
    NCDRF_TRACE_INSTANT(options_.tracer, obs::EventKind::kServeRatePush, now,
                        sr.machine, 0, staleness);
    if (options_.bus != nullptr) {
      // The whole vector — rates and their causal trace ids — goes out.
      RateUpdateMsg out = sr.msg;
      if (options_.push_retry.max_attempts > 1) {
        // Lost pushes retransmit with per-destination backoff; a retried
        // push arrives late, never early.
        options_.bus->send_with_retry(now, slave_address(sr.machine),
                                      std::move(out), options_.push_retry);
      } else {
        // Best-effort, like Master::reallocate: the next divergence or
        // deadline re-sends.
        options_.bus->send_unreliable(now, slave_address(sr.machine),
                                      std::move(out));
      }
    }
  }
  // Each flow registered this epoch made its slave's push structural, so
  // the loop above sent it: every registered coflow's rates reached an
  // enforcement point at `now`, which closes its causal span.
  for (const Submission& s : batch_) {
    const double waited = elapsed(now, s.submit_time);
    if (push_latency_ != nullptr) {
      for (std::size_t i = 0; i < s.flows.size(); ++i) {
        push_latency_->observe(waited);
      }
    }
    if (stage_push_ != nullptr) stage_push_->observe(0.0);
    if (stage_total_ != nullptr) stage_total_->observe(waited);
    NCDRF_TRACE_INSTANT(options_.tracer, obs::EventKind::kServeFirstPush, now,
                        s.coflow, static_cast<std::int64_t>(s.trace_id),
                        waited);
  }
}

void ServeFront::publish_level(double now) {
  const std::size_t total = backlog();
  Backpressure level = Backpressure::kOk;
  if (total >= options_.shed_watermark) {
    level = Backpressure::kShed;
  } else if (total >= options_.slowdown_watermark) {
    level = Backpressure::kSlowdown;
  }
  if (level != level_) {
    level_ = level;
    for (auto& queue : queues_) queue->set_level(level);
    NCDRF_TRACE_INSTANT(options_.tracer, obs::EventKind::kServeBackpressure,
                        now, static_cast<std::int64_t>(level));
  }
  if (backlog_gauge_ != nullptr) {
    backlog_gauge_->set(static_cast<double>(total));
  }
  if (active_gauge_ != nullptr) {
    active_gauge_->set(static_cast<double>(master_.active_coflows()));
  }
  // Per-client plane: backlog gauges plus the queue counters mirrored as
  // registry counters (incremented by delta — the queues own the truth).
  for (std::size_t c = 0; c < client_instruments_.size(); ++c) {
    ClientInstruments& ci = client_instruments_[c];
    const SubmissionQueue& q = *queues_[c];
    ci.backlog->set(static_cast<double>(q.size()));
    const long long accepted = q.accepted();
    const long long rejected = q.rejected();
    const long long shed = q.shed_count();
    if (accepted > ci.prev_accepted) {
      ci.accepted->inc(accepted - ci.prev_accepted);
    }
    if (rejected > ci.prev_rejected) {
      ci.rejected->inc(rejected - ci.prev_rejected);
    }
    if (shed > ci.prev_shed) ci.shed->inc(shed - ci.prev_shed);
    ci.prev_accepted = accepted;
    ci.prev_rejected = rejected;
    ci.prev_shed = shed;
  }
}

void ServeFront::step_epoch(double now) {
  ++epochs_;
  epoch_staleness_ = 0.0;
  if (epoch_counter_ != nullptr) epoch_counter_->inc();
  if (options_.tracer != nullptr) {
    options_.tracer->begin(obs::EventKind::kServeEpoch, now);
  }
  retire_due(now);
  const int admitted_now = admit_batch(now);
  shed_over_watermark(now);
  reallocate(now);
  push_rates(now);
  publish_level(now);
  if (options_.tracer != nullptr) {
    options_.tracer->end(obs::EventKind::kServeEpoch, now, admitted_now,
                         master_.active_coflows());
  }
  // Telemetry tail: roll the registry into the timeseries, then let the
  // flight recorder evaluate its armed triggers against this epoch.
  if (options_.timeseries != nullptr) options_.timeseries->sample(now);
  if (options_.flight != nullptr) {
    const long long shed_total = total_shed();
    obs::EpochVitals vitals;
    vitals.backpressure_level = static_cast<int>(level_);
    vitals.shed_delta = shed_total - prev_shed_total_;
    vitals.staleness_s = epoch_staleness_;
    vitals.backlog = static_cast<double>(backlog());
    vitals.active_coflows = static_cast<double>(master_.active_coflows());
    prev_shed_total_ = shed_total;
    options_.flight->observe_epoch(now, vitals);
  }
}

double ServeFront::run(scenario::WorkloadSource& source) {
  double now = 0.0;
  for (long long epoch = 0;; ++epoch) {
    now = static_cast<double>(epoch) * options_.epoch_s;
    while (const Submission* due = source.peek()) {
      if (due->submit_time > now) break;
      Submission s = source.next();
      NCDRF_CHECK(s.client >= 0 &&
                      s.client < static_cast<int>(queues_.size()),
                  "submission client out of range for this front-end");
      // Open loop: a rejected submission is dropped (and counted by the
      // queue), never retried.
      queues_[static_cast<std::size_t>(s.client)]->try_enqueue(std::move(s));
    }
    step_epoch(now);
    if (source.peek() == nullptr && backlog() == 0) break;
  }
  return now;
}

double ServeFront::run(const std::vector<std::vector<Submission>>& schedule) {
  NCDRF_CHECK(schedule.size() == queues_.size(),
              "run() needs one schedule per client");
  // Clients are stamped from the slot index so hand-built schedules keep
  // routing to the queue they were handed to (the historical contract).
  std::vector<std::vector<Submission>> per_client = schedule;
  for (std::size_t c = 0; c < per_client.size(); ++c) {
    for (Submission& s : per_client[c]) s.client = static_cast<int>(c);
  }
  scenario::VectorSource source(std::move(per_client), num_machines_);
  return run(source);
}

long long ServeFront::total_rejected() const {
  long long total = 0;
  for (const auto& queue : queues_) total += queue->rejected();
  return total;
}

long long ServeFront::total_shed() const {
  long long total = 0;
  for (const auto& queue : queues_) total += queue->shed_count();
  return total;
}

std::size_t ServeFront::backlog() const {
  std::size_t total = 0;
  for (const auto& queue : queues_) total += queue->size();
  return total;
}

std::string ServeFront::config_json() const {
  std::ostringstream out;
  out << std::setprecision(15);
  out << "{\"epoch_s\":" << options_.epoch_s
      << ",\"max_batch_per_epoch\":" << options_.max_batch_per_epoch
      << ",\"queue_capacity\":" << options_.queue_capacity
      << ",\"slowdown_watermark\":" << options_.slowdown_watermark
      << ",\"shed_watermark\":" << options_.shed_watermark
      << ",\"staleness_s\":" << options_.staleness_s
      << ",\"push_threshold\":" << options_.push_threshold
      << ",\"push_retry_attempts\":" << options_.push_retry.max_attempts
      << ",\"num_clients\":" << queues_.size() << "}";
  return out.str();
}

}  // namespace ncdrf::serve
