#include "sim/engine.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <queue>
#include <tuple>
#include <unordered_map>
#include <unordered_set>

#include "coflow/coflow.h"
#include "common/check.h"
#include "obs/metrics.h"
#include "obs/tracer.h"
#include "sim/audit.h"

namespace ncdrf {
namespace {

constexpr double kTimeTolerance = 1e-9;
constexpr double kInfinity = std::numeric_limits<double>::infinity();

}  // namespace

struct DynamicSimulator::Impl {
  // One coflow's engine-side state: its Coflow copy and the progress
  // denominators. Its flow lists are its view in `input.coflows`.
  struct ActiveEntry {
    Coflow coflow;
    std::vector<double> correlation;  // c_k from original demand (Eq. 1)
    LinkId dom_link = -1;             // arg-max of the original demand
    // Some live flow has remaining ≤ epsilon — the retire phase only
    // scans flagged coflows instead of rescanning every flow.
    bool finish_pending = false;
  };

  struct PendingLater {
    bool operator()(const std::unique_ptr<ActiveEntry>& a,
                    const std::unique_ptr<ActiveEntry>& b) const {
      return std::pair(a->coflow.arrival_time(), a->coflow.id()) >
             std::pair(b->coflow.arrival_time(), b->coflow.id());
    }
  };

  Impl(const Fabric& fabric_in, Scheduler& scheduler_in, SimOptions opts)
      : fabric(fabric_in),
        scheduler(scheduler_in),
        options(opts),
        machines(static_cast<std::size_t>(fabric.num_machines())) {
    NCDRF_CHECK(options.completion_epsilon_bits > 0.0,
                "completion epsilon must be positive");
    input.fabric = &fabric;
    scratch_link_alloc.assign(2 * machines, 0.0);
    scratch_live.assign(2 * machines, 0);
    if (options.metrics != nullptr) {
      // Instruments are looked up once; per-event cost is an increment.
      m_arrivals = &options.metrics->counter("sim.coflow_arrivals");
      m_flow_finishes = &options.metrics->counter("sim.flow_finishes");
      m_coflow_finishes = &options.metrics->counter("sim.coflow_finishes");
      m_allocations = &options.metrics->counter("sim.allocations");
      // Fabric-wide utilization fraction per inter-event interval.
      m_utilization = &options.metrics->histogram("sim.link_utilization",
                                                  1e-6, 1.0, 1.1);
    }
  }

  const Fabric& fabric;
  Scheduler& scheduler;
  SimOptions options;
  // Links are indexed directly: a flow's uplink is `src`, its downlink
  // `dst + machines`. submit() range-checks both endpoints through
  // Coflow::demand.
  const std::size_t machines;
  CompletionCallback on_complete;
  // Deliver arrival/flow-finish/departure deltas to the scheduler (set at
  // the first run_until() from Scheduler::wants_events) so event-driven
  // policies can keep incremental state instead of rescanning snapshots.
  bool deliver_events = false;

  double now = 0.0;
  RunResult result;
  std::vector<double> remaining;  // indexed by FlowId, grown on submit
  const ClairvoyantInfo clairvoyant_info{&remaining};
  bool started = false;  // the first run_until() has set the scheduler up
  // While run_until() is paused: the allocation made at `now` and the time
  // from `now` to its next completion or internal event.
  bool paused = false;
  Allocation paused_alloc;
  double paused_horizon = 0.0;
  std::vector<ActiveEntry> active;
  // The scheduler snapshot, and the engine's own flow lists:
  // input.coflows[a] belongs to active[a] and follows its swap-pop moves.
  // Its `flows` are the coflow's live flows in flow order, compacted in
  // place as flows finish, and its `finished_flows` the rest in finishing
  // order; attained_bits is bumped in place during the advance step.
  ScheduleInput input;
  std::priority_queue<std::unique_ptr<ActiveEntry>,
                      std::vector<std::unique_ptr<ActiveEntry>>, PendingLater>
      pending;
  std::unordered_set<CoflowId> seen_coflows;
  // result.coflows slot by coflow id — O(1) departure bookkeeping. Valid
  // until take_result() re-sorts the records.
  std::unordered_map<CoflowId, std::size_t> record_index;

  // The event's rate of every live flow, in snapshot order (coflow by
  // coflow, each coflow's live flows in order): copied from the Allocation
  // by the clamp's first pass and scaled to its final value by the second,
  // then read by the fused progress-and-advance pass. It outlives a
  // run_until() pause with the allocation it came from.
  std::vector<double> rates;

  // Canonical completion times, indexed by FlowId alongside `remaining`.
  // finish_at is the absolute finish time computed when the flow's rate
  // last changed; while the rate stays put it is invariant, so it is kept
  // rather than recomputed from the shrinking remainder (recomputing would
  // drift event times by ulps). The next completion is the minimum over
  // the live flows, taken in the clamp's second pass.
  std::vector<double> last_rate;  // rate finish_at was computed with
  std::vector<double> finish_at;  // canonical finish time; inf = no event
  std::size_t unfinished_flows = 0;

  // Cached metric instruments (null when options.metrics is null).
  obs::Counter* m_arrivals = nullptr;
  obs::Counter* m_flow_finishes = nullptr;
  obs::Counter* m_coflow_finishes = nullptr;
  obs::Counter* m_allocations = nullptr;
  obs::Histogram* m_utilization = nullptr;

  // Scratch buffers for the per-coflow progress aggregate and
  // clamp_and_next_completion (hoisted out of the per-event path).
  // scratch_link_alloc / scratch_live are zero outside the links listed in
  // scratch_touched.
  std::vector<double> scratch_link_alloc;
  std::vector<char> scratch_live;
  std::vector<std::size_t> scratch_touched;
  std::vector<double> scratch_clamp;

  void submit(Coflow coflow) {
    NCDRF_CHECK(coflow.arrival_time() >= now - kTimeTolerance,
                "cannot submit a coflow arriving in the past");
    NCDRF_CHECK(seen_coflows.insert(coflow.id()).second,
                "duplicate coflow id submitted");
    if (options.auditor != nullptr) options.auditor->on_submit(coflow);
    // Static record fields and the minimum-CCT denominator.
    CoflowRecord rec;
    rec.id = coflow.id();
    rec.arrival = coflow.arrival_time();
    rec.width = coflow.width();
    rec.max_flow_bits = coflow.max_flow_bits();
    rec.total_bits = coflow.total_bits();
    const DemandVectors d = coflow.demand(fabric);
    for (LinkId i = 0; i < fabric.num_links(); ++i) {
      const auto idx = static_cast<std::size_t>(i);
      rec.min_cct = std::max(rec.min_cct,
                             d.demand[idx] / fabric.capacity(i));
    }
    record_index.emplace(rec.id, result.coflows.size());
    result.coflows.push_back(rec);

    FlowId max_flow_id = -1;
    for (const Flow& f : coflow.flows()) {
      NCDRF_CHECK(f.id >= 0, "flow ids must be non-negative");
      max_flow_id = std::max(max_flow_id, f.id);
    }
    if (static_cast<std::size_t>(max_flow_id) >= remaining.size()) {
      const auto size = static_cast<std::size_t>(max_flow_id) + 1;
      remaining.resize(size, 0.0);
      last_rate.resize(size, 0.0);
      finish_at.resize(size, kInfinity);
    }
    pending.push(std::make_unique<ActiveEntry>(
        ActiveEntry{std::move(coflow), d.correlation(), d.bottleneck_link}));
  }

  void admit_due() {
    while (!pending.empty() &&
           pending.top()->coflow.arrival_time() <= now + kTimeTolerance) {
      ActiveEntry entry = std::move(*pending.top());
      pending.pop();
      const Coflow& coflow = entry.coflow;
      ActiveCoflow view;
      view.id = coflow.id();
      view.arrival_time = coflow.arrival_time();
      view.tenant = coflow.tenant();
      view.weight = coflow.weight();
      view.flows.reserve(coflow.flows().size());
      for (const Flow& f : coflow.flows()) {
        remaining[static_cast<std::size_t>(f.id)] = f.size_bits;
        view.flows.push_back(ActiveFlow{f.id, f.coflow, f.src, f.dst});
        if (f.size_bits <= options.completion_epsilon_bits) {
          entry.finish_pending = true;  // zero-size flow: retire at once
        }
      }
      unfinished_flows += view.flows.size();
      input.coflows.push_back(std::move(view));
      if (deliver_events) {
        scheduler.on_coflow_arrival(input.coflows.back());
      }
      NCDRF_TRACE_INSTANT(options.tracer, obs::EventKind::kCoflowArrival,
                          now, coflow.id(), coflow.width());
      if (m_arrivals != nullptr) m_arrivals->inc();
      active.push_back(std::move(entry));
    }
  }

  // Debug oracle for the snapshot: each view must split its coflow's
  // flows into the live ones, in flow order, and the finished ones, each
  // within the completion epsilon of done (attained_bits is maintained in
  // place and checked for finiteness).
  void check_snapshot_consistent() const {
    NCDRF_CHECK(input.coflows.size() == active.size(),
                "snapshot/active size mismatch");
    using Key = std::tuple<FlowId, CoflowId, MachineId, MachineId>;
    const auto key = [](const auto& f) {  // a Flow's or an ActiveFlow's
      return Key{f.id, f.coflow, f.src, f.dst};
    };
    std::size_t live_flows = 0;
    for (std::size_t a = 0; a < active.size(); ++a) {
      const Coflow& coflow = active[a].coflow;
      const ActiveCoflow& view = input.coflows[a];
      NCDRF_CHECK(view.id == coflow.id() &&
                      view.arrival_time == coflow.arrival_time() &&
                      view.weight == coflow.weight() &&
                      view.tenant == coflow.tenant(),
                  "snapshot coflow fields mismatch");
      NCDRF_CHECK(std::isfinite(view.attained_bits) &&
                      view.attained_bits >= 0.0,
                  "snapshot attained_bits invalid");
      // The live list is a subsequence of the coflow's flows, and what it
      // skips is exactly the finished list.
      std::vector<Key> skipped;
      std::vector<Key> finished;
      std::size_t live = 0;
      for (const Flow& f : coflow.flows()) {
        if (live < view.flows.size() && key(view.flows[live]) == key(f)) {
          ++live;
        } else {
          skipped.push_back(key(f));
        }
      }
      for (const ActiveFlow& f : view.finished_flows) {
        NCDRF_CHECK(remaining[static_cast<std::size_t>(f.id)] <=
                        options.completion_epsilon_bits,
                    "snapshot finished flow has bits left");
        finished.push_back(key(f));
      }
      std::sort(skipped.begin(), skipped.end());
      std::sort(finished.begin(), finished.end());
      NCDRF_CHECK(live > 0 && live == view.flows.size() && skipped == finished,
                  "snapshot flows do not split the coflow's flows");
      live_flows += live;
    }
    NCDRF_CHECK(live_flows == unfinished_flows,
                "snapshot live-flow total mismatch");
  }

  // Brings one flow's canonical finish time up to date with its final rate
  // r and returns it. The time still holds when the rate is unchanged and
  // a positive rate already has a finite time.
  double update_finish(std::size_t idx, double r) {
    if (r != last_rate[idx] || (r > 0.0 && !(finish_at[idx] < kInfinity))) {
      last_rate[idx] = r;
      finish_at[idx] = r > 0.0 ? now + remaining[idx] / r : kInfinity;
    }
    return finish_at[idx];
  }

  // Copies the allocation into `rates`, clamps it to link capacity and
  // returns the earliest completion time (the minimum of the live flows'
  // finish_at). The first pass reads each live flow's rate once and sums
  // link usage; the second scales the rates on overfull links and brings
  // each finish time up to date with its final rate. A clamp that lands a
  // flow back on the rate its finish time was computed with keeps that
  // time. Links overshoot by ulps routinely (the DRF stage saturates the
  // bottleneck exactly), so scaling is common.
  double clamp_and_next_completion(Allocation& alloc) {
    scratch_clamp.assign(2 * machines, 0.0);
    rates.resize(unfinished_flows);
    std::size_t k = 0;
    for (const ActiveCoflow& view : input.coflows) {
      for (const ActiveFlow& f : view.flows) {
        const double r = alloc.rate(f.id);
        rates[k++] = r;
        scratch_clamp[static_cast<std::size_t>(f.src)] += r;
        scratch_clamp[static_cast<std::size_t>(f.dst) + machines] += r;
      }
    }
    bool any_over = false;
    for (LinkId i = 0; i < fabric.num_links(); ++i) {
      const auto idx = static_cast<std::size_t>(i);
      if (scratch_clamp[idx] > fabric.capacity(i)) {
        scratch_clamp[idx] = fabric.capacity(i) / scratch_clamp[idx];
        any_over = true;
      } else {
        scratch_clamp[idx] = 1.0;
      }
    }
    double next = kInfinity;
    k = 0;
    for (const ActiveCoflow& view : input.coflows) {
      for (const ActiveFlow& f : view.flows) {
        double& r = rates[k++];
        if (any_over && r > 0.0) {
          const double s =
              std::min(scratch_clamp[static_cast<std::size_t>(f.src)],
                       scratch_clamp[static_cast<std::size_t>(f.dst) +
                                     machines]);
          if (s < 1.0) {
            r *= s;
            alloc.set_rate(f.id, r);
          }
        }
        next = std::min(next,
                        update_finish(static_cast<std::size_t>(f.id), r));
      }
    }
    return next;
  }

  // Adds a flow's rate to its coflow's aggregate on `link`.
  void touch(std::size_t link, double r) {
    scratch_link_alloc[link] += r;
    if (!scratch_live[link]) {
      scratch_live[link] = 1;
      scratch_touched.push_back(link);
    }
  }

  // Progress (Eq. 1) over [now, now + dt) of a coflow whose live flows'
  // rates were touch()ed, against its original correlation: records its
  // progress sample and auditor record, clears the aggregate and returns
  // the progress.
  double take_progress(const ActiveEntry& entry, double dt) {
    double p = kInfinity;
    for (const std::size_t link : scratch_touched) {
      if (entry.correlation[link] > 0.0) {
        p = std::min(p, scratch_link_alloc[link] / entry.correlation[link]);
      }
    }
    p = std::isfinite(p) ? p : 0.0;
    if (options.record_progress_timeseries) {
      result.progress.push_back(
          ProgressSample{now, now + dt, entry.coflow.id(), p});
    }
    if (options.auditor != nullptr) {
      // The coflow's per-link aggregate gives its dominant-link share free.
      double dominant_share = 0.0;
      if (entry.dom_link >= 0) {
        const auto dom = static_cast<std::size_t>(entry.dom_link);
        dominant_share =
            scratch_link_alloc[dom] / fabric.capacity(entry.dom_link);
      }
      options.auditor->record(now, now + dt, entry.coflow.id(), p,
                              dominant_share);
    }
    for (const std::size_t link : scratch_touched) {
      scratch_link_alloc[link] = 0.0;
      scratch_live[link] = 0;
    }
    scratch_touched.clear();
    return p;
  }

  // Moves the finished flows of the coflow at `a` from its live list to
  // its finished list, compacting the live list in place, and reports each
  // finish. Returns true when no live flow is left.
  bool retire_flows(std::size_t a) {
    ActiveCoflow& view = input.coflows[a];
    std::size_t kept = 0;
    for (std::size_t i = 0; i < view.flows.size(); ++i) {
      const ActiveFlow f = view.flows[i];
      const auto idx = static_cast<std::size_t>(f.id);
      if (remaining[idx] > options.completion_epsilon_bits) {
        view.flows[kept++] = f;
        continue;
      }
      view.finished_flows.push_back(f);
      finish_at[idx] = kInfinity;
      last_rate[idx] = 0.0;
      --unfinished_flows;
      if (deliver_events) scheduler.on_flow_finish(f);
      NCDRF_TRACE_INSTANT(options.tracer, obs::EventKind::kFlowFinish, now,
                          f.id, f.coflow);
      if (m_flow_finishes != nullptr) m_flow_finishes->inc();
    }
    view.flows.resize(kept);
    return kept == 0;
  }

  void run_until(double t) {
    if (!started) {  // once per run, so resuming does not reset the scheduler
      started = true;
      deliver_events = scheduler.wants_events();
      scheduler.set_observers(options.tracer, options.metrics);
      if (deliver_events) scheduler.on_reset(fabric);
      input.clairvoyant = scheduler.clairvoyant() ? &clairvoyant_info : nullptr;
    }

    if (!paused) admit_due();  // else arrivals wait for the next event
    while (!active.empty() || !pending.empty()) {
      NCDRF_CHECK(result.num_events < options.max_events,
                  "event limit exceeded — scheduler appears to livelock");
      Allocation alloc;
      double horizon = 0.0;  // to the next completion or internal event
      if (paused) {
        alloc = std::move(paused_alloc);
        horizon = paused_horizon;
        paused = false;
      } else if (active.empty()) {
        if (pending.top()->coflow.arrival_time() > t) break;
        now = pending.top()->coflow.arrival_time();
        admit_due();
        continue;
      } else {
        input.now = now;
        input.total_live_flows = static_cast<int>(unfinished_flows);
        if (options.verify_snapshot) check_snapshot_consistent();
        {
          NCDRF_TRACE_SPAN(options.tracer, obs::EventKind::kAllocate, now,
                           static_cast<std::int64_t>(active.size()));
          alloc = scheduler.allocate(input);
        }
        horizon = clamp_and_next_completion(alloc) - now;
        if (options.validate_allocations) check_capacity(input, alloc);
        ++result.num_allocations;
        if (m_allocations != nullptr) m_allocations->inc();
        if (const auto internal =
                scheduler.next_internal_event(input, alloc)) {
          horizon = std::min(horizon, *internal);
        }
      }

      // Next event time. Arrivals are read here, not at allocation time,
      // so coflows submitted while paused count.
      double dt = horizon;
      if (!pending.empty()) {
        dt = std::min(dt, pending.top()->coflow.arrival_time() - now);
      }
      dt = std::max(dt, 0.0);
      if (now + dt > t) {
        paused_alloc = std::move(alloc);
        paused_horizon = horizon;
        paused = true;
        break;
      }
      NCDRF_CHECK(std::isfinite(dt),
                  "starvation: no completion, arrival or internal event "
                  "ahead under scheduler " + scheduler.name());
      NCDRF_CHECK(now + dt <= options.max_time_s,
                  "simulated time limit exceeded");

      // One pass over the live flows: advance the fluid state, flagging
      // coflows with flows at (or below) the completion epsilon so the
      // retire phase can skip the rest, and, when time-weighted metrics
      // over [now, now + dt) are on, sum each coflow's per-link rates for
      // its progress.
      const bool sample =
          dt > 0.0 &&
          (options.record_intervals || options.record_progress_timeseries ||
           options.auditor != nullptr);
      double min_p = kInfinity;
      double max_p = 0.0;
      std::size_t k = 0;
      for (std::size_t a = 0; a < active.size(); ++a) {
        ActiveEntry& entry = active[a];
        ActiveCoflow& view = input.coflows[a];
        double delivered_total = 0.0;
        for (const ActiveFlow& f : view.flows) {
          const double r = rates[k++];
          if (sample) {
            touch(static_cast<std::size_t>(f.src), r);
            touch(static_cast<std::size_t>(f.dst) + machines, r);
          }
          double& rem = remaining[static_cast<std::size_t>(f.id)];
          if (r > 0.0) {
            const double delivered = std::min(r * dt, rem);
            rem -= delivered;
            delivered_total += delivered;
          }
          if (rem <= options.completion_epsilon_bits) {
            entry.finish_pending = true;
          }
        }
        view.attained_bits += delivered_total;
        result.total_bits_delivered += delivered_total;
        if (sample) {
          const double p = take_progress(entry, dt);
          min_p = std::min(min_p, p);
          max_p = std::max(max_p, p);
        }
      }
      if (sample && (options.record_intervals || m_utilization != nullptr)) {
        const double usage = 2.0 * alloc.total_rate();
        if (options.record_intervals) {
          IntervalRecord rec;
          rec.t0 = now;
          rec.t1 = now + dt;
          rec.active_coflows = static_cast<int>(active.size());
          rec.link_usage_bps = usage;
          rec.min_progress = std::isfinite(min_p) ? min_p : 0.0;
          rec.max_progress = max_p;
          result.intervals.push_back(rec);
        }
        if (m_utilization != nullptr) {
          m_utilization->observe(usage / fabric.total_capacity());
        }
      }
      now += dt;
      ++result.num_events;

      // Retire finished flows and coflows; completions may submit more
      // coflows through the callback.
      for (std::size_t a = 0; a < active.size();) {
        ActiveEntry& entry = active[a];
        if (!entry.finish_pending) {
          ++a;
          continue;
        }
        entry.finish_pending = false;
        if (!retire_flows(a)) {
          ++a;
          continue;
        }
        const CoflowId id = entry.coflow.id();
        if (deliver_events) scheduler.on_coflow_departure(id);
        const auto rec_it = record_index.find(id);
        NCDRF_CHECK(rec_it != record_index.end(), "missing record for coflow");
        CoflowRecord& rec = result.coflows[rec_it->second];
        rec.completion = now;
        rec.cct = now - rec.arrival;
        const CoflowRecord completed = rec;
        NCDRF_TRACE_INSTANT(options.tracer, obs::EventKind::kCoflowFinish,
                            now, id, 0, rec.cct);
        if (m_coflow_finishes != nullptr) m_coflow_finishes->inc();
        if (options.auditor != nullptr) {
          options.auditor->on_complete(id, rec.arrival, now);
        }
        if (a + 1 != active.size()) {
          active[a] = std::move(active.back());
          input.coflows[a] = std::move(input.coflows.back());
        }
        active.pop_back();
        input.coflows.pop_back();
        if (on_complete) on_complete(completed);
      }

      admit_due();
    }
    result.makespan = std::max(result.makespan, now);
  }
};

DynamicSimulator::DynamicSimulator(const Fabric& fabric, Scheduler& scheduler,
                                   SimOptions options)
    : impl_(std::make_unique<Impl>(fabric, scheduler, options)) {}

DynamicSimulator::~DynamicSimulator() = default;

void DynamicSimulator::submit(Coflow coflow) {
  impl_->submit(std::move(coflow));
}

void DynamicSimulator::set_completion_callback(CompletionCallback callback) {
  impl_->on_complete = std::move(callback);
}

void DynamicSimulator::run_until(double t) { impl_->run_until(t); }

void DynamicSimulator::run() { impl_->run_until(kInfinity); }

double DynamicSimulator::now() const { return impl_->now; }

int DynamicSimulator::active_coflows() const {
  return static_cast<int>(impl_->active.size());
}

RunResult DynamicSimulator::take_result() {
  NCDRF_CHECK(impl_->active.empty() && impl_->pending.empty(),
              "take_result on an undrained simulator");
  std::sort(impl_->result.coflows.begin(), impl_->result.coflows.end(),
            [](const CoflowRecord& a, const CoflowRecord& b) {
              return a.id < b.id;
            });
  // Callers keep results long after the run (a sweep holds one per cell).
  // Trimming the growth slack hands each run's oversized block back to the
  // heap for the next run, so the peak RSS of such callers stays close to
  // the size of the results they hold.
  impl_->result.intervals.shrink_to_fit();
  impl_->result.progress.shrink_to_fit();
  return std::move(impl_->result);
}

}  // namespace ncdrf
