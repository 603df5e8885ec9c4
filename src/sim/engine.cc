#include "sim/engine.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <queue>
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
  // One active coflow's state. Owns its Coflow copy; `unfinished` /
  // `finished` point into it, so entries are heap-allocated and never
  // moved after creation.
  struct ActiveEntry {
    explicit ActiveEntry(Coflow c) : coflow(std::move(c)) {}
    Coflow coflow;
    std::vector<const Flow*> unfinished;
    std::vector<const Flow*> finished;
    std::vector<double> correlation;  // c_k from original demand (Eq. 1)
    LinkId dom_link = -1;             // arg-max of the original demand
    // The entry's ActiveCoflow view in `input` (same index as in `active`)
    // no longer matches unfinished/finished and must be re-filled before
    // the next allocate(). Views of clean entries are reused as-is.
    bool dirty = false;
    // Some flow of this entry has remaining ≤ epsilon — the retire phase
    // only scans flagged entries instead of rescanning every flow.
    bool finish_pending = false;
  };

  struct PendingLater {
    bool operator()(const std::unique_ptr<ActiveEntry>& a,
                    const std::unique_ptr<ActiveEntry>& b) const {
      if (a->coflow.arrival_time() != b->coflow.arrival_time()) {
        return a->coflow.arrival_time() > b->coflow.arrival_time();
      }
      return a->coflow.id() > b->coflow.id();
    }
  };

  Impl(const Fabric& fabric_in, Scheduler& scheduler_in, SimOptions opts)
      : fabric(fabric_in), scheduler(scheduler_in), options(opts) {
    NCDRF_CHECK(options.completion_epsilon_bits > 0.0,
                "completion epsilon must be positive");
    input.fabric = &fabric;
    const auto links = static_cast<std::size_t>(fabric.num_links());
    scratch_link_alloc.assign(links, 0.0);
    scratch_live.assign(links, 0);
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
  std::vector<std::unique_ptr<ActiveEntry>> active;
  // The scheduler snapshot, maintained incrementally: input.coflows[a] is
  // the view of active[a] and follows its swap-pop moves. Views are
  // re-filled only for dirty entries; attained_bits is bumped in place
  // during the advance step.
  ScheduleInput input;
  std::priority_queue<std::unique_ptr<ActiveEntry>,
                      std::vector<std::unique_ptr<ActiveEntry>>, PendingLater>
      pending;
  std::unordered_set<CoflowId> seen_coflows;
  // result.coflows slot by coflow id — O(1) departure bookkeeping. Valid
  // until take_result() re-sorts the records.
  std::unordered_map<CoflowId, std::size_t> record_index;

  // Canonical completion times, indexed by FlowId alongside `remaining`.
  // finish_at is the absolute finish time computed when the flow's rate
  // last changed; while the rate stays put it is invariant, so it is kept
  // rather than recomputed from the shrinking remainder (recomputing would
  // drift event times by ulps). The next completion is the minimum over
  // the live flows, taken in the clamp pass that visits them anyway.
  std::vector<double> last_rate;  // rate finish_at was computed with
  std::vector<double> finish_at;  // canonical finish time; inf = no event
  std::size_t unfinished_flows = 0;

  // Cached metric instruments (null when options.metrics is null).
  obs::Counter* m_arrivals = nullptr;
  obs::Counter* m_flow_finishes = nullptr;
  obs::Counter* m_coflow_finishes = nullptr;
  obs::Counter* m_allocations = nullptr;
  obs::Histogram* m_utilization = nullptr;

  // Scratch buffers for progress_of and clamp_and_next_completion
  // (hoisted out of the per-call path). scratch_link_alloc / scratch_live
  // are zero outside the links listed in scratch_touched.
  std::vector<double> scratch_link_alloc;
  std::vector<char> scratch_live;
  std::vector<std::size_t> scratch_touched;
  std::vector<double> scratch_clamp;
  std::vector<std::pair<std::size_t, double>> scratch_changed;

  double& remaining_of(const Flow& f) {
    return remaining[static_cast<std::size_t>(f.id)];
  }

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

    auto entry = std::make_unique<ActiveEntry>(std::move(coflow));
    entry->correlation = d.correlation();
    entry->dom_link = d.bottleneck_link;
    FlowId max_flow_id = -1;
    for (const Flow& f : entry->coflow.flows()) {
      NCDRF_CHECK(f.id >= 0, "flow ids must be non-negative");
      max_flow_id = std::max(max_flow_id, f.id);
    }
    if (static_cast<std::size_t>(max_flow_id) >= remaining.size()) {
      const auto size = static_cast<std::size_t>(max_flow_id) + 1;
      remaining.resize(size, 0.0);
      last_rate.resize(size, 0.0);
      finish_at.resize(size, kInfinity);
    }
    pending.push(std::move(entry));
  }

  void admit_due() {
    while (!pending.empty() &&
           pending.top()->coflow.arrival_time() <= now + kTimeTolerance) {
      auto entry = std::move(
          const_cast<std::unique_ptr<ActiveEntry>&>(pending.top()));
      pending.pop();
      entry->unfinished.reserve(entry->coflow.flows().size());
      for (const Flow& f : entry->coflow.flows()) {
        remaining_of(f) = f.size_bits;
        entry->unfinished.push_back(&f);
        ++unfinished_flows;
        if (f.size_bits <= options.completion_epsilon_bits) {
          entry->finish_pending = true;  // zero-size flow: retire at once
        }
      }
      ActiveCoflow view;
      view.id = entry->coflow.id();
      view.arrival_time = entry->coflow.arrival_time();
      view.tenant = entry->coflow.tenant();
      view.weight = entry->coflow.weight();
      view.flows.reserve(entry->unfinished.size());
      for (const Flow* f : entry->unfinished) {
        view.flows.push_back(ActiveFlow{f->id, f->coflow, f->src, f->dst});
      }
      input.coflows.push_back(std::move(view));
      if (deliver_events) {
        scheduler.on_coflow_arrival(input.coflows.back());
      }
      NCDRF_TRACE_INSTANT(options.tracer, obs::EventKind::kCoflowArrival,
                          now, entry->coflow.id(), entry->coflow.width());
      if (m_arrivals != nullptr) m_arrivals->inc();
      active.push_back(std::move(entry));
    }
  }

  // Re-fills the views of dirty entries from their unfinished/finished
  // lists; clean views are reused untouched.
  void refresh_views() {
    for (std::size_t a = 0; a < active.size(); ++a) {
      ActiveEntry& entry = *active[a];
      if (!entry.dirty) continue;
      ActiveCoflow& view = input.coflows[a];
      view.flows.clear();
      view.flows.reserve(entry.unfinished.size());
      for (const Flow* f : entry.unfinished) {
        view.flows.push_back(ActiveFlow{f->id, f->coflow, f->src, f->dst});
      }
      view.finished_flows.clear();
      view.finished_flows.reserve(entry.finished.size());
      for (const Flow* f : entry.finished) {
        view.finished_flows.push_back(
            ActiveFlow{f->id, f->coflow, f->src, f->dst});
      }
      entry.dirty = false;
    }
  }

  // Debug oracle for the incremental snapshot: every view must equal a
  // from-scratch rebuild of the entry it mirrors (structure exactly;
  // attained_bits is maintained in place and checked for finiteness).
  void check_snapshot_consistent() const {
    NCDRF_CHECK(input.coflows.size() == active.size(),
                "snapshot/active size mismatch");
    for (std::size_t a = 0; a < active.size(); ++a) {
      const ActiveEntry& entry = *active[a];
      const ActiveCoflow& view = input.coflows[a];
      NCDRF_CHECK(!entry.dirty, "dirty view reached the scheduler");
      NCDRF_CHECK(view.id == entry.coflow.id(), "snapshot id mismatch");
      NCDRF_CHECK(view.arrival_time == entry.coflow.arrival_time(),
                  "snapshot arrival mismatch");
      NCDRF_CHECK(view.weight == entry.coflow.weight(),
                  "snapshot weight mismatch");
      NCDRF_CHECK(view.tenant == entry.coflow.tenant(),
                  "snapshot tenant mismatch");
      NCDRF_CHECK(std::isfinite(view.attained_bits) &&
                      view.attained_bits >= 0.0,
                  "snapshot attained_bits invalid");
      NCDRF_CHECK(view.flows.size() == entry.unfinished.size(),
                  "snapshot live-flow count mismatch");
      for (std::size_t i = 0; i < entry.unfinished.size(); ++i) {
        const Flow& f = *entry.unfinished[i];
        const ActiveFlow& v = view.flows[i];
        NCDRF_CHECK(v.id == f.id && v.coflow == f.coflow && v.src == f.src &&
                        v.dst == f.dst,
                    "snapshot live flow mismatch");
      }
      NCDRF_CHECK(view.finished_flows.size() == entry.finished.size(),
                  "snapshot finished-flow count mismatch");
      for (std::size_t i = 0; i < entry.finished.size(); ++i) {
        const Flow& f = *entry.finished[i];
        const ActiveFlow& v = view.finished_flows[i];
        NCDRF_CHECK(v.id == f.id && v.coflow == f.coflow && v.src == f.src &&
                        v.dst == f.dst,
                    "snapshot finished flow mismatch");
      }
    }
  }

  // Progress of one active coflow (Eq. 1) against its original
  // correlation, over the links its live flows touch. Leaves the coflow's
  // per-link aggregate in scratch_link_alloc (zero on untouched links)
  // until the next call.
  double progress_of(const ActiveEntry& entry, const Allocation& alloc) {
    for (const std::size_t link : scratch_touched) {
      scratch_link_alloc[link] = 0.0;
      scratch_live[link] = 0;
    }
    scratch_touched.clear();
    const auto touch = [&](std::size_t link, double r) {
      scratch_link_alloc[link] += r;
      if (!scratch_live[link]) {
        scratch_live[link] = 1;
        scratch_touched.push_back(link);
      }
    };
    for (const Flow* f : entry.unfinished) {
      const double r = alloc.rate(f->id);
      touch(static_cast<std::size_t>(fabric.uplink(f->src)), r);
      touch(static_cast<std::size_t>(fabric.downlink(f->dst)), r);
    }
    double progress = kInfinity;
    for (const std::size_t link : scratch_touched) {
      if (entry.correlation[link] > 0.0) {
        progress = std::min(progress,
                            scratch_link_alloc[link] / entry.correlation[link]);
      }
    }
    return std::isfinite(progress) ? progress : 0.0;
  }

  // True when a flow's canonical finish time still holds at rate r: the
  // rate is unchanged, and a positive rate already has a finite time.
  bool finish_current(std::size_t idx, double r) const {
    return r == last_rate[idx] && (r <= 0.0 || finish_at[idx] < kInfinity);
  }

  // Brings one flow's canonical finish time up to date with its final rate
  // and returns it.
  double update_finish(std::size_t idx, double r) {
    if (!finish_current(idx, r)) {
      last_rate[idx] = r;
      finish_at[idx] = r > 0.0 ? now + remaining[idx] / r : kInfinity;
    }
    return finish_at[idx];
  }

  // One pass over the live flows doing the work of clamp_to_capacity's
  // usage accumulation AND the completion refresh; returns the earliest
  // completion time (the minimum of the live flows' finish_at). Because
  // clamping may still rescale the rates, the shared pass only *collects*
  // the flows whose rate changed; their finish times are updated after
  // the feasibility check, from the (usually short) changed list on the
  // feasible path or in the rescale pass otherwise. Either way each flow
  // is compared once, final rate against the rate its finish time was
  // computed with, so a clamp that lands a flow back on its old rate
  // keeps its old finish time. Links overshoot by ulps routinely (the DRF
  // stage saturates the bottleneck exactly), so the rescale pass is common.
  double clamp_and_next_completion(Allocation& alloc) {
    const auto links = static_cast<std::size_t>(fabric.num_links());
    scratch_clamp.assign(links, 0.0);
    scratch_changed.clear();
    double next = kInfinity;
    for (const auto& entry : active) {
      for (const Flow* f : entry->unfinished) {
        const double r = alloc.rate(f->id);
        scratch_clamp[static_cast<std::size_t>(fabric.uplink(f->src))] += r;
        scratch_clamp[static_cast<std::size_t>(fabric.downlink(f->dst))] += r;
        const auto idx = static_cast<std::size_t>(f->id);
        if (finish_current(idx, r)) {
          next = std::min(next, finish_at[idx]);
        } else {
          scratch_changed.emplace_back(idx, r);
        }
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
    if (!any_over) {
      for (const auto& [idx, r] : scratch_changed) {
        next = std::min(next, update_finish(idx, r));
      }
      return next;
    }
    // Rescale pass: every flow's finish time is refreshed against its
    // final rate (including flows that dropped to zero — their canonical
    // finish time must become infinity).
    next = kInfinity;
    for (const auto& entry : active) {
      for (const Flow* f : entry->unfinished) {
        double r = alloc.rate(f->id);
        if (r > 0.0) {
          const double s = std::min(
              scratch_clamp[static_cast<std::size_t>(fabric.uplink(f->src))],
              scratch_clamp[static_cast<std::size_t>(
                  fabric.downlink(f->dst))]);
          if (s < 1.0) {
            r *= s;
            alloc.set_rate(f->id, r);
          }
        }
        next = std::min(
            next, update_finish(static_cast<std::size_t>(f->id), r));
      }
    }
    return next;
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
        // Bring the persistent snapshot up to date for the scheduler.
        refresh_views();
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

      // Time-weighted metrics over [now, now + dt).
      if (dt > 0.0 &&
          (options.record_intervals || options.record_progress_timeseries ||
           options.auditor != nullptr)) {
        double min_p = kInfinity;
        double max_p = 0.0;
        for (const auto& entry : active) {
          const double p = progress_of(*entry, alloc);
          min_p = std::min(min_p, p);
          max_p = std::max(max_p, p);
          if (options.record_progress_timeseries) {
            result.progress.push_back(ProgressSample{
                now, now + dt, entry->coflow.id(), p});
          }
          if (options.auditor != nullptr) {
            // progress_of left this coflow's per-link aggregate in
            // scratch_link_alloc; its dominant-link share falls out free.
            double dominant_share = 0.0;
            if (entry->dom_link >= 0) {
              const auto dom = static_cast<std::size_t>(entry->dom_link);
              dominant_share =
                  scratch_link_alloc[dom] / fabric.capacity(entry->dom_link);
            }
            options.auditor->record(now, now + dt, entry->coflow.id(), p,
                                    dominant_share);
          }
        }
        if (options.record_intervals) {
          IntervalRecord rec;
          rec.t0 = now;
          rec.t1 = now + dt;
          rec.active_coflows = static_cast<int>(active.size());
          rec.link_usage_bps = 2.0 * alloc.total_rate();
          rec.min_progress = std::isfinite(min_p) ? min_p : 0.0;
          rec.max_progress = max_p;
          result.intervals.push_back(rec);
        }
        if (m_utilization != nullptr) {
          m_utilization->observe(2.0 * alloc.total_rate() /
                                 fabric.total_capacity());
        }
      }

      // Advance the fluid state, flagging entries with flows at (or below)
      // the completion epsilon so the retire phase can skip the rest.
      for (std::size_t a = 0; a < active.size(); ++a) {
        ActiveEntry& entry = *active[a];
        double delivered_total = 0.0;
        for (const Flow* f : entry.unfinished) {
          double& rem = remaining_of(*f);
          const double r = alloc.rate(f->id);
          if (r > 0.0) {
            const double delivered = std::min(r * dt, rem);
            rem -= delivered;
            delivered_total += delivered;
          }
          if (rem <= options.completion_epsilon_bits) {
            entry.finish_pending = true;
          }
        }
        input.coflows[a].attained_bits += delivered_total;
        result.total_bits_delivered += delivered_total;
      }
      now += dt;
      ++result.num_events;

      // Retire finished flows and coflows; completions may submit more
      // coflows through the callback.
      for (std::size_t a = 0; a < active.size();) {
        ActiveEntry& entry = *active[a];
        if (!entry.finish_pending) {
          ++a;
          continue;
        }
        entry.finish_pending = false;
        // One pass: fire finish hooks and compact `unfinished` in place.
        std::size_t kept = 0;
        for (std::size_t i = 0; i < entry.unfinished.size(); ++i) {
          const Flow* f = entry.unfinished[i];
          if (remaining_of(*f) <= options.completion_epsilon_bits) {
            entry.finished.push_back(f);
            entry.dirty = true;
            const auto idx = static_cast<std::size_t>(f->id);
            finish_at[idx] = kInfinity;
            last_rate[idx] = 0.0;
            --unfinished_flows;
            if (deliver_events) {
              scheduler.on_flow_finish(
                  ActiveFlow{f->id, f->coflow, f->src, f->dst});
            }
            NCDRF_TRACE_INSTANT(options.tracer, obs::EventKind::kFlowFinish,
                                now, f->id, f->coflow);
            if (m_flow_finishes != nullptr) m_flow_finishes->inc();
          } else {
            entry.unfinished[kept++] = f;
          }
        }
        entry.unfinished.resize(kept);
        if (entry.unfinished.empty()) {
          const CoflowId id = entry.coflow.id();
          if (deliver_events) scheduler.on_coflow_departure(id);
          const auto rec_it = record_index.find(id);
          NCDRF_CHECK(rec_it != record_index.end(),
                      "missing record for coflow");
          CoflowRecord& rec = result.coflows[rec_it->second];
          rec.completion = now;
          rec.cct = now - rec.arrival;
          const CoflowRecord completed = rec;
          NCDRF_TRACE_INSTANT(options.tracer,
                              obs::EventKind::kCoflowFinish, now, id, 0,
                              rec.cct);
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
        } else {
          ++a;
        }
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
