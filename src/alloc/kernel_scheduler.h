// Scheduler base for policies backed by the allocation-kernel layer: owns
// a LinkLoadState fed by the driver's event hooks, the SchedPerf counters
// every kernel-backed policy reports, and the sync() step that decides —
// per allocate() call — between serving from event-maintained state and a
// full snapshot rebuild.
//
// The base stays obs-link-free: SchedPerf is plain data (obs/perf.h is
// header-only for field access) and timing uses an inline chrono scope, so
// ncdrf_alloc never pulls obs symbols and the sched→obs layering of the
// build is preserved.
#pragma once

#include <chrono>

#include "alloc/link_state.h"
#include "obs/perf.h"
#include "sched/scheduler.h"

namespace ncdrf {

// Inline backfill-stage timer (SchedPerf::backfill_seconds), AllocScope's
// twin for the work-conservation stage. Every policy that counts
// backfill_rounds times the counted stage with one, including the ones
// that are not KernelSchedulers.
class BackfillScope {
 public:
  explicit BackfillScope(SchedPerf& perf)
      : perf_(perf), start_(std::chrono::steady_clock::now()) {}
  ~BackfillScope() {
    perf_.backfill_seconds +=
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start_)
            .count();
  }
  BackfillScope(const BackfillScope&) = delete;
  BackfillScope& operator=(const BackfillScope&) = delete;

 private:
  SchedPerf& perf_;
  std::chrono::steady_clock::time_point start_;
};

class KernelScheduler : public Scheduler {
 public:
  bool wants_events() const override { return true; }

  void on_reset(const Fabric& fabric) override {
    state_.reset(fabric);
    event_driven_ = true;
  }

  void on_coflow_arrival(const ActiveCoflow& coflow) override {
    if (event_driven_) track_arrival(coflow);
  }

  void on_flow_finish(const ActiveFlow& flow) override {
    if (event_driven_) track_finish(flow);
  }

  void on_coflow_departure(CoflowId id) override {
    if (event_driven_) track_departure(id);
  }

  const SchedPerf* perf_counters() const override { return &perf_; }

 protected:
  explicit KernelScheduler(bool count_finished_flows)
      : state_(count_finished_flows) {}

  // The hooks' work: one delta applied to state_ and counted in perf_.
  // Each hands back the coflow's entry (a departure, the removed one) to
  // subclasses that keep derived state on top of the counts; it stays
  // valid until the next arrival.
  const LinkLoadState::CoflowLoad& track_arrival(const ActiveCoflow& coflow) {
    const LinkLoadState::CoflowLoad& load = state_.add_coflow(coflow);
    perf_.links_touched += static_cast<long long>(load.rows.size());
    ++perf_.arrival_events;
    return load;
  }

  const LinkLoadState::CoflowLoad& track_finish(const ActiveFlow& flow) {
    const LinkLoadState::CoflowLoad& load = state_.finish_flow(flow);
    perf_.links_touched += 2;  // uplink + downlink
    ++perf_.flow_finish_events;
    return load;
  }

  const LinkLoadState::CoflowLoad& track_departure(CoflowId id) {
    const LinkLoadState::CoflowLoad& load = state_.remove_coflow(id);
    perf_.links_touched += static_cast<long long>(load.rows.size());
    ++perf_.departure_events;
    return load;
  }

  // Brings state_ in line with the snapshot: serves from event-maintained
  // state when it provably covers `input`, otherwise adopts the snapshot
  // with a full rebuild. Returns true when a rebuild happened, so
  // subclasses keeping derived state (endpoint entity counts) resync too.
  bool sync(const ScheduleInput& input) {
    if (event_driven_ && state_.matches(input)) {
      ++perf_.incremental_allocs;
      return false;
    }
    state_.rebuild(input);
    ++perf_.full_rebuilds;
    return true;
  }

  // Inline allocate()-scope timer (SchedPerf::allocate_seconds plus the
  // call counter); cheap enough to stay on everywhere.
  class AllocScope {
   public:
    explicit AllocScope(SchedPerf& perf)
        : perf_(perf), start_(std::chrono::steady_clock::now()) {
      ++perf_.allocate_calls;
    }
    ~AllocScope() {
      perf_.allocate_seconds +=
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        start_)
              .count();
    }
    AllocScope(const AllocScope&) = delete;
    AllocScope& operator=(const AllocScope&) = delete;

   private:
    SchedPerf& perf_;
    std::chrono::steady_clock::time_point start_;
  };

  LinkLoadState state_;
  SchedPerf perf_;
  bool event_driven_ = false;
};

}  // namespace ncdrf
