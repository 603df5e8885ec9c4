// DRF baseline (Ghodsi et al., NSDI'11), as used for coflows by HUG:
// clairvoyant, isolation-optimal fair sharing (paper Sec. II-B, Eq. 2).
//
// At every event the correlation vector c_k is recomputed from each
// coflow's *remaining* demand and every coflow's progress is raised to the
// common maximum P* = min_i C_i / Σ_k c_k^i (Eq. 2 with unit capacities).
// Intra-coflow, each flow is given rate ∝ its remaining size so that all
// of a coflow's flows — and all links it uses — finish simultaneously;
// this keeps the instantaneous progress of every coflow exactly equal
// (disparity 1, the Fig. 5a reference line).
//
// Demand rows come from the kernel layer's DemandCache: one
// remaining-demand computation per coflow per call instead of the two the
// legacy implementation paid (P* pass + rate pass).
#pragma once

#include <memory>

#include "alloc/demand_cache.h"
#include "alloc/shard.h"
#include "obs/perf.h"
#include "sched/scheduler.h"

namespace ncdrf {

struct DrfOptions {
  // The paper's DRF baseline is the non-work-conserving first stage of
  // HUG; enable backfilling only for ablations.
  bool work_conserving = false;
  int backfill_rounds = 1;
};

class DrfScheduler : public Scheduler {
 public:
  explicit DrfScheduler(DrfOptions options = {},
                        SchedulerOptions sched_options = {})
      : options_(options), runtime_(ShardRuntime::create(sched_options)) {}

  std::string name() const override { return "DRF"; }
  bool clairvoyant() const override { return true; }
  Allocation allocate(const ScheduleInput& input) override;
  const SchedPerf* perf_counters() const override { return &perf_; }

  // The optimal isolation guarantee P* (Eq. 2) for the snapshot, in
  // progress units (bps on the bottleneck of a unit-correlation coflow).
  static double optimal_progress(const ScheduleInput& input);

  // P* of the snapshot the last allocate() served (0 before any call):
  // optimal_progress() of that snapshot without a second demand pass.
  double last_progress() const { return last_progress_; }

 private:
  DrfOptions options_;
  DemandCache cache_;
  double last_progress_ = 0.0;
  std::unique_ptr<ShardRuntime> runtime_;  // null on the serial path
  SchedPerf perf_;
};

}  // namespace ncdrf
