// Varys baseline (Chowdhury et al., SIGCOMM'14): clairvoyant,
// performance-optimal coflow scheduling. Included as the fourth quadrant
// of the paper's design space (Fig. 1) and used by the ablation benches.
//
// Smallest-Effective-Bottleneck-First (SEBF): coflows are served in
// ascending order of their remaining bottleneck completion time
// Γ_k = max_i d_k^i / C_i. Each admitted coflow gets the Minimum
// Allocation for Desired Duration (MADD): every flow runs at
// remaining_f / Γ, just fast enough for all flows to finish with the
// bottleneck — any faster would waste bandwidth the next coflow can use.
// Residual capacity is water-filled max-min across all flows.
//
// Demand vectors come from the kernel layer's DemandCache (one
// remaining-demand computation per coflow per call), the Γ and MADD scans
// walk only each coflow's demand rows (a link without a row holds exactly
// zero demand, so the sparse max/∃-blocked checks reproduce the dense
// scans bit for bit), the rate walk runs over the KernelScratch flow
// table, and the residual pass is the shared water-filling kernel.
#pragma once

#include <vector>

#include "alloc/demand_cache.h"
#include "alloc/kernel_scratch.h"
#include "alloc/waterfill.h"
#include "obs/perf.h"
#include "sched/scheduler.h"

namespace ncdrf {

struct VarysOptions {
  bool work_conserving = true;
};

class VarysScheduler : public Scheduler {
 public:
  explicit VarysScheduler(VarysOptions options = {}) : options_(options) {}

  std::string name() const override { return "Varys"; }
  bool clairvoyant() const override { return true; }
  Allocation allocate(const ScheduleInput& input) override;
  const SchedPerf* perf_counters() const override { return &perf_; }

 private:
  VarysOptions options_;
  DemandCache cache_;
  KernelScratch scratch_;
  std::vector<double> gamma_;
  std::vector<std::size_t> order_;
  std::vector<double> residual_;
  std::vector<double> capacities_;
  ResidualBackfill backfill_;
  SchedPerf perf_;
};

}  // namespace ncdrf
