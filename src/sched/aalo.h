// Aalo baseline (Chowdhury & Stoica, SIGCOMM'15): non-clairvoyant,
// performance-optimal coflow scheduling via Discretized Coflow-Aware
// Least-Attained Service (D-CLAS).
//
// Coflows are placed into K priority queues by *attained service* (total
// bits already sent): queue q holds coflows with attained in
// [Q0·E^(q-1), Q0·E^q) (queue 0 is [0, Q0)), with Aalo's defaults
// Q0 = 10 MB, E = 10, K = 10. Lower queues have strict priority; FIFO by
// arrival within a queue. Per-link bandwidth is handed to coflows in that
// order (even split among a coflow's flows on a link, min across the two
// endpoints), and leftover capacity is water-filled max-min across all
// flows (Aalo is work-conserving).
//
// D-CLAS mimics shortest-first without size knowledge, which minimizes
// average CCT but provides *no isolation*: large coflows can be delayed
// unboundedly (the >100 normalized-CCT tail in Fig. 6a).
//
// Kernel-layer backing: queue membership is maintained across calls by
// PriorityOrder (event-hook insert/erase plus per-call promotion checks
// against the D-CLAS thresholds — two comparisons per coflow — instead of
// a per-call sort), per-coflow per-link flow counts come from
// LinkLoadState, and the fill + work-conserving pass run over the
// KernelScratch flow table.
#pragma once

#include <vector>

#include "alloc/kernel_scheduler.h"
#include "alloc/kernel_scratch.h"
#include "alloc/priority_state.h"
#include "alloc/waterfill.h"

namespace ncdrf {

struct AaloOptions {
  double initial_queue_limit_bits = 8e7;  // Q0 = 10 MB
  double exchange_rate = 10.0;            // E
  int num_queues = 10;                    // K
  bool work_conserving = true;
};

class AaloScheduler : public KernelScheduler {
 public:
  explicit AaloScheduler(AaloOptions options = {});

  std::string name() const override { return "Aalo"; }
  bool clairvoyant() const override { return false; }
  Allocation allocate(const ScheduleInput& input) override;

  // Aalo's allocation changes when a coflow's attained service crosses a
  // queue boundary; report the soonest such crossing so the driver can
  // re-invoke allocate() then.
  std::optional<double> next_internal_event(
      const ScheduleInput& input, const Allocation& current) const override;

  // Queue index for a given attained service (exposed for tests).
  int queue_of(double attained_bits) const;

  // Upper threshold of the given queue (infinity for the last queue).
  double queue_upper_bound(int queue) const;

  void on_reset(const Fabric& fabric) override {
    KernelScheduler::on_reset(fabric);
    order_state_.reset();
  }
  void on_coflow_arrival(const ActiveCoflow& coflow) override {
    KernelScheduler::on_coflow_arrival(coflow);
    if (!event_driven_) return;
    order_state_.add_coflow(coflow.id, queue_of(coflow.attained_bits),
                            coflow.arrival_time);
  }
  void on_coflow_departure(CoflowId id) override {
    KernelScheduler::on_coflow_departure(id);
    if (!event_driven_) return;
    order_state_.remove_coflow(id);
  }

  // Exposed for the golden event-churn suite's Debug consistency checks.
  const PriorityOrder& priority_order() const { return order_state_; }

 private:
  AaloOptions options_;
  std::vector<double> queue_upper_;  // D-CLAS thresholds; last = infinity
  PriorityOrder order_state_;
  KernelScratch scratch_;
  std::vector<std::size_t> order_;
  std::vector<double> residual_;
  ResidualBackfill backfill_;
};

}  // namespace ncdrf
