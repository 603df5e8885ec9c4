// Orchestra-style FIFO baseline (Chowdhury et al., SIGCOMM'11), the
// earliest point in the paper's design space (Fig. 1): a centralized
// Inter-Transfer Controller serves coflows strictly in arrival order.
//
// Non-clairvoyant: ordering needs only arrival times. The head coflow
// takes each link it touches (even split among its own flows there, min
// across the two endpoints); later coflows get what is left, in order —
// i.e. D-CLAS with a single queue. Head-of-line blocking is the cost the
// paper's Sec. II-B attributes to FIFO schedulers.
//
// Backed by the kernel layer: the arrival order is maintained across
// calls by PriorityOrder (event-hook insert/erase instead of a per-call
// sort), the fill and work-conserving residual pass run over the
// KernelScratch flow table with per-coflow link counts from
// LinkLoadState.
#pragma once

#include <vector>

#include "alloc/kernel_scheduler.h"
#include "alloc/kernel_scratch.h"
#include "alloc/priority_state.h"
#include "alloc/waterfill.h"

namespace ncdrf {

struct FifoOptions {
  bool work_conserving = true;
};

class FifoScheduler : public KernelScheduler {
 public:
  explicit FifoScheduler(FifoOptions options = {})
      : KernelScheduler(/*count_finished_flows=*/false), options_(options) {}

  std::string name() const override { return "FIFO"; }
  bool clairvoyant() const override { return false; }
  Allocation allocate(const ScheduleInput& input) override;

  void on_reset(const Fabric& fabric) override {
    KernelScheduler::on_reset(fabric);
    order_state_.reset();
  }
  void on_coflow_arrival(const ActiveCoflow& coflow) override {
    KernelScheduler::on_coflow_arrival(coflow);
    if (!event_driven_) return;
    order_state_.add_coflow(coflow.id, /*bucket=*/0, coflow.arrival_time);
  }
  void on_coflow_departure(CoflowId id) override {
    KernelScheduler::on_coflow_departure(id);
    if (!event_driven_) return;
    order_state_.remove_coflow(id);
  }

  // Exposed for the golden event-churn suite's Debug consistency checks.
  const PriorityOrder& priority_order() const { return order_state_; }

 private:
  FifoOptions options_;
  PriorityOrder order_state_;
  KernelScratch scratch_;
  std::vector<std::size_t> order_;
  std::vector<double> residual_;
  ResidualBackfill backfill_;
};

}  // namespace ncdrf
