// Baraat baseline (Dogar et al., SIGCOMM'14): decentralized task-aware
// scheduling with FIFO-LM — FIFO with Limited Multiplexing.
//
// Pure FIFO suffers head-of-line blocking behind heavy tasks. Baraat keeps
// FIFO order but detects *heavy* tasks on-line (attained service beyond a
// threshold) and lets the tasks behind a heavy one share the network with
// it instead of waiting. Non-clairvoyant: uses only arrival order and
// attained bytes.
//
// Adaptation to the fabric model (DESIGN.md substitutions): walk coflows
// in FIFO order, adding each to the served set; stop after the first
// coflow that is not heavy (a light head serves alone — exactly FIFO —
// while heavy heads multiplex with everything behind them up to the next
// light coflow). Served coflows split each link's remaining capacity
// evenly (per coflow, then per flow, min across endpoints); leftover
// capacity is max-min backfilled.
//
// Kernel-layer backing: arrival order is maintained across calls by
// PriorityOrder (event-hook insert/erase instead of a per-call sort), the
// per-link flow counts come from LinkLoadState, and the fill + backfill
// run over the KernelScratch flow table. The served-coflow-per-link tally
// walks only the served coflows' link rows.
#pragma once

#include <vector>

#include "alloc/kernel_scheduler.h"
#include "alloc/kernel_scratch.h"
#include "alloc/priority_state.h"
#include "alloc/waterfill.h"

namespace ncdrf {

struct BaraatOptions {
  // A coflow is "heavy" once it has attained more than this many bits
  // (Baraat's elephant detection threshold; 80 Mb ~ 10 MB).
  double heavy_threshold_bits = 8e7;
  bool work_conserving = true;
};

class BaraatScheduler : public KernelScheduler {
 public:
  explicit BaraatScheduler(BaraatOptions options = {});

  std::string name() const override { return "Baraat"; }
  bool clairvoyant() const override { return false; }
  Allocation allocate(const ScheduleInput& input) override;

  // Allocation changes when a light serving coflow turns heavy.
  std::optional<double> next_internal_event(
      const ScheduleInput& input, const Allocation& current) const override;

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
  BaraatOptions options_;
  PriorityOrder order_state_;
  KernelScratch scratch_;
  std::vector<std::size_t> order_;
  std::vector<std::size_t> served_;
  std::vector<int> served_on_link_;
  std::vector<double> capacities_;
  ResidualBackfill backfill_;
};

}  // namespace ncdrf
