// HUG baseline (Chowdhury et al., NSDI'16), as described in paper Sec. II-B:
// a two-stage clairvoyant allocator.
//
//   Stage 1 — DRF: raise every coflow's progress to the optimal isolation
//   guarantee P* (Eq. 2).
//   Stage 2 — utilization: hand out the spare bandwidth on each link,
//   "under the constraint that no coflow is allocated more bandwidth in a
//   link than its progress", i.e. each coflow's total on any link is capped
//   at P* · C_i. Spare is split evenly among capped coflows per link, and a
//   flow only realizes the minimum of its uplink/downlink extra shares
//   (flow conservation).
//
// Kernel-layer backing: stage 1 shares the DemandCache with DRF (one
// remaining-demand pass instead of the three the legacy implementation
// paid), and stage 2 runs on a sparse (coflow, link) slot arena sized by
// LinkLoadState's per-coflow link rows instead of dense coflows × links
// usage/budget matrices rebuilt every round.
#pragma once

#include <cstdint>
#include <vector>

#include "alloc/demand_cache.h"
#include "alloc/kernel_scheduler.h"

namespace ncdrf {

struct HugOptions {
  // Rounds of the stage-2 spare distribution. One round matches the
  // description; more rounds push utilization closer to the cap.
  int spare_rounds = 2;
};

class HugScheduler : public KernelScheduler {
 public:
  explicit HugScheduler(HugOptions options = {})
      : KernelScheduler(/*count_finished_flows=*/false), options_(options) {}

  std::string name() const override { return "HUG"; }
  bool clairvoyant() const override { return true; }
  Allocation allocate(const ScheduleInput& input) override;

 private:
  HugOptions options_;
  DemandCache cache_;

  // Stage-2 arena: one slot per (coflow, link the coflow has live flows
  // on). Rebuilt each allocate() in O(Σ link rows + flows); rounds
  // then cost O(slots + flows) instead of O(coflows · links).
  std::vector<std::int32_t> slot_offset_;   // per coflow index, size K+1
  std::vector<LinkId> slot_links_;          // slot -> link id
  std::vector<int> slot_live_;              // slot -> coflow's live count
  std::vector<std::int32_t> flow_slots_;    // 2 per flow: up slot, down slot
  std::vector<std::int32_t> link_offsets_;  // CSR link -> slots, size L+1
  std::vector<std::int32_t> link_entries_;  // slots, coflow-ascending
  std::vector<std::int32_t> link_cursor_;
  std::vector<std::int32_t> link_slot_scratch_;
  std::vector<double> usage_;        // slot -> coflow usage on link
  std::vector<double> budget_;       // slot -> extra budget on link
  std::vector<double> total_usage_;  // per link
};

}  // namespace ncdrf
