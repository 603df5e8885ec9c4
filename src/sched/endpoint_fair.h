// FairCloud's flow-level alternatives to per-flow fairness (Popa et al.,
// SIGCOMM'12), cited by the paper's Sec. III-B as policies that provide no
// application-level isolation: fairness among *sources* and among
// *source-destination pairs*.
//
// Modelled as weighted network-wide max-min where each flow's weight is
// 1 / (number of flows sharing its entity): per-source fairness gives each
// sending machine an equal aggregate claim; per-pair fairness gives each
// (src, dst) pair one. Like TCP, both are coflow-agnostic — a coflow
// spreading over more sources or pairs grabs more bandwidth, which is
// precisely the gaming channel the paper criticizes.
//
// Entity sizes are maintained incrementally under an event-driven driver
// (KernelScheduler detects stale state and falls back to a snapshot
// rebuild otherwise), and rates come from the shared water-filling kernel.
#pragma once

#include <map>
#include <unordered_map>
#include <utility>
#include <vector>

#include "alloc/kernel_scheduler.h"
#include "alloc/kernel_scratch.h"
#include "alloc/waterfill.h"

namespace ncdrf {

enum class FairnessEntity { kSource, kSourceDestinationPair };

class EndpointFairScheduler : public KernelScheduler {
 public:
  explicit EndpointFairScheduler(FairnessEntity entity)
      : KernelScheduler(/*count_finished_flows=*/false), entity_(entity) {}

  std::string name() const override {
    return entity_ == FairnessEntity::kSource ? "PerSource" : "PerPair";
  }
  bool clairvoyant() const override { return false; }
  Allocation allocate(const ScheduleInput& input) override;

  void on_reset(const Fabric& fabric) override;
  void on_coflow_arrival(const ActiveCoflow& coflow) override;
  void on_flow_finish(const ActiveFlow& flow) override;
  void on_coflow_departure(CoflowId id) override;

 private:
  using EntityKey = std::pair<MachineId, MachineId>;

  EntityKey key(const ActiveFlow& f) const {
    return entity_ == FairnessEntity::kSource
               ? std::make_pair(f.src, MachineId{-1})
               : std::make_pair(f.src, f.dst);
  }
  void rebuild_entities(const ScheduleInput& input);

  FairnessEntity entity_;
  // Live flows per fairness entity, and each coflow's live entity keys
  // (multiset, one entry per live flow) so departures can release them.
  std::map<EntityKey, int> entity_size_;
  std::unordered_map<CoflowId, std::vector<EntityKey>> coflow_keys_;

  WaterfillKernel kernel_;
  KernelScratch scratch_;
  std::vector<double> capacities_;
};

}  // namespace ncdrf
