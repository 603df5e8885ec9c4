#include "sched/endpoint_fair.h"

#include "common/check.h"

namespace ncdrf {

void EndpointFairScheduler::on_reset(const Fabric& fabric) {
  KernelScheduler::on_reset(fabric);
  entity_size_.clear();
  coflow_keys_.clear();
}

void EndpointFairScheduler::on_coflow_arrival(const ActiveCoflow& coflow) {
  KernelScheduler::on_coflow_arrival(coflow);
  if (!event_driven_) return;
  std::vector<EntityKey>& keys = coflow_keys_[coflow.id];
  keys.reserve(coflow.flows.size());
  for (const ActiveFlow& f : coflow.flows) {
    const EntityKey k = key(f);
    entity_size_[k] += 1;
    keys.push_back(k);
  }
}

void EndpointFairScheduler::on_flow_finish(const ActiveFlow& flow) {
  KernelScheduler::on_flow_finish(flow);
  if (!event_driven_) return;
  const EntityKey k = key(flow);
  auto it = entity_size_.find(k);
  NCDRF_CHECK(it != entity_size_.end() && it->second > 0,
              "flow finish for untracked fairness entity");
  if (--it->second == 0) entity_size_.erase(it);
  std::vector<EntityKey>& keys = coflow_keys_.at(flow.coflow);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    if (keys[i] == k) {
      keys[i] = keys.back();
      keys.pop_back();
      return;
    }
  }
  NCDRF_CHECK(false, "finished flow not among its coflow's tracked keys");
}

void EndpointFairScheduler::on_coflow_departure(CoflowId id) {
  KernelScheduler::on_coflow_departure(id);
  if (!event_driven_) return;
  auto it = coflow_keys_.find(id);
  if (it == coflow_keys_.end()) return;
  for (const EntityKey& k : it->second) {
    auto sit = entity_size_.find(k);
    NCDRF_CHECK(sit != entity_size_.end() && sit->second > 0,
                "departure releases untracked fairness entity");
    if (--sit->second == 0) entity_size_.erase(sit);
  }
  coflow_keys_.erase(it);
}

void EndpointFairScheduler::rebuild_entities(const ScheduleInput& input) {
  entity_size_.clear();
  coflow_keys_.clear();
  for (const ActiveCoflow& coflow : input.coflows) {
    std::vector<EntityKey>& keys = coflow_keys_[coflow.id];
    keys.reserve(coflow.flows.size());
    for (const ActiveFlow& f : coflow.flows) {
      const EntityKey k = key(f);
      entity_size_[k] += 1;
      keys.push_back(k);
    }
  }
}

Allocation EndpointFairScheduler::allocate(const ScheduleInput& input) {
  AllocScope scope(perf_);
  const Fabric& fabric = *input.fabric;
  if (sync(input)) rebuild_entities(input);

  capacities_.resize(static_cast<std::size_t>(fabric.num_links()));
  for (LinkId i = 0; i < fabric.num_links(); ++i) {
    capacities_[static_cast<std::size_t>(i)] = fabric.capacity(i);
  }

  // Gather the SoA columns, fill a weight column from the entity sizes
  // (same flow order as the gather), and solve in place.
  const FlowTable& table =
      scratch_.gather(input, /*state=*/nullptr, GatherCounts::kNone);
  double* weight = scratch_.arena().alloc<double>(table.num_flows);
  std::size_t row = 0;
  for (const ActiveCoflow& coflow : input.coflows) {
    for (const ActiveFlow& f : coflow.flows) {
      weight[row++] = 1.0 / entity_size_.at(key(f));
    }
  }
  const WaterfillProblem problem{table.num_flows, table.up, table.dn,
                                 weight};
  kernel_.solve(fabric, problem, capacities_, /*link_mask=*/nullptr,
                table.rate);
  Allocation alloc;
  KernelScratch::commit(table, alloc);
  return alloc;
}

}  // namespace ncdrf
