#include "sched/perflow.h"

#include <chrono>

namespace ncdrf {

Allocation PerFlowScheduler::allocate(const ScheduleInput& input) {
  const auto start = std::chrono::steady_clock::now();
  perf_.allocate_calls += 1;
  const Fabric& fabric = *input.fabric;

  capacities_.resize(static_cast<std::size_t>(fabric.num_links()));
  for (LinkId i = 0; i < fabric.num_links(); ++i) {
    capacities_[static_cast<std::size_t>(i)] = fabric.capacity(i);
  }

  Allocation alloc;
  if (runtime_ != nullptr && runtime_->bind(fabric).num_shards() > 1) {
    // The sharded solver reconciles per-shard AoS problems; only this
    // branch still builds WaterfillFlow records.
    flows_.clear();
    flows_.reserve(static_cast<std::size_t>(live_flows_hint(input)));
    for (const ActiveCoflow& coflow : input.coflows) {
      for (const ActiveFlow& flow : coflow.flows) {
        flows_.push_back({flow.id, flow.src, flow.dst, 1.0});
      }
    }
    sharded_.solve(fabric, *runtime_, flows_, capacities_, rates_);
    runtime_->drain_timers(perf_);
    alloc.reserve(flows_.size());
    for (std::size_t k = 0; k < flows_.size(); ++k) {
      alloc.set_rate(flows_[k].id, rates_[k]);
    }
  } else {
    // Serial path: solve straight over the gathered columns — no per-flow
    // record build, no second endpoint resolution.
    const FlowTable& table =
        scratch_.gather(input, /*state=*/nullptr, GatherCounts::kNone);
    const WaterfillProblem problem{table.num_flows, table.up, table.dn,
                                   /*weight=*/nullptr};
    kernel_.solve(fabric, problem, capacities_, /*link_mask=*/nullptr,
                  table.rate);
    KernelScratch::commit(table, alloc);
  }
  perf_.allocate_seconds +=
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return alloc;
}

}  // namespace ncdrf
