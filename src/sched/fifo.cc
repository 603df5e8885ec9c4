#include "sched/fifo.h"

#include <algorithm>
#include <vector>

#include "common/check.h"

namespace ncdrf {
namespace {

const std::vector<double> kNoBucketBounds;  // arrival order never changes

}  // namespace

Allocation FifoScheduler::allocate(const ScheduleInput& input) {
  AllocScope scope(perf_);
  const Fabric& fabric = *input.fabric;
  const auto num_links = static_cast<std::size_t>(fabric.num_links());
  sync(input);

  // Arrival order from the persistent state; a driver that never delivered
  // events (or a snapshot the tracked set does not cover) falls back to
  // one fresh sort, exactly like LinkLoadState's rebuild.
  if (!order_state_.resolve(input, kNoBucketBounds, order_)) {
    order_state_.rebuild(input, [](const ActiveCoflow&) { return 0; });
    const bool ok = order_state_.resolve(input, kNoBucketBounds, order_);
    NCDRF_CHECK(ok, "FIFO: rebuilt priority order must cover the snapshot");
  }

  Allocation alloc;
  const FlowTable& table =
      scratch_.gather(input, &state_, GatherCounts::kLive);

  residual_.resize(num_links);
  for (LinkId i = 0; i < fabric.num_links(); ++i) {
    residual_[static_cast<std::size_t>(i)] = fabric.capacity(i);
  }

  for (const std::size_t k : order_) {
    const std::size_t begin = table.begin_of(k);
    const std::size_t end = table.end_of(k);
    // The head coflow takes what is left of each link, split evenly among
    // its own flows there; a flow realizes the min of its two shares.
    for (std::size_t j = begin; j < end; ++j) {
      const auto u = static_cast<std::size_t>(table.up[j]);
      const auto d = static_cast<std::size_t>(table.dn[j]);
      table.rate[j] = std::max(std::min(residual_[u] / table.cnt_up[j],
                                        residual_[d] / table.cnt_dn[j]),
                               0.0);
    }
    // Subtract actual usage after the whole coflow is assigned so flows of
    // the same coflow see the same residual snapshot (even split).
    for (std::size_t j = begin; j < end; ++j) {
      const auto u = static_cast<std::size_t>(table.up[j]);
      const auto d = static_cast<std::size_t>(table.dn[j]);
      residual_[u] = std::max(residual_[u] - table.rate[j], 0.0);
      residual_[d] = std::max(residual_[d] - table.rate[j], 0.0);
    }
  }

  if (options_.work_conserving) {
    BackfillScope backfill(perf_);
    perf_.backfill_rounds += 1;
    backfill_.run(fabric, table);
  }
  KernelScratch::commit(table, alloc);
  return alloc;
}

}  // namespace ncdrf
