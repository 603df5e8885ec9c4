#include "sched/varys.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <numeric>
#include <vector>

#include "alloc/kernel_scheduler.h"
#include "common/check.h"

namespace ncdrf {

Allocation VarysScheduler::allocate(const ScheduleInput& input) {
  NCDRF_CHECK(input.clairvoyant != nullptr,
              "Varys requires clairvoyant remaining-size information");
  const auto start = std::chrono::steady_clock::now();
  perf_.allocate_calls += 1;
  const Fabric& fabric = *input.fabric;
  const auto num_links = static_cast<std::size_t>(fabric.num_links());

  capacities_.resize(num_links);
  for (LinkId i = 0; i < fabric.num_links(); ++i) {
    capacities_[static_cast<std::size_t>(i)] = fabric.capacity(i);
  }

  // Effective bottleneck completion time of each coflow at full capacity.
  // Only the coflow's demand rows are scanned — a link without a row holds
  // exactly 0.0 demand and cannot raise the max, so the sparse scan equals
  // the dense one bit for bit.
  cache_.refresh(input);
  gamma_.assign(input.coflows.size(), 0.0);
  for (std::size_t k = 0; k < input.coflows.size(); ++k) {
    double g = 0.0;
    for (const DemandRow& row : cache_.rows(k)) {
      g = std::max(g, row.bits /
                          capacities_[static_cast<std::size_t>(row.link)]);
    }
    gamma_[k] = g;
  }

  // SEBF order: smallest Γ first, id as a deterministic tiebreak.
  order_.resize(input.coflows.size());
  std::iota(order_.begin(), order_.end(), std::size_t{0});
  std::sort(order_.begin(), order_.end(),
            [&](std::size_t a, std::size_t b) {
              if (gamma_[a] != gamma_[b]) return gamma_[a] < gamma_[b];
              return input.coflows[a].id < input.coflows[b].id;
            });

  residual_.resize(num_links);
  for (std::size_t i = 0; i < num_links; ++i) residual_[i] = capacities_[i];

  const FlowTable& table =
      scratch_.gather(input, /*state=*/nullptr, GatherCounts::kNone);

  for (const std::size_t k : order_) {
    if (gamma_[k] <= 0.0) continue;  // rows keep the gather's zero rate
    // MADD against *residual* capacity: the coflow finishes as fast as the
    // bandwidth left by smaller coflows allows. Blocked means some
    // demanded link has no residual — an order-independent ∃-check, so
    // walking the rows instead of ascending links changes nothing.
    double g = 0.0;
    bool blocked = false;
    for (const DemandRow& row : cache_.rows(k)) {
      if (row.bits <= 0.0) continue;
      const double residual = residual_[static_cast<std::size_t>(row.link)];
      if (residual <= 0.0) {
        blocked = true;
        break;
      }
      g = std::max(g, row.bits / residual);
    }
    if (blocked || g <= 0.0) continue;
    const double* remaining = cache_.remaining(k);
    const std::size_t begin = table.begin_of(k);
    const std::size_t end = table.end_of(k);
    for (std::size_t j = begin; j < end; ++j) {
      const double r = remaining[j - begin] / g;
      table.rate[j] = r;
      const auto u = static_cast<std::size_t>(table.up[j]);
      const auto d2 = static_cast<std::size_t>(table.dn[j]);
      residual_[u] = std::max(residual_[u] - r, 0.0);
      residual_[d2] = std::max(residual_[d2] - r, 0.0);
    }
  }

  Allocation alloc;
  if (options_.work_conserving) {
    perf_.backfill_rounds += 1;
    BackfillScope backfill(perf_);
    backfill_.run(fabric, table);
  }
  KernelScratch::commit(table, alloc);
  perf_.allocate_seconds +=
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return alloc;
}

}  // namespace ncdrf
