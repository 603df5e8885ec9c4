#include "sched/psp.h"

#include <algorithm>
#include <vector>

#include "common/check.h"

namespace ncdrf {

Allocation PspScheduler::allocate(const ScheduleInput& input) {
  AllocScope scope(perf_);
  NCDRF_CHECK(options_.backfill_rounds >= 0,
              "backfill rounds must be non-negative");
  const Fabric& fabric = *input.fabric;
  const auto num_links = static_cast<std::size_t>(fabric.num_links());

  // Coflows present per link (inter-coflow equal split is per coflow, not
  // per flow — that is what distinguishes PS-P from per-flow fairness) and
  // each coflow's per-link flow counts, both served by LinkLoadState; the
  // gather mirrors the presence counts into the cnt columns so the round
  // sweeps below never look a coflow up again.
  sync(input);
  const std::vector<int>& coflows_on_link = state_.counted_coflows_on_link();
  const FlowTable& table =
      scratch_.gather(input, &state_, GatherCounts::kCounted);

  residual_.resize(num_links);
  coflow_share_.resize(num_links);
  for (LinkId i = 0; i < fabric.num_links(); ++i) {
    residual_[static_cast<std::size_t>(i)] = fabric.capacity(i);
  }

  // One PS-P pass per round: each link's residual is divided equally among
  // the coflows present on it, a coflow's slice is divided evenly among
  // its flows there, and a flow realizes the min of its two per-link
  // slices. Rounds > 1 model FairCloud's per-link (WFQ) work conservation:
  // unused shares are re-offered under the same per-link weights, so the
  // coupled-link mismatch the paper highlights persists structurally —
  // unlike NC-DRF, whose count-proportional shares line up by design.
  const int rounds = options_.work_conserving
                         ? 1 + std::max(options_.backfill_rounds, 0)
                         : 1;
  for (int round = 0; round < rounds; ++round) {
    // residual / coflows_on_link hoisted per link: the flow sweep divides
    // only by the intra-coflow count, the exact second division of the
    // legacy residual/coflows/counted chain.
    for (std::size_t i = 0; i < num_links; ++i) {
      coflow_share_[i] =
          coflows_on_link[i] > 0 ? residual_[i] / coflows_on_link[i] : 0.0;
    }
    // A round that assigns nothing ends the redistribution (same break the
    // legacy `assigned` sum produced: only positive rates were ever added
    // to it).
    bool any_assigned = false;
    for (std::size_t j = 0; j < table.num_flows; ++j) {
      const auto u = static_cast<std::size_t>(table.up[j]);
      const auto d = static_cast<std::size_t>(table.dn[j]);
      const double up_share = coflow_share_[u] / table.cnt_up[j];
      const double down_share = coflow_share_[d] / table.cnt_dn[j];
      const double r = std::max(std::min(up_share, down_share), 0.0);
      if (r > 0.0) {
        table.rate[j] += r;
        any_assigned = true;
      }
    }
    if (!any_assigned) break;
    // Recompute residuals for the next redistribution round from the
    // accumulated totals (the same sums the legacy alloc.rate() held).
    if (round + 1 < rounds) {
      for (std::size_t i = 0; i < num_links; ++i) {
        residual_[i] = fabric.capacity(static_cast<LinkId>(i));
      }
      for (std::size_t j = 0; j < table.num_flows; ++j) {
        residual_[static_cast<std::size_t>(table.up[j])] -= table.rate[j];
        residual_[static_cast<std::size_t>(table.dn[j])] -= table.rate[j];
      }
      for (double& r : residual_) r = std::max(r, 0.0);
    }
  }
  Allocation alloc;
  // skip_zero: the legacy path only ever add_rate'd positive rates, so
  // flows whose total stayed 0.0 must stay absent from the allocation.
  KernelScratch::commit(table, alloc, /*skip_zero=*/true);
  return alloc;
}

}  // namespace ncdrf
