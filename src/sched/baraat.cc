#include "sched/baraat.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "common/check.h"

namespace ncdrf {
namespace {

const std::vector<double> kNoBucketBounds;  // arrival order never changes

}  // namespace

BaraatScheduler::BaraatScheduler(BaraatOptions options)
    : KernelScheduler(/*count_finished_flows=*/false), options_(options) {
  NCDRF_CHECK(options_.heavy_threshold_bits > 0.0,
              "heavy threshold must be positive");
}

Allocation BaraatScheduler::allocate(const ScheduleInput& input) {
  AllocScope scope(perf_);
  const Fabric& fabric = *input.fabric;
  const auto num_links = static_cast<std::size_t>(fabric.num_links());
  sync(input);

  // Arrival order from the persistent state; a driver that never delivered
  // events falls back to one fresh sort, like LinkLoadState's rebuild.
  if (!order_state_.resolve(input, kNoBucketBounds, order_)) {
    order_state_.rebuild(input, [](const ActiveCoflow&) { return 0; });
    const bool ok = order_state_.resolve(input, kNoBucketBounds, order_);
    NCDRF_CHECK(ok,
                "Baraat: rebuilt priority order must cover the snapshot");
  }

  // FIFO-LM served set: FIFO prefix through the heavy coflows, ending at
  // (and including) the first light one.
  served_.clear();
  for (const std::size_t k : order_) {
    served_.push_back(k);
    if (input.coflows[k].attained_bits <= options_.heavy_threshold_bits) {
      break;  // a light head serves alone behind the heavies before it
    }
  }

  // Coflows serving on each link; only the served coflows' link rows are
  // visited (the per-coflow counts themselves live in LinkLoadState).
  served_on_link_.assign(num_links, 0);
  for (const std::size_t k : served_) {
    const LinkLoadState::CoflowLoad& load = *state_.find(input.coflows[k].id);
    for (const LinkRow& row : load.rows) {
      if (row.live > 0) {
        served_on_link_[static_cast<std::size_t>(row.link)] += 1;
      }
    }
  }

  const FlowTable& table =
      scratch_.gather(input, &state_, GatherCounts::kLive);

  capacities_.resize(num_links);
  for (LinkId i = 0; i < fabric.num_links(); ++i) {
    capacities_[static_cast<std::size_t>(i)] = fabric.capacity(i);
  }

  // Equal per-link split among served coflows, even among a coflow's flows
  // on the link (the gathered live counts), min across the two endpoints.
  // Coflows outside the served set keep the gather's zero rate.
  for (const std::size_t k : served_) {
    const std::size_t begin = table.begin_of(k);
    const std::size_t end = table.end_of(k);
    for (std::size_t j = begin; j < end; ++j) {
      const auto u = static_cast<std::size_t>(table.up[j]);
      const auto d = static_cast<std::size_t>(table.dn[j]);
      const double up = capacities_[u] / served_on_link_[u] / table.cnt_up[j];
      const double down =
          capacities_[d] / served_on_link_[d] / table.cnt_dn[j];
      table.rate[j] = std::min(up, down);
    }
  }

  Allocation alloc;
  if (options_.work_conserving) {
    perf_.backfill_rounds += 1;
    BackfillScope backfill(perf_);
    backfill_.run(fabric, table);
  }
  KernelScratch::commit(table, alloc);
  return alloc;
}

std::optional<double> BaraatScheduler::next_internal_event(
    const ScheduleInput& input, const Allocation& current) const {
  // The served set changes when the (single) light serving coflow crosses
  // the heavy threshold.
  double soonest = std::numeric_limits<double>::infinity();
  for (const ActiveCoflow& coflow : input.coflows) {
    if (coflow.attained_bits > options_.heavy_threshold_bits) continue;
    double rate = 0.0;
    for (const ActiveFlow& f : coflow.flows) rate += current.rate(f.id);
    if (rate <= 0.0) continue;
    soonest = std::min(
        soonest,
        (options_.heavy_threshold_bits - coflow.attained_bits) / rate);
  }
  if (!std::isfinite(soonest)) return std::nullopt;
  return std::max(soonest, 1e-9);
}

}  // namespace ncdrf
