#include "sched/aalo.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "common/check.h"

namespace ncdrf {

AaloScheduler::AaloScheduler(AaloOptions options)
    : KernelScheduler(/*count_finished_flows=*/false), options_(options) {
  NCDRF_CHECK(options_.initial_queue_limit_bits > 0.0,
              "Q0 must be positive");
  NCDRF_CHECK(options_.exchange_rate > 1.0, "exchange rate must exceed 1");
  NCDRF_CHECK(options_.num_queues >= 1, "need at least one queue");
  queue_upper_.resize(static_cast<std::size_t>(options_.num_queues));
  double limit = options_.initial_queue_limit_bits;
  for (int q = 0; q < options_.num_queues - 1; ++q) {
    queue_upper_[static_cast<std::size_t>(q)] = limit;
    limit *= options_.exchange_rate;
  }
  queue_upper_.back() = std::numeric_limits<double>::infinity();
}

int AaloScheduler::queue_of(double attained_bits) const {
  NCDRF_CHECK(attained_bits >= 0.0, "attained service must be non-negative");
  double limit = options_.initial_queue_limit_bits;
  for (int q = 0; q < options_.num_queues - 1; ++q) {
    if (attained_bits < limit) return q;
    limit *= options_.exchange_rate;
  }
  return options_.num_queues - 1;
}

double AaloScheduler::queue_upper_bound(int queue) const {
  NCDRF_CHECK(queue >= 0 && queue < options_.num_queues,
              "queue index out of range");
  return queue_upper_[static_cast<std::size_t>(queue)];
}

Allocation AaloScheduler::allocate(const ScheduleInput& input) {
  AllocScope scope(perf_);
  const Fabric& fabric = *input.fabric;
  const auto num_links = static_cast<std::size_t>(fabric.num_links());
  sync(input);

  // Priority order — (queue, arrival time, id): strict priority across
  // queues, FIFO within a queue — served from the persistent state.
  // resolve() repositions coflows whose attained service crossed a D-CLAS
  // boundary since the last call; membership mismatches (no events
  // delivered) fall back to one fresh sort.
  if (!order_state_.resolve(input, queue_upper_, order_)) {
    order_state_.rebuild(input, [this](const ActiveCoflow& c) {
      return queue_of(c.attained_bits);
    });
    const bool ok = order_state_.resolve(input, queue_upper_, order_);
    NCDRF_CHECK(ok, "Aalo: rebuilt priority order must cover the snapshot");
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
    // its own flows there; a flow realizes the min of its two shares. The
    // per-link flow counts were gathered from LinkLoadState.
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

std::optional<double> AaloScheduler::next_internal_event(
    const ScheduleInput& input, const Allocation& current) const {
  double soonest = std::numeric_limits<double>::infinity();
  for (const ActiveCoflow& coflow : input.coflows) {
    const int q = queue_of(coflow.attained_bits);
    const double bound = queue_upper_bound(q);
    if (!std::isfinite(bound)) continue;  // already in the last queue
    double rate = 0.0;
    for (const ActiveFlow& f : coflow.flows) rate += current.rate(f.id);
    if (rate <= 0.0) continue;
    soonest = std::min(soonest, (bound - coflow.attained_bits) / rate);
  }
  if (!std::isfinite(soonest)) return std::nullopt;
  // Guard against a zero-length event loop when attained sits exactly on a
  // boundary after integration.
  return std::max(soonest, 1e-9);
}

}  // namespace ncdrf
