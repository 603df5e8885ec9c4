#include "sched/drf.h"

#include <chrono>

#include "alloc/kernel_scheduler.h"
#include "common/check.h"
#include "sched/backfill.h"

namespace ncdrf {

double DrfScheduler::optimal_progress(const ScheduleInput& input) {
  NCDRF_CHECK(input.clairvoyant != nullptr,
              "DRF requires clairvoyant remaining-size information");
  DemandCache cache;
  cache.refresh(input);
  return cache.drf_progress(input);
}

Allocation DrfScheduler::allocate(const ScheduleInput& input) {
  NCDRF_CHECK(input.clairvoyant != nullptr,
              "DRF requires clairvoyant remaining-size information");
  const auto start = std::chrono::steady_clock::now();
  perf_.allocate_calls += 1;
  Allocation alloc;
  cache_.refresh(input, runtime_.get());
  const double p_star = drf_allocate(input, cache_, runtime_.get(), alloc);
  last_progress_ = p_star;
  if (p_star > 0.0 && options_.work_conserving) {
    BackfillScope backfill(perf_);
    perf_.backfill_rounds += options_.backfill_rounds;
    even_backfill(input, alloc, options_.backfill_rounds);
  }
  if (runtime_ != nullptr) runtime_->drain_timers(perf_);
  perf_.allocate_seconds +=
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return alloc;
}

}  // namespace ncdrf
