// Memoized clairvoyant demand: one remaining-demand computation per coflow
// per allocate() call, shared by every stage that needs it.
//
// The legacy clairvoyant schedulers each recomputed remaining demand from
// the snapshot on demand — DRF twice per coflow per call (once for P*,
// once for the rates) and HUG a third time through its embedded
// DrfScheduler. The cache computes each coflow's demand exactly once per
// refresh(), and downstream stages (drf_progress, drf_allocate, Varys's
// SEBF/MADD) read the same rows.
//
// Row layout. A coflow's demand is one contiguous run of DemandRows, one
// row per link its live flows touch, in first-touch order (flow order,
// uplink before downlink): the link, its live-flow count n_k[i] and its
// remaining bits d_k[i]. The coflow's bottleneck demand d̄_k and link b_k
// sit next to the run. A link the coflow does not touch has no row; its
// demand is exactly 0.0. All coflows' runs share one row buffer (one per
// block on the sharded refresh), grown to the high-water mark and reused,
// so memory is O(rows + flows) — about 18 rows per FB-like coflow —
// instead of the O(K·2m) dense per-coflow link vectors this replaced, and
// steady-state refreshes allocate nothing.
//
// The arithmetic replicates coflow/compute_demand exactly: each row sums
// its flows' remaining bits in flow order, the same per-link accumulation
// order as the dense vectors, so cached results are bitwise identical to
// the legacy per-call computations.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "coflow/coflow.h"
#include "sched/scheduler.h"

namespace ncdrf {

class ShardRuntime;

// One link a coflow's live flows touch.
struct DemandRow {
  LinkId link = -1;
  std::int32_t flows = 0;  // n_k[link]: live flows crossing the link
  double bits = 0.0;       // d_k[link]: their remaining bits
};

class DemandCache {
 public:
  // Recomputes every coflow's remaining demand for this snapshot.
  // Requires input.clairvoyant != nullptr.
  void refresh(const ScheduleInput& input);

  // Sharded refresh: coflows are independent, so a non-null runtime builds
  // contiguous coflow blocks in parallel, each into its own row buffer
  // and link scratch. Every row is the serial refresh's, so the cache
  // reads the same either way. A null runtime is the serial refresh.
  void refresh(const ScheduleInput& input, ShardRuntime* runtime);

  // Rows of input.coflows[coflow_index], in first-touch order; valid until
  // the next refresh().
  std::span<const DemandRow> rows(std::size_t coflow_index) const {
    NCDRF_CHECK(coflow_index < size_, "demand-cache index out of range");
    const CoflowDemand& c = coflows_[coflow_index];
    return {c.rows, static_cast<std::size_t>(c.num_rows)};
  }

  // d̄_k: the largest row's bits, 0.0 when nothing is left to send.
  double bottleneck_bits(std::size_t coflow_index) const {
    NCDRF_CHECK(coflow_index < size_, "demand-cache index out of range");
    return coflows_[coflow_index].bottleneck_bits;
  }

  // b_k: the smallest link id among the largest rows (the dense first
  // arg max), -1 when nothing is left to send.
  LinkId bottleneck_link(std::size_t coflow_index) const {
    NCDRF_CHECK(coflow_index < size_, "demand-cache index out of range");
    return coflows_[coflow_index].bottleneck_link;
  }

  // Remaining bits of input.coflows[coflow_index].flows, in flow order,
  // memoized during refresh() so rate passes skip the per-flow
  // ClairvoyantInfo lookup they already paid once. The values live in one
  // flat coflow-major array reused across refreshes; the pointer is valid
  // until the next refresh().
  const double* remaining(std::size_t coflow_index) const {
    NCDRF_CHECK(coflow_index < size_, "demand-cache index out of range");
    return remaining_flat_.data() + remaining_offset_[coflow_index];
  }

  std::size_t size() const { return size_; }

  // One past the largest live flow id of the last refresh(), recorded by
  // its walk over the flows: sizes id-indexed tables (an Allocation).
  std::size_t id_end() const { return id_end_; }

  // P* = min_i C_i / Σ_k w_k·c_k^i (Eq. 2) over the cached rows; 0 when
  // no coflow has remaining demand. Must be called after refresh() on the
  // same snapshot.
  double drf_progress(const ScheduleInput& input) const;

  // Sharded P*: a non-null runtime accumulates the per-link loads into
  // per-block partials in parallel and reduces them in block order —
  // same value as the serial scan up to floating-point accumulation
  // order (blocks sum contiguous coflow ranges). Null runtime delegates
  // to the serial scan.
  double drf_progress(const ScheduleInput& input,
                      ShardRuntime* runtime) const;

 private:
  struct CoflowDemand {
    const DemandRow* rows = nullptr;
    std::int32_t num_rows = 0;
    LinkId bottleneck_link = -1;
    double bottleneck_bits = 0.0;
  };
  // What one refresh block writes: the rows of its coflows, and a
  // link -> row index scratch of L entries, all -1 between coflows.
  struct Block {
    std::vector<DemandRow> rows;
    std::vector<std::int32_t> link_row;
    std::size_t id_end = 0;  // one past the block's largest flow id
  };

  void refresh_block(const ScheduleInput& input, Block& block,
                     std::size_t begin, std::size_t end);

  std::vector<CoflowDemand> coflows_;  // per coflow index
  std::vector<Block> blocks_;          // one on the serial path
  // Per-flow remaining bits, coflow-major, one flat buffer grown to the
  // high-water mark: refresh() computes the offsets serially, then the
  // (possibly parallel) blocks write disjoint ranges.
  std::vector<double> remaining_flat_;
  std::vector<std::int32_t> remaining_offset_;  // size K+1
  mutable std::vector<double> load_;  // Σ_k w_k·c_k^i scratch
  // Per-block load partials for the sharded drf_progress reduction.
  mutable std::vector<std::vector<double>> block_load_;
  std::size_t size_ = 0;
  std::size_t id_end_ = 0;
};

// The DRF stage shared by DrfScheduler and HUG: raises every coflow's
// progress to P* (each flow at w_k·remaining_f·P*/d̄_k, so all of a
// coflow's flows and links finish together; exhausted coflows get explicit
// zero rates). Fills `alloc` and returns P*. `cache` must be refreshed on
// `input`.
double drf_allocate(const ScheduleInput& input, const DemandCache& cache,
                    Allocation& alloc);

// Sharded variant: P* comes from the parallel block reduction; the rate
// pass stays serial (one Allocation is written). Null runtime is the
// serial drf_allocate above.
double drf_allocate(const ScheduleInput& input, const DemandCache& cache,
                    ShardRuntime* runtime, Allocation& alloc);

}  // namespace ncdrf
