#include "alloc/demand_cache.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>

#include "alloc/shard.h"
#include "common/check.h"

namespace ncdrf {

void DemandCache::refresh(const ScheduleInput& input) {
  refresh(input, /*runtime=*/nullptr);
}

void DemandCache::refresh(const ScheduleInput& input, ShardRuntime* runtime) {
  NCDRF_CHECK(input.clairvoyant != nullptr,
              "demand cache requires clairvoyant remaining-size info");
  size_ = input.coflows.size();
  coflows_.resize(size_);
  // Flat remaining-bits offsets are serial prefix sums; the buffer only
  // grows, so steady-state refreshes reuse it without reallocating.
  remaining_offset_.resize(size_ + 1);
  remaining_offset_[0] = 0;
  for (std::size_t k = 0; k < size_; ++k) {
    remaining_offset_[k + 1] =
        remaining_offset_[k] +
        static_cast<std::int32_t>(input.coflows[k].flows.size());
  }
  const auto total_flows =
      static_cast<std::size_t>(remaining_offset_[size_]);
  if (remaining_flat_.size() < total_flows) {
    remaining_flat_.resize(total_flows);
  }
  const std::size_t num_blocks =
      runtime != nullptr ? static_cast<std::size_t>(runtime->num_shards())
                         : 1;
  if (blocks_.size() < num_blocks) blocks_.resize(num_blocks);
  for (std::size_t b = 0; b < num_blocks; ++b) blocks_[b].id_end = 0;
  if (runtime != nullptr) {
    // Each block owns its rows and scratch and writes only its coflows'
    // entries, so the blocks run in parallel once the arrays are sized.
    runtime->parallel_blocks(
        size_, [&](int block, std::size_t begin, std::size_t end) {
          refresh_block(input, blocks_[static_cast<std::size_t>(block)],
                        begin, end);
        });
  } else {
    refresh_block(input, blocks_[0], 0, size_);
  }
  id_end_ = 0;
  for (std::size_t b = 0; b < num_blocks; ++b) {
    id_end_ = std::max(id_end_, blocks_[b].id_end);
  }
}

void DemandCache::refresh_block(const ScheduleInput& input, Block& block,
                                std::size_t begin, std::size_t end) {
  const Fabric& fabric = *input.fabric;
  const ClairvoyantInfo& info = *input.clairvoyant;
  std::vector<DemandRow>& rows = block.rows;
  std::vector<std::int32_t>& link_row = block.link_row;
  // Reset whole rather than trusted: a refresh that threw midway may have
  // left entries set.
  link_row.assign(static_cast<std::size_t>(fabric.num_links()), -1);
  rows.clear();
  FlowId max_id = -1;
  for (std::size_t k = begin; k < end; ++k) {
    const ActiveCoflow& coflow = input.coflows[k];
    double* remaining = remaining_flat_.data() + remaining_offset_[k];
    const std::size_t first = rows.size();
    // Same accumulation order as coflow/compute_demand over the coflow's
    // live flows with remaining sizes: each row adds its flows' bits in
    // flow order — bitwise the dense per-link sums.
    const auto add = [&](LinkId link, double bits) {
      std::int32_t& r = link_row[static_cast<std::size_t>(link)];
      if (r < 0) {
        r = static_cast<std::int32_t>(rows.size());
        rows.push_back(DemandRow{link, 0, 0.0});
      }
      DemandRow& row = rows[static_cast<std::size_t>(r)];
      row.flows += 1;
      row.bits += bits;
    };
    std::size_t j = 0;
    for (const ActiveFlow& f : coflow.flows) {
      const double size_bits = info.remaining_bits(f.id);
      NCDRF_CHECK(size_bits >= 0.0, "flow size must be non-negative");
      remaining[j++] = size_bits;
      max_id = std::max(max_id, f.id);
      add(fabric.uplink(f.src), size_bits);
      add(fabric.downlink(f.dst), size_bits);
    }
    // A dense ascending scan keeps the largest demand and, among exact
    // ties, the smallest link id; the explicit tie-break reproduces that
    // over the first-touch rows. The scan also returns the scratch to -1.
    CoflowDemand& c = coflows_[k];
    c.bottleneck_bits = 0.0;
    c.bottleneck_link = -1;
    for (std::size_t r = first; r < rows.size(); ++r) {
      const DemandRow& row = rows[r];
      link_row[static_cast<std::size_t>(row.link)] = -1;
      if (row.bits > c.bottleneck_bits ||
          (row.bits == c.bottleneck_bits && c.bottleneck_link >= 0 &&
           row.link < c.bottleneck_link)) {
        c.bottleneck_bits = row.bits;
        c.bottleneck_link = row.link;
      }
    }
    c.num_rows = static_cast<std::int32_t>(rows.size() - first);
  }
  block.id_end = static_cast<std::size_t>(max_id + 1);
  // The buffer may have moved while it grew; point each coflow at its run
  // only now.
  const DemandRow* run = rows.data();
  for (std::size_t k = begin; k < end; ++k) {
    coflows_[k].rows = run;
    run += coflows_[k].num_rows;
  }
}

double DemandCache::drf_progress(const ScheduleInput& input) const {
  return drf_progress(input, /*runtime=*/nullptr);
}

double DemandCache::drf_progress(const ScheduleInput& input,
                                 ShardRuntime* runtime) const {
  NCDRF_CHECK(size_ == input.coflows.size(),
              "demand cache stale for this snapshot");
  const Fabric& fabric = *input.fabric;
  const auto num_links = static_cast<std::size_t>(fabric.num_links());
  // Adds w_k·c_k^i for coflows [begin, end) into `load`. Links without a
  // row hold exactly 0.0 demand and would contribute an exact +0.0, so
  // skipping them leaves every accumulated bit unchanged.
  const auto accumulate = [&](std::size_t begin, std::size_t end,
                              std::vector<double>& load) {
    for (std::size_t k = begin; k < end; ++k) {
      const double weight = input.coflows[k].weight;
      NCDRF_CHECK(weight > 0.0, "coflow weights must be positive");
      const CoflowDemand& c = coflows_[k];
      if (c.bottleneck_bits <= 0.0) continue;
      for (const DemandRow& row : std::span<const DemandRow>(
               c.rows, static_cast<std::size_t>(c.num_rows))) {
        load[static_cast<std::size_t>(row.link)] +=
            weight * (row.bits / c.bottleneck_bits);
      }
    }
  };
  std::vector<double>& load = load_;
  load.assign(num_links, 0.0);
  if (runtime != nullptr) {
    // Per-block partial loads over contiguous coflow ranges, reduced in
    // block order — the only serial-vs-sharded difference is the
    // floating-point grouping of that sum.
    const auto blocks = static_cast<std::size_t>(runtime->num_shards());
    if (block_load_.size() < blocks) block_load_.resize(blocks);
    // Zeroed serially: parallel_blocks skips empty ranges, which must not
    // leave a stale partial behind.
    for (std::size_t b = 0; b < blocks; ++b) {
      block_load_[b].assign(num_links, 0.0);
    }
    runtime->parallel_blocks(
        size_, [&](int block, std::size_t begin, std::size_t end) {
          accumulate(begin, end, block_load_[static_cast<std::size_t>(block)]);
        });
    for (std::size_t b = 0; b < blocks; ++b) {
      for (std::size_t i = 0; i < num_links; ++i) {
        load[i] += block_load_[b][i];
      }
    }
  } else {
    accumulate(0, size_, load);
  }
  double p_star = std::numeric_limits<double>::infinity();
  for (LinkId i = 0; i < fabric.num_links(); ++i) {
    const auto idx = static_cast<std::size_t>(i);
    if (load[idx] > 0.0) {
      p_star = std::min(p_star, fabric.capacity(i) / load[idx]);
    }
  }
  return std::isfinite(p_star) ? p_star : 0.0;
}

double drf_allocate(const ScheduleInput& input, const DemandCache& cache,
                    Allocation& alloc) {
  return drf_allocate(input, cache, /*runtime=*/nullptr, alloc);
}

double drf_allocate(const ScheduleInput& input, const DemandCache& cache,
                    ShardRuntime* runtime, Allocation& alloc) {
  const double p_star = cache.drf_progress(input, runtime);
  if (p_star <= 0.0) return p_star;
  alloc.reserve(cache.id_end());
  for (std::size_t k = 0; k < input.coflows.size(); ++k) {
    const ActiveCoflow& coflow = input.coflows[k];
    const double bottleneck = cache.bottleneck_bits(k);
    if (bottleneck <= 0.0) {
      // Nothing left to send; flows will be retired by the driver.
      for (const ActiveFlow& f : coflow.flows) alloc.set_rate(f.id, 0.0);
      continue;
    }
    // rate_f = w_k · remaining_f · P* / d̄_k — flows (and links) finish
    // together; weights default to 1. Remaining sizes were memoized by
    // refresh(), so this pass does no clairvoyant lookups.
    const double* remaining = cache.remaining(k);
    for (std::size_t j = 0; j < coflow.flows.size(); ++j) {
      alloc.set_rate(coflow.flows[j].id,
                     coflow.weight * remaining[j] * p_star / bottleneck);
    }
  }
  return p_star;
}

}  // namespace ncdrf
