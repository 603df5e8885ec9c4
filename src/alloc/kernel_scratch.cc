#include "alloc/kernel_scratch.h"

#include <algorithm>

#include "common/check.h"

namespace ncdrf {

std::size_t ScratchArena::capacity_bytes() const {
  std::size_t total = 0;
  for (const Block& b : blocks_) total += b.size;
  return total;
}

void* ScratchArena::raw(std::size_t bytes) {
  bytes = (bytes + (kAlign - 1)) & ~(kAlign - 1);
  while (block_ < blocks_.size() &&
         cursor_ + bytes > blocks_[block_].size) {
    ++block_;
    cursor_ = 0;
  }
  if (block_ == blocks_.size()) {
    // Grow geometrically past the high-water mark so repeated growth
    // settles quickly; earlier spans stay valid until the next begin().
    const std::size_t grown =
        std::max({bytes, capacity_bytes(), std::size_t{1} << 12});
    blocks_.push_back(Block{std::make_unique<unsigned char[]>(grown), grown});
    cursor_ = 0;
  }
  void* out = blocks_[block_].data.get() + cursor_;
  cursor_ += bytes;
  return out;
}

void ScratchArena::coalesce() {
  const std::size_t total = capacity_bytes();
  blocks_.clear();
  blocks_.push_back(Block{std::make_unique<unsigned char[]>(total), total});
  block_ = 0;
  cursor_ = 0;
}

const FlowTable& KernelScratch::gather(const ScheduleInput& input,
                                       const LinkLoadState* state,
                                       GatherCounts counts) {
  const Fabric& fabric = *input.fabric;
  const int num_machines = fabric.num_machines();
  const std::size_t num_coflows = input.coflows.size();
  NCDRF_CHECK(counts == GatherCounts::kNone || state != nullptr,
              "divisor counts need a LinkLoadState");

  arena_.begin();
  table_ = FlowTable{};
  table_.num_coflows = num_coflows;
  table_.offset = arena_.alloc<std::int32_t>(num_coflows + 1);

  std::int32_t total = 0;
  table_.offset[0] = 0;
  for (std::size_t k = 0; k < num_coflows; ++k) {
    total += static_cast<std::int32_t>(input.coflows[k].flows.size());
    table_.offset[k + 1] = total;
  }
  const auto n = static_cast<std::size_t>(total);
  table_.num_flows = n;
  table_.flow = arena_.alloc<FlowId>(n);
  table_.up = arena_.alloc<std::int32_t>(n);
  table_.dn = arena_.alloc<std::int32_t>(n);
  table_.rate = arena_.alloc<double>(n);
  const bool with_counts = counts != GatherCounts::kNone;
  // Per-link divisor of the coflow being gathered, scattered from its
  // rows. Entries other coflows left behind are never read: a flow's
  // endpoints always carry rows of its own coflow, written just before.
  std::int32_t* link_count = nullptr;
  if (with_counts) {
    table_.cnt_up = arena_.alloc<std::int32_t>(n);
    table_.cnt_dn = arena_.alloc<std::int32_t>(n);
    link_count = arena_.alloc<std::int32_t>(
        static_cast<std::size_t>(fabric.num_links()));
  }

  std::size_t row = 0;
  FlowId max_id = -1;
  for (std::size_t k = 0; k < num_coflows; ++k) {
    const ActiveCoflow& coflow = input.coflows[k];
    if (with_counts) {
      const LinkLoadState::CoflowLoad* load = state->find(coflow.id);
      NCDRF_CHECK(load != nullptr, "gather: coflow missing from load state");
      for (const LinkRow& r : load->rows) {
        link_count[static_cast<std::size_t>(r.link)] =
            counts == GatherCounts::kLive ? r.live : r.counted;
      }
    }
    for (const ActiveFlow& f : coflow.flows) {
      NCDRF_CHECK(static_cast<unsigned>(f.src) <
                          static_cast<unsigned>(num_machines) &&
                      static_cast<unsigned>(f.dst) <
                          static_cast<unsigned>(num_machines),
                  "flow endpoint out of range");
      const auto u = static_cast<std::int32_t>(f.src);
      const auto d = static_cast<std::int32_t>(f.dst + num_machines);
      table_.flow[row] = f.id;
      max_id = std::max(max_id, f.id);
      table_.up[row] = u;
      table_.dn[row] = d;
      if (with_counts) {
        table_.cnt_up[row] = link_count[static_cast<std::size_t>(u)];
        table_.cnt_dn[row] = link_count[static_cast<std::size_t>(d)];
      }
      ++row;
    }
  }
  table_.id_end = static_cast<std::size_t>(max_id + 1);
  std::fill(table_.rate, table_.rate + n, 0.0);
  return table_;
}

void KernelScratch::commit(const FlowTable& table, Allocation& alloc,
                           bool skip_zero) {
  alloc.reserve(table.id_end);
  if (skip_zero) {
    for (std::size_t i = 0; i < table.num_flows; ++i) {
      if (table.rate[i] > 0.0) alloc.set_rate(table.flow[i], table.rate[i]);
    }
    return;
  }
  for (std::size_t i = 0; i < table.num_flows; ++i) {
    alloc.set_rate(table.flow[i], table.rate[i]);
  }
}

}  // namespace ncdrf
