#include "sched/hug.h"

#include <algorithm>
#include <vector>

#include "common/check.h"

namespace ncdrf {

Allocation HugScheduler::allocate(const ScheduleInput& input) {
  AllocScope scope(perf_);
  NCDRF_CHECK(input.clairvoyant != nullptr,
              "HUG requires clairvoyant remaining-size information");
  NCDRF_CHECK(options_.spare_rounds >= 0, "spare rounds must be >= 0");

  // Stage 1: DRF allocation at the optimal isolation guarantee.
  Allocation alloc;
  cache_.refresh(input);
  const double p_star = drf_allocate(input, cache_, alloc);
  if (p_star <= 0.0) return alloc;

  const Fabric& fabric = *input.fabric;
  const auto num_links = static_cast<std::size_t>(fabric.num_links());
  const std::size_t num_coflows = input.coflows.size();
  sync(input);
  // Stage 2, the spare rounds and the slot arena they run over.
  BackfillScope backfill(perf_);

  // Build the sparse (coflow, link) slot arena for this snapshot: the
  // per-coflow active-flow counts per link are fixed across rounds and
  // live in LinkLoadState; only links a coflow actually uses get a slot.
  slot_offset_.assign(num_coflows + 1, 0);
  for (std::size_t k = 0; k < num_coflows; ++k) {
    const LinkLoadState::CoflowLoad& load = *state_.find(input.coflows[k].id);
    std::int32_t active = 0;
    for (const LinkRow& row : load.rows) {
      if (row.live > 0) ++active;
    }
    slot_offset_[k + 1] = slot_offset_[k] + active;
  }
  const auto num_slots = static_cast<std::size_t>(slot_offset_[num_coflows]);
  slot_links_.resize(num_slots);
  slot_live_.resize(num_slots);
  link_slot_scratch_.resize(num_links);
  flow_slots_.clear();
  flow_slots_.reserve(2 * static_cast<std::size_t>(live_flows_hint(input)));
  for (std::size_t k = 0; k < num_coflows; ++k) {
    const ActiveCoflow& coflow = input.coflows[k];
    const LinkLoadState::CoflowLoad& load = *state_.find(coflow.id);
    std::int32_t slot = slot_offset_[k];
    for (const LinkRow& row : load.rows) {
      if (row.live == 0) continue;
      slot_links_[static_cast<std::size_t>(slot)] = row.link;
      slot_live_[static_cast<std::size_t>(slot)] = row.live;
      link_slot_scratch_[static_cast<std::size_t>(row.link)] = slot;
      ++slot;
    }
    // Stale scratch entries from other coflows are never read: a flow's
    // endpoints always carry this coflow's live flows, so their slots were
    // just written above.
    for (const ActiveFlow& f : coflow.flows) {
      flow_slots_.push_back(
          link_slot_scratch_[static_cast<std::size_t>(fabric.uplink(f.src))]);
      flow_slots_.push_back(link_slot_scratch_[static_cast<std::size_t>(
          fabric.downlink(f.dst))]);
    }
  }

  // CSR link -> slots. Slots are grouped by ascending coflow index, so a
  // single ascending-slot fill keeps each link's entry list in the same
  // coflow order the legacy dense scans used.
  link_offsets_.assign(num_links + 1, 0);
  for (std::size_t s = 0; s < num_slots; ++s) {
    link_offsets_[static_cast<std::size_t>(slot_links_[s]) + 1] += 1;
  }
  for (std::size_t i = 0; i < num_links; ++i) {
    link_offsets_[i + 1] += link_offsets_[i];
  }
  link_entries_.resize(num_slots);
  link_cursor_.assign(link_offsets_.begin(), link_offsets_.end() - 1);
  for (std::size_t s = 0; s < num_slots; ++s) {
    const auto i = static_cast<std::size_t>(slot_links_[s]);
    link_entries_[static_cast<std::size_t>(link_cursor_[i]++)] =
        static_cast<std::int32_t>(s);
  }

  for (int round = 0; round < options_.spare_rounds; ++round) {
    // Per-coflow usage per link under the current allocation.
    usage_.assign(num_slots, 0.0);
    total_usage_.assign(num_links, 0.0);
    std::size_t pos = 0;
    for (std::size_t k = 0; k < num_coflows; ++k) {
      for (const ActiveFlow& f : input.coflows[k].flows) {
        const double r = alloc.rate(f.id);
        const auto us = static_cast<std::size_t>(flow_slots_[pos]);
        const auto ds = static_cast<std::size_t>(flow_slots_[pos + 1]);
        pos += 2;
        usage_[us] += r;
        usage_[ds] += r;
        total_usage_[static_cast<std::size_t>(slot_links_[us])] += r;
        total_usage_[static_cast<std::size_t>(slot_links_[ds])] += r;
      }
    }

    // Per-coflow extra budget per link: an even split of the link's spare,
    // clipped by the coflow's remaining headroom below the P* cap.
    budget_.assign(num_slots, 0.0);
    bool any_spare = false;
    for (LinkId i = 0; i < fabric.num_links(); ++i) {
      const auto idx = static_cast<std::size_t>(i);
      const double spare =
          std::max(fabric.capacity(i) - total_usage_[idx], 0.0);
      if (spare <= 0.0) continue;
      const double cap = p_star * fabric.capacity(i);
      int eligible = 0;
      for (std::int32_t e = link_offsets_[idx]; e < link_offsets_[idx + 1];
           ++e) {
        const auto s =
            static_cast<std::size_t>(link_entries_[static_cast<std::size_t>(e)]);
        if (usage_[s] < cap) ++eligible;
      }
      if (eligible == 0) continue;
      const double per_coflow = spare / eligible;
      for (std::int32_t e = link_offsets_[idx]; e < link_offsets_[idx + 1];
           ++e) {
        const auto s =
            static_cast<std::size_t>(link_entries_[static_cast<std::size_t>(e)]);
        if (usage_[s] < cap) {
          budget_[s] = std::min(per_coflow, cap - usage_[s]);
          any_spare = true;
        }
      }
    }
    if (!any_spare) break;

    // Realize each flow's extra as the min of its two per-flow shares.
    pos = 0;
    for (std::size_t k = 0; k < num_coflows; ++k) {
      for (const ActiveFlow& f : input.coflows[k].flows) {
        const auto us = static_cast<std::size_t>(flow_slots_[pos]);
        const auto ds = static_cast<std::size_t>(flow_slots_[pos + 1]);
        pos += 2;
        const double up_share = budget_[us] / slot_live_[us];
        const double down_share = budget_[ds] / slot_live_[ds];
        const double w = std::min(up_share, down_share);
        if (w > 0.0) alloc.add_rate(f.id, w);
      }
    }
    perf_.backfill_rounds += 1;
  }
  return alloc;
}

}  // namespace ncdrf
