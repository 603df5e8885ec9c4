#include "alloc/priority_state.h"

#include <algorithm>
#include <limits>

#include "common/check.h"

namespace ncdrf {

void PriorityOrder::reset() {
  entries_.clear();
  meta_.clear();
}

std::size_t PriorityOrder::position_of(const Entry& e) const {
  return static_cast<std::size_t>(
      std::lower_bound(entries_.begin(), entries_.end(), e, entry_less) -
      entries_.begin());
}

void PriorityOrder::add_coflow(CoflowId id, std::int32_t bucket,
                               double arrival_time) {
  const Entry e{bucket, arrival_time, id};
  NCDRF_CHECK(meta_.insert(id, e).second,
              "priority order: duplicate coflow arrival");
  entries_.insert(entries_.begin() + static_cast<std::ptrdiff_t>(
                                         position_of(e)),
                  e);
}

void PriorityOrder::remove_coflow(CoflowId id) {
  const Entry* e = meta_.find(id);
  if (e == nullptr) return;  // departures may race a reset
  const std::size_t at = position_of(*e);
  NCDRF_CHECK(at < entries_.size() && entries_[at].id == id,
              "priority order: tracked coflow not at its sorted position");
  entries_.erase(entries_.begin() + static_cast<std::ptrdiff_t>(at));
  meta_.erase(id);
}

void PriorityOrder::reposition(std::size_t entry_index,
                               std::int32_t new_bucket) {
  Entry e = entries_[entry_index];
  entries_.erase(entries_.begin() +
                 static_cast<std::ptrdiff_t>(entry_index));
  e.bucket = new_bucket;
  entries_.insert(entries_.begin() + static_cast<std::ptrdiff_t>(
                                         position_of(e)),
                  e);
  meta_.assign(e.id, e);
  ++repositions_;
}

void PriorityOrder::index_snapshot(const ScheduleInput& input) {
  slot_of_.clear();
  slot_of_.reserve(input.coflows.size());
  for (std::size_t i = 0; i < input.coflows.size(); ++i) {
    slot_of_.assign(input.coflows[i].id, static_cast<std::int32_t>(i));
  }
}

std::ptrdiff_t PriorityOrder::snapshot_index(CoflowId id) const {
  const std::int32_t* slot = slot_of_.find(id);
  return slot == nullptr ? -1 : *slot;
}

bool PriorityOrder::resolve(const ScheduleInput& input,
                            const std::vector<double>& bucket_upper,
                            std::vector<std::size_t>& order_out) {
  if (entries_.size() != input.coflows.size()) return false;
  const std::size_t k = entries_.size();
  if (k == 0) {
    order_out.clear();
    return true;
  }
  index_snapshot(input);

  // One pass: verify membership and collect bucket escapees. The stored
  // bucket is trusted while attained service stays inside its band — two
  // comparisons per coflow, no queue recomputation.
  pending_.clear();
  order_out.resize(k);
  for (std::size_t i = 0; i < k; ++i) {
    const Entry& e = entries_[i];
    const std::ptrdiff_t slot = snapshot_index(e.id);
    if (slot < 0) return false;  // tracked coflow absent from the snapshot
    order_out[i] = static_cast<std::size_t>(slot);
    if (bucket_upper.empty()) continue;
    const double attained =
        input.coflows[static_cast<std::size_t>(slot)].attained_bits;
    const double lower =
        e.bucket == 0 ? 0.0
                      : bucket_upper[static_cast<std::size_t>(e.bucket) - 1];
    if (attained >= lower &&
        attained < bucket_upper[static_cast<std::size_t>(e.bucket)]) {
      continue;
    }
    pending_.push_back(e.id);
  }
  if (pending_.empty()) return true;

  // Escapees are re-found by id so earlier repositions cannot invalidate
  // the positions the detection pass saw.
  for (const CoflowId id : pending_) {
    const std::size_t at = position_of(*meta_.find(id));
    const double attained =
        input.coflows[static_cast<std::size_t>(snapshot_index(id))]
            .attained_bits;
    std::int32_t bucket = 0;
    while (attained >= bucket_upper[static_cast<std::size_t>(bucket)]) {
      ++bucket;
    }
    reposition(at, bucket);
  }
  for (std::size_t i = 0; i < k; ++i) {
    order_out[i] =
        static_cast<std::size_t>(snapshot_index(entries_[i].id));
  }
  return true;
}

void PriorityOrder::rebuild(
    const ScheduleInput& input,
    const std::function<std::int32_t(const ActiveCoflow&)>& bucket_of) {
  reset();
  entries_.reserve(input.coflows.size());
  for (const ActiveCoflow& c : input.coflows) {
    const Entry e{bucket_of(c), c.arrival_time, c.id};
    entries_.push_back(e);
    meta_.insert(c.id, e);
  }
  NCDRF_CHECK(meta_.size() == entries_.size(),
              "priority order: duplicate coflow ids in snapshot");
  std::sort(entries_.begin(), entries_.end(), entry_less);
}

void PriorityOrder::check_consistent(
    const ScheduleInput& input,
    const std::function<std::int32_t(const ActiveCoflow&)>& bucket_of)
    const {
  NCDRF_CHECK(entries_.size() == input.coflows.size(),
              "priority order: tracked size diverges from snapshot");
  NCDRF_CHECK(meta_.size() == entries_.size(),
              "priority order: index size diverges from entries");
  PriorityOrder fresh;
  fresh.rebuild(input, bucket_of);
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    const Entry& a = entries_[i];
    const Entry& b = fresh.entries_[i];
    NCDRF_CHECK(a.id == b.id && a.bucket == b.bucket &&
                    a.arrival == b.arrival,
                "priority order: maintained order diverges from fresh sort");
    const Entry* indexed = meta_.find(a.id);
    NCDRF_CHECK(indexed != nullptr && indexed->bucket == a.bucket &&
                    indexed->arrival == a.arrival,
                "priority order: index diverges from entries");
  }
}

}  // namespace ncdrf
