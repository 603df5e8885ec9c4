// Persistent priority ordering for the sequential-fill schedulers (Aalo's
// D-CLAS queues, Baraat's FIFO-LM, FIFO) — the priority-fill family's
// counterpart to LinkLoadState/DemandCache: queue membership maintained
// incrementally from the Scheduler event hooks instead of re-derived from
// the snapshot on every allocate().
//
// The legacy fills ran iota + std::sort over all K coflows per call —
// O(K·log K) comparator invocations chasing arrival times and attained
// service through the snapshot — even though the order changes only at
// arrivals, departures and queue promotions. PriorityOrder keeps the
// coflows sorted by (bucket, arrival time, id) across calls: arrivals
// binary-search-insert, departures erase, and resolve() repositions only
// the coflows whose attained service crossed a bucket boundary since the
// last call (two comparisons per coflow against the stored bucket's
// bounds). A steady-state resolve touches O(changed coflows) order
// entries plus one O(K) id-to-snapshot-index pass — no sort.
//
// Buckets generalize the queue notion: Aalo uses its D-CLAS queue index,
// FIFO and Baraat use a single bucket 0 (pure arrival order). The sort key
// is exactly the legacy comparators' (queue, arrival, id) triple, so the
// emitted order is identical to the per-call sort it replaces.
//
// Mirroring LinkLoadState: matches()/resolve() degrade to a caller-driven
// rebuild when the tracked set does not cover the snapshot (drivers that
// never deliver events), and check_consistent() is the Debug-mode oracle
// comparing the maintained order against a fresh sort.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/id_map.h"
#include "sched/scheduler.h"

namespace ncdrf {

class PriorityOrder {
 public:
  struct Entry {
    std::int32_t bucket = 0;
    double arrival = 0.0;
    CoflowId id = -1;
  };

  // Forgets all tracked coflows (driver reset).
  void reset();

  // Event hooks. Arrival inserts at the entry's sorted position;
  // departure erases. Flow finishes never move a coflow — only attained
  // service does, which resolve() re-checks per call.
  void add_coflow(CoflowId id, std::int32_t bucket, double arrival_time);
  void remove_coflow(CoflowId id);

  // Emits snapshot indices (into input.coflows) in priority order.
  //
  // `bucket_upper` holds each bucket's exclusive attained-service upper
  // bound, ascending, with the last entry infinity; a coflow whose
  // attained service left its stored bucket's [lower, upper) band is
  // re-bucketed (smallest b with attained < bucket_upper[b]) and
  // repositioned before the order is emitted. An empty span disables the
  // re-check for orderings whose bucket never changes (FIFO, Baraat).
  //
  // Returns false — leaving `order_out` untouched — when the tracked set
  // does not cover the snapshot (size or membership mismatch); callers
  // then rebuild() and re-resolve, exactly like LinkLoadState::matches.
  bool resolve(const ScheduleInput& input,
               const std::vector<double>& bucket_upper,
               std::vector<std::size_t>& order_out);

  // Adopts the snapshot from scratch: one sort, same (bucket, arrival,
  // id) key. `bucket_of` maps a coflow to its bucket index.
  void rebuild(const ScheduleInput& input,
               const std::function<std::int32_t(const ActiveCoflow&)>&
                   bucket_of);

  std::size_t size() const { return entries_.size(); }
  const std::vector<Entry>& entries() const { return entries_; }

  // Coflows repositioned across bucket boundaries by resolve() since
  // construction (observability for tests and the microbench).
  long long repositions() const { return repositions_; }

  // Debug oracle: the maintained order must equal a fresh sort of the
  // snapshot under `bucket_of`, entry for entry, and the id index must
  // agree with the entries. Throws CheckError on divergence.
  void check_consistent(const ScheduleInput& input,
                        const std::function<std::int32_t(
                            const ActiveCoflow&)>& bucket_of) const;

 private:
  static bool entry_less(const Entry& a, const Entry& b) {
    if (a.bucket != b.bucket) return a.bucket < b.bucket;
    if (a.arrival != b.arrival) return a.arrival < b.arrival;
    return a.id < b.id;
  }

  // Sorted position of (bucket, arrival, id) via binary search.
  std::size_t position_of(const Entry& e) const;
  void reposition(std::size_t entry_index, std::int32_t new_bucket);

  // Refills slot_of_ (id -> snapshot index) from the snapshot.
  void index_snapshot(const ScheduleInput& input);
  // The snapshot index of `id`, or -1 when the snapshot lacks it.
  std::ptrdiff_t snapshot_index(CoflowId id) const;

  std::vector<Entry> entries_;  // sorted by (bucket, arrival, id)
  IdMap<Entry> meta_;           // id -> its sort key
  // Per-resolve id -> snapshot index; cleared, not freed, between calls.
  IdMap<std::int32_t> slot_of_;
  std::vector<CoflowId> pending_;  // coflows needing a re-bucket
  long long repositions_ = 0;
};

}  // namespace ncdrf
