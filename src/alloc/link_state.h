// Persistent per-coflow per-link flow-count state shared by every
// kernel-backed scheduler (the allocation-kernel layer's answer to the
// dense num_coflows × num_links matrices PS-P, HUG, Baraat, Aalo, FIFO and
// NC-DRF used to rebuild on every allocate() call).
//
// The state tracks only integer quantities, so the incremental path is
// *exact*: a sequence of delta updates always reproduces what a
// from-scratch rebuild of the same snapshot would produce, bit for bit.
//
// Row layout. A coflow's loads are one run of LinkRows, one per link its
// counted flows touch, in first-touch order (flow order, uplink before
// downlink; under stale counting a snapshot's finished flows follow its
// live ones): the link, counted — flows of k on the link, including
// finished flows when `count_finished_flows` (PS-P's and NC-DRF's "stale"
// semantics) — and live — its unfinished flows there (what HUG, Baraat,
// Aalo and FIFO divide by). A link the coflow does not touch has no row;
// both its counts are exactly 0. Rows are written at arrival and kept
// until departure: a live-counting finish can take a row's counts to 0,
// and the row stays, so a run only ever changes in place. Next to the
// run sit the bottleneck n̄_k = max over rows of counted (Algorithm 1's
// divisor) and the flow totals.
//
// Rows are built through a link -> row scratch of L int32s. An entry is
// trusted only when it points into the run being built at a row for its
// link, so the scratch is never reset between arrivals, and an arrival
// that throws midway leaves nothing behind. A coflow therefore costs
// O(rows) memory — about 18 rows per FB-like coflow, at most two per
// flow — not O(2m).
//
// Storage. Each coflow's entry sits in a slot of one vector, found
// through an IdMap from coflow id to slot. A departure frees its slot with
// the row run's capacity, and the next arrival takes the last freed slot
// and writes its rows into that capacity (sized by a RunSizer, so the
// recycled runs hold at most a constant factor over the live rows);
// reset() frees every slot in index order. So a serving plane's steady
// arrival stream, and a warm rebuild of the same snapshot (which drivers
// that deliver no events run on every allocation), allocate nothing.
//
// Globally: per-link live-flow totals (the per-flow fairness and
// backfilling denominator) and the number of coflows with a positive
// counted row on each link (PS-P's inter-coflow split denominator).
//
// Delta updates cost O(rows of the coflow the event hits); rebuild() is
// the O(flows + L) from-scratch reference, kept as the fallback for
// drivers that never deliver events and as the oracle for
// check_consistent().
#pragma once

#include <compare>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/id_map.h"
#include "common/run_sizer.h"
#include "sched/scheduler.h"

namespace ncdrf {

// One link a coflow's counted flows touch.
struct LinkRow {
  LinkId link = -1;
  int counted = 0;  // includes finished flows when stale
  int live = 0;     // unfinished flows only

  friend auto operator<=>(const LinkRow&, const LinkRow&) = default;
};

class LinkLoadState {
 public:
  // Per-coflow link loads, exposed read-only to the policies.
  struct CoflowLoad {
    double weight = 1.0;
    int bottleneck = 0;     // n̄_k = max over rows of counted
    int live_flows = 0;     // |unfinished flows|
    int counted_flows = 0;  // flows contributing to the counted column
    std::vector<LinkRow> rows;  // first-touch order, kept until departure
  };

  // `count_finished_flows` selects PS-P's presence semantics: when true,
  // finished flows keep contributing to `counted` (and to the per-link
  // coflow presence) until their coflow departs; when false, counted
  // tracks live flows only.
  explicit LinkLoadState(bool count_finished_flows);

  // Forgets all tracked coflows and binds the state to `fabric`.
  void reset(const Fabric& fabric);

  // Delta updates. Each hands back the coflow's entry as the update left
  // it, and a departure the entry it removed, so a policy keeping derived
  // state on top of the counts needs no second lookup. An arrival or a
  // departure writes the entry's rows, a finish its flow's two. n̄_k is
  // set at arrival and, under live counting, recomputed by a finish only
  // when a decremented row sat at it. A returned reference, like find()'s
  // pointer, stays valid until the next arrival, reset or rebuild: an
  // arrival may reuse a departed coflow's slot or move every slot.
  const CoflowLoad& add_coflow(const ActiveCoflow& coflow);
  const CoflowLoad& finish_flow(const ActiveFlow& flow);
  const CoflowLoad& remove_coflow(CoflowId id);

  // Full from-scratch rebuild; also adopts snapshots from drivers that
  // never deliver events.
  void rebuild(const ScheduleInput& input);

  // Cheap structural check (O(K) id lookups) that the tracked state
  // covers `input`: same fabric, same coflow ids/weights, same live and
  // counted flow cardinalities. Policies trust the state only when this
  // passes, so stale state degrades to a rebuild, never to wrong shares.
  bool matches(const ScheduleInput& input) const;

  // Per-coflow loads; nullptr for untracked ids.
  const CoflowLoad* find(CoflowId id) const {
    const std::int32_t* slot = slot_of_.find(id);
    return slot == nullptr ? nullptr : &slots_[static_cast<std::size_t>(*slot)];
  }

  // Per-link live (unfinished) flow totals over all coflows.
  const std::vector<int>& live_link_counts() const {
    return live_link_counts_;
  }

  // Number of coflows with a positive counted row, per link (PS-P's
  // coflows_on_link).
  const std::vector<int>& counted_coflows_on_link() const {
    return counted_coflows_on_link_;
  }

  std::size_t num_coflows() const { return slot_of_.size(); }
  // One past the largest flow id of any coflow added since reset(): a
  // bound on the live ids that sizes id-indexed tables (an Allocation)
  // without a pass over the flows. Departures never lower it.
  std::size_t id_end() const { return id_end_; }
  bool bound() const { return fabric_ != nullptr; }
  const Fabric& fabric() const { return *fabric_; }
  bool count_finished_flows() const { return count_finished_flows_; }

  // Debug oracle: every tracked quantity must equal a fresh rebuild of
  // `input` exactly (all state is integral). Throws CheckError on
  // divergence.
  void check_consistent(const ScheduleInput& input) const;

 private:
  static std::size_t index(LinkId link) {
    return static_cast<std::size_t>(link);
  }

  const Fabric* fabric_ = nullptr;
  bool count_finished_flows_;
  // Tracked coflows: id -> slot. slots_[0, used_) have been handed out
  // since reset(); free_ lists the ones whose coflow departed since. A
  // departed coflow's entry stays in its freed slot, rows intact, until
  // an arrival takes the slot, which is what keeps remove_coflow's
  // reference valid until then. Slots past used_ keep their run capacity
  // across reset() for the next rebuild.
  IdMap<std::int32_t> slot_of_;
  std::vector<CoflowLoad> slots_;
  std::size_t used_ = 0;
  std::vector<std::int32_t> free_;
  RunSizer row_runs_;  // the slots' row runs
  std::vector<int> live_link_counts_;
  std::vector<int> counted_coflows_on_link_;
  std::size_t id_end_ = 0;
  // Arrival scratch: the run being built, and link -> its row in the run
  // (valid only where it points at a row for that link).
  std::vector<LinkRow> rows_scratch_;
  std::vector<std::int32_t> link_row_;
};

}  // namespace ncdrf
