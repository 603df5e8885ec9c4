// Persistent per-coflow per-link flow-count state shared by every
// kernel-backed scheduler (the allocation-kernel layer's answer to the
// dense num_coflows × num_links matrices PS-P, HUG, Baraat, Aalo, FIFO and
// NC-DRF used to rebuild on every allocate() call).
//
// The state tracks only integer quantities, so the incremental path is
// *exact*: a sequence of delta updates always reproduces what a
// from-scratch rebuild of the same snapshot would produce, bit for bit.
// Tracked per coflow k:
//
//   * counted[i] — flows of k on link i, including finished flows when
//     `count_finished_flows` (PS-P's and NC-DRF's "stale" semantics);
//   * live[i]    — unfinished flows of k on link i (what HUG, Baraat,
//     Aalo and FIFO divide by);
//   * bottleneck — n̄_k = max_i counted[i], Algorithm 1's divisor;
//   * touched    — links where counted[i] ever became positive, so
//     per-coflow sweeps cost O(links the coflow uses), not O(links).
//
// Globally: per-link live-flow totals (the per-flow fairness and
// backfilling denominator) and the number of coflows with counted[i] > 0
// (PS-P's inter-coflow split denominator).
//
// Delta updates cost O(links touched by the event); rebuild() is the
// O(K·(F+L)) from-scratch reference, kept as the fallback for drivers
// that never deliver events and as the oracle for check_consistent().
#pragma once

#include <cstddef>
#include <unordered_map>
#include <vector>

#include "sched/scheduler.h"

namespace ncdrf {

class LinkLoadState {
 public:
  // Per-coflow link loads, exposed read-only to the policies.
  struct CoflowLoad {
    double weight = 1.0;
    int bottleneck = 0;     // n̄_k = max_i counted[i]
    int live_flows = 0;     // |unfinished flows|
    int counted_flows = 0;  // flows contributing to `counted`
    std::vector<int> counted;     // includes finished flows when stale
    std::vector<int> live;        // unfinished flows only
    std::vector<LinkId> touched;  // links where counted ever became > 0
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
  // departure writes the entry's `touched` links, a finish its two.
  // n̄_k is set at arrival and, under live counting, recomputed by a
  // finish only when a decremented link sat at it.
  const CoflowLoad& add_coflow(const ActiveCoflow& coflow);
  const CoflowLoad& finish_flow(const ActiveFlow& flow);
  CoflowLoad remove_coflow(CoflowId id);

  // Full from-scratch rebuild; also adopts snapshots from drivers that
  // never deliver events.
  void rebuild(const ScheduleInput& input);

  // Cheap structural check (O(K) hash lookups) that the tracked state
  // covers `input`: same fabric, same coflow ids/weights, same live and
  // counted flow cardinalities. Policies trust the state only when this
  // passes, so stale state degrades to a rebuild, never to wrong shares.
  bool matches(const ScheduleInput& input) const;

  // Per-coflow loads; nullptr for untracked ids.
  const CoflowLoad* find(CoflowId id) const {
    const auto it = coflows_.find(id);
    return it == coflows_.end() ? nullptr : &it->second;
  }

  // Per-link live (unfinished) flow totals over all coflows.
  const std::vector<int>& live_link_counts() const {
    return live_link_counts_;
  }

  // Number of coflows with counted[i] > 0, per link (PS-P's
  // coflows_on_link).
  const std::vector<int>& counted_coflows_on_link() const {
    return counted_coflows_on_link_;
  }

  std::size_t num_coflows() const { return coflows_.size(); }
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

  // Counts one flow in (+1) or out (-1) of `cs`, maintaining the global
  // per-link vectors; `counted_delta` is 0 for finish events under stale
  // counting (the flow stays counted), else matches `sign`.
  void apply_flow(CoflowLoad& cs, MachineId src, MachineId dst, int sign,
                  int counted_delta);

  const Fabric* fabric_ = nullptr;
  bool count_finished_flows_;
  std::unordered_map<CoflowId, CoflowLoad> coflows_;
  std::vector<int> live_link_counts_;
  std::vector<int> counted_coflows_on_link_;
};

}  // namespace ncdrf
