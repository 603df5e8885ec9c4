// NC-DRF — Non-Clairvoyant Dominant Resource Fairness.
//
// The paper's contribution (Sec. IV, Algorithm 1): a coflow scheduler that
// provides long-term isolation guarantees *without* knowing coflow sizes.
//
// Key idea: the per-link *flow count* n_k^i — observable a priori through
// the scheduler API (Aalo) or coflow identification (CODA) — is used in
// place of the unknown demand d_k^i. Because load-balanced data-parallel
// applications keep flow-size disparity within a coflow small, the
// flow-count correlation vector ĉ_k^i = n_k^i / n̄_k tracks the true
// demand correlation, and DRF can be run on it:
//
//   P̂* = 1 / max_i Σ_k ĉ_k^i            (Eq. 5; per-unit capacity)
//   every flow of coflow k gets rate r_k = P̂* / n̄_k
//
// so coflow k's aggregate on link i is ĉ_k^i · P̂* — proportional to its
// flow count, hence never mismatched across its coupled up/downlinks (the
// waste PS-P suffers in Fig. 4a cannot occur). A backfilling stage then
// redistributes any unused bandwidth evenly across active flows, capped by
// the coupled links (work conservation, Sec. IV-B).
//
// Guarantee (Theorem 1): offline, under the paper's assumptions, every
// coflow's CCT under NC-DRF is at most e_max times its CCT under
// clairvoyant DRF, where e_max is the largest intra-coflow demand
// disparity (Eq. 4).
//
// Online operation (NC-DRFOnline): the driver re-invokes allocate() on
// every coflow arrival/departure — and, in this implementation, on every
// flow completion, since finished flows leave the active snapshot and
// change the observable flow counts. As a KernelScheduler it takes the
// event hooks: the kernel layer's LinkLoadState keeps the exact integer
// counts n_k^i and bottlenecks n̄_k, and the hooks keep the two weighted
// per-link sums P̂* and backfilling need, so allocate() costs
// O(links + flows) per event instead of O(K·(F+L)). A scheduler that never
// receives on_reset() rebuilds from every snapshot: the from-scratch
// reference path.
#pragma once

#include <vector>

#include "alloc/kernel_scheduler.h"
#include "obs/perf.h"
#include "sched/scheduler.h"

namespace ncdrf {

// Default for NcDrfOptions::verify_incremental: cross-check the
// incremental state against a full recompute on every event-driven
// allocate in Debug builds; stay out of the hot path in optimized ones.
#ifdef NDEBUG
inline constexpr bool kVerifyIncrementalDefault = false;
#else
inline constexpr bool kVerifyIncrementalDefault = true;
#endif

struct NcDrfOptions {
  // Backfilling ("Retaining Work Conservation", Sec. IV-B). One round is
  // what the paper specifies; extra rounds are an ablation knob.
  bool work_conserving = true;
  int backfill_rounds = 1;

  // How n_k^i is counted in the online procedure.
  //
  // Default (true, "stale", Algorithm 1 read literally): NC-DRFOnline
  // reallocates on coflow arrival/departure, so a flow keeps counting
  // toward n_k^i until its whole coflow departs; the share reserved for
  // finished flows is recycled only by backfilling. This is the behaviour
  // that reproduces the paper's simulated results (the +68%-vs-DRF and
  // 1.7x-vs-PS-P headlines).
  //
  // When false ("live"), counts shrink as individual flows finish — the
  // adaptive variant the paper's EC2 prototype effectively implements
  // (slaves report completions, the master reallocates). It tracks
  // clairvoyant DRF almost exactly, answering the paper's future-work
  // question about shrinking the isolation ratio; available from the
  // registry as "ncdrf-live". bench_ablation_counting quantifies the gap.
  bool count_finished_flows = true;

  // Cross-check every incremental allocate() against a from-scratch
  // recompute (integers exactly, doubles within 1e-9 relative) via
  // NCDRF_CHECK. Defaults on in Debug builds, off in optimized builds.
  bool verify_incremental = kVerifyIncrementalDefault;
};

class NcDrfScheduler : public KernelScheduler {
 public:
  explicit NcDrfScheduler(NcDrfOptions options = {});

  std::string name() const override { return "NC-DRF"; }

  // The whole point: NC-DRF never sees flow or coflow sizes.
  bool clairvoyant() const override { return false; }

  // Algorithm 1's allocBandwidth + backfilling for one snapshot. The
  // online procedure is this function re-run at every arrival/departure;
  // with delta notifications it reuses the event-maintained state,
  // otherwise it rebuilds from the snapshot (the from-scratch path).
  Allocation allocate(const ScheduleInput& input) override;

  // Event hooks: the base's LinkLoadState delta, then the coflow's terms
  // in the two weighted sums below.
  void on_reset(const Fabric& fabric) override;
  void on_coflow_arrival(const ActiveCoflow& coflow) override;
  void on_flow_finish(const ActiveFlow& flow) override;
  void on_coflow_departure(CoflowId id) override;

  // P̂* (Eq. 5) for a snapshot, generalized to per-link capacities:
  // P̂* = min_i C_i / Σ_k ĉ_k^i. The from-scratch reference implementation,
  // exposed for tests and benches.
  static double flow_count_progress(const ScheduleInput& input,
                                    bool count_finished_flows = true);

  // Perf counters accumulated since construction; callers may reset().
  const SchedPerf& perf() const { return perf_; }
  SchedPerf& perf() { return perf_; }

  // Observability: allocate() emits nested spans (ncdrf_alloc →
  // correlation_build / p_star_search / backfill) to `tracer` and feeds
  // the allocate-latency histogram in `metrics`. Either may be null.
  void set_observers(obs::Tracer* tracer,
                     obs::MetricsRegistry* metrics) override;

 private:
  // Subtracts `term` from sums[i]; marks the sums stale when the link
  // still carries flows (`occupied`) yet keeps under 1e-6 of the term.
  void take_back(std::vector<double>& sums, std::size_t i, double term,
                 bool occupied);
  // Both sums from state_ in snapshot order: the rebuild path, and the
  // reference the Debug check compares the event-maintained sums with.
  void sum_shares(const ScheduleInput& input, std::vector<double>& load,
                  std::vector<double>& usage) const;
  void check_consistent(const ScheduleInput& input) const;

  NcDrfOptions options_;
  // Per link i: load_ = Σ_k w_k·n_k^i/n̄_k (the denominator of P̂*) and
  // usage_ = Σ_k w_k·live_k^i/n̄_k (post-DRF link usage once multiplied by
  // P̂*). Hooks update them in O(links touched); they accumulate deltas,
  // so they may drift from a rebuild by a few ulps per event.
  std::vector<double> load_;
  std::vector<double> usage_;
  // Set when a hook's subtraction cancelled the surviving terms into
  // rounding noise (weights 1e12 and 1e-12 on one link); the next
  // allocate() then rebuilds.
  bool stale_ = false;
  std::vector<double> residual_;  // scratch for the backfilling budget
  obs::Tracer* tracer_ = nullptr;
  obs::Histogram* alloc_latency_ = nullptr;
};

}  // namespace ncdrf
