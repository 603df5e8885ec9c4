#include "core/ncdrf.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "common/check.h"
#include "obs/tracer.h"
#include "sched/backfill.h"

namespace ncdrf {
namespace {

// Flow counts per link for one coflow (Algorithm 1 lines 4-5) — the
// from-scratch reference used by flow_count_progress.
std::vector<int> coflow_link_counts(const Fabric& fabric,
                                    const ActiveCoflow& coflow,
                                    bool count_finished) {
  std::vector<int> counts(static_cast<std::size_t>(fabric.num_links()), 0);
  for (const ActiveFlow& f : coflow.flows) {
    counts[static_cast<std::size_t>(fabric.uplink(f.src))] += 1;
    counts[static_cast<std::size_t>(fabric.downlink(f.dst))] += 1;
  }
  if (count_finished) {
    for (const ActiveFlow& f : coflow.finished_flows) {
      counts[static_cast<std::size_t>(fabric.uplink(f.src))] += 1;
      counts[static_cast<std::size_t>(fabric.downlink(f.dst))] += 1;
    }
  }
  return counts;
}

// Tolerance for the weighted sums' agreement with a rebuild; integer state
// must match exactly. Scaled by magnitude so big clusters (load ~ K) and
// raw capacities (~1e9 bps) are judged relatively.
bool near(double a, double b) {
  return std::abs(a - b) <=
         1e-9 * std::max({1.0, std::abs(a), std::abs(b)});
}

// Adds coflow `cs`'s terms w·n^i/n̄ and w·live^i/n̄ over its rows.
// Dividing per link (not by a precomputed w/n̄) keeps a rebuild bitwise
// equal to flow_count_progress's full scan.
void add_shares(const LinkLoadState::CoflowLoad& cs, std::vector<double>& load,
                std::vector<double>& usage) {
  if (cs.bottleneck <= 0) return;
  for (const LinkRow& row : cs.rows) {
    const auto i = static_cast<std::size_t>(row.link);
    load[i] += cs.weight * row.counted / cs.bottleneck;
    usage[i] += cs.weight * row.live / cs.bottleneck;
  }
}

}  // namespace

NcDrfScheduler::NcDrfScheduler(NcDrfOptions options)
    : KernelScheduler(options.count_finished_flows), options_(options) {
  NCDRF_CHECK(options_.backfill_rounds >= 0,
              "backfill rounds must be non-negative");
}

double NcDrfScheduler::flow_count_progress(const ScheduleInput& input,
                                           bool count_finished_flows) {
  const Fabric& fabric = *input.fabric;
  // Σ_k ĉ_k^i per link (Algorithm 1 lines 3-8), then
  // P̂* = min_i C_i / Σ_k ĉ_k^i (line 9; Eq. 5 with unit capacities).
  std::vector<double> load(static_cast<std::size_t>(fabric.num_links()), 0.0);
  for (const ActiveCoflow& coflow : input.coflows) {
    NCDRF_CHECK(coflow.weight > 0.0, "coflow weights must be positive");
    const std::vector<int> counts =
        coflow_link_counts(fabric, coflow, count_finished_flows);
    const int bottleneck = *std::max_element(counts.begin(), counts.end());
    if (bottleneck == 0) continue;
    for (std::size_t i = 0; i < load.size(); ++i) {
      load[i] += coflow.weight * counts[i] / bottleneck;
    }
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

void NcDrfScheduler::set_observers(obs::Tracer* tracer,
                                   obs::MetricsRegistry* metrics) {
  tracer_ = tracer;
  // Allocate latencies span sub-microsecond (incremental) to milliseconds
  // (cold rebuilds at scale); the geometry keeps that whole range in ~160
  // buckets at the default 10^(1/10) growth.
  alloc_latency_ =
      metrics != nullptr
          ? &metrics->histogram("sched.allocate_latency_s", 1e-8, 10.0,
                                1.2589254117941673)
          : nullptr;
}

void NcDrfScheduler::on_reset(const Fabric& fabric) {
  KernelScheduler::on_reset(fabric);
  load_.assign(static_cast<std::size_t>(fabric.num_links()), 0.0);
  usage_.assign(load_.size(), 0.0);
  stale_ = false;
}

void NcDrfScheduler::on_coflow_arrival(const ActiveCoflow& coflow) {
  if (!event_driven_) return;
  add_shares(track_arrival(coflow), load_, usage_);
}

void NcDrfScheduler::on_flow_finish(const ActiveFlow& flow) {
  if (!event_driven_) return;
  // n̄_k before the finish. Under live counting the finish lowers two
  // counts by one, so n̄_k falls by at most one; stale counting never
  // moves it. (An untracked coflow reads 0 here; track_finish rejects it.)
  const LinkLoadState::CoflowLoad* tracked = state_.find(flow.coflow);
  const int old_bottleneck = tracked != nullptr ? tracked->bottleneck : 0;
  const LinkLoadState::CoflowLoad& cs = track_finish(flow);
  const Fabric& fabric = state_.fabric();
  const auto up = static_cast<std::size_t>(fabric.uplink(flow.src));
  const auto dn = static_cast<std::size_t>(fabric.downlink(flow.dst));
  const bool live_counting = !state_.count_finished_flows();
  const bool shrank = cs.bottleneck != old_bottleneck;
  const double share = cs.weight / old_bottleneck;

  const std::vector<int>& live = state_.live_link_counts();
  take_back(usage_, up, share, live[up] > 0);
  take_back(usage_, dn, share, live[dn] > 0);
  if (!live_counting) return;
  // Live counting: the flow leaves n_k too.
  const std::vector<int>& counted = state_.counted_coflows_on_link();
  take_back(load_, up, share, counted[up] > 0);
  take_back(load_, dn, share, counted[dn] > 0);
  if (!shrank) return;
  // Rescale this coflow's terms from 1/n̄_old to 1/n̄_new on every link it
  // touches (all-zero counts make both terms vanish).
  const double old_inv = 1.0 / old_bottleneck;
  const double new_inv = cs.bottleneck > 0 ? 1.0 / cs.bottleneck : 0.0;
  const double rescale = cs.weight * (new_inv - old_inv);
  for (const LinkRow& row : cs.rows) {
    const auto i = static_cast<std::size_t>(row.link);
    load_[i] += row.counted * rescale;
    usage_[i] += row.live * rescale;
  }
}

void NcDrfScheduler::on_coflow_departure(CoflowId id) {
  if (!event_driven_) return;
  const LinkLoadState::CoflowLoad cs = track_departure(id);
  if (state_.num_coflows() == 0) {
    // Flush accumulated rounding residue whenever the fabric drains, so
    // drift cannot build up across scheduling epochs.
    std::fill(load_.begin(), load_.end(), 0.0);
    std::fill(usage_.begin(), usage_.end(), 0.0);
    stale_ = false;
    return;
  }
  if (cs.bottleneck <= 0) return;
  const std::vector<int>& live = state_.live_link_counts();
  const std::vector<int>& counted = state_.counted_coflows_on_link();
  for (const LinkRow& row : cs.rows) {
    const auto i = static_cast<std::size_t>(row.link);
    take_back(load_, i, cs.weight * row.counted / cs.bottleneck,
              counted[i] > 0);
    take_back(usage_, i, cs.weight * row.live / cs.bottleneck, live[i] > 0);
  }
}

void NcDrfScheduler::take_back(std::vector<double>& sums, std::size_t i,
                               double term, bool occupied) {
  sums[i] -= term;
  // What is left is the other flows' terms. Under 1e-6 of the removed one
  // it has lost most of its digits to cancellation, or all of them (it
  // reads 0 and P̂* with it), so rebuild rather than trust it.
  if (occupied && sums[i] < 1e-6 * term) stale_ = true;
}

void NcDrfScheduler::sum_shares(const ScheduleInput& input,
                                std::vector<double>& load,
                                std::vector<double>& usage) const {
  const auto links = static_cast<std::size_t>(input.fabric->num_links());
  load.assign(links, 0.0);
  usage.assign(links, 0.0);
  for (const ActiveCoflow& coflow : input.coflows) {
    add_shares(*state_.find(coflow.id), load, usage);
  }
}

void NcDrfScheduler::check_consistent(const ScheduleInput& input) const {
  state_.check_consistent(input);
  std::vector<double> load;
  std::vector<double> usage;
  sum_shares(input, load, usage);
  for (std::size_t i = 0; i < load.size(); ++i) {
    NCDRF_CHECK(near(load_[i], load[i]),
                "incremental load vector diverged from recompute");
    NCDRF_CHECK(near(usage_[i], usage[i]),
                "incremental usage weights diverged from recompute");
  }
}

Allocation NcDrfScheduler::allocate(const ScheduleInput& input) {
  // Non-clairvoyance by construction: this function must compile and run
  // without ever touching input.clairvoyant.
  const AllocateTimer timer(perf_, alloc_latency_);
  ++perf_.allocate_calls;
  Allocation alloc;

  // Serve from the event-maintained state when it provably covers the
  // snapshot and no hook marked the sums stale; otherwise adopt the
  // snapshot with a full O(K·(F+L)) rebuild (single pass — counts and
  // bottlenecks are computed once and reused for both P̂* and the
  // per-coflow rates).
  const bool synced = event_driven_ && !stale_ && state_.matches(input);
  NCDRF_TRACE_SPAN(tracer_, obs::EventKind::kNcDrfAlloc, input.now,
                   synced ? 1 : 0,
                   static_cast<std::int64_t>(input.coflows.size()));
  if (synced) {
    ++perf_.incremental_allocs;
    if (options_.verify_incremental) {
      check_consistent(input);
      ++perf_.consistency_checks;
    }
  } else {
    NCDRF_TRACE_SPAN(tracer_, obs::EventKind::kCorrelationBuild, input.now,
                     static_cast<std::int64_t>(input.coflows.size()));
    state_.rebuild(input);
    sum_shares(input, load_, usage_);
    stale_ = false;
    ++perf_.full_rebuilds;
  }
  const Fabric& fabric = *input.fabric;

#if NCDRF_TRACE_ENABLED
  if (tracer_ != nullptr) {
    tracer_->begin(obs::EventKind::kPStarSearch, input.now);
  }
#endif
  // P̂* = min_i C_i / load_i over loaded links (Eq. 5 generalized to
  // per-link capacities); 0 when nothing is loaded. The arg-min link tags
  // the span.
  [[maybe_unused]] LinkId bottleneck_link = -1;
  double p_star = std::numeric_limits<double>::infinity();
  for (LinkId i = 0; i < fabric.num_links(); ++i) {
    const auto idx = static_cast<std::size_t>(i);
    if (load_[idx] > 0.0) {
      const double bound = fabric.capacity(i) / load_[idx];
      if (bound < p_star) {
        p_star = bound;
        bottleneck_link = i;
      }
    }
  }
  if (!std::isfinite(p_star)) p_star = 0.0;
#if NCDRF_TRACE_ENABLED
  if (tracer_ != nullptr) {
    tracer_->end(obs::EventKind::kPStarSearch, input.now, bottleneck_link,
                 0, p_star);
  }
#endif
  if (p_star <= 0.0) return alloc;

  // Backfilling round one needs only O(L) state available before any flow
  // is touched: residual_i = C_i − P̂*·Σ_k (w_k/n̄_k)·live_k^i (from the
  // tracked vectors, no usage rescan), divided evenly among each link's
  // live flows. Converting residual_ into the per-link share vector here
  // lets the base DRF rate and the first backfill round land in a single
  // O(flows) pass below — set_rate(r_k + w) is bitwise identical to
  // set_rate(r_k) followed by add_rate(w).
  bool any_spare = false;
  const bool backfilling =
      options_.work_conserving && options_.backfill_rounds > 0;
  // The fused first round rides the base-rate pass below, so its flow loop
  // is not separable; backfill_seconds covers the residual prep and the
  // extra rounds, which is where the backfill-specific work lives. The
  // kBackfill span brackets the whole stage, fused pass included.
  if (backfilling) {
#if NCDRF_TRACE_ENABLED
    if (tracer_ != nullptr) {
      tracer_->begin(obs::EventKind::kBackfill, input.now);
    }
#endif
    const BackfillScope timer(perf_);
    residual_.resize(usage_.size());
    const std::vector<int>& counts = state_.live_link_counts();
    for (LinkId i = 0; i < fabric.num_links(); ++i) {
      const auto idx = static_cast<std::size_t>(i);
      const double unused =
          std::max(fabric.capacity(i) - p_star * usage_[idx], 0.0);
      if (counts[idx] > 0 && unused > 0.0) {
        residual_[idx] = unused / counts[idx];
        any_spare = true;
      } else {
        residual_[idx] = 0.0;
      }
    }
  }

  // Algorithm 1 lines 10-15: every flow of coflow k runs at
  // r_k = w_k · P̂*/n̄_k, so the coflow's aggregate on link i is
  // w_k · ĉ_k^i · P̂* (weights default to 1, recovering the paper's form).
  alloc.reserve(state_.id_end());
  for (const ActiveCoflow& coflow : input.coflows) {
    if (coflow.flows.empty()) continue;
    const LinkLoadState::CoflowLoad& cs = *state_.find(coflow.id);
    const double r_k =
        cs.bottleneck > 0 ? cs.weight * p_star / cs.bottleneck : 0.0;
    if (any_spare) {
      for (const ActiveFlow& f : coflow.flows) {
        const double w = std::min(
            residual_[static_cast<std::size_t>(fabric.uplink(f.src))],
            residual_[static_cast<std::size_t>(fabric.downlink(f.dst))]);
        alloc.set_rate(f.id, r_k + w);
      }
    } else {
      for (const ActiveFlow& f : coflow.flows) alloc.set_rate(f.id, r_k);
    }
  }

  // Rounds beyond the first work from actual usage, exactly as
  // even_backfill_cached's later rounds do (ablation configs only).
  int rounds_done = any_spare ? 1 : 0;
  if (any_spare && options_.backfill_rounds > 1) {
    const BackfillScope timer(perf_);
    link_usage(input, alloc, residual_);
    for (LinkId i = 0; i < fabric.num_links(); ++i) {
      const auto idx = static_cast<std::size_t>(i);
      residual_[idx] = fabric.capacity(i) - residual_[idx];
    }
    rounds_done +=
        even_backfill_cached(input, alloc, options_.backfill_rounds - 1,
                             state_.live_link_counts(), residual_);
  }
  if (backfilling) {
    perf_.backfill_rounds += rounds_done;
#if NCDRF_TRACE_ENABLED
    if (tracer_ != nullptr) {
      tracer_->end(obs::EventKind::kBackfill, input.now, rounds_done);
    }
#endif
  }
  return alloc;
}

}  // namespace ncdrf
