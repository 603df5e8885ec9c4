#include "alloc/link_state.h"

#include <algorithm>
#include <utility>

#include "common/check.h"

namespace ncdrf {

LinkLoadState::LinkLoadState(bool count_finished_flows)
    : count_finished_flows_(count_finished_flows) {}

void LinkLoadState::reset(const Fabric& fabric) {
  fabric_ = &fabric;
  coflows_.clear();
  live_link_counts_.assign(static_cast<std::size_t>(fabric.num_links()), 0);
  counted_coflows_on_link_.assign(
      static_cast<std::size_t>(fabric.num_links()), 0);
}

void LinkLoadState::apply_flow(CoflowLoad& cs, MachineId src, MachineId dst,
                               int sign, int counted_delta) {
  const std::size_t u = index(fabric_->uplink(src));
  const std::size_t d = index(fabric_->downlink(dst));
  cs.live[u] += sign;
  cs.live[d] += sign;
  cs.live_flows += sign;
  live_link_counts_[u] += sign;
  live_link_counts_[d] += sign;
  if (counted_delta != 0) {
    // Links are only ever *added* to a coflow at arrival (finishing a flow
    // never introduces a new link), so the 0→1 transition below fires at
    // most once per (coflow, link) and `touched` stays duplicate-free.
    cs.counted[u] += counted_delta;
    cs.counted[d] += counted_delta;
    cs.counted_flows += counted_delta;
    for (const std::size_t l : {u, d}) {
      if (counted_delta > 0 && cs.counted[l] == 1) {
        cs.touched.push_back(static_cast<LinkId>(l));
        counted_coflows_on_link_[l] += 1;
      } else if (counted_delta < 0 && cs.counted[l] == 0) {
        counted_coflows_on_link_[l] -= 1;
      }
    }
  }
}

const LinkLoadState::CoflowLoad& LinkLoadState::add_coflow(
    const ActiveCoflow& coflow) {
  NCDRF_CHECK(bound(), "LinkLoadState used before reset()");
  NCDRF_CHECK(coflow.weight > 0.0, "coflow weights must be positive");
  const auto [it, inserted] = coflows_.try_emplace(coflow.id);
  NCDRF_CHECK(inserted, "duplicate coflow arrival");
  CoflowLoad& cs = it->second;
  cs.weight = coflow.weight;
  const auto links = static_cast<std::size_t>(fabric_->num_links());
  cs.counted.assign(links, 0);
  cs.live.assign(links, 0);
  for (const ActiveFlow& f : coflow.flows) {
    apply_flow(cs, f.src, f.dst, +1, +1);
  }
  if (count_finished_flows_) {
    // Already-finished flows (snapshots adopted mid-run) stay counted
    // under stale presence semantics; they never contribute to `live`.
    for (const ActiveFlow& f : coflow.finished_flows) {
      const std::size_t u = index(fabric_->uplink(f.src));
      const std::size_t d = index(fabric_->downlink(f.dst));
      cs.counted[u] += 1;
      cs.counted[d] += 1;
      cs.counted_flows += 1;
      for (const std::size_t l : {u, d}) {
        if (cs.counted[l] == 1) {
          cs.touched.push_back(static_cast<LinkId>(l));
          counted_coflows_on_link_[l] += 1;
        }
      }
    }
  }
  for (const LinkId l : cs.touched) {
    cs.bottleneck = std::max(cs.bottleneck, cs.counted[index(l)]);
  }
  return cs;
}

const LinkLoadState::CoflowLoad& LinkLoadState::finish_flow(
    const ActiveFlow& flow) {
  NCDRF_CHECK(bound(), "LinkLoadState used before reset()");
  const auto it = coflows_.find(flow.coflow);
  NCDRF_CHECK(it != coflows_.end(), "flow finish for untracked coflow");
  CoflowLoad& cs = it->second;
  NCDRF_CHECK(cs.live_flows > 0, "flow finish with no live flows");
  apply_flow(cs, flow.src, flow.dst, -1, count_finished_flows_ ? 0 : -1);
  if (count_finished_flows_) return cs;
  // Two counts fell by one, so n̄_k can only have fallen if one of them
  // sat at it.
  const std::size_t u = index(fabric_->uplink(flow.src));
  const std::size_t d = index(fabric_->downlink(flow.dst));
  if (cs.counted[u] + 1 == cs.bottleneck ||
      cs.counted[d] + 1 == cs.bottleneck) {
    int fresh = 0;
    for (const LinkId l : cs.touched) {
      fresh = std::max(fresh, cs.counted[index(l)]);
    }
    cs.bottleneck = fresh;
  }
  return cs;
}

LinkLoadState::CoflowLoad LinkLoadState::remove_coflow(CoflowId id) {
  NCDRF_CHECK(bound(), "LinkLoadState used before reset()");
  auto node = coflows_.extract(id);
  NCDRF_CHECK(!node.empty(), "departure for untracked coflow");
  CoflowLoad& cs = node.mapped();
  for (const LinkId l : cs.touched) {
    const std::size_t i = index(l);
    live_link_counts_[i] -= cs.live[i];
    if (cs.counted[i] > 0) counted_coflows_on_link_[i] -= 1;
  }
  return std::move(cs);
}

void LinkLoadState::rebuild(const ScheduleInput& input) {
  NCDRF_CHECK(input.fabric != nullptr, "snapshot without a fabric");
  reset(*input.fabric);
  for (const ActiveCoflow& coflow : input.coflows) add_coflow(coflow);
}

bool LinkLoadState::matches(const ScheduleInput& input) const {
  if (fabric_ != input.fabric) return false;
  if (coflows_.size() != input.coflows.size()) return false;
  for (const ActiveCoflow& coflow : input.coflows) {
    const auto it = coflows_.find(coflow.id);
    if (it == coflows_.end()) return false;
    const CoflowLoad& cs = it->second;
    if (cs.weight != coflow.weight) return false;
    if (cs.live_flows != static_cast<int>(coflow.flows.size())) return false;
    const int expected_counted =
        static_cast<int>(coflow.flows.size()) +
        (count_finished_flows_
             ? static_cast<int>(coflow.finished_flows.size())
             : 0);
    if (cs.counted_flows != expected_counted) return false;
  }
  return true;
}

void LinkLoadState::check_consistent(const ScheduleInput& input) const {
  LinkLoadState fresh(count_finished_flows_);
  fresh.rebuild(input);
  NCDRF_CHECK(fresh.coflows_.size() == coflows_.size(),
              "link-load state tracks a different coflow set");
  NCDRF_CHECK(fresh.live_link_counts_ == live_link_counts_,
              "per-link live totals diverged from rebuild");
  NCDRF_CHECK(fresh.counted_coflows_on_link_ == counted_coflows_on_link_,
              "per-link coflow presence diverged from rebuild");
  for (const auto& [id, cs] : fresh.coflows_) {
    const auto it = coflows_.find(id);
    NCDRF_CHECK(it != coflows_.end(), "coflow missing from tracked state");
    const CoflowLoad& mine = it->second;
    NCDRF_CHECK(mine.weight == cs.weight, "coflow weight diverged");
    NCDRF_CHECK(mine.bottleneck == cs.bottleneck,
                "coflow bottleneck diverged from rebuild");
    NCDRF_CHECK(mine.live_flows == cs.live_flows &&
                    mine.counted_flows == cs.counted_flows,
                "coflow flow totals diverged from rebuild");
    NCDRF_CHECK(mine.counted == cs.counted && mine.live == cs.live,
                "per-link coflow counts diverged from rebuild");
    // `touched` order may differ between event orderings, and live-mode
    // incremental maintenance legitimately retains links whose last
    // counted flow finished (counted back at zero) — a fresh rebuild never
    // records those. Compare the effective sets: touched links whose count
    // is still positive. The dense `counted` vectors were compared above,
    // so this also proves every positive-count link is present in both.
    const auto effective = [](const CoflowLoad& load) {
      std::vector<LinkId> links;
      for (const LinkId l : load.touched) {
        if (load.counted[static_cast<std::size_t>(l)] > 0) {
          links.push_back(l);
        }
      }
      std::sort(links.begin(), links.end());
      return links;
    };
    NCDRF_CHECK(effective(mine) == effective(cs),
                "touched-link sets diverged from rebuild");
  }
}

}  // namespace ncdrf
