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
  id_end_ = 0;
  const auto links = static_cast<std::size_t>(fabric.num_links());
  live_link_counts_.assign(links, 0);
  counted_coflows_on_link_.assign(links, 0);
  link_row_.resize(links);
}

const LinkLoadState::CoflowLoad& LinkLoadState::add_coflow(
    const ActiveCoflow& coflow) {
  NCDRF_CHECK(bound(), "LinkLoadState used before reset()");
  NCDRF_CHECK(coflow.weight > 0.0, "coflow weights must be positive");
  // Build the run in the scratch first, so an endpoint check that throws
  // midway leaves the tracked state untouched. A link's scratch entry is
  // its row only if it points into this run at a row for that link; any
  // other value was left by an earlier arrival, so the scratch never needs
  // resetting.
  rows_scratch_.clear();
  const auto count = [&](LinkId link, int live) {
    auto r = static_cast<std::size_t>(link_row_[index(link)]);
    if (r >= rows_scratch_.size() || rows_scratch_[r].link != link) {
      r = rows_scratch_.size();
      link_row_[index(link)] = static_cast<std::int32_t>(r);
      rows_scratch_.push_back(LinkRow{link, 0, 0});
    }
    rows_scratch_[r].counted += 1;
    rows_scratch_[r].live += live;
  };
  FlowId max_id = -1;
  for (const ActiveFlow& f : coflow.flows) {
    count(fabric_->uplink(f.src), 1);
    count(fabric_->downlink(f.dst), 1);
    max_id = std::max(max_id, f.id);
  }
  int counted_flows = static_cast<int>(coflow.flows.size());
  if (count_finished_flows_) {
    // Already-finished flows (snapshots adopted mid-run) stay counted
    // under stale presence semantics; they never contribute to `live`.
    for (const ActiveFlow& f : coflow.finished_flows) {
      count(fabric_->uplink(f.src), 0);
      count(fabric_->downlink(f.dst), 0);
    }
    counted_flows += static_cast<int>(coflow.finished_flows.size());
  }

  const auto [it, inserted] = coflows_.try_emplace(coflow.id);
  NCDRF_CHECK(inserted, "duplicate coflow arrival");
  CoflowLoad& cs = it->second;
  cs.weight = coflow.weight;
  cs.live_flows = static_cast<int>(coflow.flows.size());
  cs.counted_flows = counted_flows;
  cs.rows.assign(rows_scratch_.begin(), rows_scratch_.end());
  id_end_ = std::max(id_end_, static_cast<std::size_t>(max_id + 1));
  for (const LinkRow& row : cs.rows) {
    // Every row holds at least one counted flow at arrival.
    live_link_counts_[index(row.link)] += row.live;
    counted_coflows_on_link_[index(row.link)] += 1;
    cs.bottleneck = std::max(cs.bottleneck, row.counted);
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
  const LinkId u = fabric_->uplink(flow.src);
  const LinkId d = fabric_->downlink(flow.dst);
  LinkRow* up = nullptr;
  LinkRow* dn = nullptr;
  for (LinkRow& row : cs.rows) {
    if (row.link == u) up = &row;
    if (row.link == d) dn = &row;
    if (up != nullptr && dn != nullptr) break;
  }
  NCDRF_CHECK(up != nullptr && dn != nullptr && up->live > 0 && dn->live > 0,
              "flow finish on a link its coflow has no live flow on");
  up->live -= 1;
  dn->live -= 1;
  cs.live_flows -= 1;
  live_link_counts_[index(u)] -= 1;
  live_link_counts_[index(d)] -= 1;
  // Stale counting: the flow stays counted until its coflow departs.
  if (count_finished_flows_) return cs;
  up->counted -= 1;
  dn->counted -= 1;
  cs.counted_flows -= 1;
  // The rows stay at zero, so the run never changes shape before the
  // departure.
  if (up->counted == 0) counted_coflows_on_link_[index(u)] -= 1;
  if (dn->counted == 0) counted_coflows_on_link_[index(d)] -= 1;
  // Two counts fell by one, so n̄_k can only have fallen if one of them
  // sat at it.
  if (up->counted + 1 == cs.bottleneck || dn->counted + 1 == cs.bottleneck) {
    int fresh = 0;
    for (const LinkRow& row : cs.rows) fresh = std::max(fresh, row.counted);
    cs.bottleneck = fresh;
  }
  return cs;
}

LinkLoadState::CoflowLoad LinkLoadState::remove_coflow(CoflowId id) {
  NCDRF_CHECK(bound(), "LinkLoadState used before reset()");
  auto node = coflows_.extract(id);
  NCDRF_CHECK(!node.empty(), "departure for untracked coflow");
  CoflowLoad& cs = node.mapped();
  for (const LinkRow& row : cs.rows) {
    live_link_counts_[index(row.link)] -= row.live;
    if (row.counted > 0) counted_coflows_on_link_[index(row.link)] -= 1;
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
  NCDRF_CHECK(fresh.id_end_ <= id_end_, "flow id bound below a live id");
  // Row order follows the event order, and live-mode maintenance keeps
  // rows whose counts fell back to zero, which a fresh rebuild never
  // writes. Compare the rows with a positive count as sets (rows of
  // distinct links sort by link); a duplicated link makes the sets differ
  // in size.
  const auto positive_rows = [](const CoflowLoad& load) {
    std::vector<LinkRow> rows;
    for (const LinkRow& row : load.rows) {
      NCDRF_CHECK(row.live >= 0 && row.live <= row.counted,
                  "row live count outside [0, counted]");
      if (row.counted > 0) rows.push_back(row);
    }
    std::sort(rows.begin(), rows.end());
    return rows;
  };
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
    NCDRF_CHECK(positive_rows(mine) == positive_rows(cs),
                "per-link coflow counts diverged from rebuild");
  }
}

}  // namespace ncdrf
