#include "alloc/waterfill.h"

#include <algorithm>
#include <bit>

#include "common/check.h"

namespace ncdrf {
namespace {

// The legacy solver froze every flow crossing a link whose residual fell
// within this band of zero; the kernel replicates the rule so both freeze
// the same flows at the same fill levels.
double freeze_tolerance(double available_bps) {
  return 1e-9 * std::max(available_bps, 1.0);
}

}  // namespace

void WaterfillKernel::solve(const Fabric& fabric,
                            const std::vector<WaterfillFlow>& flows,
                            const std::vector<double>& available_bps,
                            std::vector<double>& rates_out) {
  solve(fabric, flows, available_bps, /*link_mask=*/nullptr, rates_out);
}

void WaterfillKernel::solve(const Fabric& fabric,
                            const std::vector<WaterfillFlow>& flows,
                            const std::vector<double>& available_bps,
                            const std::vector<char>* link_mask,
                            std::vector<double>& rates_out) {
  const std::size_t n = flows.size();
  up_.resize(n);
  dn_.resize(n);
  w_.resize(n);
  for (std::size_t k = 0; k < n; ++k) {
    up_[k] = fabric.uplink(flows[k].src);
    dn_[k] = fabric.downlink(flows[k].dst);
    w_[k] = flows[k].weight;
  }
  rates_out.resize(n);
  solve(fabric, WaterfillProblem{n, up_.data(), dn_.data(), w_.data()},
        available_bps, link_mask, rates_out.data());
}

void WaterfillKernel::solve(const Fabric& fabric,
                            const WaterfillProblem& problem,
                            const std::vector<double>& available_bps,
                            const std::vector<char>* link_mask,
                            double* rates_out) {
  NCDRF_CHECK(available_bps.size() ==
                  static_cast<std::size_t>(fabric.num_links()),
              "available-capacity vector must cover all links");
  NCDRF_CHECK(link_mask == nullptr ||
                  link_mask->size() ==
                      static_cast<std::size_t>(fabric.num_links()),
              "link mask must cover all links");
  const std::size_t n = problem.num_flows;
  const auto num_links = static_cast<std::size_t>(fabric.num_links());
  if (n == 0) return;
  if (problem.weight != nullptr) {
    std::fill(rates_out, rates_out + n, 0.0);
    fill(num_links, problem, available_bps, link_mask, /*items_are_flows=*/true,
         rates_out);
    return;
  }

  // Unit weights: one item per (uplink, downlink) class, weighted by its
  // flow count. Uplinks are [0, M) and downlinks [M, 2M).
  const std::int32_t* up = problem.up;
  const std::int32_t* dn = problem.dn;
  const auto m = static_cast<std::size_t>(fabric.num_machines());
  const auto pair_of = [m](std::int32_t u, std::int32_t d) {
    return static_cast<std::size_t>(u) * m + static_cast<std::size_t>(d) - m;
  };
  if (pair_class_.size() < m * m) pair_class_.resize(m * m, -1);
  const std::size_t max_classes = std::min(n, m * m);
  class_up_.resize(max_classes);
  class_dn_.resize(max_classes);
  class_count_.resize(max_classes);
  std::size_t num_classes = 0;
  for (std::size_t k = 0; k < n; ++k) {
    std::int32_t& c = pair_class_[pair_of(up[k], dn[k])];
    if (c < 0) {
      c = static_cast<std::int32_t>(num_classes++);
      class_up_[static_cast<std::size_t>(c)] = up[k];
      class_dn_[static_cast<std::size_t>(c)] = dn[k];
      class_count_[static_cast<std::size_t>(c)] = 0.0;
    }
    class_count_[static_cast<std::size_t>(c)] += 1.0;
  }
  class_level_.assign(num_classes, 0.0);
  const WaterfillProblem classes{num_classes, class_up_.data(),
                                 class_dn_.data(), class_count_.data()};
  fill(num_links, classes, available_bps, link_mask, /*items_are_flows=*/false,
       class_level_.data());

  // Expand: a unit flow's rate is its class's fill level (1.0·Θ = Θ).
  for (std::size_t k = 0; k < n; ++k) {
    const std::int32_t c = pair_class_[pair_of(up[k], dn[k])];
    rates_out[k] = class_level_[static_cast<std::size_t>(c)];
  }
  for (std::size_t c = 0; c < num_classes; ++c) {
    pair_class_[pair_of(class_up_[c], class_dn_[c])] = -1;
  }
}

void WaterfillKernel::fill(std::size_t num_links, const WaterfillProblem& items,
                           const std::vector<double>& available_bps,
                           const std::vector<char>* link_mask,
                           bool items_are_flows, double* out) {
  const std::size_t n = items.num_flows;
  const std::int32_t* up = items.up;
  const std::int32_t* dn = items.dn;
  const double* w = items.weight;

  weight_.assign(num_links, 0.0);
  avail_.resize(num_links);
  theta_last_.assign(num_links, 0.0);
  tol_.resize(num_links);
  key_.resize(num_links);
  status_.assign(num_links, kRetired);
  frozen_.assign(n, 0);
  for (std::size_t i = 0; i < num_links; ++i) {
    avail_[i] = std::max(available_bps[i], 0.0);
    tol_[i] = freeze_tolerance(available_bps[i]);
  }

  // CSR adjacency (link → item indices) and per-link unfrozen weight:
  // straight-line sweeps over the flat columns.
  csr_offsets_.assign(num_links + 1, 0);
  for (std::size_t k = 0; k < n; ++k) {
    NCDRF_CHECK(w[k] > 0.0, "max-min weights must be positive");
    csr_offsets_[static_cast<std::size_t>(up[k]) + 1] += 1;
    csr_offsets_[static_cast<std::size_t>(dn[k]) + 1] += 1;
    weight_[static_cast<std::size_t>(up[k])] += w[k];
    weight_[static_cast<std::size_t>(dn[k])] += w[k];
  }
  for (std::size_t i = 0; i < num_links; ++i) {
    csr_offsets_[i + 1] += csr_offsets_[i];
  }
  csr_items_.resize(static_cast<std::size_t>(csr_offsets_[num_links]));
  csr_cursor_.assign(csr_offsets_.begin(), csr_offsets_.end() - 1);
  for (std::size_t k = 0; k < n; ++k) {
    csr_items_[static_cast<std::size_t>(
        csr_cursor_[static_cast<std::size_t>(up[k])]++)] =
        static_cast<std::int32_t>(k);
    csr_items_[static_cast<std::size_t>(
        csr_cursor_[static_cast<std::size_t>(dn[k])]++)] =
        static_cast<std::int32_t>(k);
  }

  // The live links, one bit each, and the dirty ones among them, each
  // listed once until the next scan refreshes its level.
  const std::size_t num_words = (num_links + 63) / 64;
  live_.assign(num_words, 0);
  dirty_.resize(num_links);
  std::size_t num_dirty = 0;
  for (std::size_t i = 0; i < num_links; ++i) {
    const bool masked_out = link_mask != nullptr && (*link_mask)[i] == 0;
    if (weight_[i] > 0.0 && !masked_out) {
      status_[i] = kDirty;
      live_[i / 64] |= std::uint64_t{1} << (i % 64);
      dirty_[num_dirty++] = static_cast<std::int32_t>(i);
    }
  }
  const auto retire = [&](std::size_t link) {
    status_[link] = kRetired;
    live_[link / 64] &= ~(std::uint64_t{1} << (link % 64));
  };

  // Freezes `link` at fill level theta: all its unfrozen items get their
  // output, and each such item's other endpoint link, unless retired, is
  // advanced to theta with the item's weight removed.
  const auto freeze_link = [&](std::size_t link, double theta) {
    const auto begin = static_cast<std::size_t>(csr_offsets_[link]);
    const auto end = static_cast<std::size_t>(csr_offsets_[link + 1]);
    for (std::size_t c = begin; c < end; ++c) {
      const auto k = static_cast<std::size_t>(csr_items_[c]);
      if (frozen_[k]) continue;
      frozen_[k] = 1;
      out[k] = items_are_flows ? w[k] * theta : theta;
      const auto u = static_cast<std::size_t>(up[k]);
      const std::size_t other = (u == link) ? static_cast<std::size_t>(dn[k])
                                            : u;
      if (status_[other] == kRetired) continue;
      avail_[other] = std::max(
          avail_[other] - (theta - theta_last_[other]) * weight_[other],
          0.0);
      theta_last_[other] = theta;
      weight_[other] -= w[k];
      // Only a clean link joins the dirty list. With no unfrozen weight
      // left the link never constrains again.
      dirty_[num_dirty] = static_cast<std::int32_t>(other);
      num_dirty += status_[other] == kClean ? 1 : 0;
      if (weight_[other] > 0.0) {
        status_[other] = kDirty;
      } else {
        retire(other);
      }
    }
  };

  // The live link with the smallest (saturation level, link id), or -1
  // when none is left: refreshes the dirty levels, then scans the live
  // bits in ascending id order.
  const auto next_saturation = [&]() -> std::int32_t {
    for (std::size_t d = 0; d < num_dirty; ++d) {
      const auto l = static_cast<std::size_t>(dirty_[d]);
      if (status_[l] != kDirty) continue;  // retired since it was listed
      key_[l] = theta_last_[l] + avail_[l] / weight_[l];
      status_[l] = kClean;
    }
    num_dirty = 0;
    std::int32_t best = -1;
    double best_key = 0.0;
    for (std::size_t word = 0; word < num_words; ++word) {
      for (std::uint64_t bits = live_[word]; bits != 0; bits &= bits - 1) {
        const std::size_t l =
            word * 64 + static_cast<std::size_t>(std::countr_zero(bits));
        // Ascending ids: a strict < keeps the lowest id among equal levels.
        if (key_[l] < best_key || best < 0) {
          best = static_cast<std::int32_t>(l);
          best_key = key_[l];
        }
      }
    }
    return best;
  };

  double theta = 0.0;
  std::int32_t next = next_saturation();
  while (next >= 0) {
    theta = std::max(key_[static_cast<std::size_t>(next)], theta);
    for (;;) {
      const auto link = static_cast<std::size_t>(next);
      retire(link);
      freeze_link(link, theta);
      next = next_saturation();
      if (next < 0) break;
      // Legacy tolerance cascade: the next link saturates at this fill
      // level, not at its own, when its residual here sits within its
      // freeze band.
      const auto j = static_cast<std::size_t>(next);
      const double resid =
          std::max(avail_[j] - (theta - theta_last_[j]) * weight_[j], 0.0);
      if (resid > tol_[j]) break;
    }
  }
}

void residual_capacity(const ScheduleInput& input, const Allocation& alloc,
                       std::vector<double>& out) {
  const Fabric& fabric = *input.fabric;
  out.assign(static_cast<std::size_t>(fabric.num_links()), 0.0);
  for (const ActiveCoflow& coflow : input.coflows) {
    for (const ActiveFlow& flow : coflow.flows) {
      const double r = alloc.rate(flow.id);
      out[static_cast<std::size_t>(fabric.uplink(flow.src))] += r;
      out[static_cast<std::size_t>(fabric.downlink(flow.dst))] += r;
    }
  }
  for (LinkId i = 0; i < fabric.num_links(); ++i) {
    const auto idx = static_cast<std::size_t>(i);
    out[idx] = fabric.capacity(i) - out[idx];
  }
}

void residual_capacity(const Fabric& fabric, const FlowTable& table,
                       std::vector<double>& out) {
  out.assign(static_cast<std::size_t>(fabric.num_links()), 0.0);
  for (std::size_t i = 0; i < table.num_flows; ++i) {
    const double r = table.rate[i];
    out[static_cast<std::size_t>(table.up[i])] += r;
    out[static_cast<std::size_t>(table.dn[i])] += r;
  }
  for (LinkId i = 0; i < fabric.num_links(); ++i) {
    const auto idx = static_cast<std::size_t>(i);
    out[idx] = fabric.capacity(i) - out[idx];
  }
}

void ResidualBackfill::run(const ScheduleInput& input, Allocation& alloc) {
  residual_capacity(input, alloc, residual_);
  for (double& r : residual_) r = std::max(r, 0.0);

  flows_.clear();
  for (const ActiveCoflow& coflow : input.coflows) {
    for (const ActiveFlow& flow : coflow.flows) {
      flows_.push_back({flow.id, flow.src, flow.dst, 1.0});
    }
  }
  kernel_.solve(*input.fabric, flows_, residual_, rates_);
  for (std::size_t k = 0; k < flows_.size(); ++k) {
    if (rates_[k] > 0.0) alloc.add_rate(flows_[k].id, rates_[k]);
  }
}

void ResidualBackfill::run(const Fabric& fabric, const FlowTable& table) {
  residual_capacity(fabric, table, residual_);
  for (double& r : residual_) r = std::max(r, 0.0);

  rates_.resize(table.num_flows);
  kernel_.solve(fabric,
                WaterfillProblem{table.num_flows, table.up, table.dn,
                                 /*weight=*/nullptr},
                residual_, /*link_mask=*/nullptr, rates_.data());
  for (std::size_t k = 0; k < table.num_flows; ++k) {
    if (rates_[k] > 0.0) table.rate[k] += rates_[k];
  }
}

}  // namespace ncdrf
