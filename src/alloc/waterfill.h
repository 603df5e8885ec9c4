// Water-filling: the allocation-kernel layer's weighted max-min solver
// (classic bottleneck algorithm, cf. Bertsekas & Gallager §6.5.2) shared by
// the per-flow/endpoint fairness policies and every priority scheduler's
// residual backfilling pass.
//
// Progressive filling raises one fill level Θ; an item runs at weight·Θ
// until a link it crosses saturates, which freezes every unfrozen item on
// that link. The kernel takes saturations in (level, link id) order: each
// step picks the live link with the smallest saturation level, freezes its
// items at Θ and advances the one other link each frozen item crosses —
// residual, fill level and weight updated in O(1), the link marked dirty.
// The next step scans the live links, recomputing each dirty level once
// from the link's final state, and takes the (level, id) minimum.
//
// Items are flows or pair classes. A unit-weight problem (null weight
// column: `tcp`, and ResidualBackfill's SoA path under the priority
// schedulers) is grouped into (uplink, downlink) classes, solved with each
// class's flow count as its weight, and every member flow gets its class's
// fill level as its rate. All flows of a pair cross the same two links, so
// they freeze together. A weighted problem keeps one item per flow.
//
// Cost per solve: O(F) to group and expand F unit flows, O(P + L) for the
// freezes over P items (P ≤ min(F, M²) pair classes on M machines, or
// P = F flows when weighted), and O(S·L) for the scans over S ≤ L
// saturation steps. The scan bound is L² comparisons — 90k at 150 machines
// (300 links), the widest fabric in the repository; a fabric far wider
// would want a priority queue. The pair→class table holds M² int32 (90 KB at
// 150 machines); it persists across solves and is reset through the list
// of classes it assigned, so no solve pays O(M²).
//
// Why the class solve is bitwise the per-flow solve:
// - Unit link weights are sums of 1.0 or of integer class counts, exact
//   below 2^53, so every per-link weight, saturation level and drop-out
//   (weight reaching 0) is the same whether a class of m flows leaves a
//   link as one weight-m item or as m unit items.
// - A freeze reaches each other link through one class only (the classes
//   on a link have distinct other endpoints). Flow by flow, only the first
//   of that class's updates advances the link's fill level; the later ones
//   multiply by (Θ − Θ) = 0 and leave its residual as is. So one update
//   per class equals one per flow.
// - The scan takes the (level, id) minimum over levels computed from the
//   same final state the per-flow updates leave, so the pop order and the
//   tolerance cascade below are unchanged.
// The argument needs exact sums, so a problem carrying a weight column is
// never grouped, even an all-ones one: sums of general weights are not
// associative. That keeps the AoS adapters below (the shard layer, the
// maxmin.h helpers) on the per-flow path.
//
// The core solve consumes a structure-of-arrays problem (parallel
// up/dn/weight columns, see alloc/kernel_scratch.h): the CSR build and
// freeze sweeps run over flat int32/double arrays with no per-flow Fabric
// checks. The AoS WaterfillFlow entry points remain as thin adapters for
// the sharded path and the tests.
//
// Freeze semantics replicate the legacy solver's tolerance rule exactly
// (a link whose residual falls within 1e-9·max(avail, 1) of zero is
// saturated), so the two solvers freeze the same flows at the same fill
// levels and rates agree to floating-point accumulation order.
#pragma once

#include <cstdint>
#include <vector>

#include "alloc/kernel_scratch.h"
#include "sched/scheduler.h"

namespace ncdrf {

struct WaterfillFlow {
  FlowId id = -1;
  MachineId src = -1;
  MachineId dst = -1;
  double weight = 1.0;  // must be positive
};

// One max-min problem in structure-of-arrays form: index-aligned endpoint
// columns (pre-validated LinkIds: `up` an uplink, `dn` a downlink) and an
// optional weight column — null means unit weights, which the kernel
// solves over (uplink, downlink) pair classes.
struct WaterfillProblem {
  std::size_t num_flows = 0;
  const std::int32_t* up = nullptr;
  const std::int32_t* dn = nullptr;
  const double* weight = nullptr;  // null = all 1.0; else all positive
};

class WaterfillKernel {
 public:
  // Computes weighted max-min rates for `flows` given per-link available
  // capacity `available_bps` (indexed by LinkId; entries may be 0), into
  // `rates_out` (resized; index-aligned with `flows`). The allocation
  // saturates every link that constrains any flow. All scratch buffers are
  // members, so steady-state calls allocate nothing.
  void solve(const Fabric& fabric, const std::vector<WaterfillFlow>& flows,
             const std::vector<double>& available_bps,
             std::vector<double>& rates_out);

  // Shard-masked variant: links with link_mask[link] == 0 never saturate
  // and never cap a flow (they belong to another shard's subproblem), so
  // every flow's rate is decided by its in-mask links alone. Every flow
  // must touch at least one in-mask link or it would fill forever. A null
  // mask is the unmasked solve above, with arithmetic untouched — the
  // mask only prunes the live links and freeze updates, so shards == 1
  // remains bit-identical to the serial kernel.
  void solve(const Fabric& fabric, const std::vector<WaterfillFlow>& flows,
             const std::vector<double>& available_bps,
             const std::vector<char>* link_mask,
             std::vector<double>& rates_out);

  // SoA core both adapters above feed. `rates_out` must hold
  // problem.num_flows entries; each gets its flow's rate at the flow's
  // freeze, or 0 if it never freezes. A null weight column is solved over
  // pair classes, a weight column one item per flow (see above).
  void solve(const Fabric& fabric, const WaterfillProblem& problem,
             const std::vector<double>& available_bps,
             const std::vector<char>* link_mask, double* rates_out);

 private:
  // Link status during a solve. A retired link is frozen, masked out or
  // left without unfrozen weight; a dirty one needs its level recomputed.
  static constexpr char kRetired = 0;
  static constexpr char kClean = 1;
  static constexpr char kDirty = 2;

  // The saturation loop over `items` (flows when `items_are_flows`, else
  // pair classes of unit flows). Writes item i's output into out[i] at its
  // freeze — weight·Θ for a flow, Θ for a class (each member flow's rate);
  // entries of items that never freeze are left as the caller set them.
  void fill(std::size_t num_links, const WaterfillProblem& items,
            const std::vector<double>& available_bps,
            const std::vector<char>* link_mask, bool items_are_flows,
            double* out);

  // Unit-weight grouping. pair_class_ maps up·M + (dn − M) to a class
  // index; it holds -1 everywhere between solves.
  std::vector<std::int32_t> pair_class_;
  std::vector<std::int32_t> class_up_;
  std::vector<std::int32_t> class_dn_;
  std::vector<double> class_count_;  // member flows: the class's weight
  std::vector<double> class_level_;  // fill level the class froze at

  // CSR adjacency: link → item indices.
  std::vector<std::int32_t> csr_offsets_;
  std::vector<std::int32_t> csr_items_;
  std::vector<std::int32_t> csr_cursor_;

  // Per-link solver state, indexed by LinkId.
  std::vector<double> weight_;       // unfrozen weight crossing the link
  std::vector<double> avail_;        // residual capacity at theta_last
  std::vector<double> theta_last_;   // fill level avail_/weight_ refer to
  std::vector<double> tol_;          // legacy freeze tolerance
  std::vector<double> key_;          // saturation level of a clean link
  std::vector<char> status_;         // kRetired / kClean / kDirty
  std::vector<std::uint64_t> live_;  // bit per link not yet retired
  std::vector<std::int32_t> dirty_;  // links to refresh at the next scan

  std::vector<char> frozen_;  // per item

  // AoS adapter columns.
  std::vector<std::int32_t> up_;
  std::vector<std::int32_t> dn_;
  std::vector<double> w_;
};

// Writes capacity − usage per link into `out` (resized), accumulating the
// snapshot's flow rates in coflow-major order — the residual every
// backfilling pass starts from. Entries are not clamped; callers decide
// how to treat numerically negative residuals.
void residual_capacity(const ScheduleInput& input, const Allocation& alloc,
                       std::vector<double>& out);

// SoA twin: the same accumulation over a FlowTable's rate column (the
// table's rows are already coflow-major, so sums land in the same order).
void residual_capacity(const Fabric& fabric, const FlowTable& table,
                       std::vector<double>& out);

// Work-conserving last pass for the priority schedulers: water-fills the
// residual capacity left by the current rates max-min fairly (unit
// weights) across every active flow and adds the result in place.
// Equivalent to the legacy max_min_backfill; a persistent instance reuses
// all scratch.
class ResidualBackfill {
 public:
  void run(const ScheduleInput& input, Allocation& alloc);

  // SoA path: residual from (and fill added into) the table's rate
  // column; no Allocation traffic until the caller commits.
  void run(const Fabric& fabric, const FlowTable& table);

 private:
  WaterfillKernel kernel_;
  std::vector<WaterfillFlow> flows_;
  std::vector<double> residual_;
  std::vector<double> rates_;
};

}  // namespace ncdrf
