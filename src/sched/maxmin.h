// Network-wide (weighted) max-min fair water-filling over individual flows.
//
// This is both the "TCP" per-flow fairness baseline's core and the residual
// filling stage reused by Aalo and Varys: progressive filling where every
// unfrozen flow's rate grows in proportion to its weight until some link
// saturates, freezing the flows crossing that link (classic bottleneck
// algorithm, cf. Bertsekas & Gallager §6.5.2).
//
// The solver itself lives in the allocation-kernel layer
// (alloc/waterfill.h, a saturation-order kernel); these free functions are
// thin convenience wrappers over one-shot kernel instances for callers
// without per-call state. Policies on the allocate() hot path hold a
// WaterfillKernel / ResidualBackfill member instead and reuse its scratch.
#pragma once

#include <vector>

#include "alloc/waterfill.h"
#include "sched/scheduler.h"

namespace ncdrf {

// Flow descriptor shared with the kernel layer.
using MaxMinFlow = WaterfillFlow;

// Computes the weighted max-min rates for `flows` given per-link available
// capacity `available_bps` (indexed by LinkId; entries may be 0). Returns
// rates index-aligned with `flows`. The allocation saturates every link
// that constrains any flow (work-conserving in the max-min sense).
std::vector<double> weighted_max_min(const Fabric& fabric,
                                     const std::vector<MaxMinFlow>& flows,
                                     const std::vector<double>& available_bps);

// Adds max-min rates over the *residual* capacity left by `alloc` to every
// active flow in the snapshot, in place. Used as a work-conserving
// last-pass by priority schedulers.
void max_min_backfill(const ScheduleInput& input, Allocation& alloc);

}  // namespace ncdrf
