// Frozen pre-refactor reference implementations of every baseline policy,
// kept verbatim from before src/sched/ moved onto the allocation-kernel
// layer (persistent LinkLoadState, saturation-order water-filling, memoized
// demand cache).
//
// These are oracles, not production paths: the golden equivalence suite
// replays seeded instances through both a registry scheduler and its
// legacy twin and requires the rates to agree within 1e-9 of the capacity
// scale, and the scalability bench runs them side by side with the
// kernel-backed schedulers so the ≥2× events/s guard compares the two
// implementations on the same machine in the same run.
//
// Every function is stateless and recomputes everything from the snapshot
// — the O(K·L) dense matrices and repeated demand computations are the
// point. Options are fixed to the registry defaults ("psp-live" being the
// one non-default registry spelling).
#pragma once

#include <string>

#include "sched/scheduler.h"

namespace ncdrf {

// Allocates `input` under the pre-refactor implementation of the registry
// policy `name`. Supports every registry name except the ncdrf family
// (whose from-scratch twin is an NcDrfScheduler that never receives
// on_reset(), already cross-checked by the property suite): tcp,
// persource, perpair, psp, psp-live, drf, hug, aalo, varys, baraat, fifo.
Allocation legacy_allocate(const std::string& name,
                           const ScheduleInput& input);

// True for names legacy_allocate() accepts.
bool legacy_supports(const std::string& name);

}  // namespace ncdrf
