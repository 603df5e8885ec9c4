// Scheduler factory: every policy in the design space by its short name.
// Used by benches, examples and integration tests so experiment code never
// hard-codes concrete scheduler types.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "sched/scheduler.h"

namespace ncdrf {

// Known names (case-sensitive):
//   "ncdrf"       NC-DRF, Algorithm 1 (stale counts — the paper's
//                 simulated behaviour)
//   "ncdrf-live"  NC-DRF with live flow counts (the adaptive variant the
//                 EC2 prototype implements)
//   "drf", "hug"  clairvoyant isolation-optimal baselines
//   "psp", "psp-live"  FairCloud per-link fairness (stale/live counts)
//   "tcp"         per-flow max-min fairness
//   "persource", "perpair"  FairCloud's other flow-level policies
//   "aalo"        D-CLAS (non-clairvoyant performance-optimal)
//   "varys"       SEBF+MADD (clairvoyant performance-optimal)
//   "fifo"        Orchestra-style FIFO
//   "baraat"      FIFO-LM (decentralized task-aware)
//
// "drf" and "tcp" take an optional "@N" suffix ("drf@4", "tcp@8")
// selecting the sharded execution path with N link shards, 1 <= N <= 64 —
// shorthand for the SchedulerOptions overload below. Every other policy
// computes its allocation centrally, as the paper does, and accepts only
// N == 1: at 4 shards none of them ran 1.5x faster than serial.
// Throws CheckError on an unknown name or an unsupported shard count.
std::unique_ptr<Scheduler> make_scheduler(const std::string& name);

// Same factory with explicit scheduler-wide options (shard count). The
// plain overload parses the "@N" suffix and delegates here.
std::unique_ptr<Scheduler> make_scheduler(const std::string& name,
                                          const SchedulerOptions& options);

// All registered names, in the order the paper's evaluation lists them.
std::vector<std::string> scheduler_names();

}  // namespace ncdrf
