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
// Any kernel-backed name takes an optional "@N" suffix ("drf@4",
// "fifo@8") selecting the sharded execution path with N link shards —
// shorthand for the SchedulerOptions overload below. The ncdrf* policies
// and karma have no sharded path and accept only N == 1.
// Throws CheckError on an unknown name.
std::unique_ptr<Scheduler> make_scheduler(const std::string& name);

// Same factory with explicit scheduler-wide options (shard count). The
// plain overload parses the "@N" suffix and delegates here.
std::unique_ptr<Scheduler> make_scheduler(const std::string& name,
                                          const SchedulerOptions& options);

// All registered names, in the order the paper's evaluation lists them.
std::vector<std::string> scheduler_names();

}  // namespace ncdrf
