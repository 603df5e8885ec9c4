// PS-P baseline: FairCloud's "Proportional Sharing on Proximate Links"
// (Popa et al., SIGCOMM'12), the per-link-fairness alternative the paper
// argues against (Sec. III-B, Figs. 3-4).
//
// Inter-coflow: every link's capacity is divided *equally* among the
// coflows present on it. Intra-coflow: a coflow's share of a link is
// divided evenly among its flows on that link (it cannot do better — it
// does not know flow sizes). A flow can only run at the minimum of its
// uplink and downlink shares; the difference is the "wasted" bandwidth the
// paper attributes to PS-P's unawareness of coflow demand correlation.
// PS-P is work-conserving in FairCloud, so the same even backfilling used
// by NC-DRF is applied afterwards — any waste left is structural.
//
// Per-link presence counts come from the allocation-kernel layer's
// LinkLoadState, maintained incrementally under event-driven drivers
// instead of rebuilt as a dense coflows × links matrix every call. The
// redistribution rounds accumulate into the KernelScratch rate column —
// one flat sweep per round — and positive totals are committed once at
// the end.
#pragma once

#include <vector>

#include "alloc/kernel_scheduler.h"
#include "alloc/kernel_scratch.h"

namespace ncdrf {

struct PspOptions {
  bool work_conserving = true;
  int backfill_rounds = 1;
  // Mirror of NcDrfOptions::count_finished_flows, kept symmetric with
  // NC-DRF so the comparison isolates the *inter-coflow* policy. Default
  // (true, "stale"): finished flows keep defining a coflow's per-link
  // presence and intra-coflow split until the coflow departs, and their
  // share idles apart from redistribution. The adaptive variant is
  // "psp-live" in the registry.
  bool count_finished_flows = true;
};

class PspScheduler : public KernelScheduler {
 public:
  explicit PspScheduler(PspOptions options = {})
      : KernelScheduler(options.count_finished_flows), options_(options) {}

  std::string name() const override { return "PS-P"; }
  bool clairvoyant() const override { return false; }
  Allocation allocate(const ScheduleInput& input) override;

 private:
  PspOptions options_;
  KernelScratch scratch_;
  std::vector<double> residual_;
  std::vector<double> coflow_share_;  // residual_[i] / coflows_on_link[i]
};

}  // namespace ncdrf
