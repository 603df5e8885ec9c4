// Event-driven fluid coflow simulator — the evaluation substrate
// (CoflowSim equivalent, DESIGN.md system #10).
//
// Model: between scheduling events, every flow transfers at a constant
// rate chosen by the Scheduler; link capacities at the fabric edge are the
// only constraints (non-blocking core). Events are:
//
//   * coflow arrival          (trace order)
//   * flow/coflow completion  (remaining bits reach zero)
//   * scheduler-internal      (e.g. Aalo priority-queue crossings)
//
// At each event the simulator advances state analytically over the elapsed
// interval, records time-weighted metrics for that interval, updates the
// active set, and asks the scheduler for a fresh allocation — exactly the
// NC-DRFOnline loop of Algorithm 1 generalized to all policies.
//
// Clairvoyance enforcement: ScheduleInput::clairvoyant is populated only
// when the scheduler declares clairvoyant() == true, so non-clairvoyant
// policies cannot read sizes even by accident.
#pragma once

#include <vector>

#include "fabric/fabric.h"
#include "sched/scheduler.h"
#include "trace/trace.h"

namespace ncdrf {

namespace scenario {
class WorkloadSource;
}  // namespace scenario

// Optional observability attachments (src/obs/, and the auditor in
// sim/audit.h); forward-declared so the sim API does not drag their headers
// into every includer.
namespace obs {
class Tracer;
class MetricsRegistry;
class FairnessAuditor;
}  // namespace obs

struct SimOptions {
  // Flows with fewer remaining bits than this are considered complete
  // (guards float drift; 1 bit ≪ any real flow).
  double completion_epsilon_bits = 1.0;

  // Record per-interval utilization/disparity samples (Figs. 5a, 5b).
  // Costs O(live flows + FlowId range/64) per event: the advance pass adds
  // each live flow's rate to its coflow's sums on its two links, each
  // coflow's progress reads the links its live flows touch, and the rate
  // sum walks the allocation's presence bitmap. Disable for CCT-only runs.
  bool record_intervals = true;

  // Record per-coflow progress time series (Fig. 8). Meant for small
  // workloads; O(coflows) samples per event.
  bool record_progress_timeseries = false;

  // Re-validate every allocation against link capacities (tests/debug).
  bool validate_allocations = false;

  // Check every ScheduleInput view against its coflow before every
  // allocate: the live and finished flows partition the coflow's flows,
  // the live ones in flow order, and each finished one is within the
  // completion epsilon of done (tests/debug; O(F log F) per event).
  bool verify_snapshot = false;

  // Hard safety limits; exceeding either throws (misbehaving scheduler).
  double max_time_s = 1e9;
  long long max_events = 100'000'000;

  // --- Observability (all optional, null = off) --------------------------
  //
  // Virtual-clock event tracer: arrivals, flow/coflow completions and the
  // allocate span per event, plus whatever the scheduler itself emits
  // (NC-DRF's nested phase spans). Also offered to the scheduler via
  // Scheduler::set_observers at run().
  obs::Tracer* tracer = nullptr;
  // Counters (arrivals/finishes/allocations) and histograms (allocate
  // latency via the scheduler, per-interval link utilization).
  obs::MetricsRegistry* metrics = nullptr;
  // Live Theorem 1 fairness audit: the engine feeds it every submission,
  // per-interval progress + dominant-link share, and every completion.
  // Implies the per-interval progress sums even when record_intervals and
  // record_progress_timeseries are off. Callers finalize()/export after
  // the run.
  obs::FairnessAuditor* auditor = nullptr;
};

// Outcome of one coflow in a run.
struct CoflowRecord {
  CoflowId id = -1;
  double arrival = 0.0;
  double completion = 0.0;
  double cct = 0.0;
  // Minimum possible CCT: the bottleneck link's transfer time running
  // alone in the fabric (denominator of the paper's shuffle slowdown).
  double min_cct = 0.0;
  int width = 0;
  double max_flow_bits = 0.0;
  double total_bits = 0.0;
};

// Time-weighted sample covering [t0, t1).
struct IntervalRecord {
  double t0 = 0.0;
  double t1 = 0.0;
  int active_coflows = 0;
  // Σ link usage across all 2m links (what Fig. 5b plots against the
  // "300 Gbps availability"); equals twice the sum of flow rates.
  double link_usage_bps = 0.0;
  // Instantaneous progress extremes across active coflows (Eq. 1,
  // remaining-demand correlation). min may be 0 under priority policies.
  double min_progress = 0.0;
  double max_progress = 0.0;
};

// Per-coflow progress over one interval (Fig. 8 time series).
struct ProgressSample {
  double t0 = 0.0;
  double t1 = 0.0;
  CoflowId coflow = -1;
  double progress = 0.0;
};

struct RunResult {
  // Indexed by CoflowId (dense, same order as trace.coflows).
  std::vector<CoflowRecord> coflows;
  std::vector<IntervalRecord> intervals;
  std::vector<ProgressSample> progress;
  double makespan = 0.0;
  double total_bits_delivered = 0.0;
  long long num_events = 0;
  long long num_allocations = 0;
};

// Replays `source` on `fabric` under `scheduler` — the scenario-spine
// entry point all workload kinds go through. Submissions become coflows
// (id, arrival, flows, weight, tenant = client) and every one completes
// (the simulator throws on scheduler-induced starvation where no event
// can ever fire).
RunResult simulate(const Fabric& fabric, scenario::WorkloadSource& source,
                   Scheduler& scheduler, const SimOptions& options = {});

// Trace convenience wrapper: adapts the trace through the spine.
RunResult simulate(const Fabric& fabric, const Trace& trace,
                   Scheduler& scheduler, const SimOptions& options = {});

}  // namespace ncdrf
