// Scheduler interface: the contract between the simulator / cluster master
// and every bandwidth-allocation policy.
//
// Clairvoyance is typed into the interface (DESIGN.md §4): the per-flow
// *remaining bytes* live behind ScheduleInput::clairvoyant, which the
// driver populates only for schedulers that declare clairvoyant() == true.
// Non-clairvoyant policies (NC-DRF, PS-P, per-flow fairness, Aalo) see only
// endpoints, flow counts, arrival times and *attained* service — exactly
// the information the paper allows them (Sec. III).
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "coflow/flow.h"
#include "fabric/fabric.h"
#include "sched/allocation.h"

namespace ncdrf {

// Observability hooks (src/obs/): schedulers may accept a tracer/metrics
// pair and expose perf counters, but the sched layer itself stays
// obs-free — everything is forward-declared and optional.
struct SchedPerf;
namespace obs {
class Tracer;
class MetricsRegistry;
}  // namespace obs

// One unfinished flow as the scheduler sees it: endpoints only.
struct ActiveFlow {
  FlowId id = -1;
  CoflowId coflow = -1;
  MachineId src = -1;
  MachineId dst = -1;
};

// One active coflow as the scheduler sees it.
struct ActiveCoflow {
  CoflowId id = -1;
  double arrival_time = 0.0;
  // Submitting tenant/client (-1 = unattributed). Tenant-aware policies
  // (karma) aggregate shares per tenant instead of per coflow; everything
  // else ignores it.
  int tenant = -1;
  // Relative share weight (tenant priority). Fair policies (NC-DRF, DRF)
  // scale a coflow's guaranteed progress by this; 1.0 = equal share.
  double weight = 1.0;
  // Total bits this coflow has transferred so far across all flows,
  // including already-finished ones. Observable without prior knowledge
  // (it is *attained* service, the signal Aalo's D-CLAS uses).
  double attained_bits = 0.0;
  std::vector<ActiveFlow> flows;  // unfinished flows only; non-empty
  // Endpoints of this coflow's flows that already finished. Observable
  // without size knowledge; lets schedulers choose between counting live
  // flows only (fully adaptive) or the coflow's original flow counts
  // (Algorithm 1 read literally — see NcDrfOptions::count_finished_flows).
  std::vector<ActiveFlow> finished_flows;
};

// Remaining per-flow demand, available to clairvoyant schedulers only.
class ClairvoyantInfo {
 public:
  // `remaining_bits` is indexed by dense FlowId.
  explicit ClairvoyantInfo(const std::vector<double>* remaining_bits)
      : remaining_bits_(remaining_bits) {
    NCDRF_CHECK(remaining_bits != nullptr, "remaining-bits vector required");
  }

  double remaining_bits(FlowId flow) const {
    NCDRF_CHECK(flow >= 0 && static_cast<std::size_t>(flow) <
                                 remaining_bits_->size(),
                "flow id out of range");
    return (*remaining_bits_)[static_cast<std::size_t>(flow)];
  }

 private:
  const std::vector<double>* remaining_bits_;
};

// Construction-time knobs shared by every policy the registry can build.
// `shards` > 1 partitions the fabric into that many contiguous rack groups
// and runs the allocation kernels per shard on a scheduler-owned thread
// pool (see alloc/shard.h); only drf and tcp accept it. shards == 1 keeps
// the serial path, which is bit-identical to the pre-shard code.
struct SchedulerOptions {
  int shards = 1;
};

// Snapshot handed to Scheduler::allocate at every scheduling event.
//
// Drivers may maintain the snapshot incrementally and hand the *same*
// object (with views updated in place) to consecutive allocate() calls —
// the simulator engine does. Schedulers must treat it as read-only and
// must not retain pointers/references into it across calls; anything
// worth keeping between events belongs in scheduler-owned state (see the
// event interface below).
struct ScheduleInput {
  const Fabric* fabric = nullptr;
  double now = 0.0;
  std::vector<ActiveCoflow> coflows;
  // Non-null iff the driver is serving a clairvoyant scheduler.
  const ClairvoyantInfo* clairvoyant = nullptr;
  // Total unfinished flows across all coflows, when the driver tracks it
  // (the simulator engine and the cluster master do); -1 when unknown.
  // Purely a sizing hint — schedulers use it to pre-size their rate tables
  // and flow lists without an extra O(coflows) pass; it never affects the
  // allocation itself.
  int total_live_flows = -1;
};

class Scheduler {
 public:
  virtual ~Scheduler() = default;

  virtual std::string name() const = 0;

  // Whether this policy requires remaining-size knowledge. Drivers populate
  // ScheduleInput::clairvoyant only when this returns true.
  virtual bool clairvoyant() const = 0;

  // Computes per-flow rates for the given snapshot. Must respect link
  // capacities; every returned rate must be non-negative; flows not
  // mentioned get rate 0.
  virtual Allocation allocate(const ScheduleInput& input) = 0;

  // Time until this policy's *internal* state would change the allocation
  // even with no arrival or completion (e.g. Aalo's coflows crossing
  // priority-queue thresholds). nullopt = no internal events.
  virtual std::optional<double> next_internal_event(
      const ScheduleInput& input, const Allocation& current) const {
    (void)input;
    (void)current;
    return std::nullopt;
  }

  // --- Optional observability interface ----------------------------------
  //
  // Drivers with an attached obs layer offer it to the scheduler before a
  // run; policies that instrument their hot path (NC-DRF) keep the
  // pointers, everyone else inherits the no-op. Either pointer may be
  // null. Counters exposed through perf_counters() are owned by the
  // scheduler and survive until it is destroyed (null = no counters).
  virtual void set_observers(obs::Tracer* tracer,
                             obs::MetricsRegistry* metrics) {
    (void)tracer;
    (void)metrics;
  }
  virtual const SchedPerf* perf_counters() const { return nullptr; }

  // --- Optional event-driven (incremental) interface ---------------------
  //
  // The DynamicSimulator and the cluster Master (under the deployment and
  // serve planes) track scheduling deltas and deliver them to schedulers
  // returning true from wants_events(), in event order:
  // on_reset() once per run before anything else, then on_coflow_arrival /
  // on_flow_finish / on_coflow_departure as the active set evolves. When a
  // coflow's last flow finishes, on_flow_finish fires before the coflow's
  // on_coflow_departure. Every subsequent allocate() snapshot is consistent
  // with the deltas delivered so far, which lets a scheduler maintain
  // per-coflow state in O(links touched) per event instead of rescanning
  // the snapshot.
  //
  // Schedulers must stay correct when the hooks are never called — direct
  // test harnesses (and HooklessScheduler-wrapped reference runs) hand
  // allocate() bare snapshots. The Master may also start over: it calls
  // on_reset() again when it resyncs without knowing what the scheduler
  // tracks (a restarted master). One source of events at a time per
  // scheduler instance.
  virtual bool wants_events() const { return false; }
  virtual void on_reset(const Fabric& fabric) { (void)fabric; }
  virtual void on_coflow_arrival(const ActiveCoflow& coflow) { (void)coflow; }
  virtual void on_flow_finish(const ActiveFlow& flow) { (void)flow; }
  virtual void on_coflow_departure(CoflowId id) { (void)id; }
};

// Total number of active flows in the snapshot.
int count_active_flows(const ScheduleInput& input);

// The snapshot's live-flow total: the driver-maintained hint when present,
// otherwise one O(coflows) counting pass.
int live_flows_hint(const ScheduleInput& input);

// Per-link active-flow counts over all coflows, indexed by LinkId.
std::vector<int> link_flow_counts(const ScheduleInput& input);

}  // namespace ncdrf
