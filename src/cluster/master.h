// Master: the centralized controller of the deployment (paper Sec. V-B).
//
// Mirrors the EC2 prototype's master: it accepts coflow registrations,
// tracks flow liveness from FlowFinished reports and attained service from
// heartbeats, runs the configured Scheduler (Algorithm 1 for NC-DRF) over
// its current view, and emits per-slave RateUpdate messages. The master
// only ever acts on its *view* — which lags reality by the bus latency —
// so the deployment exercises the control-staleness the real system has.
//
// Fault tolerance: with a heartbeat timeout configured, a slave that stays
// silent past the timeout is declared dead; its flows are quarantined
// (excluded from the scheduling view, so their port shares flow back to
// the surviving coflows) until any message from the machine revives it.
// Registration is idempotent and finish reports are lenient, so replays
// and stale messages around a master restart are harmless.
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "cluster/bus.h"
#include "fabric/fabric.h"
#include "sched/scheduler.h"

namespace ncdrf {

struct MasterOptions {
  // A slave with unfinished flows whose last sign of life is older than
  // this is declared dead by check_liveness. <= 0 disables liveness
  // tracking (every slave is trusted forever — the pre-fault behaviour).
  double heartbeat_timeout_s = 0.0;

  // Erase a coflow's per-flow states when it retires. The default keeps
  // them forever, which is what makes re-registration after a master
  // restart idempotent even for already-retired coflows; long-running
  // serving masters (src/serve/) set this so memory stays proportional to
  // the *active* set under a sustained arrival stream. Only safe when
  // clients never re-register (the serving front-end's contract).
  bool forget_retired = false;
};

// One slave's fresh rate vector from compute_allocation.
struct SlaveRates {
  MachineId machine = -1;
  RateUpdateMsg msg;
};

class Master {
 public:
  Master(const Fabric& fabric, Scheduler& scheduler,
         MasterOptions options = {}, double start_time = 0.0);

  // Message intake. Each may mark the view dirty. Any message from a
  // machine counts as a sign of life and revives it if declared dead.
  void on_register(const RegisterCoflowMsg& msg);
  void on_flow_finished(const FlowFinishedMsg& msg);
  // Batched intake for drivers that learn about many finishes at once (the
  // serving front-end retires whole coflows per epoch): marks every flow,
  // then runs the retirement sweep once instead of per message.
  void on_flows_finished(const std::vector<FlowFinishedMsg>& msgs);
  void on_heartbeat(const HeartbeatMsg& msg, double now);

  bool dirty() const { return dirty_; }

  // Declares dead every slave with unfinished flows that has been silent
  // past the heartbeat timeout. Quarantined flows leave the scheduling
  // view, so the next reallocate releases their port shares. No-op when
  // liveness tracking is disabled.
  void check_liveness(double now);

  // Recomputes the allocation from the current view and enqueues one
  // RateUpdate per machine that originates flows. Clears the dirty flag.
  // Returns the number of RateUpdate messages enqueued.
  int reallocate(double now, SimBus& bus);

  // The kernel half of reallocate, with the push policy left to the
  // caller: rebuilds the view, runs one Scheduler::allocate over it,
  // clamps to capacity, and fills `per_slave` with one rate vector per
  // machine that originates live flows, sorted by machine id
  // (deterministic order). Clears the dirty flag. The returned view stays
  // valid until the next compute_allocation/reallocate call; `alloc` is
  // overwritten. The serving front-end (src/serve/) calls this once per
  // epoch and applies its own bounded-staleness push schedule.
  const ScheduleInput& compute_allocation(double now, Allocation& alloc,
                                          std::vector<SlaveRates>& per_slave);

  int active_coflows() const;
  bool slave_dead(MachineId machine) const {
    return dead_slaves_.contains(machine);
  }
  int dead_slaves() const { return static_cast<int>(dead_slaves_.size()); }

  // Liveness-outcome counters (monotone over the master's lifetime).
  long long slaves_declared_dead() const { return slaves_declared_dead_; }
  long long slaves_revived() const { return slaves_revived_; }
  long long flows_quarantined() const { return flows_quarantined_; }
  long long registrations_ignored() const { return registrations_ignored_; }

 private:
  struct FlowState {
    Flow flow;           // size_bits is 0 unless the coflow registered sizes
    bool finished = false;
    double attained_bits = 0.0;  // last heartbeat report
  };
  struct CoflowState {
    CoflowId id = -1;
    double arrival_time = 0.0;
    double weight = 1.0;
    int tenant = -1;
    bool sizes_known = false;
    std::vector<FlowId> flows;
  };

 public:
  // Causal trace id a coflow registered with (0 = untraced / unknown or
  // retired). The serving front-end reads this back when pairing pushes
  // with submissions; the RateUpdateMsg trace_ids are filled from it.
  std::uint64_t trace_id(CoflowId coflow) const {
    const auto it = trace_ids_.find(coflow);
    return it == trace_ids_.end() ? 0 : it->second;
  }

 private:

  ScheduleInput build_view(double now) const;
  // Marks `machine` alive as of `now`, reviving it if quarantined.
  void note_alive(MachineId machine, double now);
  // Marks one flow finished; returns true if it was a state change.
  bool mark_finished(FlowId flow);
  // Drops coflows whose flows have all finished. O(1) when nothing became
  // retirable since the last sweep — the per-coflow unfinished counters
  // keep epoch cost proportional to load, not to finish-report volume.
  void retire_done_coflows();

  const Fabric& fabric_;
  Scheduler& scheduler_;
  MasterOptions options_;
  std::vector<CoflowState> coflows_;
  std::unordered_map<FlowId, FlowState> flow_states_;
  // Submission trace ids of *active* traced coflows (erased on
  // retirement). any_traced_ keeps the RateUpdate fill a no-op for
  // untraced deployments.
  std::unordered_map<CoflowId, std::uint64_t> trace_ids_;
  bool any_traced_ = false;
  // Live (unfinished, per mark_finished) flow count per *active* coflow —
  // one entry per element of coflows_, erased on retirement. Makes the
  // duplicate-registration check and the all-flows-finished test O(1).
  std::unordered_map<CoflowId, int> unfinished_;
  int retirable_ = 0;  // active coflows whose unfinished count hit zero
  // Last sign of life per machine; machines never heard from default to
  // the master's start time (a freshly registered flow is not instantly
  // orphaned).
  std::unordered_map<MachineId, double> last_alive_;
  std::unordered_set<MachineId> dead_slaves_;
  double start_time_ = 0.0;
  long long slaves_declared_dead_ = 0;
  long long slaves_revived_ = 0;
  long long flows_quarantined_ = 0;
  long long registrations_ignored_ = 0;
  // Remaining-size estimates (size − attained) for clairvoyant policies,
  // indexed by FlowId; grown geometrically, current at active ids only.
  mutable std::vector<double> remaining_estimate_;
  // The view and clairvoyant wrapper of the last compute_allocation call;
  // members so the returned ScheduleInput reference stays valid and the
  // buffers are reused across epochs.
  ScheduleInput view_;
  std::unique_ptr<ClairvoyantInfo> clairvoyant_info_;
  std::vector<double> clamp_scratch_;
  bool dirty_ = false;
};

}  // namespace ncdrf
