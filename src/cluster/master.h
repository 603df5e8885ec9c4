// Master: the centralized controller of the deployment (paper Sec. V-B).
//
// Mirrors the EC2 prototype's master: it accepts coflow registrations,
// tracks flow liveness from FlowFinished reports and attained service from
// heartbeats, runs the configured Scheduler (Algorithm 1 for NC-DRF) over
// its current view, and emits per-slave RateUpdate messages. The master
// only ever acts on its *view* — which lags reality by the bus latency —
// so the deployment exercises the control-staleness the real system has.
//
// The view is kept across allocations and changed only where a message
// changed it, as the prototype reruns Algorithm 1 when a coflow registers
// or a flow finishes: a registration appends the coflow's entry, a finish
// or heartbeat marks the entry for refill, a retirement removes it. A
// scheduler that wants_events() is driven through the same deltas
// (on_coflow_arrival / on_flow_finish / on_coflow_departure, in message
// order), so its own per-coflow state follows the view instead of being
// rebuilt from every snapshot. A resync rebuilds the view from the flow
// states and replays it to the scheduler — at the first allocation,
// whenever a slave is declared dead or revived, and at every allocation
// while any slave stays dead. The first resync of a master resets the
// policy (on_reset) before one arrival per view coflow, as a freshly
// started master would; later ones hand back the previous view as
// departures instead, so history the policy keeps beyond the snapshot
// (karma's credits) survives a slave fault.
//
// Fault tolerance: with a heartbeat timeout configured, a slave that stays
// silent past the timeout is declared dead; its flows are quarantined
// (excluded from the scheduling view, so their port shares flow back to
// the surviving coflows) until any message from the machine revives it.
// Registration is idempotent and finish reports are lenient, so replays
// and stale messages around a master restart are harmless.
//
// State is flat and recycled, so a serving master's steady arrival stream
// allocates nothing per coflow. Each active coflow owns a slot holding its
// flow states as one contiguous run in registration order; an IdMap finds
// a coflow's slot by id, and another finds each flow as (slot, index in
// the run), so a finish report costs one lookup and refilling a view entry
// walks the run with none. A retired coflow frees its slot, run capacity
// included, for the next registration; its flows are forgotten or (the
// default) kept as tombstones for idempotence. View entries and
// per-machine rate vectors that drop out go to spare pools the next ones
// are taken from, and RunSizers size every recycled run. Slots are reused
// in place, so nothing outside the master holds a reference to one.
#pragma once

#include <cstdint>
#include <vector>

#include "cluster/bus.h"
#include "common/id_map.h"
#include "common/run_sizer.h"
#include "fabric/fabric.h"
#include "sched/scheduler.h"

namespace ncdrf {

struct MasterOptions {
  // A slave with unfinished flows whose last sign of life is older than
  // this is declared dead by check_liveness. <= 0 disables liveness
  // tracking (every slave is trusted forever — the pre-fault behaviour).
  double heartbeat_timeout_s = 0.0;

  // Forget a coflow's flow ids when it retires. The default keeps each
  // one forever (as its id and source machine), which is what makes
  // re-registration after a master restart idempotent even for
  // already-retired coflows; long-running serving masters (src/serve/) set
  // this so memory stays proportional to the *active* set under a
  // sustained arrival stream. Only safe when clients never re-register
  // (the serving front-end's contract).
  bool forget_retired = false;
};

// One slave's fresh rate vector from compute_allocation.
struct SlaveRates {
  MachineId machine = -1;
  RateUpdateMsg msg;
};

class Master {
 public:
  // The master drives `scheduler`'s event hooks (when it wants them) from
  // its first allocation on; one master at a time per scheduler. A master
  // started on a scheduler another master drove (a restart) resets it at
  // that first allocation.
  Master(const Fabric& fabric, Scheduler& scheduler,
         MasterOptions options = {}, double start_time = 0.0);

  // The view and the registration order point into the master itself.
  Master(const Master&) = delete;
  Master& operator=(const Master&) = delete;

  // Message intake. Each may mark the view dirty. Any message from a
  // machine counts as a sign of life and revives it if declared dead.
  // on_register returns false when it ignored the registration (a coflow
  // or first flow id the master already holds; see the class comment). It
  // throws CheckError, and changes nothing, when the weight is not
  // positive, a flow has a negative id, an endpoint outside the fabric or
  // another coflow's id, or a flow id is one the master holds or the
  // message already listed.
  bool on_register(const RegisterCoflowMsg& msg);
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
  // liveness tracking is disabled. O(machines).
  void check_liveness(double now);

  // Recomputes the allocation from the current view and enqueues one
  // RateUpdate per machine that originates flows. Clears the dirty flag.
  // Returns the number of RateUpdate messages enqueued.
  int reallocate(double now, SimBus& bus);

  // The kernel half of reallocate, with the push policy left to the
  // caller: brings the view up to date (refilling only the entries a
  // message marked, or resyncing — see the class comment), runs one
  // Scheduler::allocate over it, clamps to capacity, and fills
  // `per_slave` with one rate vector per machine that originates live
  // flows, in machine-id order. Entries of `per_slave` are reused in place
  // (their vectors keep their capacity), so a caller that hands the same
  // vector every epoch allocates nothing in steady state. Clears the dirty
  // flag.
  //
  // The view holds every active coflow with a live, unquarantined flow, in
  // registration order; each entry's flows and finished_flows are in
  // registration order and its attained_bits is the sum over all its
  // flows in that order. The returned reference is the master's own view:
  // it stays valid for the master's lifetime, but the next message or
  // compute_allocation call may change it. `alloc` is overwritten. The
  // serving front-end (src/serve/) calls this once per epoch and applies
  // its own bounded-staleness push schedule.
  const ScheduleInput& compute_allocation(double now, Allocation& alloc,
                                          std::vector<SlaveRates>& per_slave);

  int active_coflows() const { return static_cast<int>(order_.size()); }
  bool slave_dead(MachineId machine) const {
    return machine >= 0 && machine < static_cast<MachineId>(dead_.size()) &&
           dead_[static_cast<std::size_t>(machine)] != 0;
  }
  int dead_slaves() const { return num_dead_; }

  // Liveness-outcome counters (monotone over the master's lifetime).
  long long slaves_declared_dead() const { return slaves_declared_dead_; }
  long long slaves_revived() const { return slaves_revived_; }
  long long flows_quarantined() const { return flows_quarantined_; }
  long long registrations_ignored() const { return registrations_ignored_; }

  // Causal trace id a coflow registered with (0 = untraced / unknown or
  // retired) — the id compute_allocation stamps on the coflow's entries
  // of the RateUpdateMsg trace_ids.
  std::uint64_t trace_id(CoflowId coflow) const {
    const std::int32_t* slot = coflow_slot_.find(coflow);
    return slot == nullptr
               ? 0
               : slots_[static_cast<std::size_t>(*slot)].trace_id;
  }

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
    std::uint64_t trace_id = 0;
    // Registration order: the message's flows, then its finished_flows.
    std::vector<FlowState> flows;
    int unfinished = 0;    // flows not yet marked finished
    bool in_view = false;  // has an entry in view_ (its arrival went out)
    bool refill = false;   // that entry is stale; refill before allocating
  };
  // Where a registered flow's state is: flows[index] of the coflow in
  // `slot`. A retired flow kept for idempotence (no forget_retired) is a
  // tombstone, slot -1; its source machine still takes a late finish
  // report as a sign of life.
  struct FlowRef {
    std::int32_t slot = -1;
    std::int32_t index = 0;
    MachineId src = -1;
  };

  // Marks `machine` alive as of `now`, reviving it if quarantined.
  void note_alive(MachineId machine, double now);
  // Marks a registered flow finished; returns true if it was a state
  // change (false for a tombstone or a flow already finished).
  bool mark_finished(const FlowRef& ref);
  // Drops coflows whose flows have all finished, with their view entries.
  // O(1) when nothing became retirable since the last sweep — the
  // per-coflow unfinished counters keep epoch cost proportional to load,
  // not to finish-report volume.
  void retire_done_coflows();
  // Fills one view entry from the coflow's flow states, leaving out flows
  // quarantined at a dead slave, and writes the remaining-size estimates
  // of its live flows for clairvoyant policies.
  void fill_entry(const CoflowState& coflow, ActiveCoflow& entry);
  // The from-scratch path: rebuilds the view from the flow states and
  // replays it to an event-driven scheduler. Message-by-message upkeep
  // resumes only when no slave is dead.
  void resync();

  const Fabric& fabric_;
  Scheduler& scheduler_;
  MasterOptions options_;
  const bool deliver_events_;  // scheduler_.wants_events()
  const bool clairvoyant_;     // scheduler_.clairvoyant()
  // Coflow slots, recycled: free_slots_ lists the ones whose coflow
  // retired, and the next registration takes the last of them in place,
  // so a CoflowState& is valid only until the next on_register (which
  // may also grow slots_). An active coflow is found by id through
  // coflow_slot_, and order_ holds the active slots in registration
  // order; a retiring coflow leaves both. flow_ref_ finds every flow the
  // master holds, tombstones included.
  std::vector<CoflowState> slots_;
  std::vector<std::int32_t> free_slots_;
  IdMap<std::int32_t> coflow_slot_;
  std::vector<std::int32_t> order_;
  IdMap<FlowRef> flow_ref_;
  RunSizer flow_runs_;   // the slots' flow runs
  RunSizer entry_runs_;  // view entries' flow lists
  RunSizer rate_runs_;   // compute_allocation's per-machine vectors
  bool any_traced_ = false;  // keeps the RateUpdate trace ids empty if not
  int retirable_ = 0;  // active coflows whose unfinished count hit zero
  // Per machine: unfinished flows it originates (liveness and the
  // per-slave split), last sign of life (-inf until a message arrives;
  // check_liveness reads the master's start time instead, so a freshly
  // registered flow is not instantly orphaned), and whether it is
  // declared dead.
  std::vector<int> unfinished_at_;
  std::vector<double> last_alive_;
  std::vector<char> dead_;
  int num_dead_ = 0;
  double start_time_ = 0.0;
  long long slaves_declared_dead_ = 0;
  long long slaves_revived_ = 0;
  long long flows_quarantined_ = 0;
  long long registrations_ignored_ = 0;
  // view_ follows the messages (see the class comment) only while this
  // holds; otherwise the next compute_allocation resyncs.
  bool incremental_ = false;
  // The event-driven policy tracks exactly the coflows of view_ (set by a
  // completed resync; a throwing hook clears it).
  bool synced_ = false;
  ScheduleInput view_;
  // Entries dropped from view_.coflows and from compute_allocation's
  // per_slave, kept for their vectors' capacity.
  std::vector<ActiveCoflow> spare_entries_;
  std::vector<SlaveRates> spare_rates_;
  // Remaining-size estimates (size − attained) for clairvoyant policies,
  // indexed by FlowId; grown geometrically, current at the view's live
  // flows only.
  std::vector<double> remaining_estimate_;
  const ClairvoyantInfo clairvoyant_info_{&remaining_estimate_};
  std::vector<double> clamp_scratch_;
  std::vector<int> slot_of_;  // machine -> its per_slave index, or -1
  bool dirty_ = false;
};

}  // namespace ncdrf
