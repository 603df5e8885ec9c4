#include "cluster/master.h"

#include <algorithm>
#include <limits>

#include "common/check.h"

namespace ncdrf {
namespace {

constexpr double kNeverHeard = -std::numeric_limits<double>::infinity();

}  // namespace

Master::Master(const Fabric& fabric, Scheduler& scheduler,
               MasterOptions options, double start_time)
    : fabric_(fabric),
      scheduler_(scheduler),
      options_(options),
      deliver_events_(scheduler.wants_events()),
      clairvoyant_(scheduler.clairvoyant()),
      start_time_(start_time) {
  const auto machines = static_cast<std::size_t>(fabric.num_machines());
  unfinished_at_.assign(machines, 0);
  last_alive_.assign(machines, kNeverHeard);
  dead_.assign(machines, 0);
  slot_of_.assign(machines, -1);
  view_.fabric = &fabric_;
  if (clairvoyant_) view_.clairvoyant = &clairvoyant_info_;
}

bool Master::on_register(const RegisterCoflowMsg& msg) {
  NCDRF_CHECK(msg.coflow >= 0, "registration with invalid coflow id");
  NCDRF_CHECK(!msg.flows.empty() || !msg.finished_flows.empty(),
              "registration with no flows");
  // Idempotent: a registration that raced a master restart may arrive
  // twice (the original in flight on the bus plus the client's
  // re-registration). The first one wins — even when the coflow already
  // retired, which only its flow states remember.
  const FlowId probe =
      msg.flows.empty() ? msg.finished_flows.front().id : msg.flows.front().id;
  if (flow_states_.contains(probe) || active_.contains(msg.coflow)) {
    ++registrations_ignored_;
    return false;
  }
  // All or nothing: a registration that throws leaves the master as it
  // was, so every check runs before the first state change, and a flow id
  // the master holds (or the message repeats) undoes this call's inserts.
  // A non-positive weight would throw from the policy's arrival hook after
  // the coflow joined the view, and again at every later resync.
  NCDRF_CHECK(msg.weight > 0.0, "registration with a non-positive weight");
  const auto on_fabric = [&](MachineId m) {
    return m >= 0 && m < fabric_.num_machines();
  };
  for (const auto* flows : {&msg.flows, &msg.finished_flows}) {
    for (const Flow& f : *flows) {
      NCDRF_CHECK(on_fabric(f.src) && on_fabric(f.dst),
                  "registered flow has an endpoint outside the fabric");
      NCDRF_CHECK(f.coflow == msg.coflow,
                  "registered flow tagged with a different coflow id");
    }
  }
  for (const Flow& f : msg.flows) {
    NCDRF_CHECK(!clairvoyant_ || f.size_bits > 0.0,
                "clairvoyant scheduler needs registered flow sizes");
  }
  CoflowState state;
  state.id = msg.coflow;
  state.arrival_time = msg.arrival_time;
  state.weight = msg.weight;
  state.tenant = msg.tenant;
  state.trace_id = msg.trace_id;
  state.flows.reserve(msg.flows.size() + msg.finished_flows.size());
  const auto insert = [&](const Flow& f, bool finished) {
    // A finished flow was delivered in full: attained equals its
    // (observable) size.
    if (flow_states_
            .try_emplace(f.id, FlowState{f, finished,
                                         finished ? f.size_bits : 0.0})
            .second) {
      state.flows.push_back(f.id);
      return;
    }
    for (const FlowId id : state.flows) flow_states_.erase(id);
    NCDRF_CHECK(false, "duplicate flow registration");
  };
  for (const Flow& f : msg.flows) insert(f, false);
  for (const Flow& f : msg.finished_flows) insert(f, true);
  for (const Flow& f : msg.flows) {
    ++unfinished_at_[static_cast<std::size_t>(f.src)];
  }
  state.unfinished = static_cast<int>(msg.flows.size());
  if (msg.flows.empty()) ++retirable_;  // everything already delivered
  if (msg.trace_id != 0) any_traced_ = true;
  CoflowState& coflow =
      active_.emplace(msg.coflow, std::move(state)).first->second;
  order_.push_back(&coflow);
  dirty_ = true;
  // With no slave dead every live flow is visible, so the coflow joins
  // the view exactly when it has one.
  if (!incremental_ || msg.flows.empty()) return true;
  coflow.in_view = true;
  fill_entry(coflow, view_.coflows.emplace_back());
  if (deliver_events_) {
    // A hook that throws leaves the policy's tracked set unknown: the next
    // allocation resets and resyncs it.
    incremental_ = false;
    synced_ = false;
    scheduler_.on_coflow_arrival(view_.coflows.back());
    synced_ = true;
    incremental_ = true;
  }
  return true;
}

bool Master::mark_finished(FlowId flow) {
  const auto it = flow_states_.find(flow);
  // Lenient: a stale finish report may reach a freshly restarted master
  // before the coflow's re-registration does. It is repaired by the
  // finished_flows list of that re-registration.
  if (it == flow_states_.end() || it->second.finished) return false;
  FlowState& fs = it->second;
  fs.finished = true;
  --unfinished_at_[static_cast<std::size_t>(fs.flow.src)];
  // An unfinished flow state implies its coflow is still active.
  CoflowState& coflow = active_.at(fs.flow.coflow);
  if (--coflow.unfinished == 0) ++retirable_;
  dirty_ = true;
  if (incremental_) {
    // The flow was live and visible, so its coflow is in the view.
    coflow.refill = true;
    if (deliver_events_) {
      scheduler_.on_flow_finish(
          ActiveFlow{fs.flow.id, fs.flow.coflow, fs.flow.src, fs.flow.dst});
    }
  }
  return true;
}

void Master::retire_done_coflows() {
  if (retirable_ == 0) return;
  // One pass over the registration order compacts the view alongside it:
  // view_.coflows[v] belongs to the v-th coflow that is in_view.
  std::size_t kept = 0;
  std::size_t v = 0;
  std::size_t kept_view = 0;
  for (CoflowState* c : order_) {
    const bool view_entry = incremental_ && c->in_view;
    if (c->unfinished > 0) {
      order_[kept++] = c;
      if (view_entry) {
        if (kept_view != v) {
          view_.coflows[kept_view] = std::move(view_.coflows[v]);
        }
        ++kept_view;
        ++v;
      }
      continue;
    }
    if (view_entry) {
      ++v;
      if (deliver_events_) scheduler_.on_coflow_departure(c->id);
    }
    if (options_.forget_retired) {
      for (const FlowId f : c->flows) flow_states_.erase(f);
    }
    active_.erase(c->id);
  }
  order_.resize(kept);
  if (incremental_) view_.coflows.resize(kept_view);
  retirable_ = 0;
}

void Master::on_flow_finished(const FlowFinishedMsg& msg) {
  const auto it = flow_states_.find(msg.flow);
  if (it != flow_states_.end()) {
    // A finish report is a sign of life from the flow's source machine.
    note_alive(it->second.flow.src, msg.finish_time);
  }
  if (mark_finished(msg.flow)) retire_done_coflows();
}

void Master::on_flows_finished(const std::vector<FlowFinishedMsg>& msgs) {
  bool any = false;
  for (const FlowFinishedMsg& msg : msgs) {
    const auto it = flow_states_.find(msg.flow);
    if (it != flow_states_.end()) {
      note_alive(it->second.flow.src, msg.finish_time);
    }
    any = mark_finished(msg.flow) || any;
  }
  if (any) retire_done_coflows();
}

void Master::on_heartbeat(const HeartbeatMsg& msg, double now) {
  note_alive(msg.machine, now);
  // Heartbeats refine attained service (and the clairvoyant remaining-size
  // estimates); they do not by themselves force a reallocation.
  for (const auto& [flow, attained] : msg.attained_bits) {
    const auto it = flow_states_.find(flow);
    if (it == flow_states_.end() || !(attained > it->second.attained_bits)) {
      continue;
    }
    it->second.attained_bits = attained;
    if (incremental_) {
      // Retired coflows keep their flow states unless forgotten; only an
      // active coflow has a view entry to refill.
      const auto c = active_.find(it->second.flow.coflow);
      if (c != active_.end()) c->second.refill = true;
    }
  }
  // Repair channel for lost FlowFinished reports.
  bool any_finished = false;
  for (const FlowId f : msg.finished_flows) {
    any_finished = mark_finished(f) || any_finished;
  }
  if (any_finished) retire_done_coflows();
}

void Master::note_alive(MachineId machine, double now) {
  if (machine < 0 || machine >= fabric_.num_machines()) return;
  const auto m = static_cast<std::size_t>(machine);
  last_alive_[m] = std::max(last_alive_[m], now);
  if (dead_[m] != 0) {
    dead_[m] = 0;
    --num_dead_;
    ++slaves_revived_;
    // The revived slave's flows rejoin the view; recompute their shares.
    dirty_ = true;
    incremental_ = false;
  }
}

void Master::check_liveness(double now) {
  if (options_.heartbeat_timeout_s <= 0.0) return;
  // Only machines expected to heartbeat — those originating at least one
  // unfinished flow — can be declared dead. Idle machines legitimately
  // stay silent.
  for (std::size_t m = 0; m < unfinished_at_.size(); ++m) {
    const int unfinished = unfinished_at_[m];
    if (unfinished == 0 || dead_[m] != 0) continue;
    const double last =
        last_alive_[m] == kNeverHeard ? start_time_ : last_alive_[m];
    if (now - last > options_.heartbeat_timeout_s) {
      dead_[m] = 1;
      ++num_dead_;
      ++slaves_declared_dead_;
      flows_quarantined_ += unfinished;
      dirty_ = true;
      incremental_ = false;
    }
  }
}

void Master::fill_entry(const CoflowState& coflow, ActiveCoflow& entry) {
  entry.id = coflow.id;
  entry.arrival_time = coflow.arrival_time;
  entry.tenant = coflow.tenant;
  entry.weight = coflow.weight;
  entry.flows.clear();
  entry.finished_flows.clear();
  double attained = 0.0;
  for (const FlowId f : coflow.flows) {
    const FlowState& fs = flow_states_.at(f);
    attained += fs.attained_bits;
    if (fs.finished) {
      entry.finished_flows.push_back(
          ActiveFlow{fs.flow.id, fs.flow.coflow, fs.flow.src, fs.flow.dst});
      continue;
    }
    // Quarantine: flows originating at a dead slave are left out of the
    // view entirely, releasing their port shares to the survivors. Their
    // attained service still counts toward the coflow's progress.
    if (num_dead_ > 0 && slave_dead(fs.flow.src)) continue;
    entry.flows.push_back(
        ActiveFlow{fs.flow.id, fs.flow.coflow, fs.flow.src, fs.flow.dst});
    if (clairvoyant_) {
      // Remaining = registered size − attained (heartbeat view). Flow ids
      // are dense and grow with history, so the table only grows
      // (geometrically) and keeps what was written at retired ids:
      // zeroing it would make epoch cost grow with history, not load.
      const auto id = static_cast<std::size_t>(f);
      if (id >= remaining_estimate_.size()) {
        remaining_estimate_.resize(
            std::max(id + 1, 2 * remaining_estimate_.size()));
      }
      remaining_estimate_[id] =
          std::max(fs.flow.size_bits - fs.attained_bits, 0.0);
    }
  }
  entry.attained_bits = attained;
}

void Master::resync() {
  if (deliver_events_) {
    // The policy tracks exactly the entries of view_ once synced: messages
    // stop touching view_ when incremental upkeep stops. Replaying them
    // as departures keeps state the policy holds beyond the snapshot
    // (karma's credit banks) across a slave fault; a master that never
    // synced, or lost track, resets the policy instead.
    if (synced_) {
      for (const ActiveCoflow& entry : view_.coflows) {
        scheduler_.on_coflow_departure(entry.id);
      }
    } else {
      scheduler_.on_reset(fabric_);
    }
    synced_ = false;
  }
  std::size_t v = 0;
  for (CoflowState* c : order_) {
    if (v == view_.coflows.size()) view_.coflows.emplace_back();
    fill_entry(*c, view_.coflows[v]);
    c->in_view = !view_.coflows[v].flows.empty();
    c->refill = false;
    if (c->in_view) ++v;
  }
  view_.coflows.resize(v);
  if (deliver_events_) {
    for (const ActiveCoflow& entry : view_.coflows) {
      scheduler_.on_coflow_arrival(entry);
    }
    synced_ = true;
  }
  // Quarantine is applied above; while a slave stays dead its flows'
  // visibility is not tracked message by message, so every allocation
  // comes back here.
  incremental_ = num_dead_ == 0;
}

const ScheduleInput& Master::compute_allocation(
    double now, Allocation& alloc, std::vector<SlaveRates>& per_slave) {
  if (!incremental_) {
    resync();
  } else {
    auto entry = view_.coflows.begin();
    for (CoflowState* c : order_) {
      if (!c->in_view) continue;
      if (c->refill) {
        fill_entry(*c, *entry);
        c->refill = false;
      }
      ++entry;
    }
  }
  dirty_ = false;

  // One rate vector per originating machine (rates are enforced at the
  // sender, like tc/htb egress shaping), in machine-id order so callers
  // iterate slaves deterministically. A machine's view flows are its
  // unfinished flows, unless it is dead (quarantined: none).
  std::size_t slots = 0;
  int live_flows = 0;
  for (std::size_t m = 0; m < slot_of_.size(); ++m) {
    const int live = dead_[m] != 0 ? 0 : unfinished_at_[m];
    if (live == 0) {
      slot_of_[m] = -1;
      continue;
    }
    live_flows += live;
    slot_of_[m] = static_cast<int>(slots);
    if (slots == per_slave.size()) per_slave.emplace_back();
    SlaveRates& sr = per_slave[slots++];
    sr.machine = static_cast<MachineId>(m);
    sr.msg.rates_bps.clear();
    sr.msg.trace_ids.clear();
    sr.msg.rates_bps.reserve(static_cast<std::size_t>(live));
    if (any_traced_) sr.msg.trace_ids.reserve(static_cast<std::size_t>(live));
  }
  per_slave.resize(slots);
  view_.now = now;
  view_.total_live_flows = live_flows;
  alloc = Allocation();
  if (view_.coflows.empty()) return view_;

  alloc = scheduler_.allocate(view_);
  clamp_to_capacity(view_, alloc, clamp_scratch_);
  auto coflow = order_.begin();
  for (const ActiveCoflow& entry : view_.coflows) {
    while (!(*coflow)->in_view) ++coflow;
    const std::uint64_t trace = (*coflow++)->trace_id;
    for (const ActiveFlow& flow : entry.flows) {
      RateUpdateMsg& msg =
          per_slave[static_cast<std::size_t>(
                        slot_of_[static_cast<std::size_t>(flow.src)])]
              .msg;
      msg.rates_bps.emplace_back(flow.id, alloc.rate(flow.id));
      // Causal tagging rides along only when someone registered with a
      // trace id — untraced deployments keep the vectors empty.
      if (any_traced_) msg.trace_ids.push_back(trace);
    }
  }
  for (const SlaveRates& sr : per_slave) {
    NCDRF_CHECK(static_cast<int>(sr.msg.rates_bps.size()) ==
                    unfinished_at_[static_cast<std::size_t>(sr.machine)],
                "view and per-machine live-flow counts disagree");
  }
  return view_;
}

int Master::reallocate(double now, SimBus& bus) {
  Allocation alloc;
  std::vector<SlaveRates> per_slave;
  compute_allocation(now, alloc, per_slave);
  for (SlaveRates& sr : per_slave) {
    // Rate updates are best-effort; the periodic refresh re-sends them.
    bus.send_unreliable(now, slave_address(sr.machine), std::move(sr.msg));
  }
  return static_cast<int>(per_slave.size());
}

}  // namespace ncdrf
