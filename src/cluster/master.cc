#include "cluster/master.h"

#include <algorithm>

#include "common/check.h"

namespace ncdrf {

Master::Master(const Fabric& fabric, Scheduler& scheduler,
               MasterOptions options, double start_time)
    : fabric_(fabric),
      scheduler_(scheduler),
      options_(options),
      start_time_(start_time) {}

void Master::on_register(const RegisterCoflowMsg& msg) {
  NCDRF_CHECK(msg.coflow >= 0, "registration with invalid coflow id");
  NCDRF_CHECK(!msg.flows.empty() || !msg.finished_flows.empty(),
              "registration with no flows");
  // Idempotent: a registration that raced a master restart may arrive
  // twice (the original in flight on the bus plus the client's
  // re-registration). The first one wins — even when the coflow already
  // retired, which only its flow states remember.
  const FlowId probe =
      msg.flows.empty() ? msg.finished_flows.front().id : msg.flows.front().id;
  const bool known =
      flow_states_.contains(probe) || unfinished_.contains(msg.coflow);
  if (known) {
    ++registrations_ignored_;
    return;
  }
  CoflowState state;
  state.id = msg.coflow;
  state.arrival_time = msg.arrival_time;
  state.weight = msg.weight;
  state.tenant = msg.tenant;
  state.sizes_known = msg.sizes_known;
  for (const Flow& f : msg.flows) {
    NCDRF_CHECK(!flow_states_.contains(f.id), "duplicate flow registration");
    flow_states_[f.id] = FlowState{f, false, 0.0};
    state.flows.push_back(f.id);
  }
  for (const Flow& f : msg.finished_flows) {
    NCDRF_CHECK(!flow_states_.contains(f.id), "duplicate flow registration");
    // Already delivered in full: attained equals the (observable) size.
    flow_states_[f.id] = FlowState{f, true, f.size_bits};
    state.flows.push_back(f.id);
  }
  unfinished_[msg.coflow] = static_cast<int>(msg.flows.size());
  if (msg.flows.empty()) ++retirable_;  // everything already delivered
  if (msg.trace_id != 0) {
    trace_ids_[msg.coflow] = msg.trace_id;
    any_traced_ = true;
  }
  coflows_.push_back(std::move(state));
  dirty_ = true;
}

bool Master::mark_finished(FlowId flow) {
  const auto it = flow_states_.find(flow);
  // Lenient: a stale finish report may reach a freshly restarted master
  // before the coflow's re-registration does. It is repaired by the
  // finished_flows list of that re-registration.
  if (it == flow_states_.end() || it->second.finished) return false;
  it->second.finished = true;
  // An unfinished flow state implies its coflow is still active, so the
  // counter entry exists.
  if (--unfinished_.at(it->second.flow.coflow) == 0) ++retirable_;
  dirty_ = true;
  return true;
}

void Master::retire_done_coflows() {
  if (retirable_ == 0) return;
  std::erase_if(coflows_, [&](const CoflowState& c) {
    const auto it = unfinished_.find(c.id);
    if (it == unfinished_.end() || it->second != 0) return false;
    unfinished_.erase(it);
    trace_ids_.erase(c.id);
    if (options_.forget_retired) {
      for (const FlowId f : c.flows) flow_states_.erase(f);
    }
    return true;
  });
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
  // Heartbeats refine the clairvoyant remaining-size estimates; they do
  // not by themselves force a reallocation.
  for (const auto& [flow, attained] : msg.attained_bits) {
    const auto it = flow_states_.find(flow);
    if (it != flow_states_.end()) {
      it->second.attained_bits = std::max(it->second.attained_bits, attained);
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
  if (machine < 0) return;
  auto [it, inserted] = last_alive_.try_emplace(machine, now);
  if (!inserted) it->second = std::max(it->second, now);
  if (dead_slaves_.erase(machine) > 0) {
    ++slaves_revived_;
    // The revived slave's flows rejoin the view; recompute their shares.
    dirty_ = true;
  }
}

void Master::check_liveness(double now) {
  if (options_.heartbeat_timeout_s <= 0.0) return;
  // Only machines expected to heartbeat — those originating at least one
  // unfinished flow in the view — can be declared dead. Idle machines
  // legitimately stay silent.
  std::unordered_map<MachineId, long long> unfinished_per_machine;
  for (const auto& [id, fs] : flow_states_) {
    if (!fs.finished) ++unfinished_per_machine[fs.flow.src];
  }
  for (const auto& [machine, unfinished] : unfinished_per_machine) {
    if (dead_slaves_.contains(machine)) continue;
    const auto it = last_alive_.find(machine);
    const double last = it != last_alive_.end() ? it->second : start_time_;
    if (now - last > options_.heartbeat_timeout_s) {
      dead_slaves_.insert(machine);
      ++slaves_declared_dead_;
      flows_quarantined_ += unfinished;
      dirty_ = true;
    }
  }
}

int Master::active_coflows() const {
  return static_cast<int>(coflows_.size());
}

ScheduleInput Master::build_view(double now) const {
  ScheduleInput input;
  input.fabric = &fabric_;
  input.now = now;
  int live_flows = 0;
  for (const CoflowState& coflow : coflows_) {
    ActiveCoflow view;
    view.id = coflow.id;
    view.arrival_time = coflow.arrival_time;
    view.tenant = coflow.tenant;
    view.weight = coflow.weight;
    double attained = 0.0;
    for (const FlowId f : coflow.flows) {
      const FlowState& fs = flow_states_.at(f);
      attained += fs.attained_bits;
      // Quarantine: flows originating at a dead slave are left out of the
      // view entirely, releasing their port shares to the survivors. Their
      // attained service still counts toward the coflow's progress.
      const bool quarantined =
          !fs.finished && dead_slaves_.contains(fs.flow.src);
      if (quarantined) continue;
      auto& bucket = fs.finished ? view.finished_flows : view.flows;
      bucket.push_back(
          ActiveFlow{fs.flow.id, fs.flow.coflow, fs.flow.src, fs.flow.dst});
    }
    view.attained_bits = attained;
    if (!view.flows.empty()) {
      live_flows += static_cast<int>(view.flows.size());
      input.coflows.push_back(std::move(view));
    }
  }
  input.total_live_flows = live_flows;
  return input;
}

const ScheduleInput& Master::compute_allocation(
    double now, Allocation& alloc, std::vector<SlaveRates>& per_slave) {
  view_ = build_view(now);
  dirty_ = false;
  alloc = Allocation();
  per_slave.clear();
  if (view_.coflows.empty()) return view_;

  if (scheduler_.clairvoyant()) {
    // Remaining = registered size − attained (heartbeat view). Registered
    // sizes are required for clairvoyant policies. Written for the
    // *active* flows only — they are the only ids the scheduler may query.
    // Flow ids are dense and grow with history, so the table only grows
    // (geometrically) and keeps what earlier epochs wrote at retired ids:
    // zeroing it up to the largest active id every epoch would make epoch
    // cost grow with history instead of load.
    for (const ActiveCoflow& coflow : view_.coflows) {
      for (const ActiveFlow& f : coflow.flows) {
        const FlowState& fs = flow_states_.at(f.id);
        NCDRF_CHECK(fs.flow.size_bits > 0.0,
                    "clairvoyant scheduler needs registered flow sizes");
        const auto id = static_cast<std::size_t>(f.id);
        if (id >= remaining_estimate_.size()) {
          remaining_estimate_.resize(
              std::max(id + 1, 2 * remaining_estimate_.size()));
        }
        remaining_estimate_[id] =
            std::max(fs.flow.size_bits - fs.attained_bits, 0.0);
      }
    }
    clairvoyant_info_ = std::make_unique<ClairvoyantInfo>(&remaining_estimate_);
    view_.clairvoyant = clairvoyant_info_.get();
  }

  alloc = scheduler_.allocate(view_);
  clamp_to_capacity(view_, alloc, clamp_scratch_);

  // One rate vector per originating machine (rates are enforced at the
  // sender, like tc/htb egress shaping), sorted by machine id so callers
  // iterate slaves in a deterministic order.
  std::vector<int> slot_of(static_cast<std::size_t>(fabric_.num_machines()),
                           -1);
  for (const ActiveCoflow& coflow : view_.coflows) {
    for (const ActiveFlow& flow : coflow.flows) {
      int& slot = slot_of[static_cast<std::size_t>(flow.src)];
      if (slot < 0) {
        slot = static_cast<int>(per_slave.size());
        per_slave.push_back(SlaveRates{flow.src, {}});
      }
      RateUpdateMsg& msg = per_slave[static_cast<std::size_t>(slot)].msg;
      msg.rates_bps.emplace_back(flow.id, alloc.rate(flow.id));
      // Causal tagging rides along only when someone registered with a
      // trace id — untraced deployments keep the vectors empty.
      if (any_traced_) msg.trace_ids.push_back(trace_id(flow.coflow));
    }
  }
  std::sort(per_slave.begin(), per_slave.end(),
            [](const SlaveRates& a, const SlaveRates& b) {
              return a.machine < b.machine;
            });
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
