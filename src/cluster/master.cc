#include "cluster/master.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "common/check.h"

namespace ncdrf {
namespace {

constexpr double kNeverHeard = -std::numeric_limits<double>::infinity();

// Appends an element to `list`, taken from `spare` when it has one, so it
// brings its vectors' capacity along. The two hold every element made so
// far, so `spare` is sized with `list` and never grows on its own.
template <typename T>
T& append_recycled(std::vector<T>& list, std::vector<T>& spare) {
  if (spare.empty()) {
    T& made = list.emplace_back();
    if (spare.capacity() < list.capacity()) spare.reserve(list.capacity());
    return made;
  }
  list.push_back(std::move(spare.back()));
  spare.pop_back();
  return list.back();
}

// Shrinks `list` to `size` elements, keeping the dropped ones in `spare`.
template <typename T>
void truncate_recycled(std::vector<T>& list, std::size_t size,
                       std::vector<T>& spare) {
  while (list.size() > size) {
    spare.push_back(std::move(list.back()));
    list.pop_back();
  }
}

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
  // retired, which only its flow ids remember.
  const FlowId probe =
      msg.flows.empty() ? msg.finished_flows.front().id : msg.flows.front().id;
  if (flow_ref_.contains(probe) || coflow_slot_.contains(msg.coflow)) {
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
      NCDRF_CHECK(f.id >= 0, "registered flow with a negative id");
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
  // The slot this coflow takes: the last one freed, else a new one.
  const auto slot = static_cast<std::int32_t>(
      free_slots_.empty() ? slots_.size() : free_slots_.back());
  std::int32_t index = 0;
  const auto index_flow = [&](const Flow& f) {
    if (flow_ref_.insert(f.id, FlowRef{slot, index, f.src}).second) {
      ++index;
      return;
    }
    // Undo this call's inserts: the first `index` flows listed.
    for (const auto* listed : {&msg.flows, &msg.finished_flows}) {
      for (const Flow& done : *listed) {
        if (index == 0) break;
        flow_ref_.erase(done.id);
        --index;
      }
    }
    NCDRF_CHECK(false, "duplicate flow registration");
  };
  for (const Flow& f : msg.flows) index_flow(f);
  for (const Flow& f : msg.finished_flows) index_flow(f);

  if (free_slots_.empty()) {
    slots_.emplace_back();
    // Sized with slots_, so retiring never grows the free list.
    if (free_slots_.capacity() < slots_.capacity()) {
      free_slots_.reserve(slots_.capacity());
    }
  } else {
    free_slots_.pop_back();
  }
  CoflowState& coflow = slots_[static_cast<std::size_t>(slot)];
  coflow.id = msg.coflow;
  coflow.arrival_time = msg.arrival_time;
  coflow.weight = msg.weight;
  coflow.tenant = msg.tenant;
  coflow.trace_id = msg.trace_id;
  flow_runs_.fit(coflow.flows, msg.flows.size() + msg.finished_flows.size());
  coflow.flows.clear();
  // A finished flow was delivered in full: attained equals its
  // (observable) size.
  for (const Flow& f : msg.flows) {
    coflow.flows.push_back(FlowState{f, false, 0.0});
  }
  for (const Flow& f : msg.finished_flows) {
    coflow.flows.push_back(FlowState{f, true, f.size_bits});
  }
  for (const Flow& f : msg.flows) {
    ++unfinished_at_[static_cast<std::size_t>(f.src)];
  }
  coflow.unfinished = static_cast<int>(msg.flows.size());
  coflow.in_view = false;
  coflow.refill = false;
  if (msg.flows.empty()) ++retirable_;  // everything already delivered
  if (msg.trace_id != 0) any_traced_ = true;
  coflow_slot_.insert(msg.coflow, slot);
  order_.push_back(slot);
  dirty_ = true;
  // With no slave dead every live flow is visible, so the coflow joins
  // the view exactly when it has one.
  if (!incremental_ || msg.flows.empty()) return true;
  coflow.in_view = true;
  ActiveCoflow& entry = append_recycled(view_.coflows, spare_entries_);
  fill_entry(coflow, entry);
  if (deliver_events_) {
    // A hook that throws leaves the policy's tracked set unknown: the next
    // allocation resets and resyncs it.
    incremental_ = false;
    synced_ = false;
    scheduler_.on_coflow_arrival(entry);
    synced_ = true;
    incremental_ = true;
  }
  return true;
}

bool Master::mark_finished(const FlowRef& ref) {
  // A tombstone's coflow retired, so the flow finished long ago.
  if (ref.slot < 0) return false;
  CoflowState& coflow = slots_[static_cast<std::size_t>(ref.slot)];
  FlowState& fs = coflow.flows[static_cast<std::size_t>(ref.index)];
  if (fs.finished) return false;
  fs.finished = true;
  --unfinished_at_[static_cast<std::size_t>(fs.flow.src)];
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
  // view_.coflows[v] belongs to the v-th coflow that is in_view. Entries
  // swap rather than move, so the retired ones end up past the kept ones
  // with their vectors intact.
  std::size_t kept = 0;
  std::size_t v = 0;
  std::size_t kept_view = 0;
  for (const std::int32_t slot : order_) {
    CoflowState& c = slots_[static_cast<std::size_t>(slot)];
    const bool view_entry = incremental_ && c.in_view;
    if (c.unfinished > 0) {
      order_[kept++] = slot;
      if (view_entry) {
        if (kept_view != v) {
          std::swap(view_.coflows[kept_view], view_.coflows[v]);
        }
        ++kept_view;
        ++v;
      }
      continue;
    }
    if (view_entry) {
      ++v;
      if (deliver_events_) scheduler_.on_coflow_departure(c.id);
    }
    // The flow ids go (forget_retired) or stay as tombstones, which keep
    // a re-registration of this coflow ignored.
    for (const FlowState& fs : c.flows) {
      if (options_.forget_retired) {
        flow_ref_.erase(fs.flow.id);
      } else {
        flow_ref_.find(fs.flow.id)->slot = -1;
      }
    }
    coflow_slot_.erase(c.id);
    free_slots_.push_back(slot);
  }
  order_.resize(kept);
  if (incremental_) {
    truncate_recycled(view_.coflows, kept_view, spare_entries_);
  }
  retirable_ = 0;
}

void Master::on_flow_finished(const FlowFinishedMsg& msg) {
  // Lenient: a stale finish report may reach a freshly restarted master
  // before the coflow's re-registration does. It is repaired by the
  // finished_flows list of that re-registration.
  const FlowRef* ref = flow_ref_.find(msg.flow);
  if (ref == nullptr) return;
  // A finish report is a sign of life from the flow's source machine.
  note_alive(ref->src, msg.finish_time);
  if (mark_finished(*ref)) retire_done_coflows();
}

void Master::on_flows_finished(const std::vector<FlowFinishedMsg>& msgs) {
  bool any = false;
  for (const FlowFinishedMsg& msg : msgs) {
    const FlowRef* ref = flow_ref_.find(msg.flow);
    if (ref == nullptr) continue;
    note_alive(ref->src, msg.finish_time);
    any = mark_finished(*ref) || any;
  }
  if (any) retire_done_coflows();
}

void Master::on_heartbeat(const HeartbeatMsg& msg, double now) {
  note_alive(msg.machine, now);
  // Heartbeats refine attained service (and the clairvoyant remaining-size
  // estimates); they do not by themselves force a reallocation. A retired
  // coflow has no view entry to refill, so its tombstones take no report.
  for (const auto& [flow, attained] : msg.attained_bits) {
    const FlowRef* ref = flow_ref_.find(flow);
    if (ref == nullptr || ref->slot < 0) continue;
    CoflowState& c = slots_[static_cast<std::size_t>(ref->slot)];
    FlowState& fs = c.flows[static_cast<std::size_t>(ref->index)];
    if (!(attained > fs.attained_bits)) continue;
    fs.attained_bits = attained;
    if (incremental_) c.refill = true;
  }
  // Repair channel for lost FlowFinished reports.
  bool any_finished = false;
  for (const FlowId f : msg.finished_flows) {
    const FlowRef* ref = flow_ref_.find(f);
    any_finished = (ref != nullptr && mark_finished(*ref)) || any_finished;
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
  const auto live = static_cast<std::size_t>(coflow.unfinished);
  entry_runs_.fit(entry.flows, live);
  entry_runs_.fit(entry.finished_flows, coflow.flows.size() - live);
  entry.flows.clear();
  entry.finished_flows.clear();
  double attained = 0.0;
  for (const FlowState& fs : coflow.flows) {
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
      const auto id = static_cast<std::size_t>(fs.flow.id);
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
  for (const std::int32_t slot : order_) {
    CoflowState& c = slots_[static_cast<std::size_t>(slot)];
    if (v == view_.coflows.size()) {
      append_recycled(view_.coflows, spare_entries_);
    }
    fill_entry(c, view_.coflows[v]);
    c.in_view = !view_.coflows[v].flows.empty();
    c.refill = false;
    if (c.in_view) ++v;
  }
  truncate_recycled(view_.coflows, v, spare_entries_);
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
    for (const std::int32_t slot : order_) {
      CoflowState& c = slots_[static_cast<std::size_t>(slot)];
      if (!c.in_view) continue;
      if (c.refill) {
        fill_entry(c, *entry);
        c.refill = false;
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
    if (slots == per_slave.size()) append_recycled(per_slave, spare_rates_);
    SlaveRates& sr = per_slave[slots++];
    sr.machine = static_cast<MachineId>(m);
    sr.msg.rates_bps.clear();
    sr.msg.trace_ids.clear();
    // A vector serves whichever machine holds its position, so it grows
    // to the widest machine seen, not to this one's count.
    rate_runs_.grow(sr.msg.rates_bps, static_cast<std::size_t>(live));
    if (any_traced_) {
      rate_runs_.grow(sr.msg.trace_ids, static_cast<std::size_t>(live));
    }
  }
  truncate_recycled(per_slave, slots, spare_rates_);
  view_.now = now;
  view_.total_live_flows = live_flows;
  alloc = Allocation();
  if (view_.coflows.empty()) return view_;

  alloc = scheduler_.allocate(view_);
  clamp_to_capacity(view_, alloc, clamp_scratch_);
  auto slot = order_.begin();
  for (const ActiveCoflow& entry : view_.coflows) {
    while (!slots_[static_cast<std::size_t>(*slot)].in_view) ++slot;
    const std::uint64_t trace =
        slots_[static_cast<std::size_t>(*slot++)].trace_id;
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
