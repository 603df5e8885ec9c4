// DynamicSimulator: the event-driven fluid engine underneath simulate(),
// exposed as an incremental API so workloads can *react* to completions —
// the pipelined, multi-stage computations that motivate non-clairvoyant
// scheduling in the first place (paper Sec. I/II: Tez, MapReduce Online).
//
// Usage:
//   DynamicSimulator sim(fabric, scheduler);
//   sim.set_completion_callback([&](const CoflowRecord& rec) {
//     if (auto next = job.next_stage(rec.id)) sim.submit(*next);
//   });
//   sim.submit(first_stage_coflow);
//   sim.run();
//   RunResult result = sim.take_result();
//
// A caller that learns of coflows as time passes can pause the run with
// run_until(t) and submit them in between (the Theorem 1 auditor's shadow
// DRF run does); pausing does not change the run.
//
// Coflow ids must be unique per simulation; flow ids must be unique and
// non-negative (a fresh TraceBuilder-style counter per driver is enough).
// The engine's model, events and metrics are identical to simulate()'s —
// simulate() is a thin wrapper over this class.
#pragma once

#include <functional>
#include <memory>

#include "fabric/fabric.h"
#include "sched/scheduler.h"
#include "sim/sim.h"
#include "trace/trace.h"

namespace ncdrf {

class DynamicSimulator {
 public:
  using CompletionCallback = std::function<void(const CoflowRecord&)>;

  DynamicSimulator(const Fabric& fabric, Scheduler& scheduler,
                   SimOptions options = {});
  ~DynamicSimulator();

  DynamicSimulator(const DynamicSimulator&) = delete;
  DynamicSimulator& operator=(const DynamicSimulator&) = delete;

  // Registers a coflow to arrive at coflow.arrival_time(), which must not
  // lie in the past. Callable before run(), from within the completion
  // callback (that is the point), and while run_until() is paused.
  void submit(Coflow coflow);

  // Invoked at the instant any coflow completes, before the next
  // scheduling round — the hook for releasing successor stages.
  void set_completion_callback(CompletionCallback callback);

  // Runs every event at or before time t, then returns with the allocation
  // made at the last of them still in flight; now() is that event's time.
  // The next run_until() or run() resumes the allocation, so a paused run
  // equals an unpaused one bit for bit as long as every coflow submitted
  // while paused arrives after now() (by more than the engine's 1e-9 s
  // arrival tolerance). One arriving at now() itself joins through an
  // extra zero-length event instead of the event already run. Starvation
  // is only detected by run(), where no submission can follow.
  void run_until(double t);

  // Runs until every submitted coflow has completed (including coflows
  // submitted by the callback along the way): run_until(+infinity).
  void run();

  double now() const;
  int active_coflows() const;

  // Finalizes and returns the accumulated result (records sorted by
  // coflow id). The engine must be drained (run() returned, nothing
  // pending).
  RunResult take_result();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace ncdrf
