// ServeFront: the online serving front-end — batched admission, epoch
// reallocation, bounded-staleness rate pushes, and backpressure on top of
// the cluster Master (paper Sec. V-B's register API, made a long-running
// service).
//
// The deployment driver (cluster/deployment.h) replays a *finite* trace
// and reallocates per arrival; a serving master instead faces an unbounded
// arrival stream, where per-arrival reallocation melts down under load
// (one Algorithm-1 solve per coflow). The front-end amortizes: clients
// enqueue into per-client bounded SubmissionQueues, and once per *epoch*
// the server drains every queue round-robin into one batched admission,
// runs exactly one Scheduler::allocate over the merged view
// (Master::compute_allocation), and pushes fresh rate vectors to slaves.
//
// Push policy is bounded-staleness rather than push-everything: a slave
// whose fresh rates differ from its last pushed vector only in magnitude
// (within push_threshold) is deferred, but never past the staleness
// budget — the server force-pushes before (now − first divergence) could
// exceed staleness_s. Structural changes (a flow appearing on or leaving a
// slave) always push in the same epoch, so a new coflow's first rates go
// out in the epoch that admits it. staleness_s = 0 degenerates to
// push-on-any-change, which is exactly Master::reallocate's behaviour.
//
// Backpressure: the server publishes a Backpressure level from watermarks
// on the total backlog (advisory, read lock-free by clients) and, above
// the shed watermark, drops the oldest queued submissions down to the
// watermark, counting every shed. The bounded queues themselves reject at
// enqueue when full — three layers (reject, slow down, shed), like an RPC
// server's accept queue + load shedding.
//
// The front-end is clock-agnostic: step_epoch(now) takes a monotone
// timestamp. Virtual-time drivers (run(), the load tests, the bench) pass
// an epoch grid and are bit-deterministic; the soak tier passes wall-clock
// seconds while generator threads enqueue concurrently.
#pragma once

#include <cstddef>
#include <exception>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cluster/master.h"
#include "common/run_sizer.h"
#include "serve/submission_queue.h"

namespace ncdrf::obs {
class MetricsRegistry;
class Tracer;
class Timeseries;
class FlightRecorder;
struct Counter;
struct Gauge;
class Histogram;
}  // namespace ncdrf::obs

namespace ncdrf::scenario {
class WorkloadSource;
}  // namespace ncdrf::scenario

namespace ncdrf::serve {

struct ServeOptions {
  // Epoch length on the driver's clock. One allocation kernel call per
  // epoch, at most — and only when the view changed.
  double epoch_s = 1e-3;
  // Cap on admissions per epoch across all clients (the drain is
  // round-robin, one submission per client per round, so no client can
  // starve another). <= 0 means unbounded.
  int max_batch_per_epoch = 256;
  // Per-client SubmissionQueue capacity.
  std::size_t queue_capacity = 1024;
  // Total-backlog watermarks (counted after admission): at/above
  // slowdown_watermark the published level is kSlowdown; at/above
  // shed_watermark it is kShed and the server drops the oldest queued
  // submissions down to shed_watermark.
  std::size_t slowdown_watermark = 512;
  std::size_t shed_watermark = 1024;
  // Bounded-staleness budget for rate pushes: a slave with a pending
  // magnitude-only rate change is pushed no later than staleness_s after
  // the change first appeared. 0 = push on any change (no deferral).
  double staleness_s = 0.0;
  // Relative rate divergence below which a slave's fresh vector counts as
  // unchanged (per flow: |fresh − pushed| <= threshold · max(pushed, fresh)).
  double push_threshold = 0.0;
  // Destination for rate pushes (best-effort, like Master::reallocate).
  // Null = rates are computed and accounted but not transported — the
  // bench and pure-latency tests run busless.
  SimBus* bus = nullptr;
  obs::Tracer* tracer = nullptr;
  obs::MetricsRegistry* metrics = nullptr;
  // Telemetry plane (both optional, both must outlive the front-end). The
  // timeseries is sampled once at the end of every epoch; the flight
  // recorder is attached to tracer/metrics/timeseries, fed EpochVitals
  // each epoch, and handed this front-end's config_json() for bundles.
  obs::Timeseries* timeseries = nullptr;
  obs::FlightRecorder* flight = nullptr;
  // Transport policy for rate pushes over `bus`. max_attempts = 1 keeps
  // the historical best-effort send; > 1 retransmits lost pushes with the
  // bus's per-destination exponential backoff (a retried push arrives
  // late, never early — bounded staleness still holds at the sender).
  RetryPolicy push_retry;
};

// Point-in-time latency record of one admitted submission, for the
// admit_hook (tests assert FIFO order and latency accounting off this).
struct AdmitRecord {
  CoflowId coflow = -1;
  int client = -1;
  double submit_time = 0.0;
  double admit_time = 0.0;
  int num_flows = 0;
  double flow_bits = 0.0;  // sum of the admitted flows' sizes (ground truth)
};

class ServeFront {
 public:
  ServeFront(const Fabric& fabric, Scheduler& scheduler, int num_clients,
             const ServeOptions& options);
  ~ServeFront();

  ServeFront(const ServeFront&) = delete;
  ServeFront& operator=(const ServeFront&) = delete;

  int num_clients() const { return static_cast<int>(queues_.size()); }
  SubmissionQueue& queue(int client) { return *queues_[client]; }
  const ServeOptions& options() const { return options_; }
  Master& master() { return master_; }

  // Runs one epoch at time `now` (monotone across calls): retires due
  // coflows, sheds above the watermark, admits one round-robin batch,
  // reallocates if the view changed, pushes rate vectors within the
  // staleness budget, and publishes backpressure levels. A submission the
  // master rejects (its registration throws CheckError) is dropped, not
  // admitted; the rest of the batch is registered and the epoch runs to
  // its end, then the first such error is rethrown.
  void step_epoch(double now);

  // Virtual-time driver over the scenario spine: pulls due submissions
  // off the source at each epoch tick, enqueues them on their client's
  // queue (open loop — a rejected submission is dropped and counted,
  // never retried), and steps epochs until the source is exhausted and
  // the backlog is empty. Returns the time of the last epoch stepped.
  // Deterministic for deterministic sources.
  double run(scenario::WorkloadSource& source);

  // Per-client-schedule convenience wrapper: adapts the schedules through
  // the spine (clients are stamped from their slot index, preserving the
  // historical routing contract).
  double run(const std::vector<std::vector<Submission>>& schedule);

  // --- Introspection (epoch counters are all monotone) -------------------
  long long epochs() const { return epochs_; }
  // Every drained submission counts, including one the master ignored
  // for reusing a coflow or flow id it holds (which is never scheduled).
  long long admitted() const { return admitted_; }
  long long allocations() const { return allocations_; }
  long long rate_pushes() const { return rate_pushes_; }
  long long pushes_deferred() const { return pushes_deferred_; }
  long long total_rejected() const;
  long long total_shed() const;
  std::size_t backlog() const;  // queued submissions across all clients
  Backpressure level() const { return level_; }
  // Largest (push time − first divergence time) over all pushes so far:
  // the observed staleness, which the bounded-staleness contract keeps
  // <= staleness_s + one epoch of quantization.
  double max_push_staleness() const { return max_push_staleness_; }
  // Allocation of the last epoch that reallocated (valid until the next
  // one; empty before the first).
  const Allocation& last_allocation() const { return alloc_; }

  // The serving configuration as a one-line JSON object — embedded in
  // flight-recorder bundles so a postmortem carries the knobs that shaped
  // the run. Deterministic formatting.
  std::string config_json() const;

  // --- Test hooks --------------------------------------------------------
  // Called synchronously inside step_epoch; both default to unset. The
  // alloc hook fires after each allocation kernel call, before pushes.
  std::function<void(const AdmitRecord&)> admit_hook;
  std::function<void(double now, const ScheduleInput&, const Allocation&)>
      alloc_hook;

 private:
  // A modeled departure: the flows the front-end reports finished at
  // `time`. Only a registered coflow with a lifetime gets one.
  struct Departure {
    double time = 0.0;
    CoflowId coflow = -1;
    std::vector<FlowId> flows;
  };
  // Heap order: the earliest departure (then the lowest coflow id) on top.
  static bool departs_later(const Departure& a, const Departure& b) {
    return a.time != b.time ? a.time > b.time : a.coflow > b.coflow;
  }
  // Last vector pushed to one slave, plus the staleness clock. The rates
  // are kept sorted by flow id, so a fresh vector (sorted the same way)
  // is classified against them by one merge walk; empty = nothing pushed
  // since the machine last had live flows. `gained` marks a slave that
  // originates a flow registered this epoch: its push is structural, so
  // it goes out in the admitting epoch even if the flow id was used before.
  struct PushState {
    std::vector<std::pair<FlowId, double>> rates;
    double dirty_since = -1.0;  // first divergence time; <0 = clean
    bool gained = false;
  };

  void retire_due(double now);
  void shed_over_watermark(double now);
  // Drains and registers one batch; returns the number drained. The first
  // registration error, if any, lands in `rejected`.
  int admit_batch(double now, std::exception_ptr& rejected);
  void reallocate(double now);
  void push_rates(double now);
  void publish_level(double now);

  const ServeOptions options_;
  const int num_machines_;  // fabric size, for spine adapters
  Master master_;
  std::vector<std::unique_ptr<SubmissionQueue>> queues_;
  // This epoch's submissions that the master registered (drain scratch,
  // reused every epoch). Admission, the first covering allocation and the
  // first covering push all happen in the admitting epoch, so every causal
  // stage is recorded from this batch.
  std::vector<Submission> batch_;
  std::vector<FlowFinishedMsg> finish_batch_;  // retire scratch, ditto
  // Registration scratch: a submission's flows are swapped in for the
  // call and back out after it.
  RegisterCoflowMsg register_msg_;
  // departures_[0, live_departures_) is a heap under departs_later; the
  // popped entries past it keep their flow lists' capacity for reuse.
  std::vector<Departure> departures_;
  std::size_t live_departures_ = 0;
  RunSizer departure_runs_;

  Allocation alloc_;
  std::vector<SlaveRates> per_slave_;  // scratch, reused every epoch
  std::vector<PushState> push_state_;  // by machine id
  // The slave being classified, its fresh vector sorted by flow id; swapped
  // into its PushState when pushed.
  std::vector<std::pair<FlowId, double>> fresh_sorted_;
  RunSizer pushed_runs_;  // fresh_sorted_ and the PushState vectors

  Backpressure level_ = Backpressure::kOk;
  long long epochs_ = 0;
  long long admitted_ = 0;
  long long allocations_ = 0;
  long long rate_pushes_ = 0;
  long long pushes_deferred_ = 0;
  double max_push_staleness_ = 0.0;
  // Per-epoch vitals for the flight recorder: the largest staleness among
  // this epoch's pushes, and the shed total at the previous epoch's end
  // (delta accounting).
  double epoch_staleness_ = 0.0;
  long long prev_shed_total_ = 0;

  // Cached metrics instruments (null when metrics are off).
  obs::Counter* admitted_counter_ = nullptr;
  obs::Counter* shed_counter_ = nullptr;
  obs::Counter* push_counter_ = nullptr;
  obs::Counter* deferred_counter_ = nullptr;
  obs::Counter* epoch_counter_ = nullptr;
  obs::Gauge* backlog_gauge_ = nullptr;
  obs::Gauge* active_gauge_ = nullptr;
  obs::Histogram* admit_latency_ = nullptr;
  obs::Histogram* alloc_latency_ = nullptr;
  obs::Histogram* push_latency_ = nullptr;
  obs::Histogram* batch_size_ = nullptr;
  // Causal stage decomposition (spans per registered coflow on the
  // driver's clock): queue = submit→admit, alloc = admit→covering
  // allocation, push = allocation→first covering push, total =
  // submit→first covering push. The last three events share the admitting
  // epoch's `now`, so alloc and push read 0.
  obs::Histogram* stage_queue_ = nullptr;
  obs::Histogram* stage_alloc_ = nullptr;
  obs::Histogram* stage_push_ = nullptr;
  obs::Histogram* stage_total_ = nullptr;
  // Per-client instruments (serve.client.N.*) plus the queue-counter
  // values already mirrored, so each epoch increments by the delta.
  struct ClientInstruments {
    obs::Gauge* backlog = nullptr;
    obs::Counter* accepted = nullptr;
    obs::Counter* rejected = nullptr;
    obs::Counter* shed = nullptr;
    long long prev_accepted = 0;
    long long prev_rejected = 0;
    long long prev_shed = 0;
  };
  std::vector<ClientInstruments> client_instruments_;
};

}  // namespace ncdrf::serve
