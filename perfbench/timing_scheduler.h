// TimingScheduler: a forwarding Scheduler that times every call into the
// wrapped policy from the outside.
//
// Every virtual of the Scheduler interface is forwarded. That is load-
// bearing, not cosmetic: a wrapper that forwarded only allocate() would
// report wants_events() == false, so the simulator would stop delivering
// event hooks and NC-DRF would silently fall back from incremental
// allocations to full rebuilds (slower, and different in the last digits
// of the CCTs). The traced fb-replay pass checks that wrapped and bare
// runs agree exactly on events, CCTs and the incremental/rebuild counts.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench.h"
#include "sched/scheduler.h"

namespace perfbench {

class TimingScheduler final : public ncdrf::Scheduler {
 public:
  // `log` (optional) receives sched.allocate / sched.hook spans.
  TimingScheduler(ncdrf::Scheduler& inner, SpanLog* log)
      : inner_(inner), log_(log) {}

  std::string name() const override {
    const Timed timed(*this);
    return inner_.name();
  }
  bool clairvoyant() const override {
    const Timed timed(*this);
    return inner_.clairvoyant();
  }

  ncdrf::Allocation allocate(const ncdrf::ScheduleInput& input) override {
    const Clock::time_point start = Clock::now();
    ncdrf::Allocation alloc = inner_.allocate(input);
    const Clock::time_point end = Clock::now();
    const double seconds = seconds_between(start, end);
    allocate_s_ += seconds;
    allocate_samples_.push_back(seconds);
    if (last_return_ != Clock::time_point{}) {
      step_samples_.push_back(seconds_between(last_return_, end));
    }
    last_return_ = end;
    if (log_ != nullptr) {
      const double t = log_->now();
      log_->add("sched.allocate", t - seconds, t);
    }
    return alloc;
  }

  std::optional<double> next_internal_event(
      const ncdrf::ScheduleInput& input,
      const ncdrf::Allocation& current) const override {
    const Timed timed(*this);
    return inner_.next_internal_event(input, current);
  }

  void set_observers(ncdrf::obs::Tracer* tracer,
                     ncdrf::obs::MetricsRegistry* metrics) override {
    const Timed timed(*this);
    inner_.set_observers(tracer, metrics);
  }
  const ncdrf::SchedPerf* perf_counters() const override {
    const Timed timed(*this);
    return inner_.perf_counters();
  }

  bool wants_events() const override {
    const Timed timed(*this);
    return inner_.wants_events();
  }
  void on_reset(const ncdrf::Fabric& fabric) override {
    const Timed timed(*this);
    inner_.on_reset(fabric);
  }
  void on_coflow_arrival(const ncdrf::ActiveCoflow& coflow) override {
    const Timed timed(*this);
    inner_.on_coflow_arrival(coflow);
  }
  void on_flow_finish(const ncdrf::ActiveFlow& flow) override {
    const Timed timed(*this);
    inner_.on_flow_finish(flow);
  }
  void on_coflow_departure(ncdrf::CoflowId id) override {
    const Timed timed(*this);
    inner_.on_coflow_departure(id);
  }

  // Wall inside allocate(), and inside every other virtual (the event
  // hooks plus next_internal_event and the capability queries).
  double allocate_s() const { return allocate_s_; }
  double hooks_s() const { return hooks_s_; }
  double total_s() const { return allocate_s_ + hooks_s_; }
  const std::vector<double>& allocate_samples() const {
    return allocate_samples_;
  }
  // Gaps between consecutive allocate() returns: one loop step each
  // (an engine event in simulate(), an epoch in the serving front-end).
  const std::vector<double>& step_samples() const { return step_samples_; }

 private:
  // Times one non-allocate call into hooks_s_ and the span log.
  class Timed {
   public:
    explicit Timed(const TimingScheduler& owner)
        : owner_(owner), start_(Clock::now()) {}
    ~Timed() {
      const double seconds = seconds_between(start_, Clock::now());
      owner_.hooks_s_ += seconds;
      if (owner_.log_ != nullptr) {
        const double t = owner_.log_->now();
        owner_.log_->add("sched.hook", t - seconds, t);
      }
    }
    Timed(const Timed&) = delete;
    Timed& operator=(const Timed&) = delete;

   private:
    const TimingScheduler& owner_;
    Clock::time_point start_;
  };

  ncdrf::Scheduler& inner_;
  SpanLog* log_;
  double allocate_s_ = 0.0;
  mutable double hooks_s_ = 0.0;  // also bumped by const queries
  std::vector<double> allocate_samples_;
  std::vector<double> step_samples_;
  Clock::time_point last_return_{};
};

}  // namespace perfbench
