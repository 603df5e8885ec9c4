#include "sched/allocation.h"

#include <cmath>
#include <sstream>
#include <utility>

#include "common/check.h"
#include "sched/scheduler.h"

namespace ncdrf {

Allocation::Allocation(const Allocation& other)
    : present_(other.present_),
      capacity_(other.capacity_),
      num_flows_(other.num_flows_) {
  if (capacity_ == 0) return;
  rates_ = std::make_unique_for_overwrite<double[]>(capacity_);
  other.for_each_set([&](std::size_t idx) { rates_[idx] = other.rates_[idx]; });
}

Allocation& Allocation::operator=(const Allocation& other) {
  if (this != &other) *this = Allocation(other);
  return *this;
}

Allocation::Allocation(Allocation&& other) noexcept
    : rates_(std::move(other.rates_)),
      present_(std::move(other.present_)),
      capacity_(std::exchange(other.capacity_, 0)),
      num_flows_(std::exchange(other.num_flows_, 0)) {
  other.present_.clear();
}

Allocation& Allocation::operator=(Allocation&& other) noexcept {
  if (this != &other) {
    rates_ = std::move(other.rates_);
    present_ = std::move(other.present_);
    capacity_ = std::exchange(other.capacity_, 0);
    num_flows_ = std::exchange(other.num_flows_, 0);
    other.present_.clear();
  }
  return *this;
}

void Allocation::grow(std::size_t min_capacity) {
  const std::size_t words = (min_capacity + 63) / 64;
  auto rates = std::make_unique_for_overwrite<double[]>(words * 64);
  for_each_set([&](std::size_t idx) { rates[idx] = rates_[idx]; });
  rates_ = std::move(rates);
  present_.resize(words, 0);
  capacity_ = words * 64;
}

double Allocation::total_rate() const {
  double total = 0.0;
  for_each_set([&](std::size_t idx) { total += rates_[idx]; });
  return total;
}

void link_usage(const ScheduleInput& input, const Allocation& alloc,
                std::vector<double>& out) {
  const Fabric& fabric = *input.fabric;
  out.assign(static_cast<std::size_t>(fabric.num_links()), 0.0);
  for (const ActiveCoflow& coflow : input.coflows) {
    for (const ActiveFlow& flow : coflow.flows) {
      const double r = alloc.rate(flow.id);
      out[static_cast<std::size_t>(fabric.uplink(flow.src))] += r;
      out[static_cast<std::size_t>(fabric.downlink(flow.dst))] += r;
    }
  }
}

std::vector<double> link_usage(const ScheduleInput& input,
                               const Allocation& alloc) {
  std::vector<double> usage;
  link_usage(input, alloc, usage);
  return usage;
}

void check_capacity(const ScheduleInput& input, const Allocation& alloc,
                    double relative_tolerance) {
  const Fabric& fabric = *input.fabric;
  const std::vector<double> usage = link_usage(input, alloc);
  for (LinkId i = 0; i < fabric.num_links(); ++i) {
    const double cap = fabric.capacity(i);
    if (usage[static_cast<std::size_t>(i)] >
        cap * (1.0 + relative_tolerance)) {
      std::ostringstream os;
      os << "link " << i << " oversubscribed: usage "
         << usage[static_cast<std::size_t>(i)] << " > capacity " << cap;
      NCDRF_CHECK(false, os.str());
    }
  }
}

void clamp_to_capacity(const ScheduleInput& input, Allocation& alloc,
                       std::vector<double>& scratch) {
  const Fabric& fabric = *input.fabric;
  link_usage(input, alloc, scratch);
  // Turn the usage vector into a scale vector in place; skip the per-flow
  // rescale pass when every link is already feasible.
  bool any_over = false;
  for (LinkId i = 0; i < fabric.num_links(); ++i) {
    const auto idx = static_cast<std::size_t>(i);
    if (scratch[idx] > fabric.capacity(i)) {
      scratch[idx] = fabric.capacity(i) / scratch[idx];
      any_over = true;
    } else {
      scratch[idx] = 1.0;
    }
  }
  if (!any_over) return;
  for (const ActiveCoflow& coflow : input.coflows) {
    for (const ActiveFlow& flow : coflow.flows) {
      const double r = alloc.rate(flow.id);
      if (r <= 0.0) continue;
      const double s = std::min(
          scratch[static_cast<std::size_t>(fabric.uplink(flow.src))],
          scratch[static_cast<std::size_t>(fabric.downlink(flow.dst))]);
      if (s < 1.0) alloc.set_rate(flow.id, r * s);
    }
  }
}

void clamp_to_capacity(const ScheduleInput& input, Allocation& alloc) {
  std::vector<double> scratch;
  clamp_to_capacity(input, alloc, scratch);
}

}  // namespace ncdrf
