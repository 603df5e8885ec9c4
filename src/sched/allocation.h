// Allocation: the result of one scheduling decision — a rate (bps) for each
// active flow — plus the validation helpers every policy's output must pass
// (capacity feasibility on all 2m links).
#pragma once

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "coflow/flow.h"
#include "common/check.h"
#include "fabric/fabric.h"

namespace ncdrf {

struct ActiveFlow;
struct ScheduleInput;

// Rates are indexed by FlowId: traces assign flow ids as a contiguous
// 0-based range, so a flat array beats a hash map on the allocate() hot
// path (one store per flow instead of one hash insert). Only the live
// flows of one event get a rate, and they are a small slice of the id
// range (~6% on the FB replay), so the rate storage is left uninitialised
// and a presence bitmap (1 bit per id) records which slots hold a rate.
// A fresh table costs the bitmap's zeroing (range/64 words), never a pass
// over the whole id range; every read checks the bit before it touches a
// rate. Sparse or out-of-range ids still work (the table grows
// geometrically, copying only set slots), and "never mentioned" stays
// distinct from "explicitly rate 0".
//
// The accessors are defined inline: every policy's allocate(), the
// backfilling stages and the simulator engine each make one call per flow
// per event, so out-of-line call overhead here is measurable at trace
// scale (it showed up as ~20% of the engine replay profile).
class Allocation {
 public:
  Allocation() = default;
  Allocation(const Allocation& other);
  Allocation& operator=(const Allocation& other);
  // A moved-from Allocation is empty and reusable.
  Allocation(Allocation&& other) noexcept;
  Allocation& operator=(Allocation&& other) noexcept;
  ~Allocation() = default;

  // Sets the rate for a flow (replacing any previous value). Rates must be
  // non-negative and finite.
  void set_rate(FlowId flow, double rate_bps) {
    NCDRF_CHECK(std::isfinite(rate_bps) && rate_bps >= 0.0,
                "flow rate must be finite and non-negative");
    const std::size_t idx = slot(flow);
    if (mark(idx)) ++num_flows_;
    rates_[idx] = rate_bps;
  }

  // Adds to the flow's current rate (used by backfilling stages).
  void add_rate(FlowId flow, double rate_bps) {
    NCDRF_CHECK(std::isfinite(rate_bps) && rate_bps >= 0.0,
                "flow rate increment must be finite and non-negative");
    const std::size_t idx = slot(flow);
    if (mark(idx)) {
      rates_[idx] = rate_bps;
      ++num_flows_;
    } else {
      rates_[idx] += rate_bps;
    }
  }

  // Pre-sizes the table for flow ids in [0, num_flows) so the bulk
  // set_rate pass in allocate() never reallocates mid-flight.
  void reserve(std::size_t num_flows) {
    if (num_flows > capacity_) grow(num_flows);
  }

  // Rate for a flow; 0 for flows never mentioned.
  double rate(FlowId flow) const {
    return has_rate(flow) ? rates_[static_cast<std::size_t>(flow)] : 0.0;
  }

  // True once set_rate/add_rate has been called for the flow, even with 0.
  bool has_rate(FlowId flow) const {
    if (flow < 0) return false;
    const auto idx = static_cast<std::size_t>(flow);
    return idx < capacity_ && ((present_[idx / 64] >> (idx % 64)) & 1u) != 0;
  }

  // Number of flows with an assigned rate.
  std::size_t num_flows() const { return num_flows_; }
  bool empty() const { return num_flows_ == 0; }

  // Sum of all flow rates (total fabric throughput contribution; each flow
  // counted once, so total link usage is twice this). Adds the set rates
  // in ascending FlowId order, so the sum is the same double however the
  // rates were assigned.
  double total_rate() const;

 private:
  // Checks the id, grows the table to cover it and returns its index.
  std::size_t slot(FlowId flow) {
    NCDRF_CHECK(flow >= 0, "flow ids must be non-negative");
    const auto idx = static_cast<std::size_t>(flow);
    if (idx >= capacity_) grow(std::max(idx + 1, 2 * capacity_));
    return idx;
  }

  // Sets the presence bit of `idx`; true if it was clear (a new flow).
  bool mark(std::size_t idx) {
    std::uint64_t& word = present_[idx / 64];
    const std::uint64_t bit = std::uint64_t{1} << (idx % 64);
    if ((word & bit) != 0) return false;
    word |= bit;
    return true;
  }

  // Reallocates to cover ids [0, min_capacity), rounded up to whole
  // bitmap words; copies the set slots only.
  void grow(std::size_t min_capacity);

  // Calls fn(idx) for every set slot, in ascending id order.
  template <typename Fn>
  void for_each_set(Fn&& fn) const {
    for (std::size_t w = 0; w < present_.size(); ++w) {
      for (std::uint64_t bits = present_[w]; bits != 0; bits &= bits - 1) {
        fn(w * 64 + static_cast<std::size_t>(std::countr_zero(bits)));
      }
    }
  }

  std::unique_ptr<double[]> rates_;     // uninitialised unless present
  std::vector<std::uint64_t> present_;  // bit i set iff rates_[i] assigned
  std::size_t capacity_ = 0;            // ids covered: 64 * present_.size()
  std::size_t num_flows_ = 0;
};

// Aggregate usage per link implied by `alloc` over the snapshot's flows,
// indexed by LinkId.
std::vector<double> link_usage(const ScheduleInput& input,
                               const Allocation& alloc);

// As above but accumulates into `out` (resized/zeroed), so per-event
// callers can reuse one buffer instead of allocating per call.
void link_usage(const ScheduleInput& input, const Allocation& alloc,
                std::vector<double>& out);

// Throws CheckError if any link's usage exceeds its capacity beyond a
// relative tolerance. Call after every allocate() in debug paths and tests.
void check_capacity(const ScheduleInput& input, const Allocation& alloc,
                    double relative_tolerance = 1e-6);

// Scales rates down (never up) so that no link exceeds capacity: each flow
// rate is multiplied by min over its two links of (capacity / usage, 1).
// Used to make numerically borderline allocations exactly feasible.
void clamp_to_capacity(const ScheduleInput& input, Allocation& alloc);

// As above with a caller-owned scratch buffer for the usage/scale vector.
// When every link is within capacity (the common case for well-behaved
// policies) this is one accumulation pass and an O(links) check — the
// per-flow rescale pass is skipped entirely.
void clamp_to_capacity(const ScheduleInput& input, Allocation& alloc,
                       std::vector<double>& scratch);

}  // namespace ncdrf
