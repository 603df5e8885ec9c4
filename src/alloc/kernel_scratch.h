// Arena-backed structure-of-arrays scratch for the allocation kernels.
//
// Every policy's allocate() used to walk ActiveFlow records through the
// checked Fabric accessors in each of its passes (priority fill, residual
// subtraction, work-conserving backfill, final Allocation writes), paying
// pointer-chased loads and range checks per flow per pass. KernelScratch
// gathers the snapshot exactly once into parallel flat columns — flow id,
// uplink, downlink, optional per-endpoint divisor counts from
// LinkLoadState, and a zero-initialized rate accumulator — so every later
// pass is a branch-light sweep over int32/double arrays the compiler can
// vectorize, and the Allocation hash/dense-table write happens once per
// flow at commit().
//
// Layout contract (see docs/ARCHITECTURE.md §7): columns are index-aligned
// (entry i of every column describes the same flow), flows appear in
// snapshot coflow-major order, `offset` brackets each coflow's rows, and
// `up`/`dn` are pre-validated LinkIds — kernels consuming a FlowTable must
// not re-derive endpoints through the Fabric and must accumulate rates
// only through the `rate` column.
//
// All columns live in one bump arena that is reset (not freed) per call:
// after warm-up a gather performs zero heap allocations.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <vector>

#include "alloc/link_state.h"
#include "sched/scheduler.h"

namespace ncdrf {

// Bump allocator over a small list of blocks. begin() rewinds the cursor
// without releasing memory; a request that outgrows the current block
// opens a new one (existing spans stay valid), and the next begin()
// coalesces everything into a single block sized to the high-water mark —
// so steady-state use settles to one block and zero allocations.
class ScratchArena {
 public:
  void begin() {
    if (blocks_.size() > 1) coalesce();
    block_ = 0;
    cursor_ = 0;
  }

  template <typename T>
  T* alloc(std::size_t count) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "arena types must not need destruction");
    static_assert(alignof(T) <= kAlign, "over-aligned arena type");
    return static_cast<T*>(raw(count * sizeof(T)));
  }

  // Observability for the scratch-reuse tests: bytes owned and blocks held.
  std::size_t capacity_bytes() const;
  std::size_t num_blocks() const { return blocks_.size(); }

 private:
  static constexpr std::size_t kAlign = 16;

  void* raw(std::size_t bytes);
  void coalesce();

  struct Block {
    std::unique_ptr<unsigned char[]> data;
    std::size_t size = 0;
  };
  std::vector<Block> blocks_;
  std::size_t block_ = 0;   // block the cursor lives in
  std::size_t cursor_ = 0;  // offset within blocks_[block_]
};

// Which per-endpoint divisor columns gather() fills from LinkLoadState.
enum class GatherCounts {
  kNone,     // endpoints only (waterfill-style kernels)
  kLive,     // coflow's unfinished flows on each endpoint link
  kCounted,  // PS-P's presence counts (includes finished under stale mode)
};

// One snapshot mirrored as parallel columns. Pointers live in the owning
// KernelScratch's arena and are valid until its next gather().
struct FlowTable {
  std::size_t num_flows = 0;
  std::size_t num_coflows = 0;
  std::size_t id_end = 0;          // one past the largest flow id
  FlowId* flow = nullptr;          // dense flow ids, coflow-major
  std::int32_t* up = nullptr;      // uplink LinkId of flow i
  std::int32_t* dn = nullptr;      // downlink LinkId of flow i
  std::int32_t* cnt_up = nullptr;  // divisor counts (null under kNone)
  std::int32_t* cnt_dn = nullptr;
  std::int32_t* offset = nullptr;  // coflow k -> first row; size K+1
  double* rate = nullptr;          // accumulator, zero-initialized

  std::size_t begin_of(std::size_t coflow) const {
    return static_cast<std::size_t>(offset[coflow]);
  }
  std::size_t end_of(std::size_t coflow) const {
    return static_cast<std::size_t>(offset[coflow + 1]);
  }
};

class KernelScratch {
 public:
  // Mirrors `input` into the arena. `state` provides the divisor counts
  // and must cover the snapshot when `counts` != kNone (the caller's
  // sync() guarantees it); it may be null under kNone. Endpoints are
  // range-checked here, once, so consuming kernels index links unchecked.
  const FlowTable& gather(const ScheduleInput& input,
                          const LinkLoadState* state, GatherCounts counts);

  const FlowTable& table() const { return table_; }

  // Extra per-call columns (e.g. waterfill weights) from the same arena.
  ScratchArena& arena() { return arena_; }

  // Writes the rate column into `alloc`, one set_rate per flow, after
  // sizing its id-indexed table once for ids below `id_end`. With
  // `skip_zero`, rows whose accumulator is exactly 0.0 stay unmentioned —
  // the policies whose legacy paths only ever add positive rates (PS-P)
  // keep their has_rate() surface unchanged.
  static void commit(const FlowTable& table, Allocation& alloc,
                     bool skip_zero = false);

 private:
  ScratchArena arena_;
  FlowTable table_;
};

}  // namespace ncdrf
