// Link-shard layer: partitions the m×m fabric into contiguous rack groups
// and runs the allocation kernels per shard on a scheduler-owned thread
// pool. Only drf@N and tcp@N use it: drf refreshes its DemandCache and
// reduces P* over coflow blocks, and tcp solves its water-fill with
// ShardedWaterfill. Every other policy allocates centrally, as the paper
// does: at 4 shards none of them ran 1.5x faster than serial.
//
// Partitioning scheme: shard s of N owns machines [⌊s·m/N⌋, ⌊(s+1)·m/N⌋)
// and both port links of each, so every flow touches at most two shards
// (its source's uplink shard and its destination's downlink shard). A flow
// whose endpoints land in one shard is *shard-local*; on traces where all
// flows are local the shards are independent subproblems and the sharded
// solve is exactly one parallel pass, per-shard bit-identical to the
// serial kernel. Cross-shard flows are reconciled with a bounded
// fixed-point pass (ShardedWaterfill).
//
// Timing contract: every parallel region measures each shard task's
// thread-CPU time. The per-region maximum accumulates into
// SchedPerf::shard_critical_seconds — the modeled parallel wall-clock of
// the shard work on an unloaded multi-core host — and the sum into
// shard_busy_seconds. bench_scale combines the calling thread's CPU time
// (the serial fraction) with the critical path into a machine-independent
// events/s metric, so the CI speedup gate does not depend on how many
// cores the runner happens to schedule the pool on.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "alloc/waterfill.h"
#include "runner/thread_pool.h"
#include "sched/scheduler.h"

namespace ncdrf {

struct SchedPerf;

// Current thread's consumed CPU time in seconds (CLOCK_THREAD_CPUTIME_ID
// where available, monotonic wall-clock otherwise). The basis of the
// shard layer's machine-independent critical-path accounting.
double thread_cpu_seconds();

// The contiguous rack-group partition of a fabric's links.
class ShardPlan {
 public:
  ShardPlan() = default;

  // Shard s owns machines [⌊s·m/N⌋, ⌊(s+1)·m/N⌋). Requested counts above
  // the machine count clamp to one machine per shard.
  ShardPlan(const Fabric& fabric, int num_shards);

  int num_shards() const { return num_shards_; }
  int num_machines() const { return num_machines_; }

  // True when this plan already describes `fabric` cut into `num_shards`.
  bool matches(const Fabric& fabric, int num_shards) const;

  int shard_of_machine(MachineId machine) const {
    return machine_shard_[static_cast<std::size_t>(machine)];
  }

  // Both of a machine's port links live in its shard.
  int shard_of_link(LinkId link) const {
    const auto idx = static_cast<std::size_t>(link);
    const auto m = static_cast<std::size_t>(num_machines_);
    return machine_shard_[idx < m ? idx : idx - m];
  }

  // Per-link ownership mask of one shard (1 = owned), for the masked
  // waterfill solve. Indexed by LinkId.
  const std::vector<char>& link_mask(int shard) const {
    return link_mask_[static_cast<std::size_t>(shard)];
  }

 private:
  int num_machines_ = 0;
  int num_shards_ = 0;
  std::vector<int> machine_shard_;          // MachineId -> shard
  std::vector<std::vector<char>> link_mask_;  // shard -> LinkId -> owned
};

// Scheduler-owned shard execution context: the plan, a private ThreadPool
// (its own pool handle, so a sharded allocate() nested inside a sweep
// cell never contends with the sweep's dispatcher), and the per-region
// critical-path timers.
class ShardRuntime {
 public:
  // Largest shard count create() accepts: each shard is a pool thread, and
  // the pool starts before any fabric is known.
  static constexpr int kMaxShards = 64;

  // Honors the SchedulerOptions contract: shards <= 1 yields no runtime
  // at all, so the serial path of every policy stays literally the code
  // that runs today — that is the shards == 1 bit-identity guarantee.
  // Throws CheckError for a count outside [1, kMaxShards].
  static std::unique_ptr<ShardRuntime> create(const SchedulerOptions& options);

  explicit ShardRuntime(int num_shards);

  int num_shards() const { return num_shards_; }

  // Binds (or re-binds) the partition to `fabric`; cheap when the plan
  // already matches. Returns the bound plan.
  const ShardPlan& bind(const Fabric& fabric);

  // Runs fn(shard) for every shard on the pool and blocks; each task's
  // thread-CPU time is measured, the region's maximum extends the
  // critical path and the sum extends the busy total.
  void parallel_shards(const std::function<void(int)>& fn);

  // Splits [0, n) into one contiguous block per task (at most
  // num_shards) and runs fn(block, begin, end) in parallel with the same
  // accounting; empty blocks are skipped.
  void parallel_blocks(
      std::size_t n,
      const std::function<void(int, std::size_t, std::size_t)>& fn);

  // Folds the regions/busy/critical counters gathered since the last
  // drain into `perf` and resets them.
  void drain_timers(SchedPerf& perf);

 private:
  // Tasks per region: the bound plan's shard count, num_shards unbound.
  int num_tasks() const;

  int num_shards_;
  ShardPlan plan_;
  ThreadPool pool_;
  std::vector<double> task_seconds_;  // per-shard scratch, one region
  long long regions_ = 0;
  double busy_seconds_ = 0.0;
  double critical_seconds_ = 0.0;
};

// Cross-shard weighted max-min: the sharded twin of WaterfillKernel.
//
// Each iteration solves every shard's masked subproblem against the
// shared residual capacities in parallel (a cross-shard flow appears in
// both endpoint shards), then serially reconciles: a flow's increment is
// the minimum of its per-shard offers — for a shard-local flow exactly
// the joint rate its own shard computed — so the merged allocation never
// oversubscribes a link. Residuals shrink by the increments and only
// flows with slack on both endpoint links stay active. Shard-local-only
// traces terminate after one iteration, per shard bit-identical to the
// serial kernel. Cross-shard flows get at most two rounds, and a flow
// stays active only while both its links keep more than 1e-4 of their
// capacity scale. Two rounds recover ~99% of the serial allocator's total
// rate on locality-0.9 Facebook-shaped traces; each extra round re-solves
// the flows next to released slack (30-60% of them per round on skewed
// fabrics) for ~1% more rate.
class ShardedWaterfill {
 public:
  void solve(const Fabric& fabric, ShardRuntime& runtime,
             const std::vector<WaterfillFlow>& flows,
             const std::vector<double>& available_bps,
             std::vector<double>& rates_out);

 private:
  struct Shard {
    WaterfillKernel kernel;
    std::vector<WaterfillFlow> flows;
    std::vector<std::int32_t> index;  // positions in the caller's list
    std::vector<double> rates;
  };

  std::vector<Shard> shards_;
  std::vector<double> residual_;
  std::vector<double> tol_;
  // Per-flow offers, split by endpoint so each shard publishes only the
  // side it owns (a shard-local flow writes both). Read in the apply
  // phase, where link/rate writes are partitioned by ownership the same
  // way — no two shards ever touch the same slot.
  std::vector<double> offer_up_;
  std::vector<double> offer_dn_;
  std::vector<char> shard_progress_;
};

}  // namespace ncdrf
