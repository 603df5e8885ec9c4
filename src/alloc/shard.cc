#include "alloc/shard.h"

#include <time.h>

#include <algorithm>
#include <chrono>
#include <string>

#include "common/check.h"
#include "obs/perf.h"

namespace ncdrf {
namespace {

// ShardedWaterfill's cross-shard reconcile: at most this many rounds, and
// a flow stays active while both its links keep more than this share of
// their capacity scale.
constexpr int kReconcileRounds = 2;
constexpr double kReconcileTolerance = 1e-4;

}  // namespace

double thread_cpu_seconds() {
#if defined(CLOCK_THREAD_CPUTIME_ID)
  timespec ts;
  if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) == 0) {
    return static_cast<double>(ts.tv_sec) +
           1e-9 * static_cast<double>(ts.tv_nsec);
  }
#endif
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

ShardPlan::ShardPlan(const Fabric& fabric, int num_shards) {
  num_machines_ = fabric.num_machines();
  NCDRF_CHECK(num_machines_ > 0, "shard plan needs a non-empty fabric");
  num_shards_ = std::max(std::min(num_shards, num_machines_), 1);

  machine_shard_.assign(static_cast<std::size_t>(num_machines_), 0);
  link_mask_.assign(static_cast<std::size_t>(num_shards_),
                    std::vector<char>(
                        static_cast<std::size_t>(fabric.num_links()), 0));
  const auto m = static_cast<long long>(num_machines_);
  const auto n = static_cast<long long>(num_shards_);
  for (int s = 0; s < num_shards_; ++s) {
    const auto begin = static_cast<MachineId>(s * m / n);
    const auto end = static_cast<MachineId>((s + 1) * m / n);
    for (MachineId machine = begin; machine < end; ++machine) {
      machine_shard_[static_cast<std::size_t>(machine)] = s;
      link_mask_[static_cast<std::size_t>(s)]
                [static_cast<std::size_t>(fabric.uplink(machine))] = 1;
      link_mask_[static_cast<std::size_t>(s)]
                [static_cast<std::size_t>(fabric.downlink(machine))] = 1;
    }
  }
}

bool ShardPlan::matches(const Fabric& fabric, int num_shards) const {
  if (num_machines_ != fabric.num_machines()) return false;
  return num_shards_ ==
         std::max(std::min(num_shards, num_machines_), 1);
}

std::unique_ptr<ShardRuntime> ShardRuntime::create(
    const SchedulerOptions& options) {
  NCDRF_CHECK(options.shards >= 1, "shard count must be positive");
  NCDRF_CHECK(options.shards <= kMaxShards,
              "shard count must be at most " + std::to_string(kMaxShards));
  if (options.shards <= 1) return nullptr;
  return std::make_unique<ShardRuntime>(options.shards);
}

ShardRuntime::ShardRuntime(int num_shards)
    : num_shards_(num_shards), pool_(num_shards) {
  NCDRF_CHECK(num_shards >= 2, "a shard runtime needs at least two shards");
}

const ShardPlan& ShardRuntime::bind(const Fabric& fabric) {
  if (!plan_.matches(fabric, num_shards_)) {
    plan_ = ShardPlan(fabric, num_shards_);
  }
  return plan_;
}

int ShardRuntime::num_tasks() const {
  return plan_.num_shards() > 0 ? plan_.num_shards() : num_shards_;
}

void ShardRuntime::parallel_shards(const std::function<void(int)>& fn) {
  const int n = num_tasks();
  task_seconds_.assign(static_cast<std::size_t>(n), 0.0);
  pool_.run(n, [&](int shard) {
    const double start = thread_cpu_seconds();
    fn(shard);
    task_seconds_[static_cast<std::size_t>(shard)] =
        thread_cpu_seconds() - start;
  });
  double max_seconds = 0.0;
  for (const double s : task_seconds_) {
    busy_seconds_ += s;
    max_seconds = std::max(max_seconds, s);
  }
  critical_seconds_ += max_seconds;
  regions_ += 1;
}

void ShardRuntime::parallel_blocks(
    std::size_t n,
    const std::function<void(int, std::size_t, std::size_t)>& fn) {
  // One block per task: a plan clamped below num_shards (fewer machines
  // than shards) runs fewer tasks, and every block must still run.
  const auto blocks = static_cast<std::size_t>(num_tasks());
  parallel_shards([&](int block) {
    const auto b = static_cast<std::size_t>(block);
    const std::size_t begin = n * b / blocks;
    const std::size_t end = n * (b + 1) / blocks;
    if (begin < end) fn(block, begin, end);
  });
}

void ShardRuntime::drain_timers(SchedPerf& perf) {
  perf.shard_regions += regions_;
  perf.shard_busy_seconds += busy_seconds_;
  perf.shard_critical_seconds += critical_seconds_;
  regions_ = 0;
  busy_seconds_ = 0.0;
  critical_seconds_ = 0.0;
}

void ShardedWaterfill::solve(const Fabric& fabric, ShardRuntime& runtime,
                             const std::vector<WaterfillFlow>& flows,
                             const std::vector<double>& available_bps,
                             std::vector<double>& rates_out) {
  const std::size_t n = flows.size();
  rates_out.assign(n, 0.0);
  if (n == 0) return;

  const ShardPlan& plan = runtime.bind(fabric);
  const auto num_shards = static_cast<std::size_t>(plan.num_shards());
  const auto num_links = static_cast<std::size_t>(fabric.num_links());
  NCDRF_CHECK(available_bps.size() == num_links,
              "available-capacity vector must cover all links");
  if (shards_.size() < num_shards) shards_.resize(num_shards);

  residual_.resize(num_links);
  tol_.resize(num_links);
  for (std::size_t i = 0; i < num_links; ++i) {
    residual_[i] = std::max(available_bps[i], 0.0);
    tol_[i] = kReconcileTolerance * std::max(available_bps[i], 1.0);
  }

  offer_up_.resize(n);
  offer_dn_.resize(n);
  shard_progress_.assign(num_shards, 0);

  // Gather: each shard scans the full flow list once, in parallel, and
  // keeps the flows touching one of its links. A cross-shard flow lands
  // in both endpoint shards so each side can price its own link.
  runtime.parallel_shards([&](int s) {
    Shard& sh = shards_[static_cast<std::size_t>(s)];
    sh.flows.clear();
    sh.index.clear();
    for (std::size_t k = 0; k < n; ++k) {
      const WaterfillFlow& f = flows[k];
      if (plan.shard_of_machine(f.src) == s ||
          plan.shard_of_machine(f.dst) == s) {
        sh.flows.push_back(f);
        sh.index.push_back(static_cast<std::int32_t>(k));
      }
    }
  });

  for (int iter = 0; iter < kReconcileRounds; ++iter) {
    // Solve + publish: independent masked solves against the shared
    // residual snapshot; each shard writes the offer slot(s) of the
    // endpoint side(s) it owns (a local flow gets both from one shard).
    runtime.parallel_shards([&](int s) {
      Shard& sh = shards_[static_cast<std::size_t>(s)];
      if (sh.flows.empty()) return;
      sh.kernel.solve(fabric, sh.flows, residual_, &plan.link_mask(s),
                      sh.rates);
      for (std::size_t j = 0; j < sh.index.size(); ++j) {
        const auto k = static_cast<std::size_t>(sh.index[j]);
        if (plan.shard_of_machine(sh.flows[j].src) == s) {
          offer_up_[k] = sh.rates[j];
        }
        if (plan.shard_of_machine(sh.flows[j].dst) == s) {
          offer_dn_[k] = sh.rates[j];
        }
      }
    });

    // Apply + compact: a flow's increment is the minimum of its two
    // endpoint offers, so no owned link is ever oversubscribed. Writes
    // stay partitioned — a shard only debits its own links and only the
    // uplink owner accumulates the flow's rate. Both endpoint shards of
    // a cross flow then apply the identical keep-test against the shared
    // residuals, so their lists stay in lockstep.
    runtime.parallel_shards([&](int s) {
      Shard& sh = shards_[static_cast<std::size_t>(s)];
      bool progress = false;
      for (std::size_t j = 0; j < sh.index.size(); ++j) {
        const auto k = static_cast<std::size_t>(sh.index[j]);
        const double r = std::min(offer_up_[k], offer_dn_[k]);
        if (!(r > 0.0)) continue;
        progress = true;
        const WaterfillFlow& f = sh.flows[j];
        if (plan.shard_of_machine(f.src) == s) {
          const auto u = static_cast<std::size_t>(fabric.uplink(f.src));
          residual_[u] = std::max(residual_[u] - r, 0.0);
          rates_out[k] += r;
        }
        if (plan.shard_of_machine(f.dst) == s) {
          const auto d = static_cast<std::size_t>(fabric.downlink(f.dst));
          residual_[d] = std::max(residual_[d] - r, 0.0);
        }
      }
      shard_progress_[static_cast<std::size_t>(s)] = progress ? 1 : 0;
    });

    bool any_progress = false;
    for (std::size_t s = 0; s < num_shards; ++s) {
      any_progress = any_progress || shard_progress_[s] != 0;
    }
    if (!any_progress || iter + 1 == kReconcileRounds) break;

    // Keep only flows whose both endpoint links retain slack beyond the
    // convergence tolerance; stop once every list has drained.
    bool any_active = false;
    runtime.parallel_shards([&](int s) {
      Shard& sh = shards_[static_cast<std::size_t>(s)];
      std::size_t kept = 0;
      for (std::size_t j = 0; j < sh.index.size(); ++j) {
        const WaterfillFlow& f = sh.flows[j];
        const auto u = static_cast<std::size_t>(fabric.uplink(f.src));
        const auto d = static_cast<std::size_t>(fabric.downlink(f.dst));
        if (residual_[u] > tol_[u] && residual_[d] > tol_[d]) {
          sh.flows[kept] = sh.flows[j];
          sh.index[kept] = sh.index[j];
          ++kept;
        }
      }
      sh.flows.resize(kept);
      sh.index.resize(kept);
      shard_progress_[static_cast<std::size_t>(s)] = kept > 0 ? 1 : 0;
    });
    for (std::size_t s = 0; s < num_shards; ++s) {
      any_active = any_active || shard_progress_[s] != 0;
    }
    if (!any_active) break;
  }
}

}  // namespace ncdrf
