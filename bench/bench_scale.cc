// Shard-scaling benchmark: events/s of the sharded policies (drf, tcp) under
// the scripted finish/depart/arrive event replay (one allocate() per
// event, as in bench_sched_scalability) across a {policy × shard-count ×
// coflow-count} matrix on a Facebook-trace-shaped fabric (150 racks,
// narrow-heavy coflows, rack-local skew applied on top so most flows stay
// inside their rack group).
//
// Two timings per cell:
//
//   * wall        — steady-clock over the replay loop. On a many-core
//     host this is the end-to-end speedup; on a loaded or single-core CI
//     runner it says nothing about the shard layer.
//   * modeled     — main-thread CPU time (CLOCK_THREAD_CPUTIME_ID, which
//     stops accruing while the thread is blocked in ThreadPool::run)
//     plus SchedPerf::shard_critical_seconds, the per-region maximum of
//     the shard tasks' thread-CPU. This is the wall-clock the cell would
//     take on an unloaded host with >= shards cores, and it is
//     machine-independent — tools/bench_scale_report.py gates the
//     4-shard-vs-1-shard speedup floor on it.
//
// For shards=1 the schedulers run their serial paths (no pool, no
// regions), so modeled == main-thread CPU there and the two arms of the
// speedup ratio measure the same code the production serial path runs.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "alloc/shard.h"
#include "common/check.h"
#include "common/rng.h"
#include "common/units.h"
#include "core/registry.h"
#include "obs/perf.h"
#include "sched/scheduler.h"
#include "trace/synthetic_fb.h"

namespace {

using namespace ncdrf;

struct BenchConfig {
  std::vector<std::string> policies = {"drf", "tcp"};
  std::vector<int> shards = {1, 2, 4, 8};
  std::vector<int> coflows = {10000};
  int racks = 150;
  int triples = 10;  // 3 events each
  int max_flows_per_coflow = 64;
  double locality = 0.9;
  std::string json_path;
};

struct Row {
  std::string policy;
  int shards = 1;
  int coflows = 0;
  int racks = 0;
  double locality = 0.0;
  long long events = 0;
  double wall_seconds = 0.0;
  double main_cpu_seconds = 0.0;
  double shard_busy_seconds = 0.0;
  double shard_critical_seconds = 0.0;
};

std::vector<std::string> split_list(const std::string& value) {
  std::vector<std::string> out;
  std::stringstream ss(value);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

std::vector<int> split_ints(const std::string& value) {
  std::vector<int> out;
  for (const std::string& item : split_list(value)) {
    out.push_back(std::stoi(item));
  }
  return out;
}

// The replay snapshot: every coflow of the trace concurrently active,
// destinations skewed so `locality` of the flows stay inside their
// source's rack group (groups = the largest requested shard count; the
// floor-boundary groups of N and of any smaller requested count nest, so
// a group-local flow is shard-local at every swept shard count).
struct Workload {
  Fabric fabric;
  std::vector<ActiveCoflow> pristine;
  std::vector<double> remaining;
  std::unique_ptr<ClairvoyantInfo> info;

  Workload(const BenchConfig& config, int num_coflows, int groups)
      : fabric(config.racks, gbps(1.0)) {
    SyntheticFbOptions options;
    options.num_coflows = num_coflows;
    options.num_racks = config.racks;
    options.duration_s = 1.0;  // everything concurrently active
    options.max_flows_per_coflow = config.max_flows_per_coflow;
    const Trace trace = generate_synthetic_fb(options);

    const ShardPlan plan(fabric, groups);
    Rng rng(20180701);
    remaining.assign(static_cast<std::size_t>(trace.total_flows), 0.0);
    pristine.reserve(trace.coflows.size());
    for (const Coflow& coflow : trace.coflows) {
      ActiveCoflow view;
      view.id = coflow.id();
      view.arrival_time = coflow.arrival_time();
      for (const Flow& f : coflow.flows()) {
        MachineId dst = f.dst;
        if (rng.uniform() < config.locality) {
          const int g = plan.shard_of_machine(f.src);
          const auto m = static_cast<long long>(config.racks);
          const auto n = static_cast<long long>(plan.num_shards());
          const auto begin = static_cast<MachineId>(g * m / n);
          const auto end = static_cast<MachineId>((g + 1) * m / n);
          dst = begin + static_cast<MachineId>(rng.uniform_int(
                            0, static_cast<int>(end - begin) - 1));
        }
        view.flows.push_back(ActiveFlow{f.id, f.coflow, f.src, dst});
        remaining[static_cast<std::size_t>(f.id)] = f.size_bits;
      }
      pristine.push_back(std::move(view));
    }
    info = std::make_unique<ClairvoyantInfo>(&remaining);
  }
};

// One replay step at coflow cursor k — three events, each followed by an
// allocate(): the last flow of coflow k finishes, k departs (swap-pop),
// then k re-arrives pristine (same shape as bench_sched_scalability).
template <typename OnEvent>
void replay_triple(ScheduleInput& input, std::size_t k,
                   const ActiveCoflow& pristine, OnEvent&& on_event) {
  ActiveCoflow& coflow = input.coflows[k];
  const ActiveFlow finished = coflow.flows.back();
  coflow.flows.pop_back();
  coflow.finished_flows.push_back(finished);
  on_event(/*finish=*/&finished, /*depart=*/static_cast<CoflowId>(-1),
           /*arrive=*/static_cast<const ActiveCoflow*>(nullptr));

  const CoflowId departed = coflow.id;
  if (k + 1 != input.coflows.size()) {
    input.coflows[k] = std::move(input.coflows.back());
  }
  input.coflows.pop_back();
  on_event(nullptr, departed, nullptr);

  input.coflows.push_back(pristine);
  on_event(nullptr, static_cast<CoflowId>(-1), &input.coflows.back());
}

Row run_cell(const BenchConfig& config, const Workload& workload,
             const std::string& policy, int shards, int num_coflows) {
  ScheduleInput input;
  input.fabric = &workload.fabric;
  input.coflows = workload.pristine;
  input.clairvoyant = workload.info.get();

  SchedulerOptions options;
  options.shards = shards;
  const std::unique_ptr<Scheduler> sched = make_scheduler(policy, options);

  Scheduler* hooks = nullptr;
  if (sched->wants_events()) {
    hooks = sched.get();
    hooks->on_reset(workload.fabric);
    for (const ActiveCoflow& c : input.coflows) {
      hooks->on_coflow_arrival(c);
    }
  }

  int live = 0;
  for (const ActiveCoflow& c : input.coflows) {
    live += static_cast<int>(c.flows.size());
  }

  int cursor_flows = 0;
  const auto on_event = [&](const ActiveFlow* finish, CoflowId depart,
                            const ActiveCoflow* arrive) {
    if (finish != nullptr) {
      live -= 1;
      if (hooks != nullptr) hooks->on_flow_finish(*finish);
    }
    if (depart >= 0) {
      live -= cursor_flows - 1;
      if (hooks != nullptr) hooks->on_coflow_departure(depart);
    }
    if (arrive != nullptr) {
      live += cursor_flows;
      if (hooks != nullptr) hooks->on_coflow_arrival(*arrive);
    }
    input.total_live_flows = live;
    const Allocation alloc = sched->allocate(input);
    // Touch the result so the allocate cannot be elided.
    if (alloc.num_flows() == 0 && live > 0) {
      NCDRF_CHECK(false, "allocate returned no rates for a live snapshot");
    }
  };

  const auto step = [&](std::size_t cursor) {
    const CoflowId id = input.coflows[cursor].id;
    const ActiveCoflow& base = workload.pristine[static_cast<std::size_t>(id)];
    cursor_flows = static_cast<int>(base.flows.size());
    replay_triple(input, cursor, base, on_event);
    return (cursor + 1) % input.coflows.size();
  };

  // Warm the scheduler's scratch buffers (and the shard pool) untimed.
  std::size_t cursor = 0;
  for (int i = 0; i < 2; ++i) cursor = step(cursor);

  const SchedPerf before =
      sched->perf_counters() != nullptr ? *sched->perf_counters() : SchedPerf{};
  const double cpu_start = thread_cpu_seconds();
  const auto wall_start = std::chrono::steady_clock::now();
  for (int i = 0; i < config.triples; ++i) cursor = step(cursor);
  const auto wall_end = std::chrono::steady_clock::now();
  const double cpu_end = thread_cpu_seconds();
  const SchedPerf after =
      sched->perf_counters() != nullptr ? *sched->perf_counters() : SchedPerf{};

  Row row;
  row.policy = policy;
  row.shards = shards;
  row.coflows = num_coflows;
  row.racks = config.racks;
  row.locality = config.locality;
  row.events = 3LL * config.triples;
  row.wall_seconds =
      std::chrono::duration<double>(wall_end - wall_start).count();
  row.main_cpu_seconds = cpu_end - cpu_start;
  row.shard_busy_seconds =
      after.shard_busy_seconds - before.shard_busy_seconds;
  row.shard_critical_seconds =
      after.shard_critical_seconds - before.shard_critical_seconds;
  return row;
}

void write_json(const std::vector<Row>& rows, std::ostream& out) {
  out << "{\n  \"benchmark\": \"bench_scale\",\n  \"rows\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    const double modeled = r.main_cpu_seconds + r.shard_critical_seconds;
    char buffer[640];
    std::snprintf(
        buffer, sizeof(buffer),
        "    {\"policy\": \"%s\", \"shards\": %d, \"coflows\": %d, "
        "\"racks\": %d, \"locality\": %.3f, \"events\": %lld, "
        "\"wall_seconds\": %.6f, \"wall_events_per_s\": %.1f, "
        "\"main_cpu_seconds\": %.6f, \"shard_busy_seconds\": %.6f, "
        "\"shard_critical_seconds\": %.6f, \"modeled_seconds\": %.6f, "
        "\"modeled_events_per_s\": %.1f}%s\n",
        r.policy.c_str(), r.shards, r.coflows, r.racks, r.locality, r.events,
        r.wall_seconds,
        r.wall_seconds > 0.0 ? static_cast<double>(r.events) / r.wall_seconds
                             : 0.0,
        r.main_cpu_seconds, r.shard_busy_seconds, r.shard_critical_seconds,
        modeled,
        modeled > 0.0 ? static_cast<double>(r.events) / modeled : 0.0,
        i + 1 < rows.size() ? "," : "");
    out << buffer;
  }
  out << "  ]\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  BenchConfig config;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&](const char* prefix) -> std::string {
      return arg.substr(std::strlen(prefix));
    };
    if (arg.rfind("--policies=", 0) == 0) {
      config.policies = split_list(value("--policies="));
    } else if (arg.rfind("--shards=", 0) == 0) {
      config.shards = split_ints(value("--shards="));
    } else if (arg.rfind("--coflows=", 0) == 0) {
      config.coflows = split_ints(value("--coflows="));
    } else if (arg.rfind("--racks=", 0) == 0) {
      config.racks = std::stoi(value("--racks="));
    } else if (arg.rfind("--triples=", 0) == 0) {
      config.triples = std::stoi(value("--triples="));
    } else if (arg.rfind("--max-flows=", 0) == 0) {
      config.max_flows_per_coflow = std::stoi(value("--max-flows="));
    } else if (arg.rfind("--locality=", 0) == 0) {
      config.locality = std::stod(value("--locality="));
    } else if (arg.rfind("--json=", 0) == 0) {
      config.json_path = value("--json=");
    } else {
      std::cerr << "unknown argument: " << arg << "\n"
                << "usage: bench_scale [--policies=a,b] [--shards=1,4] "
                   "[--coflows=10000] [--racks=150] [--triples=10] "
                   "[--max-flows=64] [--locality=0.9] [--json=out.json]\n";
      return 2;
    }
  }
  NCDRF_CHECK(!config.policies.empty() && !config.shards.empty() &&
                  !config.coflows.empty(),
              "empty benchmark matrix");
  NCDRF_CHECK(config.triples > 0, "need at least one replay triple");

  const int groups =
      *std::max_element(config.shards.begin(), config.shards.end());

  std::vector<Row> rows;
  for (const int num_coflows : config.coflows) {
    const Workload workload(config, num_coflows, std::max(groups, 1));
    for (const std::string& policy : config.policies) {
      for (const int shards : config.shards) {
        const Row row = run_cell(config, workload, policy, shards,
                                 num_coflows);
        const double modeled =
            row.main_cpu_seconds + row.shard_critical_seconds;
        std::fprintf(
            stderr,
            "%-10s shards=%d coflows=%d wall=%.3fs modeled=%.3fs "
            "(%.0f ev/s modeled)\n",
            policy.c_str(), shards, num_coflows, row.wall_seconds, modeled,
            modeled > 0.0 ? static_cast<double>(row.events) / modeled : 0.0);
        rows.push_back(row);
      }
    }
  }

  if (!config.json_path.empty()) {
    std::ofstream out(config.json_path);
    NCDRF_CHECK(out.good(), "cannot open json output: " + config.json_path);
    write_json(rows, out);
  } else {
    write_json(rows, std::cout);
  }
  return 0;
}
