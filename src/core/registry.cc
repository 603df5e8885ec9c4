#include "core/registry.h"

#include <charconv>
#include <system_error>

#include "common/check.h"
#include "core/ncdrf.h"
#include "sched/aalo.h"
#include "sched/baraat.h"
#include "sched/drf.h"
#include "sched/endpoint_fair.h"
#include "sched/fifo.h"
#include "sched/hug.h"
#include "sched/karma.h"
#include "sched/perflow.h"
#include "sched/psp.h"
#include "sched/varys.h"

namespace ncdrf {
namespace {

// Every policy without a sharded path; null for an unknown name.
std::unique_ptr<Scheduler> make_serial_scheduler(const std::string& name) {
  if (name == "ncdrf") return std::make_unique<NcDrfScheduler>();
  if (name == "ncdrf-live") {
    return std::make_unique<NcDrfScheduler>(
        NcDrfOptions{.count_finished_flows = false});
  }
  if (name == "psp-live") {
    return std::make_unique<PspScheduler>(
        PspOptions{.count_finished_flows = false});
  }
  if (name == "hug") return std::make_unique<HugScheduler>();
  if (name == "psp") return std::make_unique<PspScheduler>();
  if (name == "aalo") return std::make_unique<AaloScheduler>();
  if (name == "varys") return std::make_unique<VarysScheduler>();
  if (name == "fifo") return std::make_unique<FifoScheduler>();
  if (name == "baraat") return std::make_unique<BaraatScheduler>();
  if (name == "karma") return std::make_unique<KarmaScheduler>();
  if (name == "persource") {
    return std::make_unique<EndpointFairScheduler>(FairnessEntity::kSource);
  }
  if (name == "perpair") {
    return std::make_unique<EndpointFairScheduler>(
        FairnessEntity::kSourceDestinationPair);
  }
  return nullptr;
}

}  // namespace

std::unique_ptr<Scheduler> make_scheduler(const std::string& name) {
  const std::size_t at = name.rfind('@');
  if (at != std::string::npos) {
    // from_chars consumes the whole suffix or fails, and reports a count
    // that does not fit in an int instead of throwing.
    const char* begin = name.data() + at + 1;
    const char* end = name.data() + name.size();
    SchedulerOptions options;
    const auto [ptr, ec] = std::from_chars(begin, end, options.shards);
    NCDRF_CHECK(begin != end && ec == std::errc{} && ptr == end,
                "malformed shard suffix in scheduler name: " + name);
    NCDRF_CHECK(options.shards >= 1,
                "shard count must be positive in: " + name);
    return make_scheduler(name.substr(0, at), options);
  }
  return make_scheduler(name, SchedulerOptions{});
}

std::unique_ptr<Scheduler> make_scheduler(const std::string& name,
                                          const SchedulerOptions& options) {
  // ShardRuntime::create bounds the shard count of the two sharded paths.
  if (name == "drf") return std::make_unique<DrfScheduler>(DrfOptions{}, options);
  if (name == "tcp") return std::make_unique<PerFlowScheduler>(options);
  std::unique_ptr<Scheduler> scheduler = make_serial_scheduler(name);
  NCDRF_CHECK(scheduler != nullptr, "unknown scheduler name: " + name);
  NCDRF_CHECK(options.shards <= 1,
              name + " has no sharded path; use shards == 1");
  return scheduler;
}

std::vector<std::string> scheduler_names() {
  return {"tcp",   "persource",  "perpair", "psp",  "psp-live",
          "ncdrf", "ncdrf-live", "drf",     "hug",  "aalo",
          "varys", "baraat",     "fifo",    "karma"};
}

}  // namespace ncdrf
