#include "core/registry.h"

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

std::unique_ptr<Scheduler> make_scheduler(const std::string& name) {
  const std::size_t at = name.rfind('@');
  if (at != std::string::npos) {
    const std::string suffix = name.substr(at + 1);
    NCDRF_CHECK(!suffix.empty() &&
                    suffix.find_first_not_of("0123456789") ==
                        std::string::npos,
                "malformed shard suffix in scheduler name: " + name);
    SchedulerOptions options;
    options.shards = std::stoi(suffix);
    NCDRF_CHECK(options.shards >= 1,
                "shard count must be positive in: " + name);
    return make_scheduler(name.substr(0, at), options);
  }
  return make_scheduler(name, SchedulerOptions{});
}

std::unique_ptr<Scheduler> make_scheduler(const std::string& name,
                                          const SchedulerOptions& options) {
  const auto serial_only = [&](const char* policy) {
    NCDRF_CHECK(options.shards <= 1,
                std::string(policy) +
                    " has no sharded path; use shards == 1");
  };
  if (name == "ncdrf") {
    serial_only("ncdrf");
    return std::make_unique<NcDrfScheduler>();
  }
  if (name == "ncdrf-live") {
    serial_only("ncdrf-live");
    return std::make_unique<NcDrfScheduler>(
        NcDrfOptions{.count_finished_flows = false});
  }
  if (name == "psp-live") {
    return std::make_unique<PspScheduler>(
        PspOptions{.count_finished_flows = false}, options);
  }
  if (name == "drf") return std::make_unique<DrfScheduler>(DrfOptions{}, options);
  if (name == "hug") return std::make_unique<HugScheduler>(HugOptions{}, options);
  if (name == "psp") return std::make_unique<PspScheduler>(PspOptions{}, options);
  if (name == "tcp") return std::make_unique<PerFlowScheduler>(options);
  if (name == "aalo") {
    return std::make_unique<AaloScheduler>(AaloOptions{}, options);
  }
  if (name == "varys") {
    return std::make_unique<VarysScheduler>(VarysOptions{}, options);
  }
  if (name == "fifo") {
    return std::make_unique<FifoScheduler>(FifoOptions{}, options);
  }
  if (name == "baraat") {
    return std::make_unique<BaraatScheduler>(BaraatOptions{}, options);
  }
  if (name == "karma") {
    serial_only("karma");
    return std::make_unique<KarmaScheduler>();
  }
  if (name == "persource") {
    return std::make_unique<EndpointFairScheduler>(FairnessEntity::kSource,
                                                   options);
  }
  if (name == "perpair") {
    return std::make_unique<EndpointFairScheduler>(
        FairnessEntity::kSourceDestinationPair, options);
  }
  NCDRF_CHECK(false, "unknown scheduler name: " + name);
  return nullptr;
}

std::vector<std::string> scheduler_names() {
  return {"tcp",   "persource",  "perpair", "psp",  "psp-live",
          "ncdrf", "ncdrf-live", "drf",     "hug",  "aalo",
          "varys", "baraat",     "fifo",    "karma"};
}

}  // namespace ncdrf
