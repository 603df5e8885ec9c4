// ScenarioSpec: one declarative bundle — workload, per-tenant strategies,
// fault script, policy, fabric — runnable on any execution plane.
//
// The spec is the portable unit of the scenario spine: the same JSON
// document drives the event-driven fluid simulator, the tick-driven
// master/slave deployment (with the fault plan), and the online serving
// front-end, so a gaming experiment or a regression is written once and
// cross-checked across planes. to_json/parse_scenario round-trip exactly
// (every field, full double precision), which is what lets specs live in
// version control and bench manifests.
//
// Plane semantics:
//   * run_on_sim       — simulate() over the transformed workload;
//   * run_on_serve     — the same simulate() call with a ServeFront as
//     the control plane: the engine plays the clients and slaves, and every
//     arrival/completion instant sends the finishes and one heartbeat per
//     machine and steps one epoch that admits every due submission
//     ("epoch=1") — the CCT-equivalence mode;
//   * run_on_deployment — run_deployment() with spec.faults (discrete
//     ticks, control latency; CCTs quantized to the tick).
#pragma once

#include <map>
#include <string>
#include <vector>

#include "cluster/deployment.h"
#include "scenario/strategy.h"
#include "serve/loadgen.h"
#include "sim/sim.h"

namespace ncdrf::scenario {

struct ScenarioSpec {
  std::string name = "scenario";
  std::string policy = "ncdrf";
  double link_gbps = 1.0;  // homogeneous per-direction link capacity
  // Synthetic workload (machines and clients come from here).
  serve::LoadGenOptions workload;
  // Per-client strategy; clients absent from the map submit honestly.
  std::map<int, StrategySpec> strategies;
  // Timed fault script, consumed by the deployment plane only.
  FaultPlan faults;
};

std::string to_json(const ScenarioSpec& spec);
ScenarioSpec parse_scenario(const std::string& json);

Fabric make_fabric(const ScenarioSpec& spec);

// The spec's workload, honest and transformed, with evaluation metadata.
struct ScenarioWorkload {
  std::vector<std::vector<serve::Submission>> honest;
  TransformedWorkload transformed;
  // Submitting client per transformed coflow id.
  std::vector<int> tenant_of;
};

ScenarioWorkload build_workload(const ScenarioSpec& spec);

struct ScenarioRun {
  RunResult result;
  ScenarioWorkload workload;
};

ScenarioRun run_on_sim(const ScenarioSpec& spec);
ScenarioRun run_on_serve(const ScenarioSpec& spec);
DeploymentResult run_on_deployment(const ScenarioSpec& spec,
                                   const DeploymentOptions& options = {});

}  // namespace ncdrf::scenario
