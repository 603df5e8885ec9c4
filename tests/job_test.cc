// Tests for the multi-stage job layer and the dynamic simulation engine
// underneath it: dependency-driven releases, analytic pipeline timings,
// DAG validation, and cross-policy job-level behaviour.
#include <gtest/gtest.h>

#include <map>

#include "common/units.h"
#include "core/registry.h"
#include "job/job.h"
#include "sim/audit.h"
#include "sim/engine.h"
#include "trace/patterns.h"

namespace ncdrf {
namespace {

TEST(DynamicEngine, RunsATraceIdenticallyToSimulate) {
  const Fabric fabric(3, gbps(1.0));
  TraceBuilder builder(3);
  builder.begin_coflow(0.0);
  builder.add_flow(0, 1, megabits(100.0));
  builder.add_flow(1, 2, megabits(200.0));
  builder.begin_coflow(0.5);
  builder.add_flow(2, 0, megabits(300.0));
  const Trace trace = builder.build();

  const auto s1 = make_scheduler("ncdrf");
  const auto s2 = make_scheduler("ncdrf");
  const RunResult via_simulate = simulate(fabric, trace, *s1);

  DynamicSimulator engine(fabric, *s2);
  for (const Coflow& c : trace.coflows) engine.submit(c);
  engine.run();
  const RunResult via_engine = engine.take_result();

  ASSERT_EQ(via_engine.coflows.size(), via_simulate.coflows.size());
  for (std::size_t k = 0; k < via_engine.coflows.size(); ++k) {
    EXPECT_DOUBLE_EQ(via_engine.coflows[k].cct, via_simulate.coflows[k].cct);
  }
}

TEST(DynamicEngine, CallbackDrivenSubmissionChainsCoflows) {
  // Submit coflow 1 only when coflow 0 completes: strictly sequential.
  const Fabric fabric(2, gbps(1.0));
  const auto sched = make_scheduler("ncdrf");
  DynamicSimulator engine(fabric, *sched);

  engine.set_completion_callback([&](const CoflowRecord& rec) {
    if (rec.id == 0) {
      std::vector<Flow> flows{{1, 1, 0, 1, gigabits(1.0)}};
      engine.submit(Coflow(1, rec.completion, std::move(flows)));
    }
  });
  std::vector<Flow> flows{{0, 0, 0, 1, gigabits(1.0)}};
  engine.submit(Coflow(0, 0.0, std::move(flows)));
  engine.run();
  const RunResult result = engine.take_result();
  ASSERT_EQ(result.coflows.size(), 2u);
  EXPECT_NEAR(result.coflows[0].completion, 1.0, 1e-6);
  EXPECT_NEAR(result.coflows[1].completion, 2.0, 1e-6);
}

TEST(DynamicEngine, RejectsDuplicateAndPastSubmissions) {
  const Fabric fabric(2, gbps(1.0));
  const auto sched = make_scheduler("ncdrf");
  DynamicSimulator engine(fabric, *sched);
  std::vector<Flow> flows{{0, 0, 0, 1, 1e6}};
  engine.submit(Coflow(0, 1.0, flows));
  std::vector<Flow> dup{{1, 0, 0, 1, 1e6}};
  EXPECT_THROW(engine.submit(Coflow(0, 2.0, dup)), CheckError);
  engine.run();
  std::vector<Flow> past{{2, 1, 0, 1, 1e6}};
  EXPECT_THROW(engine.submit(Coflow(1, 0.5, past)), CheckError);
}

TEST(Jobs, ValidationCatchesBadSpecs) {
  EXPECT_THROW(validate_jobs({}), CheckError);

  JobSpec no_stages{"empty", 0.0, {}};
  EXPECT_THROW(validate_jobs({no_stages}), CheckError);

  JobSpec bad_parent{"bad", 0.0, {}};
  Stage stage;
  stage.name = "s0";
  stage.parents = {0};  // self/forward reference
  stage.transfers.push_back(StageTransfer{0, 1, 1e6});
  bad_parent.stages.push_back(stage);
  EXPECT_THROW(validate_jobs({bad_parent}), CheckError);

  JobSpec no_transfers{"bare", 0.0, {}};
  Stage bare;
  bare.name = "s0";
  no_transfers.stages.push_back(bare);
  EXPECT_THROW(validate_jobs({no_transfers}), CheckError);
}

TEST(Jobs, LinearPipelineRunsStagesSequentially) {
  // Two machines, two-stage ring pipeline, 1 Gb per flow, no compute
  // delay, empty fabric: each stage is a 2-flow exchange finishing in 1 s
  // (each flow gets its own links) → job duration 2 s.
  const Fabric fabric(2, gbps(1.0));
  const JobSpec job = make_linear_pipeline("p", 0.0, 2, machine_range(0, 2),
                                           gigabits(1.0));
  const auto sched = make_scheduler("ncdrf");
  const JobSetResult result = run_jobs(fabric, {job}, *sched);

  ASSERT_EQ(result.jobs.size(), 1u);
  EXPECT_NEAR(result.jobs[0].duration, 2.0, 1e-6);
  ASSERT_EQ(result.stages.size(), 2u);
  // Stage 1 released exactly when stage 0 completed.
  EXPECT_NEAR(result.stages[0].completion_time, 1.0, 1e-6);
  EXPECT_NEAR(result.stages[1].release_time, 1.0, 1e-6);
  EXPECT_NEAR(result.stages[1].completion_time, 2.0, 1e-6);
}

TEST(Jobs, ComputeDelayShiftsReleases) {
  const Fabric fabric(2, gbps(1.0));
  const JobSpec job = make_linear_pipeline(
      "p", 0.0, 2, machine_range(0, 2), gigabits(1.0),
      /*compute_delay_s=*/0.5);
  const auto sched = make_scheduler("ncdrf");
  const JobSetResult result = run_jobs(fabric, {job}, *sched);
  // 0.5 compute + 1.0 shuffle per stage → 3.0 total.
  EXPECT_NEAR(result.jobs[0].duration, 3.0, 1e-6);
  EXPECT_NEAR(result.stages[1].release_time, 2.0, 1e-6);
}

TEST(Jobs, DiamondRespectsJoinDependency) {
  const Fabric fabric(8, gbps(1.0));
  const JobSpec job =
      make_diamond_job("d", 0.0, machine_range(0, 3), machine_range(3, 4),
                       /*sink=*/7, megabits(200.0));
  const auto sched = make_scheduler("ncdrf");
  const JobSetResult result = run_jobs(fabric, {job}, *sched);

  std::map<int, StageResult> by_stage;
  for (const StageResult& s : result.stages) by_stage[s.stage] = s;
  ASSERT_EQ(by_stage.size(), 4u);
  // Both aggregations start when the shuffle ends...
  EXPECT_NEAR(by_stage[1].release_time, by_stage[0].completion_time, 1e-9);
  EXPECT_NEAR(by_stage[2].release_time, by_stage[0].completion_time, 1e-9);
  // ...and the collect starts only when the slower aggregation ends.
  EXPECT_NEAR(by_stage[3].release_time,
              std::max(by_stage[1].completion_time,
                       by_stage[2].completion_time),
              1e-9);
  EXPECT_NEAR(result.jobs[0].completion, by_stage[3].completion_time, 1e-9);
}

TEST(Jobs, StaggeredJobsContendOnTheFabric) {
  // Two identical pipelines sharing the same group: together they must be
  // slower than one alone (contention), and both must finish.
  const Fabric fabric(4, gbps(1.0));
  const std::vector<MachineId> group = machine_range(0, 4);
  const JobSpec solo = make_linear_pipeline("a", 0.0, 3, group,
                                            megabits(400.0));
  const auto sched_solo = make_scheduler("ncdrf");
  const double solo_duration =
      run_jobs(fabric, {solo}, *sched_solo).jobs[0].duration;

  const JobSpec a = make_linear_pipeline("a", 0.0, 3, group,
                                         megabits(400.0));
  const JobSpec b = make_linear_pipeline("b", 0.1, 3, group,
                                         megabits(400.0));
  const auto sched_both = make_scheduler("ncdrf");
  const JobSetResult both = run_jobs(fabric, {a, b}, *sched_both);
  EXPECT_GT(both.jobs[0].duration, solo_duration - 1e-9);
  EXPECT_GT(both.jobs[1].duration, solo_duration - 1e-9);
  EXPECT_GT(both.jobs[0].duration + both.jobs[1].duration,
            2.0 * solo_duration);
}

TEST(Jobs, EveryPolicyCompletesAJobMix) {
  const Fabric fabric(10, gbps(1.0));
  std::vector<JobSpec> jobs;
  jobs.push_back(make_linear_pipeline("p0", 0.0, 3, machine_range(0, 4),
                                      megabits(150.0)));
  jobs.push_back(make_diamond_job("d0", 0.2, machine_range(2, 3),
                                  machine_range(5, 3), 9,
                                  megabits(100.0)));
  jobs.push_back(make_linear_pipeline("p1", 0.5, 2, machine_range(4, 5),
                                      megabits(250.0)));
  for (const std::string& name : scheduler_names()) {
    const auto sched = make_scheduler(name);
    const JobSetResult result = run_jobs(fabric, jobs, *sched);
    for (const JobResult& job : result.jobs) {
      EXPECT_GT(job.duration, 0.0) << name << " " << job.name;
    }
    // Stage releases never precede their parents' completions.
    std::map<std::pair<int, int>, double> completion;
    for (const StageResult& s : result.stages) {
      completion[{s.job, s.stage}] = s.completion_time;
    }
    for (const StageResult& s : result.stages) {
      for (const int parent :
           jobs[static_cast<std::size_t>(s.job)]
               .stages[static_cast<std::size_t>(s.stage)]
               .parents) {
        const double parent_done = completion[{s.job, parent}];
        EXPECT_GE(s.release_time, parent_done - 1e-9) << name;
      }
    }
  }
}

TEST(Jobs, AuditorFollowsPipelinedReleases) {
  // Job A's second stage is released when its first one finishes, after
  // job B (t = 100) was already submitted: the auditor must take the
  // submissions out of arrival order, and watching must not move the run.
  const Fabric fabric(4, gbps(1.0));
  const std::vector<MachineId> group = machine_range(0, 4);
  const std::vector<JobSpec> jobs = {
      make_linear_pipeline("a", 0.0, 2, group, megabits(400.0)),
      make_linear_pipeline("b", 100.0, 1, group, megabits(400.0))};
  const auto plain_sched = make_scheduler("ncdrf");
  const JobSetResult plain = run_jobs(fabric, jobs, *plain_sched);

  obs::FairnessAuditor auditor(fabric);
  SimOptions options;
  options.auditor = &auditor;
  const auto audited_sched = make_scheduler("ncdrf");
  const JobSetResult audited =
      run_jobs(fabric, jobs, *audited_sched, options);
  auditor.finalize();
  EXPECT_EQ(auditor.coflows_checked(), 3);
  EXPECT_TRUE(auditor.violations().empty());

  ASSERT_EQ(audited.stages.size(), plain.stages.size());
  for (std::size_t i = 0; i < plain.stages.size(); ++i) {
    EXPECT_EQ(audited.stages[i].job, plain.stages[i].job);
    EXPECT_EQ(audited.stages[i].stage, plain.stages[i].stage);
    EXPECT_EQ(audited.stages[i].release_time, plain.stages[i].release_time);
    EXPECT_EQ(audited.stages[i].completion_time,
              plain.stages[i].completion_time);
    EXPECT_EQ(audited.stages[i].coflow_cct, plain.stages[i].coflow_cct);
  }
  ASSERT_EQ(audited.jobs.size(), plain.jobs.size());
  for (std::size_t j = 0; j < plain.jobs.size(); ++j) {
    EXPECT_EQ(audited.jobs[j].completion, plain.jobs[j].completion);
    EXPECT_EQ(audited.jobs[j].duration, plain.jobs[j].duration);
  }
}

}  // namespace
}  // namespace ncdrf
