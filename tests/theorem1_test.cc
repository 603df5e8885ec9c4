// Theorem 1 regression test: on randomized theorem-shaped instances
// (R_k < M_k reducers, identical flow sizes from every uplink into each
// downlink), non-clairvoyant NC-DRF completes every coflow within
// e_max × its clairvoyant-DRF completion time, where e_max is the largest
// intra-coflow demand disparity (Eq. 4). Fixed seeds make this a
// regression test for the paper's long-term isolation guarantee, not a
// flaky statistical check.
#include <gtest/gtest.h>

#include <algorithm>

#include "coflow/coflow.h"
#include "common/rng.h"
#include "common/units.h"
#include "core/ncdrf.h"
#include "sched/drf.h"
#include "sim/audit.h"
#include "sim/sim.h"

namespace ncdrf {
namespace {

// A theorem-satisfying instance: each coflow picks M_k uplinks and
// R_k < M_k downlinks, with one per-downlink size shared by all its
// incoming flows (drawn as base × U[1, spread]).
Trace theorem1_instance(std::uint64_t seed, int machines, int coflows,
                        double size_spread) {
  Rng rng(seed);
  TraceBuilder builder(machines);
  for (int c = 0; c < coflows; ++c) {
    builder.begin_coflow(0.0);
    const int m_k = static_cast<int>(rng.uniform_int(2, machines));
    const int r_k = static_cast<int>(rng.uniform_int(1, m_k - 1));
    const std::vector<int> ups =
        rng.sample_without_replacement(machines, m_k);
    const std::vector<int> downs =
        rng.sample_without_replacement(machines, r_k);
    const double base = rng.uniform(megabits(20.0), megabits(200.0));
    for (const int down : downs) {
      const double size = base * rng.uniform(1.0, size_spread);
      for (const int up : ups) builder.add_flow(up, down, size);
    }
  }
  return builder.build();
}

class Theorem1Bound
    : public ::testing::TestWithParam<std::tuple<int, double>> {};

TEST_P(Theorem1Bound, NcDrfWithinEmaxOfClairvoyantDrf) {
  const auto [seed, spread] = GetParam();
  const Fabric fabric(8, gbps(1.0));
  const Trace trace = theorem1_instance(static_cast<std::uint64_t>(seed), 8,
                                        10, spread);

  // e_max: the instance-wide maximum intra-coflow disparity (Eq. 4) —
  // exactly the constant of the theorem's statement F_k <= e_max F_k^D.
  double e_max = 1.0;
  for (const Coflow& coflow : trace.coflows) {
    e_max = std::max(e_max, coflow.demand(fabric).disparity());
  }

  NcDrfScheduler ncdrf;
  DrfScheduler drf;
  SimOptions options;
  options.record_intervals = false;
  // Live audit layer alongside the explicit check below: the auditor's
  // private shadow-DRF simulation must reach the same verdict (zero
  // envelope violations) and the same e_max.
  obs::FairnessAuditor auditor(fabric);
  options.auditor = &auditor;
  const RunResult run_nc = simulate(fabric, trace, ncdrf, options);
  options.auditor = nullptr;
  const RunResult run_drf = simulate(fabric, trace, drf, options);
  ASSERT_EQ(run_nc.coflows.size(), trace.coflows.size());
  for (std::size_t k = 0; k < trace.coflows.size(); ++k) {
    ASSERT_GT(run_drf.coflows[k].cct, 0.0);
    const double ratio = run_nc.coflows[k].cct / run_drf.coflows[k].cct;
    EXPECT_LE(ratio, e_max * (1.0 + 1e-6))
        << "coflow " << k << " seed " << seed << " spread " << spread
        << ": F_k/F_k^D = " << ratio << " > e_max = " << e_max;
  }

  auditor.finalize();
  EXPECT_NEAR(auditor.e_max(), e_max, e_max * 1e-9);
  EXPECT_EQ(auditor.coflows_checked(),
            static_cast<long long>(trace.coflows.size()));
  for (const obs::AuditViolation& v : auditor.violations()) {
    ADD_FAILURE() << "auditor flagged coflow " << v.coflow << ": ratio "
                  << v.ratio << " > bound " << v.bound << " (seed " << seed
                  << " spread " << spread << ")";
  }
  // The auditor's shadow runs DRF on the same engine, so its baseline is
  // the independent DRF run's, bit for bit.
  for (std::size_t k = 0; k < trace.coflows.size(); ++k) {
    EXPECT_EQ(auditor.shadow_cct(run_nc.coflows[k].id),
              run_drf.coflows[k].cct)
        << "coflow " << k;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, Theorem1Bound,
    ::testing::Combine(::testing::Range(0, 12),
                       ::testing::Values(1.5, 3.0)));

TEST(Theorem1Bound, IdenticalSizesCollapseToDrfExactly) {
  // Spread 1.0 is the identical-flow-size extreme where NC-DRF's count
  // correlation equals DRF's size correlation at every instant, so the
  // non-work-conserving core makes exactly DRF's decisions (Remark 1).
  // Backfilling is disabled: it only ever lets NC-DRF finish *earlier*
  // than DRF, which breaks equality, not the bound.
  const Fabric fabric(8, gbps(1.0));
  const Trace trace = theorem1_instance(99, 8, 10, 1.0);
  NcDrfScheduler ncdrf(NcDrfOptions{.work_conserving = false,
                                    .count_finished_flows = false});
  DrfScheduler drf;
  const RunResult run_nc = simulate(fabric, trace, ncdrf);
  const RunResult run_drf = simulate(fabric, trace, drf);
  for (std::size_t k = 0; k < trace.coflows.size(); ++k) {
    EXPECT_NEAR(run_nc.coflows[k].cct, run_drf.coflows[k].cct,
                run_drf.coflows[k].cct * 1e-6)
        << "coflow " << k;
  }
}

}  // namespace
}  // namespace ncdrf
