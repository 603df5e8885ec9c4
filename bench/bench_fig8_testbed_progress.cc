// Fig. 8: per-coflow progress over time on the (emulated) testbed under
// TCP, PS-P and NC-DRF.
//
// Paper: NC-DRF holds the progress of coflow-A and coflow-B nearly equal
// during 10-20 s, and of A and C during 20-47 s — instantaneous equal
// progress without knowing any flow size — while TCP and PS-P do not.
#include <iomanip>
#include <iostream>
#include <map>

#include "bench_util.h"
#include "cluster/deployment.h"
#include "sim/audit.h"
#include "trace/microbench.h"

int main() {
  using namespace ncdrf;
  bench::print_header(
      "Fig. 8 — coflow progress over time in the testbed emulation",
      "NC-DRF: near-equal progress A~B in 10-20s and A~C after 20s");

  const Trace trace = build_testbed_trace({});
  const Fabric fabric(60, mbps(200.0));

  for (const std::string name : {"tcp", "psp-live", "ncdrf-live"}) {
    const auto scheduler = make_scheduler(name);
    DeploymentOptions options;
    options.progress_sample_period_s = 1.0;
    std::cerr << "  deploying " << scheduler->name() << "...\n";
    const DeploymentResult result =
        run_deployment(fabric, trace, *scheduler, options);

    std::cout << "\n--- " << scheduler->name()
              << " (progress in Mbps, per second) ---\n";
    std::cout << "  t(s)    A       B       C\n";
    std::map<int, std::map<CoflowId, double>> rows;
    for (const ProgressSample& s : result.progress) {
      rows[static_cast<int>(s.t0)][s.coflow] = s.progress;
    }
    for (const auto& [t, row] : rows) {
      if (t % 4 != 0) continue;  // print every 4 s to keep output compact
      std::cout << std::setw(5) << t << "  ";
      for (CoflowId c = 0; c < 3; ++c) {
        const auto it = row.find(c);
        if (it == row.end()) {
          std::cout << std::setw(7) << "-" << ' ';
        } else {
          std::cout << std::setw(7) << AsciiTable::fmt(it->second / 1e6, 1)
                    << ' ';
        }
      }
      std::cout << '\n';
    }
    std::cout << "relative progress gap A vs B in [10, 20] s: "
              << AsciiTable::fmt(obs::relative_progress_gap(
                                     result.progress, 0, 1, 10.0, 20.0),
                                 2)
              << "   A vs C in [20, 45] s: "
              << AsciiTable::fmt(obs::relative_progress_gap(
                                     result.progress, 0, 2, 20.0, 45.0),
                                 2)
              << "   (0 = perfectly equal)\n";
  }
  return 0;
}
