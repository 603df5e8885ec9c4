// Streaming fairness auditor — checks the paper's long-term isolation
// guarantee (Theorem 1) against a live run instead of trusting it.
//
// The auditor shadows the real (non-clairvoyant) run with a private
// clairvoyant-DRF run of the same submissions: a DynamicSimulator running
// DrfScheduler, paused with run_until() at every instant the real run
// reports on. Its completion times are the baseline F_k^D of the theorem's
// statement F_k ≤ e_max · F_k^D, equal bit for bit to those of a
// standalone DRF simulate() over the same coflows, where e_max is the
// instance-wide maximum intra-coflow demand disparity (Eq. 4) over the
// coflows seen so far.
//
// Two outputs:
//   * violations(): coflows whose real completion broke the envelope —
//     checked the moment the real run retires them (deferred to
//     finalize() for coflows the slower shadow hasn't finished yet, since
//     the bound cannot be violated while F_k^D is still growing).
//   * series(): per-interval samples pairing the real run's instantaneous
//     progress P_k and dominant-link share with the shadow's P_k^D and
//     the envelope line e_max·P_k^D — the Fig. 8-style time series, via
//     write_series_csv().
//
// The shadow pays one DRF allocation per shadow event and is meant for
// audit-grade runs (theorem instances, testbed traces, CI), not for the
// 500-coflow replay hot path — drivers attach an auditor only on request.
#pragma once

#include <iosfwd>
#include <map>
#include <memory>
#include <ostream>
#include <set>
#include <vector>

#include "coflow/coflow.h"
#include "fabric/fabric.h"

namespace ncdrf::obs {

// One per-coflow sample over [t0, t1): the real run's instantaneous
// progress and dominant-link share next to the shadow DRF baseline. The
// envelope line of the plots is e_max() · shadow_progress.
struct AuditSample {
  double t0 = 0.0;
  double t1 = 0.0;
  CoflowId coflow = -1;
  double progress = 0.0;         // real P_k, bps (Eq. 1)
  double dominant_share = 0.0;   // real share of the coflow's dominant link
  double shadow_progress = 0.0;  // P_k^D = weight·P* in the shadow; 0 once
                                 // the shadow already finished the coflow
};

// A coflow whose real completion broke Theorem 1's envelope.
struct AuditViolation {
  CoflowId coflow = -1;
  double real_cct = 0.0;
  double shadow_cct = 0.0;
  double ratio = 0.0;  // real_cct / shadow_cct
  double bound = 0.0;  // e_max at check time
};

class FairnessAuditor {
 public:
  explicit FairnessAuditor(const Fabric& fabric);
  ~FairnessAuditor();

  // Registers a submitted coflow with both sides of the audit (updates
  // e_max, submits the coflow to the shadow). Call it before the real run
  // first reports on the coflow. Submissions may come out of arrival order
  // (a pipelined job releases a stage when an earlier one finishes), but
  // none may arrive before a time the auditor was advanced to.
  void on_submit(const Coflow& coflow);

  // Runs the shadow DRF simulation through every event at or before time t
  // (idempotent; record() and on_complete() call it too).
  void advance_to(double t);

  // One real-run sample for a coflow over [t0, t1): its instantaneous
  // progress (Eq. 1) and its share of its dominant link's capacity.
  void record(double t0, double t1, CoflowId coflow, double progress_bps,
              double dominant_share);

  // Real-run completion: checks F_k = completion − arrival against
  // e_max · F_k^D, deferring when the shadow has not finished k yet.
  void on_complete(CoflowId coflow, double arrival, double completion);

  // Drains the shadow to completion and resolves deferred checks. The
  // report/CSV writers call it; the destructor does not, so call it before
  // reading violations() or coflows_checked() after a run. Safe to call
  // repeatedly.
  void finalize();

  // Maximum intra-coflow disparity e_k (Eq. 4) over submitted coflows;
  // 1.0 before any submission.
  double e_max() const { return e_max_; }

  // Shadow completion time F_k^D; 0 until the shadow finishes the coflow.
  double shadow_cct(CoflowId coflow) const;

  long long coflows_checked() const { return coflows_checked_; }
  const std::vector<AuditSample>& series() const { return series_; }
  const std::vector<AuditViolation>& violations() const {
    return violations_;
  }

  // CSV: t0,t1,coflow,progress_bps,dominant_share,shadow_progress_bps,
  // envelope_bps (envelope = e_max · shadow_progress). Finalizes first.
  void write_series_csv(std::ostream& out);

  // One JSON object: {"e_max":…,"coflows_checked":N,"max_ratio":…,
  // "violations":[{"coflow":…,"real_cct":…,"shadow_cct":…,"ratio":…,
  // "bound":…},…]}. Finalizes first.
  void write_report_json(std::ostream& out);

 private:
  struct Shadow;

  void check_envelope(CoflowId coflow, double real_cct);

  const Fabric& fabric_;

  double e_max_ = 1.0;
  std::vector<AuditSample> series_;
  std::vector<AuditViolation> violations_;
  long long coflows_checked_ = 0;
  double max_ratio_ = 0.0;

  std::set<CoflowId> submitted_;
  std::map<CoflowId, double> deferred_;  // coflow -> real F_k
  std::unique_ptr<Shadow> shadow_;
};

// --- Header-only helpers for any sample type with t0/t1/coflow/progress
// fields (ProgressSample, AuditSample). -----------------------------------

// CSV time series: t0,t1,coflow,progress_bps.
template <typename Sample>
void write_progress_csv(std::ostream& out,
                        const std::vector<Sample>& samples) {
  out << "t0,t1,coflow,progress_bps\n";
  for (const Sample& s : samples) {
    out << s.t0 << ',' << s.t1 << ',' << s.coflow << ',' << s.progress
        << '\n';
  }
}

// Mean |P_a − P_b| over their mean level across sample instants in
// [t0, t1] where both coflows report positive progress — 0 means perfectly
// equal progress (the Fig. 8 summary statistic).
template <typename Sample>
double relative_progress_gap(const std::vector<Sample>& samples, CoflowId a,
                             CoflowId b, double t0, double t1) {
  std::map<double, std::pair<double, double>> instants;  // t -> (pa, pb)
  for (const Sample& s : samples) {
    if (s.t0 < t0 || s.t0 > t1) continue;
    auto& slot = instants[s.t0];
    if (s.coflow == a) slot.first = s.progress;
    if (s.coflow == b) slot.second = s.progress;
  }
  double gap = 0.0;
  double level = 0.0;
  int n = 0;
  for (const auto& [t, pair] : instants) {
    if (pair.first <= 0.0 || pair.second <= 0.0) continue;
    gap += pair.first > pair.second ? pair.first - pair.second
                                    : pair.second - pair.first;
    level += 0.5 * (pair.first + pair.second);
    ++n;
  }
  return (n > 0 && level > 0.0) ? gap / level : 0.0;
}

}  // namespace ncdrf::obs
