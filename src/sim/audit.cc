#include "sim/audit.h"

#include <algorithm>
#include <iomanip>
#include <unordered_map>

#include "common/check.h"
#include "sched/drf.h"
#include "sim/engine.h"

namespace ncdrf::obs {
namespace {

// Slack on the envelope check, matching the theorem1_test tolerance: flag
// only F_k > e_max · F_k^D · (1 + kEnvelopeTolerance).
constexpr double kEnvelopeTolerance = 1e-6;

// Clairvoyant DRF that keeps P_k^D = weight · P* (Eq. 2) for each coflow
// of the snapshot it last allocated — the shadow side of the series.
class ProgressDrf final : public DrfScheduler {
 public:
  Allocation allocate(const ScheduleInput& input) override {
    Allocation alloc = DrfScheduler::allocate(input);
    progress_.clear();
    for (const ActiveCoflow& coflow : input.coflows) {
      progress_[coflow.id] = coflow.weight * last_progress();
    }
    return alloc;
  }

  // 0 for coflows outside the last snapshot.
  double progress(CoflowId coflow) const {
    const auto it = progress_.find(coflow);
    return it == progress_.end() ? 0.0 : it->second;
  }

 private:
  std::unordered_map<CoflowId, double> progress_;
};

// The shadow needs nothing from its engine but completion times.
SimOptions shadow_options() {
  SimOptions options;
  options.record_intervals = false;
  return options;
}

}  // namespace

// The shadow world: the simulator engine running clairvoyant DRF over the
// real run's submissions, and the completion times it has reached.
struct FairnessAuditor::Shadow {
  explicit Shadow(const Fabric& fabric) : sim(fabric, drf, shadow_options()) {
    sim.set_completion_callback(
        [this](const CoflowRecord& rec) { cct[rec.id] = rec.cct; });
  }

  ProgressDrf drf;
  DynamicSimulator sim;
  std::map<CoflowId, double> cct;  // F_k^D of finished coflows
};

FairnessAuditor::FairnessAuditor(const Fabric& fabric)
    : fabric_(fabric), shadow_(std::make_unique<Shadow>(fabric)) {}

FairnessAuditor::~FairnessAuditor() = default;

void FairnessAuditor::on_submit(const Coflow& coflow) {
  shadow_->sim.submit(coflow);
  e_max_ = std::max(e_max_, coflow.demand(fabric_).disparity());
  submitted_.insert(coflow.id());
}

void FairnessAuditor::advance_to(double t) { shadow_->sim.run_until(t); }

void FairnessAuditor::record(double t0, double t1, CoflowId coflow,
                             double progress_bps, double dominant_share) {
  advance_to(t0);
  // Once the shadow has gone idle, its last snapshot still lists coflows
  // it has finished since.
  const double shadow_progress =
      shadow_->cct.count(coflow) > 0 ? 0.0 : shadow_->drf.progress(coflow);
  series_.push_back(AuditSample{t0, t1, coflow, progress_bps,
                                dominant_share, shadow_progress});
}

void FairnessAuditor::check_envelope(CoflowId coflow, double real_cct) {
  const auto it = shadow_->cct.find(coflow);
  if (it == shadow_->cct.end()) {
    // Shadow is slower than the real run here; the bound cannot fail until
    // F_k^D stops growing, so settle it at finalize().
    deferred_[coflow] = real_cct;
    return;
  }
  ++coflows_checked_;
  if (it->second <= 0.0) return;  // zero-demand coflow: no meaningful ratio
  const double ratio = real_cct / it->second;
  max_ratio_ = std::max(max_ratio_, ratio);
  if (ratio > e_max_ * (1.0 + kEnvelopeTolerance)) {
    violations_.push_back(
        AuditViolation{coflow, real_cct, it->second, ratio, e_max_});
  }
}

void FairnessAuditor::on_complete(CoflowId coflow, double arrival,
                                  double completion) {
  NCDRF_CHECK(submitted_.count(coflow) > 0,
              "coflow completed without a matching on_submit");
  advance_to(completion);
  check_envelope(coflow, completion - arrival);
}

void FairnessAuditor::finalize() {
  shadow_->sim.run();
  for (const auto& [coflow, real_cct] : deferred_) {
    check_envelope(coflow, real_cct);
  }
  deferred_.clear();
}

double FairnessAuditor::shadow_cct(CoflowId coflow) const {
  const auto it = shadow_->cct.find(coflow);
  return it == shadow_->cct.end() ? 0.0 : it->second;
}

void FairnessAuditor::write_series_csv(std::ostream& out) {
  finalize();
  const auto precision = out.precision();
  out << std::setprecision(15);
  out << "t0,t1,coflow,progress_bps,dominant_share,shadow_progress_bps,"
         "envelope_bps\n";
  for (const AuditSample& s : series_) {
    out << s.t0 << ',' << s.t1 << ',' << s.coflow << ',' << s.progress
        << ',' << s.dominant_share << ',' << s.shadow_progress << ','
        << e_max_ * s.shadow_progress << '\n';
  }
  out.precision(precision);
}

void FairnessAuditor::write_report_json(std::ostream& out) {
  finalize();
  const auto precision = out.precision();
  out << std::setprecision(15);
  out << "{\"e_max\":" << e_max_
      << ",\"coflows_checked\":" << coflows_checked_
      << ",\"max_ratio\":" << max_ratio_ << ",\"violations\":[";
  bool first = true;
  for (const AuditViolation& v : violations_) {
    out << (first ? "" : ",") << "{\"coflow\":" << v.coflow
        << ",\"real_cct\":" << v.real_cct
        << ",\"shadow_cct\":" << v.shadow_cct << ",\"ratio\":" << v.ratio
        << ",\"bound\":" << v.bound << '}';
    first = false;
  }
  out << "]}\n";
  out.precision(precision);
}

}  // namespace ncdrf::obs
