// Adaptive re-planning vs a frozen warm-up schedule (Section IV-A online
// profiling, made quantitative).
//
// A modeled run whose compute timings drift across epochs — the cold
// warm-up iterations run factor builds several times slower than the
// settled steady state (clocks ramping, caches filling, cuDNN autotuning)
// — is priced twice per epoch: once with the schedule re-planned from that
// epoch's profile (the adaptive loop) and once with the warm-up schedule
// frozen (one-shot offline profiling).  Both are priced under the *same*
// epoch calibration, so the delta is pure schedule quality: the frozen
// plan was fused for wide pass gaps, and once the factors speed up its
// many small all-reduces pay the startup cost in a tail the pass can no
// longer hide.  The live runtime's re-plan and profile-sync counts are
// measured by perfbench (sched.replans_per_step, comm.sync_ops).
//
// Emits BENCH_adaptive.json.
#include <cstdio>

#include "bench_util.hpp"
#include "models/model_spec.hpp"
#include "sched/planner.hpp"
#include "sim/iteration.hpp"

using namespace spdkfac;

namespace {

constexpr int kWorld = 16;
constexpr std::size_t kBatch = 32;
// Factor-compute slowdown per epoch relative to the settled machine: the
// warm-up epoch is 6x slower, later epochs settle and then overshoot (the
// drift the frozen schedule never learns about).
constexpr double kWarmupDrift = 6.0;
constexpr double kDrift[] = {6.0, 2.0, 1.0, 0.5, 0.2};

perf::ClusterCalibration epoch_cal(double drift) {
  perf::ClusterCalibration cal = perf::ClusterCalibration::paper_fabric(kWorld);
  cal.compute.factor_flops_per_s /= drift;
  return cal;
}

}  // namespace

int main() {
  bench::print_header(
      "Adaptive", "Online profiling & re-planning vs a frozen warm-up plan");

  bench::BenchJson json("adaptive");
  const models::ModelSpec model = models::resnet50();

  sim::AlgorithmConfig cfg = sim::AlgorithmConfig::spd_kfac();
  const sched::PassTiming warmup_profile = sched::timing_from_model(
      model, kBatch, epoch_cal(kWarmupDrift).compute, /*second_order=*/true);

  std::printf("%s, batch %zu, P=%d, SPD-KFAC (optimal fusion + LBP)\n\n",
              model.name.c_str(), kBatch, kWorld);
  std::printf("  %-8s %-14s %-14s %-10s %-18s\n", "epoch", "adaptive (s)",
              "frozen (s)", "saved", "hidden comm a/f");
  for (std::size_t e = 0; e < std::size(kDrift); ++e) {
    const perf::ClusterCalibration cal = epoch_cal(kDrift[e]);
    const sched::PassTiming epoch_profile = sched::timing_from_model(
        model, kBatch, cal.compute, /*second_order=*/true);

    sim::AlgorithmConfig adaptive = cfg;
    adaptive.profile = epoch_profile;  // re-planned for this epoch
    sim::AlgorithmConfig frozen = cfg;
    frozen.profile = warmup_profile;  // epoch-0 schedule, never updated

    const sim::IterationResult a =
        sim::simulate_iteration(model, kBatch, cal, adaptive);
    const sim::IterationResult f =
        sim::simulate_iteration(model, kBatch, cal, frozen);
    const double saved = (f.total - a.total) / f.total;
    std::printf("  x%-7.2f %-14.4f %-14.4f %8.1f%%  %5.1f%% / %5.1f%%\n",
                kDrift[e], a.total, f.total, 100.0 * saved,
                100.0 * a.factor_comm_hidden_fraction(),
                100.0 * f.factor_comm_hidden_fraction());
    char drift_name[32];
    std::snprintf(drift_name, sizeof drift_name, "modeled_drift_x%g",
                  kDrift[e]);
    json.add(drift_name,
             {{"adaptive_s", a.total},
              {"frozen_s", f.total},
              {"saved_fraction", saved},
              {"adaptive_hidden", a.factor_comm_hidden_fraction()},
              {"frozen_hidden", f.factor_comm_hidden_fraction()}});
  }
  std::printf(
      "\n  (both columns priced under the epoch's calibration; the frozen\n"
      "   warm-up plan loses once the factors outrun the wide fusion gaps\n"
      "   it was built for)\n");

  json.write();
  return 0;
}
