// Online profiling of a running distributed K-FAC iteration — the runtime
// counterpart of the paper's offline warm-up profiling (Section IV-A /
// V-A).  SPD-KFAC's "smart" decisions (Eq. 15 tensor fusion, the canonical
// collective order) are functions of *measured* per-layer timings; this
// class is where those measurements live while the run is in flight.
//
// It accumulates EMA-smoothed samples of
//   * per-layer Kronecker-factor build times (A and G), fed by the
//     optimizer's compute-task wrapper (DistKfacOptimizer::run_compute,
//     timed on the engine clock),
//   * per-layer forward/backward kernel times, fed by the pass hooks
//     (hooked mode only — post-hoc steps never see the real passes),
//   * per-tensor damped-inverse times (the same wrapper), and
//   * per-operation collective durations, fed by the AsyncCommEngine's
//     completion records,
// and exposes the snapshot the scheduler plans from plus a flat packed()
// vector for the rank profile sync (a small all-reduce: every rank must
// plan from the *same* profile or the collective schedules diverge).
//
// Thread-safety contract: writers hit disjoint slots (each plan task runs
// once per step and owns its layer/tensor index; collective records arrive
// from the single engine pump), so recording needs no lock.  Readers
// (snapshot/packed/accessors) must run while execution is quiescent —
// between steps, after the executor drained — which is exactly when the
// re-planning loop runs.
#pragma once

#include <atomic>
#include <cstddef>
#include <span>
#include <vector>

namespace spdkfac::perf {

/// EMA-smoothed per-layer timing estimates, in seconds, by model layer
/// index (not pass position).  Unsampled entries are 0 — consumers
/// substitute their own floor (the planner walk uses a tiny epsilon).
struct ProfileSnapshot {
  std::vector<double> factor_a;  ///< A_l build time
  std::vector<double> factor_g;  ///< G_l build time
  std::vector<double> forward;   ///< layer l forward kernel
  std::vector<double> backward;  ///< layer l backward kernel

  std::size_t layers() const noexcept { return factor_a.size(); }
};

class OnlineProfiler {
 public:
  /// `ema` is the weight of a new sample, in (0, 1]: the smoothed value is
  /// (1-ema)*old + ema*sample, seeded with the first sample directly.  1
  /// keeps only the latest measurement.  Throws std::invalid_argument on
  /// layers == 0 or ema outside (0, 1].
  OnlineProfiler(std::size_t layers, double ema);

  std::size_t layers() const noexcept { return layers_; }
  double ema() const noexcept { return ema_; }

  // Sample feeds (see the thread-safety contract above).
  void record_factor_a(std::size_t layer, double seconds);
  void record_factor_g(std::size_t layer, double seconds);
  void record_forward(std::size_t layer, double seconds);
  void record_backward(std::size_t layer, double seconds);
  void record_inverse(std::size_t tensor, double seconds);
  void record_collective(std::size_t elements, double seconds);

  /// True once any factor slot has a sample (or a sync loaded non-trivial
  /// values) — the warm-up gate: Eq. (15) fusion needs real timings.
  bool has_factor_samples() const noexcept {
    return factor_samples_.load(std::memory_order_acquire) > 0;
  }

  /// The planning profile: smoothed per-layer timings by model layer.
  ProfileSnapshot snapshot() const;

  /// Smoothed inverse time of tensor T_t (T_{2l} = A_l, T_{2l+1} = G_l).
  double inverse_seconds(std::size_t tensor) const {
    return inverse_[tensor];
  }

  // Collective aggregates (diagnostics: measured transport cost vs the
  // planning cost models; bench_adaptive reports them side by side).
  std::size_t collective_ops() const noexcept { return collective_ops_; }
  double collective_seconds() const noexcept { return collective_seconds_; }
  std::size_t collective_elements() const noexcept {
    return collective_elements_;
  }
  /// Smoothed per-element collective cost (seconds/element); 0 before any
  /// non-empty operation completed.
  double collective_seconds_per_element() const noexcept {
    return collective_per_element_;
  }

  /// Flat sync vector [factor_a | factor_g | forward | backward] (4L
  /// doubles) — what the re-planning loop all-reduces (kAverage) so every
  /// rank plans from the same profile.
  std::vector<double> packed() const;

  /// Installs a synced vector produced by packed() (+ all-reduce).  Throws
  /// std::invalid_argument on a size mismatch.
  void load_packed(std::span<const double> values);

  /// Full profiler state as a flat vector of 6L+5 doubles, for
  /// checkpointing.  Unlike packed() this covers *everything* the profiler
  /// holds — inverse times, collective aggregates, the warm-up sample
  /// count — so a restore() resumes the EMA streams exactly where they
  /// left off and the re-planning loop replays bitwise-identically.
  /// Layout: [factor_a | factor_g | forward | backward | inverse(2L) |
  /// factor_samples | collective_ops | collective_elements |
  /// collective_seconds | collective_per_element].
  std::vector<double> serialize() const;

  /// Inverse of serialize().  Throws std::invalid_argument on a size
  /// mismatch or negative counters.
  void restore(std::span<const double> values);

 private:
  void fold(double& slot, double sample) const {
    slot = slot == 0.0 ? sample : (1.0 - ema_) * slot + ema_ * sample;
  }

  std::size_t layers_;
  double ema_;
  std::vector<double> factor_a_, factor_g_, forward_, backward_;
  std::vector<double> inverse_;  ///< per tensor, 2L entries
  /// Atomic: factor recordings for distinct layers run concurrently on the
  /// pool; everything else in this class hits disjoint or serial slots.
  std::atomic<std::size_t> factor_samples_{0};

  std::size_t collective_ops_ = 0;
  std::size_t collective_elements_ = 0;
  double collective_seconds_ = 0.0;
  double collective_per_element_ = 0.0;
};

}  // namespace spdkfac::perf
