// One launch of a data-parallel training job through the public API:
// comm::Cluster::launch_collect, nn::Sequential passes with the
// optimizer's pass hooks, and DistKfacOptimizer::step().  Rank 0 starts
// step n+1 only after step n returns (a closed loop).
#pragma once

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <string>
#include <string_view>
#include <vector>

#include "comm/transport.hpp"
#include "core/dist_kfac.hpp"

namespace perfbench {

using namespace spdkfac;  // the library layers: comm, core, nn, sched, ...

enum class ModelKind { kCnn, kMlp };

struct TrainConfig {
  ModelKind model = ModelKind::kCnn;
  core::DistStrategy strategy = core::DistStrategy::kSpdKfac;
  comm::TransportKind transport = comm::TransportKind::kInProcess;
  int world = 2;
  std::size_t batch = 8;
  std::size_t warmup_steps = 20;
  std::size_t timed_steps = 300;
  double noise = 4.0;
  double lr = 0.01;
  double damping = 0.3;
  std::uint64_t init_seed = 1;
  std::uint64_t data_seed = 2;
  std::uint64_t shard_seed = 3;  ///< rank r draws its batches from seed + r
  /// Record per-step spans and read the optimizer's task and collective
  /// records on rank 0 (the per-layer breakdown).
  bool traced = false;
  /// Traced runs write rank 0's spans here as a Chrome trace (empty: keep
  /// them in memory only).
  std::string trace_path;
};

struct LayerMetric {
  const char* name;
  const char* unit;
};

/// Every per-layer metric of a traced run, in report order.  A traced
/// launch measures rank 0's values (RepResult::layers, indexed like this
/// list); the run fills in the rest (core.scaling_efficiency, ctl.*,
/// bench.trace_overhead).
inline constexpr LayerMetric kLayerMetrics[] = {
    {"nn.data_ms", "ms"},
    {"nn.forward_ms", "ms"},
    {"nn.backward_ms", "ms"},
    {"core.step_ms", "ms"},
    {"core.scaling_efficiency", "ratio"},
    {"exec.factor_ms", "ms"},
    {"exec.factor_tasks", "count"},
    {"exec.inverse_ms", "ms"},
    {"exec.inverse_tasks", "count"},
    {"exec.update_ms", "ms"},
    {"tensor.inverse_gflops", "GFLOP/s"},
    {"tensor.update_gflops", "GFLOP/s"},
    {"sched.plan_cache_hit_ratio", "ratio"},
    {"sched.replans_per_step", "count"},
    {"sched.plan_us", "us"},
    {"sched.plan_tasks", "count"},
    {"sched.fusion_groups", "count"},
    {"sched.broadcast_cts", "count"},
    {"comm.sync_ops", "count"},
    {"comm.factor_ar_ms", "ms"},
    {"comm.factor_ar_ops", "count"},
    {"comm.queue_delay_ms", "ms"},
    {"comm.exposed_ms", "ms"},
    {"comm.overlap_fraction", "ratio"},
    {"comm.bcast_ms", "ms"},
    {"comm.bcast_ops", "count"},
    {"comm.grad_ar_ms", "ms"},
    {"comm.grad_ar_ops", "count"},
    {"comm.wire_bytes", "bytes"},
    {"comm.raw_bytes", "bytes"},
    {"comm.failed_ops", "count"},
    {"comm.records_held", "count"},
    {"ctl.metrics_bytes", "bytes"},
    {"ctl.generator_late_ms", "ms"},
    {"sim.modeled_step_ms", "ms"},
    {"perf.model_residual", "ratio"},
    {"bench.trace_overhead", "ratio"},
};
inline constexpr std::size_t kNumLayerMetrics = std::size(kLayerMetrics);

/// Position of `name` in kLayerMetrics.  Throws when it is not listed.
std::size_t layer_index(std::string_view name);

struct RepResult {
  double samples = 0.0;  ///< world x batch x timed steps
  double setup_s = 0.0;  ///< launch call -> first timed step, rank 0
  double timed_s = 0.0;  ///< rank 0 wall time of the timed steps
  double cpu_s = 0.0;    ///< user+sys of every rank during the timed steps
  std::vector<double> step_s;  ///< rank 0 wall time per timed step
  std::vector<double> loss;    ///< rank 0 loss per timed step
  std::vector<std::uint64_t> digests;  ///< final weights, per rank
  /// Traced launches: rank 0's per-layer values, indexed like
  /// kLayerMetrics (0 where the run fills the value in).  Empty otherwise.
  std::vector<double> layers;
};

/// Runs one launch: warm-up steps, then the timed steps.  Throws when a
/// rank fails.
RepResult run_rep(const TrainConfig& config);

}  // namespace perfbench
