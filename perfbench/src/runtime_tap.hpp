// The one place the benchmark touches the optimizer's timing seams:
// DistKfacOptimizer::set_task_listener, comm_records() and engine_now_s().
// Everything else reads the tap's plain records on the benchmark's own
// clock, so replacing those seams with a single event stream is an edit to
// runtime_tap.cpp alone.
#pragma once

#include <cstddef>
#include <mutex>
#include <vector>

#include "core/dist_kfac.hpp"
#include "sched/plan.hpp"

namespace perfbench {

using namespace spdkfac;  // the library layers: comm, core, nn, sched, ...

/// Seconds on std::chrono::steady_clock — the clock every span, task and
/// collective the benchmark reports is placed on.
double now_s();

/// User + sys CPU seconds this process has used (getrusage RUSAGE_SELF).
double cpu_seconds();

enum class CommClass { kFactorAllReduce, kBroadcast, kGradAllReduce, kSync };

struct TaskSpan {
  sched::TaskKind kind = sched::TaskKind::kUpdate;
  std::size_t dim = 0;  ///< inverse tasks: factor dimension
  double start_s = 0.0, end_s = 0.0;
};

struct CommOp {
  CommClass cls = CommClass::kSync;
  double submit_s = 0.0, start_s = 0.0, end_s = 0.0;
  bool failed = false;
};

class RuntimeTap {
 public:
  /// Installs the task listener; the optimizer must outlive the tap and
  /// take no step while the tap is constructed or destroyed.
  explicit RuntimeTap(core::DistKfacOptimizer& optimizer);
  ~RuntimeTap();

  RuntimeTap(const RuntimeTap&) = delete;
  RuntimeTap& operator=(const RuntimeTap&) = delete;

  /// Compute tasks the executor ran so far.  Call between steps.
  std::vector<TaskSpan> tasks() const;

  /// Every collective the engine has recorded since it started (its
  /// history is never trimmed).  Call between steps.
  std::vector<CommOp> comm_ops() const;

 private:
  core::DistKfacOptimizer& optimizer_;
  double engine_offset_s_ = 0.0;  ///< now_s() - engine clock
  mutable std::mutex mu_;
  std::vector<TaskSpan> tasks_;  ///< guarded by mu_
};

}  // namespace perfbench
