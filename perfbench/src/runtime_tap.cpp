#include "runtime_tap.hpp"

#include <sys/resource.h>

#include <chrono>
#include <string_view>

namespace perfbench {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

namespace {

/// Plan labels (sched/planner.cpp): "A.."/"G.." fused factor groups,
/// "grad[..]" gradient groups, "bcast[..]" inverse broadcasts; records with
/// no plan task are the profile-sync all-reduce.
CommClass classify(const comm::OpRecord& record) {
  const std::string_view name = record.name;
  if (record.plan_task < 0) return CommClass::kSync;
  if (name.starts_with("grad")) return CommClass::kGradAllReduce;
  if (name.starts_with("bcast")) return CommClass::kBroadcast;
  return CommClass::kFactorAllReduce;
}

}  // namespace

RuntimeTap::RuntimeTap(core::DistKfacOptimizer& optimizer)
    : optimizer_(optimizer),
      engine_offset_s_(now_s() - optimizer.engine_now_s()) {
  optimizer_.set_task_listener(
      [this](const sched::Task& task, double start_s, double end_s) {
        std::lock_guard lock(mu_);
        tasks_.push_back(TaskSpan{task.kind, task.dim,
                                  start_s + engine_offset_s_,
                                  end_s + engine_offset_s_});
      });
}

RuntimeTap::~RuntimeTap() { optimizer_.set_task_listener({}); }

std::vector<TaskSpan> RuntimeTap::tasks() const {
  std::lock_guard lock(mu_);
  return tasks_;
}

std::vector<CommOp> RuntimeTap::comm_ops() const {
  std::vector<CommOp> ops;
  for (const comm::OpRecord& r : optimizer_.comm_records()) {
    ops.push_back(CommOp{classify(r), r.submit_s + engine_offset_s_,
                         r.start_s + engine_offset_s_,
                         r.end_s + engine_offset_s_, r.failed});
  }
  return ops;
}

}  // namespace perfbench
