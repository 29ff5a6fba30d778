// Real-runtime counterpart of the overlap figures: trains a small CNN on the
// in-process cluster under each strategy (hooked and post-hoc) and reports
// per-step wall-clock statistics plus the background engine's operation
// records — the overlap fraction is the share of communication busy time
// that executed while the passes were still running, i.e. communication the
// pipelining actually hid.
//
// This is a mechanism demonstration, not a performance claim: the
// in-process transport is memcpy-fast, so absolute gains are small; the
// cluster-scale numbers live in bench_iteration_time (simulator) and the
// executor-scaling numbers in bench_overlap.  Emits BENCH_runtime.json
// (per-config mean/p50/p90 step time + overlap fraction) for cross-PR
// tracking.
#include "bench_util.hpp"

using namespace spdkfac;

namespace {

constexpr int kSteps = 8;

bench::DistTrainResult run(core::DistStrategy strategy, bool hooked,
                           comm::Codec grad_codec = comm::Codec::kNone) {
  bench::DistTrainConfig cfg;
  cfg.optimizer.strategy = strategy;
  cfg.optimizer.grad_codec = grad_codec;
  cfg.hooked = hooked;
  cfg.steps = kSteps;
  return bench::dist_train(cfg);
}

}  // namespace

int main() {
  bench::print_header(
      "Runtime", "Real in-process training: per-step wall time and overlap");

  bench::BenchJson json("runtime");
  bench::Table table({"Strategy", "Mode", "mean/step (ms)", "p50 (ms)",
                      "p90 (ms)", "comm ops", "comm busy (ms)",
                      "overlap frac", "wire/step (KB)"});
  const auto record = [&](const std::string& name,
                          const bench::DistTrainResult& res) {
    const bench::SampleStats step = bench::stats(res.step_seconds);
    const auto pos = name.find('/');
    table.add_row(
        {name.substr(0, pos), name.substr(pos + 1),
         bench::fmt("%.2f", step.mean * 1e3),
         bench::fmt("%.2f", step.p50 * 1e3),
         bench::fmt("%.2f", step.p90 * 1e3), std::to_string(res.comm_ops()),
         bench::fmt("%.2f", res.comm_busy_s * 1e3),
         bench::fmt("%.2f", res.overlap_fraction),
         bench::fmt("%.1f",
                    static_cast<double>(res.wire_bytes_per_step) / 1e3)});
    json.add_timing(name, step, res.overlap_fraction,
                    res.wire_bytes_per_step, res.raw_bytes_per_step,
                    {{"comm_ops", static_cast<double>(res.comm_ops())},
                     {"comm_busy_s", res.comm_busy_s},
                     {"mean_queue_delay_s", res.mean_queue_delay_s},
                     {"copies_eliminated_bytes_per_step",
                      static_cast<double>(res.arena_bytes_saved)}});
  };
  for (auto strategy :
       {core::DistStrategy::kDKfac, core::DistStrategy::kMpdKfac,
        core::DistStrategy::kSpdKfac}) {
    for (bool hooked : {false, true}) {
      const std::string mode = hooked ? "hooked" : "post-hoc";
      record(std::string(to_string(strategy)) + "/" + mode,
             run(strategy, hooked));
    }
  }
  // The compressed planner dimension on the same harness: top-k
  // error-feedback gradients shrink the wire column.  Factors stay
  // lossless here — this tiny CNN's batch-8 factors are rank-deficient, so
  // their smallest damped eigenvalue *is* the 3e-2 damping and even fp16
  // rounding can push them off SPD; quantized-factor numerics at realistic
  // damping is test_compressed_training's job, and the int8 bytes/time
  // story is bench_compression's (pricing needs no numerics).  The
  // in-process transport is memcpy-fast, so the *time* win also lives in
  // bench_compression.
  for (bool hooked : {false, true}) {
    const std::string mode = hooked ? "hooked" : "post-hoc";
    record(std::string(to_string(core::DistStrategy::kSpdKfac)) +
               "+topk-grads/" + mode,
           run(core::DistStrategy::kSpdKfac, hooked, comm::Codec::kTopK));
  }
  table.print();
  std::printf(
      "\nHooked SPD-KFAC submits its factor all-reduces during the passes\n"
      "(the Fig. 6 architecture); post-hoc steps replay the same plan after\n"
      "them.  All strategies end in numerically identical models (tests).\n");
  json.write();
  return 0;
}
