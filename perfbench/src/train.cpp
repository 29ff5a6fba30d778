#include "train.hpp"

#include <algorithm>
#include <fstream>
#include <optional>
#include <stdexcept>
#include <utility>

#include "comm/cluster.hpp"
#include "models/model_spec.hpp"
#include "nn/data.hpp"
#include "nn/layers.hpp"
#include "runtime_tap.hpp"
#include "sched/planner.hpp"
#include "sim/iteration.hpp"
#include "stats.hpp"
#include "tensor/linalg.hpp"
#include "tensor/random.hpp"
#include "tensor/symmetric.hpp"

namespace perfbench {

namespace {

// The bench_util small CNN and the wide MLP of the kernel-bound workload.
constexpr std::size_t kCnnChannels = 1, kCnnHw = 12, kCnnC1 = 8, kCnnC2 = 16,
                      kCnnClasses = 5;
constexpr std::size_t kMlpWidths[] = {64, 256, 256, 256, 10};

nn::Sequential make_model(const TrainConfig& c, tensor::Rng& rng) {
  if (c.model == ModelKind::kCnn) {
    return nn::make_small_cnn(kCnnChannels, kCnnHw, kCnnC1, kCnnC2,
                              kCnnClasses, rng);
  }
  return nn::make_mlp(kMlpWidths, rng);
}

nn::SyntheticClassification make_data(const TrainConfig& c) {
  if (c.model == ModelKind::kCnn) {
    return {kCnnClasses, kCnnChannels, kCnnHw, c.data_seed, c.noise};
  }
  return {kMlpWidths[4], kMlpWidths[0], 1, c.data_seed, c.noise};
}

models::ModelSpec spec_of(const TrainConfig& c) {
  if (c.model == ModelKind::kCnn) {
    return models::conv_spec(kCnnChannels, kCnnHw, kCnnC1, kCnnC2,
                             kCnnClasses);
  }
  return models::mlp_spec(kMlpWidths);
}

std::uint64_t weights_digest(
    const std::vector<nn::PreconditionedLayer*>& layers) {
  std::uint64_t hash = fnv1a({});
  for (const nn::PreconditionedLayer* layer : layers) {
    hash = fnv1a(layer->weight().data(), hash);
  }
  return hash;
}

/// Rank 0's timestamps within one traced step: step start, forward start,
/// backward start, step() start, step() end.
struct StepMarks {
  double t[5] = {};
};

sched::ScheduleOptions schedule_options(core::DistStrategy strategy) {
  sched::ScheduleOptions opt;
  if (strategy == core::DistStrategy::kDKfac) {
    opt.factor_comm = sched::FactorCommMode::kBulk;
    opt.inverse = sched::InverseMode::kLocalAll;
  }
  return opt;
}

/// Wall time of one outside call to the planner on the optimizer's current
/// planning profile, the median of several calls, in microseconds.
double plan_us(const core::DistKfacOptimizer& optimizer,
               const std::vector<nn::PreconditionedLayer*>& layers,
               comm::Communicator& comm) {
  const core::DistKfacOptions& o = optimizer.options();
  sched::ScheduleInputs inputs;
  inputs.world_size = comm.size();
  for (const nn::PreconditionedLayer* layer : layers) {
    inputs.layers.push_back({layer->dim_a(), layer->dim_g(),
                             tensor::packed_size(layer->dim_a()),
                             tensor::packed_size(layer->dim_g()),
                             layer->weight_grad().size()});
  }
  inputs.timing = optimizer.planning_profile();
  const sched::ScheduleCosts costs{o.allreduce_model, o.broadcast_model,
                                   o.inverse_model,
                                   comm::AlgorithmSelector(comm.topology())};
  const sched::ScheduleOptions opt = schedule_options(o.strategy);
  std::vector<double> us;
  for (int i = 0; i < 21; ++i) {
    const double t0 = now_s();
    const sched::IterationPlan plan = sched::plan_iteration(inputs, opt, costs);
    us.push_back((now_s() - t0) * 1e6);
    if (plan.tasks.empty()) throw std::logic_error("plan_us: empty plan");
  }
  return median(us);
}

/// The simulator's price of the plan the optimizer's current profile
/// yields, under the cost models the optimizer plans with.
double modeled_step_ms(const TrainConfig& c,
                       const core::DistKfacOptimizer& optimizer) {
  const core::DistKfacOptions& o = optimizer.options();
  perf::ClusterCalibration cal =
      perf::ClusterCalibration::paper_fabric(optimizer.world_size());
  cal.allreduce = o.allreduce_model;
  cal.bcast_fabric = o.broadcast_model;
  cal.inverse = o.inverse_model;
  sim::AlgorithmConfig cfg = c.strategy == core::DistStrategy::kDKfac
                                 ? sim::AlgorithmConfig::dkfac()
                                 : sim::AlgorithmConfig::spd_kfac();
  cfg.compute_streams = static_cast<int>(std::max<std::size_t>(1, o.pool_size));
  cfg.profile = optimizer.planning_profile();
  return sim::simulate_iteration(spec_of(c), c.batch, cal, cfg).total * 1e3;
}

std::size_t plan_bytes(const sched::IterationPlan& plan, bool wire) {
  std::size_t bytes = 0;
  for (const sched::Task& task : plan.tasks) {
    if (task.is_collective()) {
      bytes += (wire ? task.wire_elements : task.elements) * sizeof(double);
    }
  }
  return bytes;
}

/// Seconds of [start, end) covered by the sorted, disjoint `windows`.
double covered(const std::vector<std::pair<double, double>>& windows,
               double start, double end) {
  double total = 0.0;
  auto it = std::lower_bound(windows.begin(), windows.end(), start,
                             [](const std::pair<double, double>& w, double t) {
                               return w.second < t;
                             });
  for (; it != windows.end() && it->first < end; ++it) {
    total += std::max(0.0, std::min(end, it->second) -
                               std::max(start, it->first));
  }
  return total;
}

struct Counters {
  std::size_t cache_hits = 0, cache_misses = 0, replans = 0;

  static Counters of(const core::DistKfacOptimizer& o) {
    return {o.plan_cache().hits(), o.plan_cache().misses(), o.replan_count()};
  }
};

void write_chrome_trace(const std::string& path,
                        const std::vector<StepMarks>& marks,
                        const std::vector<TaskSpan>& tasks,
                        const std::vector<CommOp>& ops, double origin_s) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write trace " + path);
  const char* names[] = {"nn.data", "nn.forward", "nn.backward", "core.step"};
  bool first = true;
  const auto event = [&](const std::string& name, int lane, double start,
                         double end, std::size_t parent) {
    out << (first ? "\n" : ",\n") << "{\"name\": \"" << name
        << "\", \"ph\": \"X\", \"pid\": 0, \"tid\": " << lane
        << ", \"ts\": " << (start - origin_s) * 1e6
        << ", \"dur\": " << (end - start) * 1e6
        << ", \"args\": {\"step\": " << parent << "}}";
    first = false;
  };
  out << "{\"traceEvents\": [";
  std::size_t step = 0;
  const auto step_of = [&](double t) {
    while (step + 1 < marks.size() && marks[step + 1].t[0] <= t) ++step;
    return step;
  };
  for (std::size_t s = 0; s < marks.size(); ++s) {
    event("bench.step", 0, marks[s].t[0], marks[s].t[4], s);
    for (int k = 0; k < 4; ++k) {
      event(names[k], 1, marks[s].t[k], marks[s].t[k + 1], s);
    }
  }
  step = 0;
  for (const TaskSpan& t : tasks) {
    event(std::string("exec.") + sched::to_string(t.kind), 2, t.start_s,
          t.end_s, step_of(t.start_s));
  }
  step = 0;
  for (const CommOp& op : ops) {
    if (op.submit_s < origin_s) continue;
    event("comm.op", 3, op.start_s, op.end_s, step_of(op.submit_s));
  }
  out << "\n]}\n";
}

/// Rank 0's per-layer values over the timed steps of a traced launch,
/// indexed like kLayerMetrics.
std::vector<double> layer_metrics(
    const TrainConfig& c, core::DistKfacOptimizer& optimizer,
    const std::vector<nn::PreconditionedLayer*>& layers,
    comm::Communicator& comm, const RuntimeTap& tap,
    const std::vector<StepMarks>& marks, const Counters& before,
    double timed_start_s, double step_p50_s) {
  const double n = static_cast<double>(marks.size());
  std::vector<double> values(kNumLayerMetrics, 0.0);
  const auto set = [&values](std::string_view name, double value) {
    values[layer_index(name)] = value;
  };
  const auto phase_ms = [&](int from, int to) {
    double sum = 0.0;
    for (const StepMarks& s : marks) sum += s.t[to] - s.t[from];
    return sum / n * 1e3;
  };
  set("nn.data_ms", phase_ms(0, 1));
  set("nn.forward_ms", phase_ms(1, 2));
  set("nn.backward_ms", phase_ms(2, 3));
  set("core.step_ms", phase_ms(3, 4));

  double update_flops = 0.0;
  for (const nn::PreconditionedLayer* l : layers) {
    const auto a = static_cast<double>(l->dim_a());
    const auto g = static_cast<double>(l->dim_g());
    update_flops += 2.0 * g * g * a + 2.0 * g * a * a;  // G^-1 dW A^-1
  }
  double factor_s = 0.0, inverse_s = 0.0, update_s = 0.0, inverse_flops = 0.0;
  std::size_t factor_n = 0, inverse_n = 0, update_n = 0;
  const std::vector<TaskSpan> tasks = tap.tasks();
  for (const TaskSpan& t : tasks) {
    const double d = t.end_s - t.start_s;
    switch (t.kind) {
      case sched::TaskKind::kFactorCompute:
        factor_s += d;
        ++factor_n;
        break;
      case sched::TaskKind::kInverse:
        inverse_s += d;
        ++inverse_n;
        inverse_flops += tensor::spd_inverse_flops(t.dim);
        break;
      case sched::TaskKind::kUpdate:
        update_s += d;
        ++update_n;
        break;
      default:
        break;
    }
  }
  set("exec.factor_ms", factor_s / n * 1e3);
  set("exec.factor_tasks", static_cast<double>(factor_n) / n);
  set("exec.inverse_ms", inverse_s / n * 1e3);
  set("exec.inverse_tasks", static_cast<double>(inverse_n) / n);
  set("exec.update_ms", update_s / n * 1e3);
  set("tensor.inverse_gflops",
                 inverse_s > 0.0 ? inverse_flops / inverse_s / 1e9 : 0.0);
  set("tensor.update_gflops",
                 update_s > 0.0 ? update_flops * static_cast<double>(update_n) /
                                      update_s / 1e9
                                : 0.0);

  const Counters after = Counters::of(optimizer);
  const auto hits = static_cast<double>(after.cache_hits - before.cache_hits);
  const auto lookups =
      hits + static_cast<double>(after.cache_misses - before.cache_misses);
  const sched::IterationPlan& plan = optimizer.plan();
  set("sched.plan_cache_hit_ratio",
                 lookups > 0.0 ? hits / lookups : 0.0);
  set("sched.replans_per_step",
                 static_cast<double>(after.replans - before.replans) / n);
  set("sched.plan_us", plan_us(optimizer, layers, comm));
  set("sched.plan_tasks", static_cast<double>(plan.tasks.size()));
  set("sched.fusion_groups",
                 static_cast<double>(plan.a_groups.size() +
                                     plan.g_groups.size()));
  set("sched.broadcast_cts",
                 static_cast<double>(optimizer.placement().num_cts()));

  std::vector<std::pair<double, double>> passes;
  for (const StepMarks& s : marks) passes.emplace_back(s.t[1], s.t[3]);
  const std::vector<CommOp> all_ops = tap.comm_ops();
  double cls_s[4] = {}, cls_n[4] = {};
  double queue_s = 0.0, busy_s = 0.0, hidden_s = 0.0, failed = 0.0;
  for (const CommOp& op : all_ops) {
    if (op.submit_s < timed_start_s) continue;
    const auto k = static_cast<std::size_t>(op.cls);
    cls_s[k] += op.end_s - op.start_s;
    cls_n[k] += 1.0;
    queue_s += op.start_s - op.submit_s;
    busy_s += op.end_s - op.start_s;
    hidden_s += covered(passes, op.start_s, op.end_s);
    if (op.failed) failed += 1.0;
  }
  const auto idx = [](CommClass cls) { return static_cast<std::size_t>(cls); };
  set("comm.sync_ops", cls_n[idx(CommClass::kSync)] / n);
  set("comm.factor_ar_ms",
                 cls_s[idx(CommClass::kFactorAllReduce)] / n * 1e3);
  set("comm.factor_ar_ops",
                 cls_n[idx(CommClass::kFactorAllReduce)] / n);
  set("comm.queue_delay_ms", queue_s / n * 1e3);
  set("comm.exposed_ms", (busy_s - hidden_s) / n * 1e3);
  set("comm.overlap_fraction",
                 busy_s > 0.0 ? hidden_s / busy_s : 0.0);
  set("comm.bcast_ms", cls_s[idx(CommClass::kBroadcast)] / n * 1e3);
  set("comm.bcast_ops", cls_n[idx(CommClass::kBroadcast)] / n);
  set("comm.grad_ar_ms",
                 cls_s[idx(CommClass::kGradAllReduce)] / n * 1e3);
  set("comm.grad_ar_ops",
                 cls_n[idx(CommClass::kGradAllReduce)] / n);
  set("comm.wire_bytes",
                 static_cast<double>(plan_bytes(plan, true)));
  set("comm.raw_bytes",
                 static_cast<double>(plan_bytes(plan, false)));
  set("comm.failed_ops", failed);
  set("comm.records_held", static_cast<double>(all_ops.size()));

  const double modeled = modeled_step_ms(c, optimizer);
  set("sim.modeled_step_ms", modeled);
  set("perf.model_residual", step_p50_s * 1e3 / modeled);

  if (!c.trace_path.empty()) {
    write_chrome_trace(c.trace_path, marks, tasks, all_ops, timed_start_s);
  }
  return values;
}

}  // namespace

std::size_t layer_index(std::string_view name) {
  for (std::size_t i = 0; i < kNumLayerMetrics; ++i) {
    if (name == kLayerMetrics[i].name) return i;
  }
  std::string what = "unlisted per-layer metric ";
  what += name;
  throw std::logic_error(what);
}

// Rank results cross the launcher as doubles:
//   [timed_start, timed_end, cpu_s, digest_hi, digest_lo, steps,
//    step_s..., loss..., layer values (traced rank 0 only)...]
RepResult run_rep(const TrainConfig& c) {
  const auto rank_main = [&c](comm::Communicator& comm) {
    tensor::Rng init(c.init_seed);
    nn::Sequential model = make_model(c, init);
    const auto layers = model.preconditioned_layers();
    core::DistKfacOptions opts;
    opts.strategy = c.strategy;
    opts.transport = c.transport;
    opts.lr = c.lr;
    opts.damping = c.damping;
    core::DistKfacOptimizer optimizer(layers, comm, opts);
    const nn::SyntheticClassification data = make_data(c);
    tensor::Rng shard(c.shard_seed + static_cast<std::uint64_t>(comm.rank()));
    nn::SoftmaxCrossEntropy loss;

    const bool traced = c.traced && comm.rank() == 0;
    const bool own_cpu =
        c.transport != comm::TransportKind::kInProcess || comm.rank() == 0;
    std::optional<RuntimeTap> tap;
    Counters before;
    std::vector<StepMarks> marks;
    std::vector<double> step_s, losses;
    double timed_start = 0.0, cpu_start = 0.0;
    for (std::size_t s = 0; s < c.warmup_steps + c.timed_steps; ++s) {
      if (s == c.warmup_steps) {
        comm.barrier();
        if (traced) {
          tap.emplace(optimizer);
          before = Counters::of(optimizer);
        }
        if (own_cpu) cpu_start = cpu_seconds();
        timed_start = now_s();
      }
      StepMarks mark;
      mark.t[0] = now_s();
      const nn::Batch batch = data.sample(c.batch, shard);
      if (traced) mark.t[1] = now_s();
      const nn::PassHooks hooks = optimizer.pass_hooks();
      const double l =
          loss.forward(model.forward(batch.inputs, hooks), batch.labels);
      if (traced) mark.t[2] = now_s();
      model.backward(loss.backward(), hooks);
      if (traced) mark.t[3] = now_s();
      optimizer.step();
      mark.t[4] = now_s();
      if (s >= c.warmup_steps) {
        step_s.push_back(mark.t[4] - mark.t[0]);
        losses.push_back(l);
        if (traced) marks.push_back(mark);
      }
    }
    const double timed_end = now_s();
    const double cpu = own_cpu ? cpu_seconds() - cpu_start : 0.0;

    std::vector<double> out{timed_start, timed_end, cpu};
    push_digest(out, weights_digest(layers));
    if (comm.rank() != 0) return out;
    out.push_back(static_cast<double>(step_s.size()));
    out.insert(out.end(), step_s.begin(), step_s.end());
    out.insert(out.end(), losses.begin(), losses.end());
    if (traced) {
      const std::vector<double> values =
          layer_metrics(c, optimizer, layers, comm, *tap, marks, before,
                        timed_start, median(step_s));
      out.insert(out.end(), values.begin(), values.end());
    }
    return out;
  };

  comm::LaunchOptions launch;
  const double launch_s = now_s();
  const std::vector<std::vector<double>> per_rank =
      comm::Cluster::launch_collect(c.transport,
                                    comm::Topology::flat(c.world), rank_main,
                                    launch);

  RepResult r;
  for (const std::vector<double>& rank : per_rank) {
    r.cpu_s += rank.at(2);
    r.digests.push_back(digest_from(rank.at(3), rank.at(4)));
  }
  const std::vector<double>& enc = per_rank.at(0);
  std::size_t pos = 5;
  const auto next = [&] { return enc.at(pos++); };
  r.setup_s = enc.at(0) - launch_s;
  r.timed_s = enc.at(1) - enc.at(0);
  const auto steps = static_cast<std::size_t>(next());
  for (std::size_t i = 0; i < steps; ++i) r.step_s.push_back(next());
  for (std::size_t i = 0; i < steps; ++i) r.loss.push_back(next());
  r.layers.assign(enc.begin() + static_cast<std::ptrdiff_t>(pos), enc.end());
  if (r.layers.size() != (c.traced ? kNumLayerMetrics : 0)) {
    throw std::logic_error("rank 0 sent a malformed result");
  }
  r.samples = static_cast<double>(c.world) * static_cast<double>(c.batch) *
              static_cast<double>(steps);
  return r;
}

}  // namespace perfbench
