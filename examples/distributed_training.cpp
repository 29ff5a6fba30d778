// Distributed K-FAC on the worker cluster: four data-parallel workers
// train replicas of a small CNN on sharded synthetic data under each of the
// three strategies (D-KFAC, MPD-KFAC, SPD-KFAC), verifying that
//   * the final models are identical across workers (synchronous training),
//     and
//   * all three strategies produce the same numerics (the paper's central
//     correctness claim).
// How much communication SPD-KFAC hides behind computation is measured on
// the real runtime by perfbench (`comm.overlap_fraction`, see
// perfbench/README.md).
//
// By default the workers are threads of this process; --transport switches
// the cluster onto a process-per-rank backend — one OS process per worker
// talking over shared-memory rings or a Unix-domain socket mesh — without
// changing one digit of the output losses/weights (the multi-process
// quickstart of docs/ARCHITECTURE.md "Transports"):
//
//   $ ./examples/distributed_training                       # threads
//   $ ./examples/distributed_training --transport=shm       # processes, shm
//   $ ./examples/distributed_training --transport=socket    # processes, UDS
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "comm/cluster.hpp"
#include "core/dist_kfac.hpp"
#include "nn/data.hpp"
#include "nn/layers.hpp"

using namespace spdkfac;

namespace {

constexpr int kWorld = 4;
constexpr int kSteps = 6;

/// Per-rank report: {final loss, wall seconds, broadcast CTs, weights...}.
constexpr std::size_t kWeightsAt = 3;

std::vector<std::vector<double>> train(core::DistStrategy strategy,
                                       comm::TransportKind transport) {
  core::DistKfacOptions opts;
  opts.strategy = strategy;
  opts.transport = transport;
  opts.lr = 0.1;
  opts.damping = 0.1;
  return comm::Cluster::launch_collect(
      transport, comm::Topology::flat(kWorld), [&](comm::Communicator& comm) {
        tensor::Rng init(1234);  // shared seed => identical replicas
        nn::Sequential model = nn::make_small_cnn(1, 8, 4, 8, 4, init);
        auto layers = model.preconditioned_layers();
        core::DistKfacOptimizer optimizer(layers, comm, opts);
        nn::SyntheticClassification data(4, 1, 8, /*seed=*/5, /*noise=*/0.25);
        tensor::Rng shard(100 + comm.rank());  // this worker's data shard
        nn::SoftmaxCrossEntropy loss;
        double last_loss = 0.0;
        const auto t0 = std::chrono::steady_clock::now();
        for (int s = 0; s < kSteps; ++s) {
          nn::Batch batch = data.sample(8, shard);
          // Hook mode (Fig. 6): factor and WFBP-gradient all-reduces are
          // submitted to the background engine *during* the passes.
          const nn::PassHooks hooks = optimizer.pass_hooks();
          last_loss = loss.forward(model.forward(batch.inputs, hooks),
                                   batch.labels);
          model.backward(loss.backward(), hooks);
          optimizer.step();
        }
        const std::chrono::duration<double> wall =
            std::chrono::steady_clock::now() - t0;
        std::vector<double> out{
            last_loss, wall.count(),
            static_cast<double>(optimizer.placement().num_cts())};
        for (auto* l : layers) {
          const auto w = l->weight().data();
          out.insert(out.end(), w.begin(), w.end());
        }
        return out;
      });
}

/// Largest |difference| between two reports' weights.
double weight_diff(const std::vector<double>& a, const std::vector<double>& b) {
  double diff = 0.0;
  for (std::size_t i = kWeightsAt; i < a.size(); ++i) {
    diff = std::max(diff, std::abs(a[i] - b[i]));
  }
  return diff;
}

}  // namespace

int main(int argc, char** argv) {
  comm::TransportKind transport = comm::TransportKind::kInProcess;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--transport=", 0) == 0) {
      try {
        transport = comm::transport_from_string(arg.substr(12));
      } catch (const std::invalid_argument& e) {
        std::fprintf(stderr, "%s\n", e.what());
        return 2;
      }
    } else {
      std::fprintf(stderr,
                   "usage: %s [--transport=inproc|shm|socket]\n", argv[0]);
      return 2;
    }
  }

  std::printf("Training a CNN on %d %s workers (%s transport), %d steps...\n\n",
              kWorld,
              transport == comm::TransportKind::kInProcess
                  ? "in-process"
                  : "process-per-rank",
              comm::to_string(transport), kSteps);
  std::printf("strategy   final-loss   wall(s)   broadcast-CTs\n");
  const std::pair<const char*, core::DistStrategy> strategies[] = {
      {"D-KFAC", core::DistStrategy::kDKfac},
      {"MPD-KFAC", core::DistStrategy::kMpdKfac},
      {"SPD-KFAC", core::DistStrategy::kSpdKfac}};
  std::vector<std::vector<double>> rank0;
  double rank_diff = 0.0;
  for (const auto& [name, strategy] : strategies) {
    const auto per_rank = train(strategy, transport);
    for (const auto& r : per_rank) {
      rank_diff = std::max(rank_diff, weight_diff(r, per_rank.front()));
    }
    const std::vector<double>& r = per_rank.front();
    std::printf("%-9s  %9.2e   %7.3f   %13.0f\n", name, r[0], r[1], r[2]);
    rank0.push_back(r);
  }

  double max_diff = 0.0;
  for (const auto& r : rank0) {
    max_diff = std::max(max_diff, weight_diff(r, rank0.back()));
  }
  std::printf(
      "\nMax |weight difference| across workers: %.3e; across strategies\n"
      "after %d steps: %.3e (only floating-point reassociation of the\n"
      "all-reduce; the paper: \"SPD-KFAC should generate identical\n"
      "numerical results ... as D-KFAC\").\n",
      rank_diff, kSteps, max_diff);
  return rank_diff == 0.0 && max_diff < 1e-8 ? 0 : 1;
}
