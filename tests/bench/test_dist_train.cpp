// bench::dist_train runs one training loop on every transport: the same
// seeds give rank 0 bitwise-identical weights, the same collectives per
// step and the same wire bytes whether the ranks are threads or processes
// over shared memory or Unix sockets — and every transport reports the
// engine statistics (op counts, busy time, overlap) instead of only the
// in-process one.
#include "bench_util.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "testsupport/backends.hpp"

namespace spdkfac {
namespace {

constexpr int kWorld = 2;
constexpr int kSteps = 3;
constexpr std::size_t kLayers = 3;  // conv, conv, linear of make_small_cnn

/// Pinned planning profile, so the Eq. (15) fusion — and with it the
/// all-reduce reassociation — is a function of the seeds, not of timing.
sched::PassTiming fixed_profile() {
  sched::PassTiming t;
  for (std::size_t l = 0; l < kLayers; ++l) {
    t.a_ready.push_back(1e-4 * static_cast<double>(l + 1));
    t.g_ready.push_back(1e-3 + 1e-4 * static_cast<double>(l + 1));
    t.grad_ready.push_back(1e-3 + 1.5e-4 * static_cast<double>(l + 1));
  }
  t.backward_end = 2e-3;
  return t;
}

bench::DistTrainResult train_on(comm::TransportKind transport) {
  bench::DistTrainConfig cfg;
  cfg.world = kWorld;
  cfg.steps = kSteps;
  cfg.noise = 0.25;
  cfg.optimizer.transport = transport;
  cfg.optimizer.profile_trajectory = {fixed_profile()};
  return bench::dist_train(cfg);
}

class DistTrainHarness
    : public ::testing::TestWithParam<comm::TransportKind> {};

TEST_P(DistTrainHarness, MatchesInProcessBitwise) {
  SPDKFAC_SKIP_MULTIPROCESS_UNDER_TSAN(GetParam());
  const bench::DistTrainResult reference =
      train_on(comm::TransportKind::kInProcess);
  const bench::DistTrainResult run = train_on(GetParam());

  ASSERT_EQ(run.rank0_weights.size(), kLayers);
  ASSERT_EQ(reference.rank0_weights.size(), kLayers);
  for (std::size_t l = 0; l < kLayers; ++l) {
    const auto got = run.rank0_weights[l].data();
    const auto want = reference.rank0_weights[l].data();
    EXPECT_TRUE(std::equal(got.begin(), got.end(), want.begin(), want.end()))
        << "layer " << l << " weights differ from the in-process run";
  }
  EXPECT_EQ(run.rank0_loss, reference.rank0_loss);

  ASSERT_EQ(run.step_seconds.size(), static_cast<std::size_t>(kSteps));
  ASSERT_EQ(run.step_ops.size(), static_cast<std::size_t>(kSteps));
  EXPECT_EQ(run.step_ops, reference.step_ops);
  EXPECT_GT(run.step_ops.front(), 0u);
  EXPECT_EQ(run.wire_bytes_per_step, reference.wire_bytes_per_step);
  EXPECT_EQ(run.raw_bytes_per_step, reference.raw_bytes_per_step);
  EXPECT_EQ(run.broadcast_cts, reference.broadcast_cts);
  EXPECT_EQ(run.arena_bytes_saved, reference.arena_bytes_saved);

  // The engine statistics cross the process boundary too.
  EXPECT_GT(run.comm_busy_s, 0.0);
  EXPECT_GE(run.mean_queue_delay_s, 0.0);
  EXPECT_GE(run.overlap_fraction, 0.0);
  EXPECT_LE(run.overlap_fraction, 1.0);
}

INSTANTIATE_TEST_SUITE_P(AllBackends, DistTrainHarness,
                         ::testing::ValuesIn(testsupport::kAllTransports),
                         [](const auto& info) {
                           return testsupport::backend_name(info.param);
                         });

}  // namespace
}  // namespace spdkfac
