// Golden-schedule snapshots: the full iteration plans of a fixed model zoo
// (MLP / small-conv / VGG-16 shapes × the three distribution strategies)
// are serialized with sched::plan_to_text and diffed against checked-in
// goldens.  Any change to the planner's *decisions* — fusion boundaries,
// gradient grouping, placement, collective order, dependency edges, labels
// — shows up as a readable text diff instead of a silent schedule drift.
//
// Regenerating after an intentional planner change:
//
//     SPDKFAC_REGEN_GOLDENS=1 ./build/tests/test_golden_schedules
//
// rewrites every golden under tests/sched/golden/ (the test then passes
// trivially); review the diff like any other code change and commit it.
// The snapshots are platform-stable: the text form excludes raw floating-
// point readiness values (their total order is captured by comm_order),
// and the planner's double arithmetic is IEEE-deterministic on the CI
// targets.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "comm/topology.hpp"
#include "models/model_spec.hpp"
#include "perf/models.hpp"
#include "sched/planner.hpp"
#include "sched/serialize.hpp"

namespace spdkfac::sched {
namespace {

constexpr int kWorld = 4;
constexpr std::size_t kBatch = 8;
// Small threshold so the zoo models split into several WFBP groups.
constexpr std::size_t kGradThreshold = 100;

struct Zoo {
  const char* name;
  models::ModelSpec spec;
};

std::vector<Zoo> zoo() {
  const std::size_t widths[] = {6, 10, 8, 3};
  return {
      {"mlp", models::mlp_spec(widths)},
      {"conv", models::conv_spec(1, 8, 4, 6, 3)},
      {"vgg16", models::vgg16()},
  };
}

struct Strategy {
  const char* name;
  DistStrategy strategy;  ///< planned with sched::preset(strategy)
  comm::Codec factor_codec = comm::Codec::kNone;
  comm::Codec grad_codec = comm::Codec::kNone;
};

constexpr Strategy kStrategies[] = {
    {"dkfac", DistStrategy::kDKfac},
    {"mpdkfac", DistStrategy::kMpdKfac},
    {"spdkfac", DistStrategy::kSpdKfac},
};

// Compressed variants of the full SPD-KFAC pipeline: the codecs shift the
// m of Eq. (14), so these goldens pin down the *re-derived* fusion groups,
// CT/NCT typing, algorithm choices and wire sizes — not just annotations.
constexpr Strategy kCompressedStrategies[] = {
    {"spdkfac_int8_topk", DistStrategy::kSpdKfac, comm::Codec::kInt8,
     comm::Codec::kTopK},
    {"spdkfac_fp16", DistStrategy::kSpdKfac, comm::Codec::kFp16,
     comm::Codec::kFp16},
};

IterationPlan plan_for(const models::ModelSpec& spec,
                       const Strategy& strategy) {
  const auto cal =
      perf::ClusterCalibration::for_topology(comm::Topology::flat(kWorld));
  ScheduleOptions opt = preset(strategy.strategy);
  opt.grad_fusion_threshold = kGradThreshold;
  opt.factor_codec = strategy.factor_codec;
  opt.grad_codec = strategy.grad_codec;
  return plan_iteration(
      inputs_from_model(spec, kBatch, cal.compute, kWorld,
                        /*second_order=*/true),
      opt, costs_from(cal));
}

std::string golden_path(const std::string& case_name) {
  return std::string(SPDKFAC_GOLDEN_DIR) + "/" + case_name + ".txt";
}

bool regenerating() {
  const char* env = std::getenv("SPDKFAC_REGEN_GOLDENS");
  return env != nullptr && std::string(env) != "0";
}

void check_golden(const std::string& case_name, const std::string& actual) {
  const std::string path = golden_path(case_name);
  if (regenerating()) {
    std::filesystem::create_directories(SPDKFAC_GOLDEN_DIR);
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(out.good()) << "cannot write golden " << path;
    out << actual;
    SUCCEED() << "regenerated " << path;
    return;
  }
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good())
      << "missing golden " << path
      << " — run with SPDKFAC_REGEN_GOLDENS=1 to create it";
  std::ostringstream expected;
  expected << in.rdbuf();
  EXPECT_EQ(actual, expected.str())
      << case_name
      << ": schedule drifted from its golden.  If the change is "
         "intentional, regenerate with SPDKFAC_REGEN_GOLDENS=1 and review "
         "the diff.";
}

TEST(GoldenSchedules, ModelZooTimesStrategiesMatchCheckedInPlans) {
  for (const Zoo& entry : zoo()) {
    for (const Strategy& strategy : kStrategies) {
      const std::string case_name =
          std::string(entry.name) + "_" + strategy.name;
      SCOPED_TRACE(case_name);
      check_golden(case_name, plan_to_text(plan_for(entry.spec, strategy)));
    }
  }
}

TEST(GoldenSchedules, CompressedPlansMatchCheckedInPlans) {
  for (const Zoo& entry : zoo()) {
    for (const Strategy& strategy : kCompressedStrategies) {
      const std::string case_name =
          std::string(entry.name) + "_" + strategy.name;
      SCOPED_TRACE(case_name);
      check_golden(case_name, plan_to_text(plan_for(entry.spec, strategy)));
    }
  }
}

// Compression is a planner *dimension*, not a transport detail: with the
// compressed beta of Eq. (14) the planner must reach genuinely different
// decisions — different fusion/WFBP grouping or CT/NCT typing — on at
// least one zoo model, not merely re-annotate the lossless plan.
TEST(GoldenSchedules, CompressionChangesPlanStructure) {
  const Strategy lossless = kStrategies[2];  // spdkfac
  bool structural = false;
  for (const Zoo& entry : zoo()) {
    const IterationPlan base = plan_for(entry.spec, lossless);
    const IterationPlan compressed =
        plan_for(entry.spec, kCompressedStrategies[0]);  // int8 + topk

    const auto groups_differ = [](const std::vector<FusionGroup>& a,
                                  const std::vector<FusionGroup>& b) {
      if (a.size() != b.size()) return true;
      for (std::size_t i = 0; i < a.size(); ++i) {
        if (a[i].first != b[i].first || a[i].last != b[i].last) return true;
      }
      return false;
    };
    bool nct_differ =
        base.placement.assignments.size() !=
        compressed.placement.assignments.size();
    for (std::size_t t = 0; !nct_differ &&
                            t < base.placement.assignments.size();
         ++t) {
      nct_differ = base.placement.assignments[t].nct !=
                   compressed.placement.assignments[t].nct;
    }
    structural |= groups_differ(base.a_groups, compressed.a_groups) ||
                  groups_differ(base.g_groups, compressed.g_groups) ||
                  base.grad_groups != compressed.grad_groups || nct_differ;
  }
  EXPECT_TRUE(structural)
      << "int8+topk compression left every zoo plan structurally identical "
         "to lossless — the codecs are not reaching the fusion DP / LBP";
}

TEST(GoldenSchedules, SerializerIsInjectiveOnTheZoo) {
  // Nine distinct schedules must serialize to nine distinct texts —
  // otherwise the goldens could mask drift between cases.
  std::vector<std::string> texts;
  for (const Zoo& entry : zoo()) {
    for (const Strategy& strategy : kStrategies) {
      texts.push_back(plan_to_text(plan_for(entry.spec, strategy)));
    }
  }
  for (std::size_t i = 0; i < texts.size(); ++i) {
    for (std::size_t j = i + 1; j < texts.size(); ++j) {
      EXPECT_NE(texts[i], texts[j]) << "cases " << i << " and " << j;
    }
  }
}

}  // namespace
}  // namespace spdkfac::sched
