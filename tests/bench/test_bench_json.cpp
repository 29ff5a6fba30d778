// BENCH_*.json emission: the document must be strict JSON no matter which
// values the benches measured (NaN/Inf from degenerate runs) and no matter
// the process locale — the two historical corruption modes.
#include "bench_util.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <locale>

#include "testsupport/json_validator.hpp"

namespace spdkfac {
namespace {

using testsupport::valid_json;

bench::BenchJson hostile_document() {
  bench::BenchJson doc("unit_test");
  doc.add("clean", {{"mean_s", 0.015625}, {"count", 3.0}});
  doc.add("degenerate",
          {{"nan_field", std::numeric_limits<double>::quiet_NaN()},
           {"inf_field", std::numeric_limits<double>::infinity()},
           {"ninf_field", -std::numeric_limits<double>::infinity()},
           {"tiny", 5e-324},
           {"huge", 1.7e308}});
  doc.add("name \"quoted\"\nnewline\ttab", {{"v", 1.0}});
  bench::SampleStats s;
  s.mean = std::numeric_limits<double>::quiet_NaN();
  s.p50 = 0.5;
  s.p90 = 0.9;
  doc.add_timing("timing", s, 0.75,
                 {{"wire_bytes_per_iter", 4096.0},
                  {"raw_bytes_per_iter", 8192.0}});
  return doc;
}

TEST(BenchJson, HostileValuesStillEmitStrictJson) {
  const std::string json = hostile_document().to_json();
  std::string error;
  EXPECT_TRUE(valid_json(json, &error)) << error << "\n" << json;
  // NaN/Inf fields are present but null — the data point is kept, its
  // unrepresentable value is not.
  EXPECT_NE(json.find("\"nan_field\": null"), std::string::npos) << json;
  EXPECT_NE(json.find("\"inf_field\": null"), std::string::npos) << json;
  EXPECT_EQ(json.find("nan,"), std::string::npos) << json;
  EXPECT_EQ(json.find("inf,"), std::string::npos) << json;
  EXPECT_NE(json.find("\"wire_bytes_per_iter\": 4096"), std::string::npos)
      << json;
}

struct CommaPunct : std::numpunct<char> {
  char do_decimal_point() const override { return ','; }
  char do_thousands_sep() const override { return '.'; }
  std::string do_grouping() const override { return "\3"; }
};

TEST(BenchJson, HostileGlobalLocaleStillEmitsStrictJson) {
  const std::locale previous = std::locale::global(
      std::locale(std::locale::classic(), new CommaPunct));
  std::string json;
  try {
    json = hostile_document().to_json();
  } catch (...) {
    std::locale::global(previous);
    throw;
  }
  std::locale::global(previous);
  std::string error;
  EXPECT_TRUE(valid_json(json, &error)) << error << "\n" << json;
  EXPECT_NE(json.find("\"mean_s\": 0.015625"), std::string::npos) << json;
}

}  // namespace
}  // namespace spdkfac
