// Self-test of the benchmark's percentile and digest helpers; run.py runs
// it before every measurement and refuses to measure when it fails.
#include <cstdio>
#include <numeric>
#include <vector>

#include "stats.hpp"

namespace {

int failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "selftest failed: %s\n", what);
    ++failures;
  }
}

std::vector<double> one_to(int n) {
  std::vector<double> v(static_cast<std::size_t>(n));
  std::iota(v.begin(), v.end(), 1.0);
  // Reverse so the helpers cannot rely on sorted input.
  return {v.rbegin(), v.rend()};
}

}  // namespace

int main() {
  using namespace perfbench;

  // Nearest rank: the ceil(q n)-th smallest sample, never an interpolation.
  expect(percentile(one_to(10), 0.5) == 5.0, "p50 of 1..10 is 5");
  expect(percentile(one_to(10), 0.9) == 9.0, "p90 of 1..10 is 9");
  expect(percentile(one_to(100), 0.9) == 90.0, "p90 of 1..100 is 90");
  expect(percentile(one_to(101), 0.9) == 91.0, "p90 of 1..101 is 91");
  expect(percentile({7.0}, 0.99) == 7.0, "any percentile of one sample");
  expect(percentile(one_to(4), 1.0) == 4.0, "p100 is the maximum");
  expect(median({3.0, 1.0, 2.0}) == 2.0, "median of three");
  bool threw = false;
  try {
    percentile({}, 0.5);
  } catch (const std::invalid_argument&) {
    threw = true;
  }
  expect(threw, "empty sample throws");

  // Tail: the highest listed percentile with ten samples beyond it.
  expect(samples_beyond(100, 0.9) == 10, "100 samples: 10 beyond p90");
  expect(tail(one_to(19)).q == 0.5, "19 samples: only p50");
  expect(tail(one_to(99)).q == 0.5, "99 samples: 9 beyond p90, so p50");
  expect(tail(one_to(100)).q == 0.9, "100 samples: p90");
  const Tail t999 = tail(one_to(999));
  expect(t999.q == 0.9 && t999.value == 900.0 && t999.beyond == 99,
         "999 samples: p90 = 900 with 99 beyond");
  const Tail t1000 = tail(one_to(1000));
  expect(t1000.q == 0.99 && t1000.value == 990.0 && t1000.beyond == 10,
         "1000 samples: p99 = 990 with 10 beyond");
  expect(tail(one_to(10000)).q == 0.999, "10000 samples: p99.9");

  // FNV-1a 64 over the bytes of the doubles (little-endian layout of the
  // published test vector: the empty input hashes to the offset basis).
  expect(fnv1a({}) == 0xcbf29ce484222325ULL, "empty digest is the basis");
  const std::vector<double> a{1.0, 2.0}, b{2.0, 1.0};
  expect(fnv1a(a) != fnv1a(b), "digest depends on order");
  expect(fnv1a(std::vector<double>{0.0}) != fnv1a(std::vector<double>{-0.0}),
         "digest is bitwise: +0 and -0 differ");
  expect(fnv1a(std::vector<double>{2.0}, fnv1a(std::vector<double>{1.0})) ==
             fnv1a(a),
         "chained digest equals the digest of the concatenation");
  expect(hex64(0x0123456789abcdefULL) == "0123456789abcdef", "hex64");

  for (const std::uint64_t d :
       {0ULL, 1ULL, 0xffffffffffffffffULL, 0x8000000000000001ULL}) {
    std::vector<double> wire;
    push_digest(wire, d);
    expect(wire.size() == 2 && digest_from(wire[0], wire[1]) == d,
           "digest survives the double-only result pipe");
  }

  if (failures == 0) std::printf("selftest passed\n");
  return failures == 0 ? 0 : 1;
}
