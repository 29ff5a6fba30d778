// Order statistics and weight digests for the benchmark's reports.
//
// Percentiles are nearest-rank (the smallest sample with at least a share q
// of the samples at or below it), so every reported timing is a value that
// was actually measured.  The tail the report prints is the highest of
// p50/p90/p99/p99.9 that still leaves at least ten samples above it.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile of `samples`, q in (0, 1].  Throws on an empty
/// sample or a q outside (0, 1].
inline double percentile(std::vector<double> samples, double q) {
  if (samples.empty()) throw std::invalid_argument("percentile: no samples");
  if (!(q > 0.0 && q <= 1.0)) {
    throw std::invalid_argument("percentile: q outside (0, 1]");
  }
  const auto n = samples.size();
  auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<std::size_t>(rank, 1, n);
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[rank - 1];
}

inline double median(std::vector<double> samples) {
  return percentile(std::move(samples), 0.5);
}

/// Samples strictly above the nearest-rank position of q.
inline std::size_t samples_beyond(std::size_t n, double q) {
  const auto rank =
      static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  return n - std::min(n, rank);
}

struct Tail {
  double q = 0.5;
  double value = 0.0;
  std::size_t beyond = 0;  ///< samples above the reported percentile
};

/// The highest of p50, p90, p99 and p99.9 that has at least ten samples
/// beyond it (p50 when even that has fewer).
inline Tail tail(const std::vector<double>& samples) {
  Tail t;
  for (const double q : {0.5, 0.9, 0.99, 0.999}) {
    if (q == 0.5 || samples_beyond(samples.size(), q) >= 10) t.q = q;
  }
  t.value = percentile(samples, t.q);
  t.beyond = samples_beyond(samples.size(), t.q);
  return t;
}

/// FNV-1a over the exact bytes of `values`, chained from `hash`.
inline std::uint64_t fnv1a(std::span<const double> values,
                           std::uint64_t hash = 0xcbf29ce484222325ULL) {
  for (const double v : values) {
    unsigned char bytes[sizeof(double)];
    std::memcpy(bytes, &v, sizeof(double));
    for (const unsigned char b : bytes) {
      hash ^= b;
      hash *= 0x100000001b3ULL;
    }
  }
  return hash;
}

inline std::string hex64(std::uint64_t v) {
  static const char* digits = "0123456789abcdef";
  std::string out(16, '0');
  for (std::size_t i = 16; i-- > 0; v >>= 4) out[i] = digits[v & 0xf];
  return out;
}

/// A 64-bit digest travels through the launcher's double-only result pipe
/// as two exact 32-bit halves.
inline void push_digest(std::vector<double>& out, std::uint64_t digest) {
  out.push_back(static_cast<double>(digest >> 32));
  out.push_back(static_cast<double>(digest & 0xffffffffULL));
}

inline std::uint64_t digest_from(double hi, double lo) {
  return (static_cast<std::uint64_t>(hi) << 32) |
         static_cast<std::uint64_t>(lo);
}

}  // namespace perfbench
