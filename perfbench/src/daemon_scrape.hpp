// One launch of ctl::Daemon with a Prometheus-style scraper: a single
// CtlClient sends `metrics` on a fixed schedule (an open loop) while the
// daemon trains, and each request is timed from when it was due.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "train.hpp"

namespace perfbench {

struct ScrapeConfig {
  /// The job the daemon runs: it mirrors the small CNN of `train`, on
  /// `train.world` in-process ranks.  The daemon draws rank r's batches
  /// from seed 100 + r, so train.shard_seed must be 100 for a reference
  /// run of `train` to match it bitwise.
  TrainConfig train;
  std::string socket_path;
};

struct ScrapeRep {
  double samples = 0.0;
  double setup_s = 0.0;  ///< daemon start -> warm-up steps done
  double timed_s = 0.0;  ///< `step n` sent -> the n-th step observed done
  double cpu_s = 0.0;    ///< process user+sys over the timed steps
  std::vector<double> latency_s;  ///< per request, from its due time
  std::vector<double> late_s;     ///< per request, send time - due time
  std::vector<double> bytes;      ///< per successful response body
  std::size_t requests = 0, failed_requests = 0;
  std::size_t steps_done = 0;
  double collective_ops = 0.0;  ///< last scraped spdkfac_collective_ops_total
  std::uint64_t digest = 0;     ///< rank 0's final weights
};

/// Runs the daemon for train.warmup_steps + train.timed_steps steps.
/// Throws when the daemon fails.
ScrapeRep run_scrape_rep(const ScrapeConfig& config);

}  // namespace perfbench
