#include "daemon_scrape.hpp"

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <stdexcept>
#include <thread>

#include "ctl/client.hpp"
#include "ctl/daemon.hpp"
#include "runtime_tap.hpp"
#include "stats.hpp"

namespace perfbench {

namespace {

/// A rep whose timed steps take longer than this has stalled.
constexpr double kStallLimitS = 120.0;

/// The scraper's rate: a stress rate, not Prometheus traffic (a Prometheus
/// server scrapes every 15 s to 1 min).  The need it meets: at least 100
/// requests per launch, so that a launch's p90 has ten beyond it and its
/// p50 is steady enough for the run to report (see README.md).  The 400
/// timed steps of a launch take 1.2 to 1.5 s, so the rate must be 85 Hz or
/// more; 100 Hz gives 120 to 150 requests.
constexpr double kScrapeRateHz = 100.0;

/// Value of the sample line `name value` in a Prometheus text body, or -1.
double scraped(const std::string& body, const std::string& name) {
  const std::string key = "\n" + name + " ";
  const std::size_t at = body.find(key);
  if (at == std::string::npos) return -1.0;
  return std::strtod(body.c_str() + at + key.size(), nullptr);
}

void sleep_until_s(double t) {
  const double dt = t - now_s();
  if (dt > 0.0) std::this_thread::sleep_for(std::chrono::duration<double>(dt));
}

/// Stops and joins the daemon thread on every exit path.
struct DaemonThread {
  ctl::Daemon& daemon;
  std::exception_ptr error;  ///< read only after join()
  std::atomic<bool> failed{false};
  std::thread thread;

  explicit DaemonThread(ctl::Daemon& d)
      : daemon(d), thread([this] {
          try {
            daemon.run();
          } catch (...) {
            error = std::current_exception();
            failed.store(true);
          }
        }) {}
  ~DaemonThread() { join(); }
  DaemonThread(const DaemonThread&) = delete;
  DaemonThread& operator=(const DaemonThread&) = delete;

  void join() {
    daemon.request_shutdown();
    if (thread.joinable()) thread.join();
  }
};

}  // namespace

ScrapeRep run_scrape_rep(const ScrapeConfig& c) {
  const TrainConfig& t = c.train;
  ctl::DaemonOptions opts;
  opts.socket_path = c.socket_path;
  opts.world = t.world;
  opts.auto_steps = t.warmup_steps;
  opts.run_until_shutdown = true;
  opts.batch = t.batch;
  opts.init_seed = t.init_seed;
  opts.data_seed = t.data_seed;
  opts.noise = t.noise;
  opts.optimizer.strategy = t.strategy;
  opts.optimizer.lr = t.lr;
  opts.optimizer.damping = t.damping;

  ScrapeRep r;
  const std::size_t total_steps = t.warmup_steps + t.timed_steps;
  const double start_s = now_s();
  ctl::Daemon daemon(opts);
  {
    DaemonThread runner(daemon);
    ctl::CtlClient client(c.socket_path, 30.0);
    while (daemon.steps_completed() < t.warmup_steps && !runner.failed) {
      sleep_until_s(now_s() + 2e-4);
    }
    r.setup_s = now_s() - start_s;
    if (runner.failed) {
      runner.join();
      std::rethrow_exception(runner.error);
    }

    const double cpu_start = cpu_seconds();
    const double timed_start = now_s();
    if (!client.request("step " + std::to_string(t.timed_steps)).ok) {
      throw std::runtime_error("daemon refused the step request");
    }
    const double period = 1.0 / kScrapeRateHz;
    double timed_end = 0.0;
    for (std::size_t k = 1;; ++k) {
      const double due = timed_start + static_cast<double>(k) * period;
      // Watch for the last step while waiting for the next due time.
      while (now_s() < due && daemon.steps_completed() < total_steps) {
        sleep_until_s(std::min(due, now_s() + 5e-4));
      }
      if (daemon.steps_completed() >= total_steps) {
        timed_end = now_s();
        break;
      }
      if (now_s() - timed_start > kStallLimitS) {
        throw std::runtime_error("daemon stopped making progress");
      }
      const double sent = now_s();
      ++r.requests;
      ctl::Response resp;
      try {
        resp = client.request("metrics");
      } catch (const std::runtime_error&) {
        resp.ok = false;  // a torn connection counts as a failed request
      }
      const bool ok =
          resp.ok && scraped(resp.body, "spdkfac_steps_total") >= 0.0;
      if (ok) {
        r.bytes.push_back(static_cast<double>(resp.body.size()));
        r.collective_ops = scraped(resp.body, "spdkfac_collective_ops_total");
        if (scraped(resp.body, "spdkfac_rank_failures_total") > 0.0) {
          throw std::runtime_error("a daemon step failed");
        }
      }
      r.latency_s.push_back(now_s() - due);
      r.late_s.push_back(sent - due);
      if (!ok) ++r.failed_requests;
      if (runner.failed) break;
    }
    r.cpu_s = cpu_seconds() - cpu_start;
    r.timed_s = timed_end - timed_start;
    r.steps_done = daemon.steps_completed();
    runner.join();
    if (runner.failed) std::rethrow_exception(runner.error);
  }
  std::filesystem::remove(c.socket_path);

  std::uint64_t hash = fnv1a({});
  for (const tensor::Matrix& w : daemon.rank0_weights()) {
    hash = fnv1a(w.data(), hash);
  }
  r.digest = hash;
  r.samples = static_cast<double>(t.world) * static_cast<double>(t.batch) *
              static_cast<double>(t.timed_steps);
  return r;
}

}  // namespace perfbench
