// spdkfacd — run the distributed K-FAC optimizer as a long-lived service.
//
//   spdkfacd --socket=/tmp/spdkfacd.sock --world=4 --steps=100
//
// The daemon trains the bench harness's small CNN on an in-process cluster
// and serves live introspection/control on the ctl socket; drive it with
// spdkfacctl (status | profile | plan | cache | metrics | trace | replan |
// set k=v | step [n] | shutdown).
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "comm/transport.hpp"
#include "core/dist_kfac.hpp"
#include "ctl/daemon.hpp"

namespace {

spdkfac::ctl::Daemon* g_daemon = nullptr;

void handle_signal(int) {
  if (g_daemon != nullptr) g_daemon->request_shutdown();
}

void usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--socket=PATH] [--world=N] [--steps=N] [--oneshot]\n"
      "          [--strategy=spd-kfac|mpd-kfac|d-kfac] [--lr=X]\n"
      "          [--damping=X] [--replan-interval=N] [--posthoc]\n"
      "  --socket   ctl socket path (default $TMPDIR/spdkfacd.sock)\n"
      "  --world    in-process ranks (default 2)\n"
      "  --steps    steps queued at startup (default 0; queue live with\n"
      "             'spdkfacctl step N')\n"
      "  --oneshot  exit when the queued steps drain instead of serving\n",
      argv0);
}

bool parse_value(const char* arg, const char* name, std::string& out) {
  const std::size_t n = std::strlen(name);
  if (std::strncmp(arg, name, n) != 0 || arg[n] != '=') return false;
  out = arg + n + 1;
  return true;
}

/// Strict count (ctl::parse_count): "-1" or "3abc" is an error, not a
/// wrapped or truncated number.
std::size_t count_arg(const char* name, const std::string& value) {
  const auto count = spdkfac::ctl::parse_count(value);
  if (!count) {
    throw std::invalid_argument(std::string(name) + " expects a count, got '" +
                                value + "'");
  }
  return *count;
}

}  // namespace

int main(int argc, char** argv) {
  spdkfac::ctl::DaemonOptions opts;
  opts.socket_path = spdkfac::comm::default_tmp_dir() + "/spdkfacd.sock";
  try {
    for (int i = 1; i < argc; ++i) {
      std::string value;
      if (parse_value(argv[i], "--socket", value)) {
        opts.socket_path = value;
      } else if (parse_value(argv[i], "--world", value)) {
        opts.world = std::stoi(value);
      } else if (parse_value(argv[i], "--steps", value)) {
        opts.auto_steps = count_arg("--steps", value);
      } else if (std::strcmp(argv[i], "--oneshot") == 0) {
        opts.run_until_shutdown = false;
      } else if (std::strcmp(argv[i], "--posthoc") == 0) {
        opts.hooked = false;
      } else if (parse_value(argv[i], "--strategy", value)) {
        if (value == "spd-kfac") {
          opts.optimizer.strategy = spdkfac::core::DistStrategy::kSpdKfac;
        } else if (value == "mpd-kfac") {
          opts.optimizer.strategy = spdkfac::core::DistStrategy::kMpdKfac;
        } else if (value == "d-kfac") {
          opts.optimizer.strategy = spdkfac::core::DistStrategy::kDKfac;
        } else {
          throw std::invalid_argument("unknown strategy: " + value);
        }
      } else if (parse_value(argv[i], "--lr", value)) {
        opts.optimizer.lr = std::stod(value);
      } else if (parse_value(argv[i], "--damping", value)) {
        opts.optimizer.damping = std::stod(value);
      } else if (parse_value(argv[i], "--replan-interval", value)) {
        opts.optimizer.replan_interval = count_arg("--replan-interval", value);
      } else if (std::strcmp(argv[i], "--help") == 0 ||
                 std::strcmp(argv[i], "-h") == 0) {
        usage(argv[0]);
        return 0;
      } else {
        std::fprintf(stderr, "spdkfacd: unknown argument %s\n", argv[i]);
        usage(argv[0]);
        return 2;
      }
    }

    spdkfac::ctl::Daemon daemon(opts);
    g_daemon = &daemon;
    std::signal(SIGINT, handle_signal);
    std::signal(SIGTERM, handle_signal);
    std::printf("spdkfacd: serving ctl on %s (world=%d, queued steps=%zu)\n",
                opts.socket_path.c_str(), opts.world, opts.auto_steps);
    std::fflush(stdout);
    daemon.run();
    g_daemon = nullptr;
    std::printf("spdkfacd: shut down after %zu step(s)\n",
                daemon.steps_completed());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "spdkfacd: %s\n", e.what());
    return 1;
  }
}
