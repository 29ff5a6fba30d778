// Shared helpers for the per-figure benchmark harnesses: console tables,
// machine-readable BENCH_*.json emission (so the perf trajectory is tracked
// across PRs) and the paper-testbed calibration.  Real-training throughput
// is measured by perfbench/, not here.
#pragma once

#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "perf/models.hpp"
#include "util/json.hpp"

namespace spdkfac::bench {

/// The paper's 64x RTX2080Ti testbed calibration (shared instance — every
/// figure bench prices against the same constants).
inline const perf::ClusterCalibration& cal64() {
  static const perf::ClusterCalibration cal =
      perf::ClusterCalibration::paper_rtx2080ti_64gpu();
  return cal;
}

// ---------------------------------------------------------------------------
// Per-config timing summary + BENCH_*.json emission
// ---------------------------------------------------------------------------

struct SampleStats {
  double mean = 0.0, p50 = 0.0, p90 = 0.0;
};

/// Collects per-config scalar fields and writes BENCH_<name>.json in the
/// working directory — the machine-readable perf record tracked across PRs:
///   {"bench": "<name>", "configs": [{"name": "...", "<field>": v, ...}]}
class BenchJson {
 public:
  explicit BenchJson(std::string bench_name)
      : bench_name_(std::move(bench_name)) {}

  void add(const std::string& config,
           std::vector<std::pair<std::string, double>> fields) {
    configs_.emplace_back(config, std::move(fields));
  }

  /// Convenience: the standard iteration-time block.
  void add_timing(const std::string& config, const SampleStats& s,
                  double overlap_fraction,
                  std::vector<std::pair<std::string, double>> extra = {}) {
    std::vector<std::pair<std::string, double>> fields{
        {"mean_s", s.mean},
        {"p50_s", s.p50},
        {"p90_s", s.p90},
        {"overlap_fraction", overlap_fraction}};
    fields.insert(fields.end(), extra.begin(), extra.end());
    add(config, std::move(fields));
  }

  /// The document BENCH_<name>.json will hold — strict JSON regardless of
  /// locale (util::format_double is locale-free) and of the field values
  /// (NaN/Inf become null; JSON has no tokens for them).
  std::string to_json() const {
    std::string out = "{\n  \"bench\": " + util::json_string(bench_name_) +
                      ",\n  \"configs\": [";
    for (std::size_t i = 0; i < configs_.size(); ++i) {
      out += (i == 0 ? "" : ",");
      out += "\n    {\"name\": " + util::json_string(configs_[i].first);
      for (const auto& [key, value] : configs_[i].second) {
        out += ", " + util::json_string(key) + ": " + util::json_number(value);
      }
      out += "}";
    }
    out += "\n  ]\n}\n";
    return out;
  }

  /// Writes BENCH_<name>.json; prints the path.  Throws on I/O failure.
  void write() const {
    const std::string path = "BENCH_" + bench_name_ + ".json";
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      throw std::runtime_error("BenchJson: cannot open " + path);
    }
    const std::string doc = to_json();
    const std::size_t written = std::fwrite(doc.data(), 1, doc.size(), f);
    std::fclose(f);
    if (written != doc.size()) {
      throw std::runtime_error("BenchJson: short write to " + path);
    }
    std::printf("wrote %s\n", path.c_str());
  }

 private:
  std::string bench_name_;
  std::vector<std::pair<std::string,
                        std::vector<std::pair<std::string, double>>>>
      configs_;
};

inline void print_header(const std::string& id, const std::string& title) {
  std::printf("\n================================================================\n");
  std::printf("%s — %s\n", id.c_str(), title.c_str());
  std::printf("================================================================\n");
}

inline void print_row_divider(int width = 72) {
  for (int i = 0; i < width; ++i) std::putchar('-');
  std::putchar('\n');
}

/// Simple fixed-width text table.
class Table {
 public:
  explicit Table(std::vector<std::string> columns)
      : columns_(std::move(columns)) {}

  void add_row(std::vector<std::string> cells) {
    rows_.push_back(std::move(cells));
  }

  void print() const {
    std::vector<std::size_t> widths(columns_.size());
    for (std::size_t c = 0; c < columns_.size(); ++c) {
      widths[c] = columns_[c].size();
      for (const auto& row : rows_) {
        if (c < row.size()) widths[c] = std::max(widths[c], row[c].size());
      }
    }
    auto print_cells = [&](const std::vector<std::string>& cells) {
      for (std::size_t c = 0; c < columns_.size(); ++c) {
        const std::string& cell = c < cells.size() ? cells[c] : "";
        std::printf("%-*s  ", static_cast<int>(widths[c]), cell.c_str());
      }
      std::putchar('\n');
    };
    print_cells(columns_);
    std::size_t total = 0;
    for (auto w : widths) total += w + 2;
    print_row_divider(static_cast<int>(total));
    for (const auto& row : rows_) print_cells(row);
  }

 private:
  std::vector<std::string> columns_;
  std::vector<std::vector<std::string>> rows_;
};

inline std::string fmt(const char* format, double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), format, value);
  return buf;
}

inline std::string seconds(double s) { return fmt("%.4f", s); }
inline std::string millis(double s) { return fmt("%.1f", s * 1e3); }
inline std::string mega(double x) { return fmt("%.1f", x / 1e6); }

}  // namespace spdkfac::bench
