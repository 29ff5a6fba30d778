// Live Chrome trace_event recorder for a real run (the simulator renders
// its *predicted* schedules via sim/trace.cpp; this renders what actually
// executed).  Compute intervals arrive from DistKfacOptimizer's task
// listener as they run; communication intervals are the async engine's
// OpRecords, handed over when a trace is rendered — both on the engine
// clock, so they stitch into one consistent timeline.
//
// Rendering packs each category's intervals greedily onto the fewest
// non-overlapping lanes ("compute-0", "compute-1", ..., then "comm-0",
// ...), so concurrent work is visibly parallel and compute and comm open
// as distinct lane groups in Perfetto.
#pragma once

#include <mutex>
#include <string>
#include <vector>

namespace spdkfac::ctl {

class TraceRecorder {
 public:
  enum class Lane { kCompute, kComm };

  struct Event {
    std::string name;
    Lane lane;
    double start_s;
    double end_s;
  };

  /// Records one [start_s, end_s) interval.  Thread-safe (compute tasks
  /// report from pool threads).  Zero/negative-duration intervals are kept
  /// and rendered with dur 0.
  void add(std::string name, Lane lane, double start_s, double end_s);

  std::size_t size() const;

  /// The recorded run as a Chrome trace_event JSON array (complete "X"
  /// events, metadata rows naming the process and every lane).  Strict
  /// JSON under any locale; timestamps are microseconds at full double
  /// precision, so hours-long runs keep distinct ticks.  `transient`
  /// events are rendered alongside the recorded ones without being kept,
  /// limited to the window the recorder retains: those starting before its
  /// oldest recorded event are dropped (all of them when nothing is
  /// recorded).
  std::string to_chrome_trace(const std::string& process_name,
                              std::vector<Event> transient = {}) const;

 private:
  /// Retention cap: a long-running daemon must not grow without bound.
  /// When the buffer exceeds the cap the oldest quarter is dropped — the
  /// trace command then shows the most recent window of the run.
  static constexpr std::size_t kMaxEvents = 65536;

  mutable std::mutex mu_;
  std::vector<Event> events_;
};

}  // namespace spdkfac::ctl
