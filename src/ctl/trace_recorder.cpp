#include "ctl/trace_recorder.hpp"

#include <algorithm>
#include <cstddef>

#include "util/json.hpp"

namespace spdkfac::ctl {

void TraceRecorder::add(std::string name, Lane lane, double start_s,
                        double end_s) {
  std::lock_guard lock(mu_);
  if (events_.size() >= kMaxEvents) {
    events_.erase(events_.begin(),
                  events_.begin() + static_cast<std::ptrdiff_t>(
                                        kMaxEvents / 4));
  }
  events_.push_back(Event{std::move(name), lane, start_s, end_s});
}

std::size_t TraceRecorder::size() const {
  std::lock_guard lock(mu_);
  return events_.size();
}

std::string TraceRecorder::to_chrome_trace(
    const std::string& process_name, std::vector<Event> transient) const {
  std::vector<Event> events;
  {
    std::lock_guard lock(mu_);
    events = events_;
  }
  if (!events.empty()) {
    const double window_start_s =
        std::min_element(events.begin(), events.end(),
                         [](const Event& a, const Event& b) {
                           return a.start_s < b.start_s;
                         })
            ->start_s;
    for (Event& ev : transient) {
      if (ev.start_s >= window_start_s) events.push_back(std::move(ev));
    }
  }
  std::stable_sort(events.begin(), events.end(),
                   [](const Event& a, const Event& b) {
                     return a.start_s < b.start_s;
                   });

  // Greedy lane packing per category: place each interval on the first
  // lane whose previous occupant already ended, else open a new lane.
  std::vector<double> compute_ends, comm_ends;
  std::vector<std::size_t> lane_of(events.size());
  for (std::size_t i = 0; i < events.size(); ++i) {
    std::vector<double>& ends =
        events[i].lane == Lane::kCompute ? compute_ends : comm_ends;
    std::size_t lane = ends.size();
    for (std::size_t l = 0; l < ends.size(); ++l) {
      if (ends[l] <= events[i].start_s) {
        lane = l;
        break;
      }
    }
    if (lane == ends.size()) {
      ends.push_back(events[i].end_s);
    } else {
      ends[lane] = std::max(ends[lane], events[i].end_s);
    }
    lane_of[i] = lane;
  }

  // Comm lanes are numbered after every compute lane, so the two groups
  // render as visually distinct blocks.
  const std::size_t n_compute = std::max<std::size_t>(compute_ends.size(), 1);
  const std::size_t n_comm = std::max<std::size_t>(comm_ends.size(), 1);

  std::string out = "[\n";
  out +=
      R"({"name":"process_name","ph":"M","pid":1,"tid":0,"args":{"name":)" +
      util::json_string(process_name) + "}}";
  for (std::size_t l = 0; l < n_compute; ++l) {
    out += ",\n";
    out += R"({"name":"thread_name","ph":"M","pid":1,"tid":)" +
           std::to_string(l) + R"(,"args":{"name":)" +
           util::json_string("compute-" + std::to_string(l)) + "}}";
  }
  for (std::size_t l = 0; l < n_comm; ++l) {
    out += ",\n";
    out += R"({"name":"thread_name","ph":"M","pid":1,"tid":)" +
           std::to_string(n_compute + l) + R"(,"args":{"name":)" +
           util::json_string("comm-" + std::to_string(l)) + "}}";
  }
  for (std::size_t i = 0; i < events.size(); ++i) {
    const Event& ev = events[i];
    const bool compute = ev.lane == Lane::kCompute;
    const std::size_t tid =
        compute ? lane_of[i] : n_compute + lane_of[i];
    const double dur_us = std::max(0.0, (ev.end_s - ev.start_s) * 1e6);
    out += ",\n";
    out += R"({"name":)" + util::json_string(ev.name) + R"(,"cat":)" +
           (compute ? R"("compute")" : R"("comm")") +
           R"(,"ph":"X","pid":1,"tid":)" + std::to_string(tid) +
           R"(,"ts":)" + util::json_number(ev.start_s * 1e6) +
           R"(,"dur":)" + util::json_number(dur_us) + "}";
  }
  out += "\n]\n";
  return out;
}

}  // namespace spdkfac::ctl
