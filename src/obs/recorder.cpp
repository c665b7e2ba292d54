#include "obs/recorder.hpp"

#include <algorithm>
#include <ostream>

namespace finehmm::obs {

const char* stage_name(Stage s) {
  switch (s) {
    case Stage::kSsv: return "ssv";
    case Stage::kMsv: return "msv";
    case Stage::kVit: return "vit";
    case Stage::kFwd: return "fwd";
    case Stage::kBwd: return "bwd";
    case Stage::kOther: return "other";
  }
  return "?";
}

void Recorder::reserve_threads(std::size_t n) {
  while (logs_.size() < n) {
    const auto tid = static_cast<std::uint32_t>(logs_.size());
    logs_.emplace_back(std::unique_ptr<ThreadLog>(new ThreadLog(tid)));
  }
}

std::vector<SpanEvent> Recorder::merged_events() const {
  std::vector<SpanEvent> all;
  std::size_t n = 0;
  for (const auto& log : logs_) n += log->events().size();
  all.reserve(n);
  for (const auto& log : logs_)
    all.insert(all.end(), log->events().begin(), log->events().end());
  std::stable_sort(all.begin(), all.end(),
                   [](const SpanEvent& a, const SpanEvent& b) {
                     if (a.start_ns != b.start_ns)
                       return a.start_ns < b.start_ns;
                     return a.thread < b.thread;
                   });
  return all;
}

void Recorder::write_chrome_trace(std::ostream& os) const {
  // "X" (complete) events with microsecond ts/dur, one pid, tid = dense
  // worker id, plus thread_name metadata so Perfetto labels the tracks.
  os << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
  bool first = true;
  for (std::size_t w = 0; w < logs_.size(); ++w) {
    if (!first) os << ",";
    first = false;
    os << "\n  {\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, "
       << "\"tid\": " << w << ", \"args\": {\"name\": \"worker-" << w
       << "\"}}";
  }
  for (const SpanEvent& e : merged_events()) {
    if (!first) os << ",";
    first = false;
    os << "\n  {\"name\": \"" << e.name << "\", \"ph\": \"X\", \"cat\": "
       << "\"scan\", \"pid\": 1, \"tid\": " << e.thread
       << ", \"ts\": " << static_cast<double>(e.start_ns) * 1e-3
       << ", \"dur\": " << static_cast<double>(e.dur_ns) * 1e-3 << "}";
  }
  os << "\n]}\n";
}

}  // namespace finehmm::obs
