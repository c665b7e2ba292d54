#include "obs/request_trace.hpp"

#include <chrono>
#include <cstdio>
#include <ostream>

#include "obs/log.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

namespace finehmm::obs {

namespace {

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

std::uint64_t id_seed() {
  std::uint64_t seed = static_cast<std::uint64_t>(
      std::chrono::steady_clock::now().time_since_epoch().count());
#if defined(__unix__) || defined(__APPLE__)
  seed ^= static_cast<std::uint64_t>(::getpid()) << 32;
#endif
  return seed;
}

}  // namespace

std::uint64_t next_trace_id() {
  static std::atomic<std::uint64_t> counter{id_seed()};
  for (;;) {
    const std::uint64_t id =
        splitmix64(counter.fetch_add(1, std::memory_order_relaxed));
    if (id != 0) return id;  // 0 means "no trace" on the wire
  }
}

std::string trace_id_hex(std::uint64_t trace_id) {
  char buf[2 + 16 + 1];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(trace_id));
  return buf;
}

void TraceRing::push(const RequestTrace& trace) {
  MutexLock lock(mu_);
  if (ring_.size() < capacity_) {
    ring_.push_back(trace);
  } else {
    ring_[next_] = trace;
    next_ = (next_ + 1) % capacity_;
  }
}

std::vector<RequestTrace> TraceRing::snapshot() const {
  MutexLock lock(mu_);
  std::vector<RequestTrace> out;
  out.reserve(ring_.size());
  // Once full, next_ points at the oldest entry.
  for (std::size_t i = 0; i < ring_.size(); ++i)
    out.push_back(ring_[(next_ + i) % ring_.size()]);
  return out;
}

namespace {

/// One "X" event on the request's track.  start/dur in seconds relative
/// to the request's admission; ts in the file is microseconds.
void chrome_event(std::ostream& os, bool& first, const char* name,
                  std::size_t tid, double base_us, double start_s,
                  double dur_s, const RequestTrace& t, bool active = false) {
  if (dur_s <= 0.0) return;
  if (!first) os << ",";
  first = false;
  os << "\n  {\"name\": \"" << name << "\", \"ph\": \"X\", \"cat\": "
     << "\"request\", \"pid\": 1, \"tid\": " << tid
     << ", \"ts\": " << base_us + start_s * 1e6
     << ", \"dur\": " << dur_s * 1e6 << ", \"args\": {\"trace_id\": \""
     << trace_id_hex(t.trace_id) << "\", \"batch_size\": " << t.batch_size;
  if (active) os << ", \"sweep_seconds\": " << t.sweep_seconds;
  os << "}}";
}

}  // namespace

void write_chrome_trace(std::ostream& os,
                        const std::vector<RequestTrace>& traces) {
  os << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
  bool first = true;
  for (std::size_t i = 0; i < traces.size(); ++i) {
    const RequestTrace& t = traces[i];
    if (!first) os << ",";
    first = false;
    os << "\n  {\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, "
       << "\"tid\": " << i << ", \"args\": {\"name\": \"" << t.verb << " "
       << trace_id_hex(t.trace_id) << "\"}}";
    const double base_us = static_cast<double>(t.start_ns) * 1e-3;
    double at = 0.0;
    chrome_event(os, first, "queue", i, base_us, at, t.queue_seconds, t);
    at += t.queue_seconds;
    chrome_event(os, first, "coalesce", i, base_us, at, t.coalesce_seconds,
                 t);
    at += t.coalesce_seconds;
    chrome_event(os, first, "sweep", i, base_us, at, t.sweep_span_seconds,
                 t, true);
    // Stage shares nest inside the sweep span, back to back.
    for (int s = 0; s < kStageCount; ++s) {
      chrome_event(os, first, stage_name(static_cast<Stage>(s)), i, base_us,
                   at, t.stage_seconds[s], t);
      at += t.stage_seconds[s];
    }
    chrome_event(os, first, "serialize", i, base_us,
                 t.total_seconds - t.serialize_seconds, t.serialize_seconds,
                 t);
  }
  os << "\n]}\n";
}

void write_trace_json(std::ostream& os, const RequestTrace& trace,
                      int indent) {
  const std::string pad(static_cast<std::size_t>(indent), ' ');
  os << pad << "{\n"
     << pad << "  \"trace_id\": \"" << trace_id_hex(trace.trace_id)
     << "\",\n"
     << pad << "  \"request_id\": " << trace.request_id << ",\n"
     << pad << "  \"verb\": \"" << trace.verb << "\",\n"
     << pad << "  \"start_ns\": " << trace.start_ns << ",\n"
     << pad << "  \"queue_seconds\": " << trace.queue_seconds << ",\n"
     << pad << "  \"coalesce_seconds\": " << trace.coalesce_seconds << ",\n"
     << pad << "  \"sweep_seconds\": " << trace.sweep_seconds << ",\n"
     << pad << "  \"sweep_span_seconds\": " << trace.sweep_span_seconds
     << ",\n"
     << pad << "  \"serialize_seconds\": " << trace.serialize_seconds
     << ",\n"
     << pad << "  \"total_seconds\": " << trace.total_seconds << ",\n"
     << pad << "  \"batch_size\": " << trace.batch_size << ",\n"
     << pad << "  \"stage_seconds\": {";
  for (int s = 0; s < kStageCount; ++s) {
    if (s != 0) os << ", ";
    os << "\"" << stage_name(static_cast<Stage>(s))
       << "\": " << trace.stage_seconds[s];
  }
  os << "}\n" << pad << "}";
}

}  // namespace finehmm::obs
