#ifndef HETEX_BENCH_HETBENCH_TRACE_H_
#define HETEX_BENCH_HETBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace hetex::hetbench {

/// \brief In-memory span recorder for the traced run, written out as Chrome
/// trace-event JSON (chrome://tracing, Perfetto) when the benchmark ends.
///
/// Host spans are recorded by the benchmark thread around its calls into each
/// layer, so they nest strictly: a span's children run inside it, one after
/// another. Virtual-time spans (a served query's admission queue and its
/// modeled execution) go on their own track, one row per query since they
/// overlap across queries, and take part in no self-time accounting.
class Tracer {
 public:
  static constexpr int kHostTrack = 1;
  static constexpr int kVirtualTrack = 2;

  Tracer() : origin_(Clock::now()) {}

  /// Opens a host span; `parent` is the id Begin returned for the enclosing
  /// span, or -1 for a root.
  int Begin(const char* name, int parent, uint64_t query) {
    spans_.push_back({name, NowUs(), 0, parent, query, kHostTrack});
    return static_cast<int>(spans_.size()) - 1;
  }
  void End(int id) { spans_[id].end_us = NowUs(); }

  /// Records a span on the virtual-time track, in modeled seconds.
  void AddVirtual(const char* name, double start_s, double end_s, uint64_t query) {
    spans_.push_back({name, start_s * 1e6, end_s * 1e6, -1, query, kVirtualTrack});
  }

  /// Host self time of every span, in microseconds, grouped by span name: its
  /// duration minus the durations of its children.
  std::map<std::string, std::vector<double>> SelfTimesUs() const {
    std::vector<double> self(spans_.size());
    for (size_t i = 0; i < spans_.size(); ++i) {
      self[i] = spans_[i].end_us - spans_[i].start_us;
    }
    for (const Span& s : spans_) {
      if (s.parent >= 0) self[s.parent] -= s.end_us - s.start_us;
    }
    std::map<std::string, std::vector<double>> out;
    for (size_t i = 0; i < spans_.size(); ++i) {
      if (spans_[i].track == kHostTrack) out[spans_[i].name].push_back(self[i]);
    }
    return out;
  }

  /// Writes every span as a complete ("X") trace event. Returns false when
  /// the file cannot be written.
  bool WriteChromeJson(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    std::fprintf(f,
                 "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":%d,"
                 "\"args\":{\"name\":\"host wall time\"}},\n"
                 "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":%d,"
                 "\"args\":{\"name\":\"virtual time (modeled)\"}}",
                 kHostTrack, kVirtualTrack);
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      const auto query = static_cast<unsigned long long>(s.query);
      std::fprintf(f,
                   ",\n{\"ph\":\"X\",\"name\":\"%s\",\"pid\":%d,\"tid\":%llu,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,\"parent\":%d,"
                   "\"query\":%llu}}",
                   s.name, s.track, s.track == kHostTrack ? 1ull : query, s.start_us,
                   s.end_us - s.start_us, i, s.parent, query);
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
  }

 private:
  using Clock = std::chrono::steady_clock;

  struct Span {
    const char* name;  ///< string literal
    double start_us;
    double end_us;
    int parent;
    uint64_t query;
    int track;
  };

  double NowUs() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - origin_)
        .count();
  }

  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// Opens a span on construction and closes it on destruction; a null tracer
/// records nothing, so the traced and untraced paths share one call sequence.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, int parent, uint64_t query)
      : tracer_(tracer),
        id_(tracer != nullptr ? tracer->Begin(name, parent, query) : -1) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int id() const { return id_; }

 private:
  Tracer* tracer_;
  int id_;
};

}  // namespace hetex::hetbench

#endif  // HETEX_BENCH_HETBENCH_TRACE_H_
