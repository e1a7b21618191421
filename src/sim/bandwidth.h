#ifndef HETEX_SIM_BANDWIDTH_H_
#define HETEX_SIM_BANDWIDTH_H_

#include <atomic>
#include <map>
#include <mutex>

#include "sim/interval_timeline.h"
#include "sim/vtime.h"

namespace hetex::sim {

/// \brief A serially-shared virtual-time resource (e.g. one PCIe link, one GPU
/// kernel stream).
///
/// Reservations queue behind each other in virtual time: a transfer scheduled at
/// virtual time t on a busy link starts when the link frees up. This is what makes
/// GPU execution PCIe-bound in the Fig. 5 regime and what lets back-to-back
/// transfers pipeline with compute.
///
/// The resource keeps one *absolute* timeline shared by every in-flight query;
/// each query session reserves relative to its own `epoch` (the virtual time at
/// which the session arrived). Reservation windows come back epoch-relative, so
/// all engine-internal timestamps stay session-local while contention between
/// concurrent sessions is charged on the shared absolute timeline. A session
/// whose epoch is at or past `free_at()` sees an idle resource — the
/// session-scoped replacement for the old rewind-to-zero reset.
///
/// Occupancy lives in an IntervalTimeline (weight-1 busy intervals) and
/// reservations are first-fit: a request slots into the earliest gap (at or
/// after its ready time) that holds it. This keeps the model causally
/// consistent under concurrency — the wall-clock order in which sessions
/// happen to call Reserve cannot make an early-epoch request queue behind a
/// reservation whose virtual time lies entirely in its future.
class BandwidthServer {
 public:
  /// \param rate bytes per virtual second
  /// \param latency fixed per-reservation setup cost in virtual seconds
  explicit BandwidthServer(double rate, double latency = 0.0)
      : rate_(rate), latency_(latency) {}

  struct Window {
    VTime start;
    VTime end;
  };

  /// Reserves the resource for `bytes` no earlier than session-local time
  /// `earliest` of the session anchored at `epoch`; returns the session-local
  /// virtual-time window the work occupies.
  Window Reserve(uint64_t bytes, VTime earliest, VTime epoch = 0.0) {
    return ReserveDuration(latency_ + static_cast<double>(bytes) / rate_,
                           earliest, epoch);
  }

  /// Reserves occupancy for `bytes` without the fixed setup term. UVA/zero-copy
  /// kernel streams pay pure bandwidth — demand-paged reads have no per-transfer
  /// DMA setup — yet still occupy the link other sessions queue behind.
  Window ReserveBytes(uint64_t bytes, VTime earliest, VTime epoch = 0.0) {
    return ReserveDuration(static_cast<double>(bytes) / rate_, earliest, epoch);
  }

  /// Reserves a fixed-duration slot (e.g. a kernel whose cost was computed by the
  /// cost model) no earlier than session-local `earliest` of the session
  /// anchored at `epoch`.
  Window ReserveDuration(VTime duration, VTime earliest, VTime epoch = 0.0) {
    std::lock_guard<std::mutex> lock(mu_);
    const VTime start = busy_.FirstFit(duration, epoch + earliest);
    const VTime end = start + duration;
    busy_.Add(start, end, 1);
    if (end > free_at_) free_at_ = end;
    return {start - epoch, end - epoch};
  }

  /// Reserves exactly [start, start + duration) at session-local `start` —
  /// no gap search. The anchored half of a probe→reserve pair: a caller that
  /// probed a start on this resource and sized dependent reservations
  /// elsewhere against it commits to that start here, atomically with respect
  /// to other sessions' reservations. If the slot was taken (or outgrown its
  /// gap) in between, occupancy stacks and the model only gets more
  /// conservative — the window never silently moves away from where the
  /// dependent reservations were anchored.
  Window ReserveDurationAt(VTime start, VTime duration, VTime epoch = 0.0) {
    std::lock_guard<std::mutex> lock(mu_);
    const VTime abs = epoch + start;
    busy_.Add(abs, abs + duration, 1);
    if (abs + duration > free_at_) free_at_ = abs + duration;
    return {start, start + duration};
  }

  /// Session-local start of the first gap (at or after `earliest`) that holds
  /// `duration`, without reserving anything. Lets a caller anchor a dependent
  /// reservation on another resource where this slot would actually run (the
  /// UVA kernel's link bytes anchor where the kernel's stream slot lands);
  /// pair it with ReserveDurationAt to commit the probed start.
  VTime ProbeStart(VTime duration, VTime earliest, VTime epoch = 0.0) const {
    std::lock_guard<std::mutex> lock(mu_);
    return busy_.FirstFit(duration, epoch + earliest) - epoch;
  }

  /// Absolute virtual time at which the resource frees up for good (the
  /// backlog horizon new sessions anchor their epochs past).
  VTime free_at() const {
    std::lock_guard<std::mutex> lock(mu_);
    return free_at_;
  }

  /// Busy-interval boundary count (diagnostics; the soak bench gates that it
  /// stays bounded under hundreds of sessions).
  size_t num_segments() const {
    std::lock_guard<std::mutex> lock(mu_);
    return busy_.num_segments();
  }

  double rate() const { return rate_; }
  double latency() const { return latency_; }

 private:
  /// Bound on tracked busy intervals; older gaps are absorbed conservatively
  /// past it (IntervalTimeline::Bound, two boundaries per interval).
  static constexpr size_t kMaxIntervals = 1024;

  const double rate_;
  const double latency_;
  mutable std::mutex mu_;
  IntervalTimeline busy_{2 * kMaxIntervals};
  VTime free_at_ = 0.0;
};

/// \brief Cross-session fluid-share server for one socket's DRAM.
///
/// The socket aggregate is the mechanism behind the Fig. 6/7 scalability
/// curves: per-core bandwidth adds up linearly until the socket saturates,
/// after which extra cores do not help. Every query session reserves a
/// `{workers, [start, end)}` interval on the socket's absolute virtual
/// timeline per execution phase; one worker's streaming share at virtual time
/// t is then min(per-worker cap, aggregate / workers whose intervals overlap
/// t) — the same fluid model that used to divide within a single query,
/// extended across everything in flight. A solo session sees exactly the old
/// per-query divisor, so uncontended latencies are unchanged.
///
/// Accounting is virtual-time exact, not wall-clock scoped: a phase opens its
/// interval at its absolute start (Register), runs open-ended while the
/// engine models it, and closes at its modeled end (Release with an end
/// time). Closed intervals persist on the timeline, so a later session whose
/// epoch overlaps them is charged even if the earlier query finished running
/// (in wall-clock terms) long ago — and staggered-epoch sessions that never
/// overlap in virtual time no longer share a divisor just because their
/// wall-clock registrations coincided.
class DramServer {
 public:
  DramServer(double total_rate, double per_worker_rate)
      : total_rate_(total_rate), per_worker_rate_(per_worker_rate) {}

  /// Opens a `workers`-wide interval of query session `session` starting at
  /// *absolute* virtual time `start` (open-ended until Release closes it).
  /// Returns a token for Release; one session may hold several registrations
  /// (e.g. build phase and fact phase of one query overlap with different
  /// worker counts).
  uint64_t Register(uint64_t session, VTime start, int workers) {
    std::lock_guard<std::mutex> lock(mu_);
    const uint64_t token = next_token_++;
    const int w = workers < 0 ? 0 : workers;
    open_[token] = Entry{session, start, w};
    if (w > 0) {
      timeline_.Add(start, IntervalTimeline::kOpenEnd, w);
      generation_.fetch_add(1, std::memory_order_release);
    }
    return token;
  }

  /// Closes the phase at absolute virtual time `end` (clamped to its start).
  /// The closed interval [start, max(start, end)) stays on the timeline and
  /// contends with any session overlapping it in virtual time.
  void Release(uint64_t token, VTime end) { CloseAt(token, /*at_start=*/false, end); }

  /// Discards the registration: the interval closes at its own start and
  /// leaves no residue. The error-path/test teardown overload — a phase that
  /// never modeled work must not charge future sessions.
  void Release(uint64_t token) { CloseAt(token, /*at_start=*/true, 0.0); }

  /// Bumped on every worker-bearing open and close — exactly two per
  /// execution phase. Tests use the delta to prove the runtime still
  /// registers its phases (a runtime that silently stopped charging
  /// cross-session DRAM would leave it flat).
  uint64_t generation() const {
    return generation_.load(std::memory_order_acquire);
  }

  /// Integrates one worker's block over the timeline: starting at absolute
  /// virtual time `start`, `bytes` drain at the fluid share
  /// min(per-worker cap, aggregate / (own_workers + overlapping others))
  /// piecewise across the step spans; the block ends when the bytes are done,
  /// floored by `start + compute`. Returns false when no other session's
  /// interval overlaps the drain — the caller then uses its closed-form solo
  /// arithmetic, keeping uncontended results bit-identical.
  ///
  /// `session`'s own open intervals covering `start` are excluded from the
  /// divisor (the query's own concurrency is `own_workers`, priced
  /// deterministically by the caller, not read back from the timeline).
  bool BlockEnd(uint64_t session, int own_workers, double bytes, VTime compute,
                VTime start, VTime* end) const {
    if (bytes <= 0.0) return false;
    std::lock_guard<std::mutex> lock(mu_);
    int own_open = 0;
    for (const auto& [token, e] : open_) {
      if (e.session == session && e.start <= start) own_open += e.workers;
    }
    const int own = own_workers < 1 ? 1 : own_workers;
    VTime t = start;
    double remaining = bytes;
    bool contended = false;
    while (true) {
      const IntervalTimeline::Span span = timeline_.At(t);
      const int others = span.level > own_open ? span.level - own_open : 0;
      if (others > 0) contended = true;
      const double share = total_rate_ / static_cast<double>(own + others);
      const double rate = share < per_worker_rate_ ? share : per_worker_rate_;
      if (span.until == IntervalTimeline::kOpenEnd) {
        t += remaining / rate;
        break;
      }
      const double cap = rate * (span.until - t);
      if (remaining <= cap) {
        t += remaining / rate;
        break;
      }
      remaining -= cap;
      t = span.until;
    }
    if (!contended) return false;
    *end = MaxT(start + compute, t);
    return true;
  }

  /// Workers whose intervals (open or closed) overlap absolute virtual time
  /// t — the coster's backlog query at a candidate plan's epoch.
  int workers_overlapping(VTime t) const {
    std::lock_guard<std::mutex> lock(mu_);
    return timeline_.At(t).level;
  }

  /// Last timeline boundary: every *closed* interval ends at or before it, so
  /// a session anchored here overlaps none of them (open intervals extend
  /// past their start boundary; they belong to queries still being modeled).
  VTime horizon() const {
    std::lock_guard<std::mutex> lock(mu_);
    return timeline_.horizon();
  }

  size_t num_segments() const {
    std::lock_guard<std::mutex> lock(mu_);
    return timeline_.num_segments();
  }

  /// Fluid share one worker sees against the currently-open registrations:
  /// min(per-worker cap, aggregate / open workers). Idle server = full
  /// per-worker rate.
  double EffectiveRate() const {
    const int n = active_workers();
    if (n <= 0) return per_worker_rate_;
    const double share = total_rate_ / static_cast<double>(n);
    return share < per_worker_rate_ ? share : per_worker_rate_;
  }

  int active_workers() const {
    std::lock_guard<std::mutex> lock(mu_);
    int n = 0;
    for (const auto& [token, e] : open_) n += e.workers;
    return n;
  }

  double total_rate() const { return total_rate_; }
  double per_worker_rate() const { return per_worker_rate_; }

 private:
  struct Entry {
    uint64_t session = 0;
    VTime start = 0;
    int workers = 0;
  };

  void CloseAt(uint64_t token, bool at_start, VTime end) {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = open_.find(token);
    if (it == open_.end()) return;
    const Entry e = it->second;
    open_.erase(it);
    if (e.workers > 0) {
      const VTime close = at_start ? e.start : MaxT(e.start, end);
      timeline_.Add(close, IntervalTimeline::kOpenEnd, -e.workers);
      generation_.fetch_add(1, std::memory_order_release);
    }
  }

  const double total_rate_;
  const double per_worker_rate_;
  std::atomic<uint64_t> generation_{0};
  mutable std::mutex mu_;
  uint64_t next_token_ = 1;
  /// Open (not yet closed) registrations by token.
  std::map<uint64_t, Entry> open_;
  /// All intervals, open and closed, on the absolute timeline.
  IntervalTimeline timeline_{4096};
};

}  // namespace hetex::sim

#endif  // HETEX_SIM_BANDWIDTH_H_
