#ifndef HETEX_CORE_QUERY_CONTROL_H_
#define HETEX_CORE_QUERY_CONTROL_H_

#include <atomic>
#include <mutex>

#include "common/status.h"
#include "sim/vtime.h"

namespace hetex::core {

/// \brief Cooperative liveness state of one in-flight query, owned by the
/// scheduler task (or by GraphBuilder::Run for an unscheduled run) and
/// threaded (by pointer) through the session into every SourceDriver, Edge
/// and WorkerGroup the query instantiates.
///
/// A run stops as a whole: on a client cancel, an expired deadline, or its
/// first failure (a failed staging acquisition or mem-move, any instance
/// error), segmenters stop producing, edges drop (and release) in-flight
/// messages, staging waits return at once, and worker instances note the
/// stop and drain their channels without executing — the whole graph still
/// joins normally, so every cleanup guard (HT namespace, DRAM registrations,
/// staging blocks) runs exactly as on the success path. The scheduler stamps
/// the authoritative terminal status on the QueryResult; a failed run reports
/// its first failure.
struct QueryControl {
  std::atomic<bool> cancelled{false};
  /// Session-local virtual-time execution bound (the submit deadline minus the
  /// admission queue wait); negative = no deadline.
  sim::VTime deadline = -1;
  /// Sticky record that some graph component observed the deadline expired —
  /// the scheduler's terminal-stamp signal even when the component (e.g. a
  /// segmenter that simply stopped producing) leaves no error behind.
  mutable std::atomic<bool> deadline_hit{false};
  /// Set by Cancel() and by Fail(): the one flag every component of the run,
  /// staging waits included, watches.
  mutable std::atomic<bool> stopped{false};

  bool has_deadline() const { return deadline >= 0; }

  void Cancel() {
    cancelled.store(true);
    stopped.store(true);
  }

  /// Records the run's first failure (later ones are consequences) and stops
  /// the run.
  void Fail(const Status& st) const {
    if (st.ok()) return;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (failure_.ok()) failure_ = st;
    }
    stopped.store(true);
  }

  /// The run's first failure; OK while none happened.
  Status failure() const {
    std::lock_guard<std::mutex> lock(mu_);
    return failure_;
  }

  /// Clears a failed attempt's state before the next one runs (its threads
  /// have all joined). A cancel racing with the reset still stops the run:
  /// the flag is cleared before `cancelled` is re-read.
  void ResetFailure() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      failure_ = Status::OK();
    }
    stopped.store(false);
    if (cancelled.load()) stopped.store(true);
  }

  /// OK while the query should keep working at session-local time `now`.
  Status CheckLive(sim::VTime now) const {
    if (cancelled.load(std::memory_order_relaxed)) {
      return Status::Cancelled("query cancelled by client");
    }
    if (stopped.load(std::memory_order_relaxed)) {
      Status st = failure();
      return st.ok() ? Status::Cancelled("query cancelled by client") : st;
    }
    if (has_deadline() && now > deadline) {
      deadline_hit.store(true, std::memory_order_relaxed);
      return Status::DeadlineExceeded(
          "query exceeded its virtual-time deadline");
    }
    return Status::OK();
  }

 private:
  mutable std::mutex mu_;
  mutable Status failure_;
};

}  // namespace hetex::core

#endif  // HETEX_CORE_QUERY_CONTROL_H_
