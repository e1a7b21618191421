#ifndef HETEX_COMMON_RUN_STOP_H_
#define HETEX_COMMON_RUN_STOP_H_

#include <atomic>
#include <mutex>

#include "common/status.h"

namespace hetex {

/// \brief How one run stops as a whole: its first failure, and the flag
/// every component of the run, staging waits included, watches.
///
/// core::QueryControl is one. The layers below the runtime graph (the
/// staging arenas and the device providers) see a run only through this.
class RunStop {
 public:
  /// Set by Fail() (and by a cancel).
  mutable std::atomic<bool> stopped{false};

  /// Records `st` as the run's failure unless one was recorded first (later
  /// failures are its consequences), then stops the run. The failure is
  /// recorded before `stopped` is published, so whatever observes the stop
  /// finds the failure that caused it. True when `st` became the failure.
  bool Fail(const Status& st) const {
    if (st.ok()) return false;
    bool first;
    {
      std::lock_guard<std::mutex> lock(mu_);
      first = failure_.ok();
      if (first) failure_ = st;
    }
    stopped.store(true);
    return first;
  }

  /// The run's first failure; OK while none happened.
  Status failure() const {
    std::lock_guard<std::mutex> lock(mu_);
    return failure_;
  }

 protected:
  void ClearFailure() {
    std::lock_guard<std::mutex> lock(mu_);
    failure_ = Status::OK();
  }

 private:
  mutable std::mutex mu_;
  mutable Status failure_;
};

}  // namespace hetex

#endif  // HETEX_COMMON_RUN_STOP_H_
