#ifndef HETEX_COMMON_TIMER_H_
#define HETEX_COMMON_TIMER_H_

#include <chrono>

namespace hetex {

/// Wall-clock stopwatch. Benchmarks report both wall-clock time (functional cost on
/// the host running the simulation) and modeled virtual time (see sim/cost_model.h).
class Timer {
 public:
  Timer() : start_(Clock::now()) {}

  void Reset() { start_ = Clock::now(); }

  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace hetex

#endif  // HETEX_COMMON_TIMER_H_
