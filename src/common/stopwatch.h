#ifndef DSKG_COMMON_STOPWATCH_H_
#define DSKG_COMMON_STOPWATCH_H_

/// \file stopwatch.h
/// Wall-clock stopwatch. Reported alongside simulated time for context;
/// never used for experiment decisions (see cost.h).

#include <chrono>

namespace dskg {

/// Measures elapsed wall-clock time from construction or last `Restart()`.
class Stopwatch {
 public:
  Stopwatch() : start_(Clock::now()) {}

  /// Resets the start point to now.
  void Restart() { start_ = Clock::now(); }

  /// Elapsed wall-clock microseconds since start.
  double ElapsedMicros() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - start_)
        .count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace dskg

#endif  // DSKG_COMMON_STOPWATCH_H_
