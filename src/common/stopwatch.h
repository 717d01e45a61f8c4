// Stopwatch: wall-clock timing helper for phase instrumentation.

#ifndef HYBRIDJOIN_COMMON_STOPWATCH_H_
#define HYBRIDJOIN_COMMON_STOPWATCH_H_

#include <chrono>
#include <cstdint>

namespace hybridjoin {

/// Measures elapsed wall time; starts on construction.
class Stopwatch {
 public:
  Stopwatch() : start_(Clock::now()) {}

  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  int64_t ElapsedMicros() const {
    return std::chrono::duration_cast<std::chrono::microseconds>(
               Clock::now() - start_)
        .count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace hybridjoin

#endif  // HYBRIDJOIN_COMMON_STOPWATCH_H_
