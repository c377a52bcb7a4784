// Simulated-time primitives.
//
// The whole library runs on simulated time: protocol code never consults a
// wall clock, only the Scheduler's clock. Times are nanoseconds since the
// start of the simulation.
#pragma once

#include <chrono>
#include <compare>
#include <cstdint>
#include <limits>

namespace moonshot {

/// Duration in simulated nanoseconds.
using Duration = std::chrono::nanoseconds;

using std::chrono::microseconds;
using std::chrono::milliseconds;
using std::chrono::nanoseconds;
using std::chrono::seconds;

/// A point in simulated time. Strongly typed so a Duration cannot be passed
/// where an absolute time is expected.
struct TimePoint {
  std::int64_t ns = 0;

  static constexpr TimePoint zero() { return TimePoint{0}; }
  static constexpr TimePoint max() {
    return TimePoint{std::numeric_limits<std::int64_t>::max()};
  }

  friend constexpr TimePoint operator+(TimePoint t, Duration d) {
    return TimePoint{t.ns + d.count()};
  }
  friend constexpr TimePoint operator-(TimePoint t, Duration d) {
    return TimePoint{t.ns - d.count()};
  }
  friend constexpr Duration operator-(TimePoint a, TimePoint b) {
    return Duration(a.ns - b.ns);
  }
  friend constexpr auto operator<=>(TimePoint a, TimePoint b) = default;
};

inline double to_ms(Duration d) { return static_cast<double>(d.count()) / 1e6; }
inline double to_seconds(Duration d) { return static_cast<double>(d.count()) / 1e9; }

}  // namespace moonshot
