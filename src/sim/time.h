// Simulation time.
//
// The whole simulator runs on a single integer nanosecond clock.  An integer
// clock keeps event ordering exact and runs deterministic across platforms
// (doubles would accumulate rounding in the +=tx_time chains of a link
// serializer).  Nanosecond resolution is fine-grained enough for the paper's
// setting: a 1500 B packet takes 1200 ns on a 10 Gbps link and 300 ns on a
// 40 Gbps link.
#pragma once

#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>

namespace numfabric::sim {

/// Absolute simulation time or a duration, in nanoseconds.
using TimeNs = std::int64_t;

inline constexpr TimeNs kNanosecond = 1;
inline constexpr TimeNs kMicrosecond = 1'000;
inline constexpr TimeNs kMillisecond = 1'000'000;
inline constexpr TimeNs kSecond = 1'000'000'000;

/// Named constructors so call sites read `micros(16)` instead of `16'000`.
constexpr TimeNs nanos(std::int64_t n) { return n; }
constexpr TimeNs micros(std::int64_t n) { return n * kMicrosecond; }
constexpr TimeNs millis(std::int64_t n) { return n * kMillisecond; }
constexpr TimeNs seconds(std::int64_t n) { return n * kSecond; }

/// Conversions to floating-point seconds (for reporting and rate math).
constexpr double to_seconds(TimeNs t) { return static_cast<double>(t) / kSecond; }
constexpr double to_micros(TimeNs t) { return static_cast<double>(t) / kMicrosecond; }
constexpr double to_millis(TimeNs t) { return static_cast<double>(t) / kMillisecond; }

/// A usable link rate: finite and positive.  +inf would serialize in zero
/// time and NaN never; every link and fabric builder checks its rates here.
inline bool valid_rate_bps(double rate_bps) {
  return std::isfinite(rate_bps) && rate_bps > 0;
}

/// Duration of `bytes` serialized at `rate_bps`, rounded to a whole ns.
/// Throws std::overflow_error when it does not fit TimeNs (a rate so slow
/// that one packet outlasts the clock's ~292-year range, or NaN).
inline TimeNs transmission_time(std::int64_t bytes, double rate_bps) {
  const double ns = static_cast<double>(bytes) * 8.0 * 1e9 / rate_bps + 0.5;
  if (!(ns < 0x1p63)) {
    throw std::overflow_error(
        "transmission_time: " + std::to_string(bytes) + " B at rate " +
        std::to_string(rate_bps) + " b/s overflows the nanosecond clock");
  }
  return static_cast<TimeNs>(ns);
}

}  // namespace numfabric::sim
