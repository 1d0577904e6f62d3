// Timing and summary helpers shared by perf_e2e's closed loop and probes,
// and the named-metric set the run prints.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "common/json.hpp"

namespace mpqls::bench::e2e {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

/// Linear-interpolation quantile (q in [0, 1]); 0 for an empty sample.
inline double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

inline double median(std::vector<double> values) { return quantile(std::move(values), 0.5); }

inline double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

/// Median wall clock of `reps` calls of `make`. Each call's result is kept
/// until its clock has stopped and dropped before the next call, so the
/// timing covers building it but not tearing it down.
template <typename F>
double median_seconds(int reps, F&& make) {
  std::vector<double> times;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = Clock::now();
    const auto result = make();
    times.push_back(seconds_between(t0, Clock::now()));
  }
  return median(std::move(times));
}

/// Named metrics in the order they were measured, each with its unit.
class MetricSet {
 public:
  void add(std::string name, double value, std::string unit) {
    metrics_.push_back({std::move(name), value, std::move(unit)});
  }

  /// {"<name>": {"value": v, "unit": "<unit>"}, ...}
  Json to_json() const {
    Json j = Json::object();
    for (const auto& m : metrics_) {
      Json entry = Json::object();
      entry["value"] = m.value;
      entry["unit"] = m.unit;
      j[m.name] = std::move(entry);
    }
    return j;
  }

  void print(std::FILE* out) const {
    for (const auto& m : metrics_) {
      std::fprintf(out, "  %-34s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
  }

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
};

}  // namespace mpqls::bench::e2e
