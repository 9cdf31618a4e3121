#ifndef PAWBENCH_SRC_STATS_H_
#define PAWBENCH_SRC_STATS_H_

/// \file stats.h
/// \brief Percentiles over client samples and deltas over METRICS
/// snapshots.

#include <chrono>
#include <cstdint>
#include <string_view>
#include <vector>

#include "src/common/metrics.h"

namespace pawbench {

/// Nearest-rank quantile `q` in [0, 1]; 0 for no samples.
double Quantile(std::vector<double> values, double q);

/// Counter growth between two snapshots (0 when absent).
uint64_t CounterDelta(const paw::MetricsSnapshot& before,
                      const paw::MetricsSnapshot& after,
                      std::string_view name);

/// Gauge value in a snapshot (0 when absent).
int64_t GaugeValue(const paw::MetricsSnapshot& snapshot,
                   std::string_view name);

/// The observations a histogram gained between two snapshots.
paw::HistogramData HistogramDelta(const paw::MetricsSnapshot& before,
                                  const paw::MetricsSnapshot& after,
                                  std::string_view name);

/// `num / den`, or 0 when `den` is 0.
double Ratio(double num, double den);

/// Microseconds elapsed since `start`.
double MicrosSince(std::chrono::steady_clock::time_point start);

}  // namespace pawbench

#endif  // PAWBENCH_SRC_STATS_H_
