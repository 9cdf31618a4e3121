#include "pawbench/src/stats.h"

#include <algorithm>
#include <cmath>

namespace pawbench {

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  const size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  const size_t index = std::min(values.size() - 1, rank > 0 ? rank - 1 : 0);
  std::nth_element(values.begin(), values.begin() + index, values.end());
  return values[index];
}

uint64_t CounterDelta(const paw::MetricsSnapshot& before,
                      const paw::MetricsSnapshot& after,
                      std::string_view name) {
  const paw::MetricSample* a = before.Find(name);
  const paw::MetricSample* b = after.Find(name);
  if (b == nullptr) return 0;
  const uint64_t base = a == nullptr ? 0 : a->counter;
  return b->counter >= base ? b->counter - base : 0;
}

int64_t GaugeValue(const paw::MetricsSnapshot& snapshot,
                   std::string_view name) {
  const paw::MetricSample* s = snapshot.Find(name);
  return s == nullptr ? 0 : s->gauge;
}

paw::HistogramData HistogramDelta(const paw::MetricsSnapshot& before,
                                  const paw::MetricsSnapshot& after,
                                  std::string_view name) {
  const paw::MetricSample* b = after.Find(name);
  if (b == nullptr) return {};
  paw::HistogramData delta = b->histogram;
  const paw::MetricSample* a = before.Find(name);
  if (a == nullptr || a->histogram.buckets.size() != delta.buckets.size()) {
    return delta;
  }
  for (size_t i = 0; i < delta.buckets.size(); ++i) {
    delta.buckets[i] -= std::min(delta.buckets[i], a->histogram.buckets[i]);
  }
  delta.count -= std::min(delta.count, a->histogram.count);
  delta.sum -= a->histogram.sum;
  return delta;
}

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

double MicrosSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace pawbench
