// Single-threaded in-process replay of a workload's op streams.

#include <algorithm>
#include <chrono>
#include <numeric>

#include "pawbench/src/bench.h"
#include "pawbench/src/model.h"
#include "pawbench/src/stats.h"

namespace pawbench {

paw::Result<Replay> RunReplay(const Corpus& corpus, Workload workload,
                              uint64_t seed, int ops) {
  paw::PrivacyViewCache cache;
  Model::Options options;
  options.view_cache = true;
  options.cache = &cache;
  PAW_ASSIGN_OR_RETURN(std::unique_ptr<Model> model,
                       Model::Build(corpus, options));
  const WorkloadShape shape = ShapeOf(workload);
  std::vector<OpStream> readers, writers;
  for (int r = 0; r < shape.readers; ++r) {
    readers.emplace_back(corpus, workload, seed, r, OpStream::Role::kMix);
  }
  for (int w = 0; w < shape.writers; ++w) {
    writers.emplace_back(corpus, workload, seed, w, OpStream::Role::kWrite);
  }

  const paw::MetricsSnapshot before =
      paw::MetricsRegistry::Global().Snapshot();
  Replay replay;
  for (int i = 0; i < ops; ++i) {
    // Writer workloads: one pipelined append after every three reads.
    const bool write = !writers.empty() && i % 4 == 3;
    const Op op = write ? writers[static_cast<size_t>(i / 4) %
                                  writers.size()].Next()
                        : readers[static_cast<size_t>(i) % readers.size()]
                              .Next();
    if (op.kind == OpKind::kAddExecution) {
      PAW_RETURN_NOT_OK(model->Add(op));
      // The catch-up a read after this append would pay: the engine's
      // exclusive lock, Repository::ExtendView and InvertedIndex::ExtendTo.
      const auto start = std::chrono::steady_clock::now();
      model->engine(model->shard_of(op.spec)).RefreshIndexes();
      replay.extend_us.push_back(MicrosSince(start));
      continue;
    }
    std::vector<double> shard_us;
    const auto start = std::chrono::steady_clock::now();
    PAW_RETURN_NOT_OK(model->Answer(op, &shard_us).status());
    replay.engine_us[static_cast<int>(op.kind)].push_back(MicrosSince(start));
    if (!shard_us.empty()) {
      const double sum = std::accumulate(shard_us.begin(), shard_us.end(), 0.0);
      const double max = *std::max_element(shard_us.begin(), shard_us.end());
      replay.fanout_ratio.push_back(Ratio(sum, max));
    }
  }
  const paw::MetricsSnapshot after = paw::MetricsRegistry::Global().Snapshot();

  ReplayCounts& c = replay.counts;
  c.view_computations =
      CounterDelta(before, after, "paw_privacy_view_computations_total");
  c.zoom_out_steps =
      CounterDelta(before, after, "paw_privacy_zoom_out_steps_total");
  c.lineage_cones =
      CounterDelta(before, after, "paw_privacy_lineage_cones_total");
  c.result_cache_hits =
      CounterDelta(before, after, "paw_query_cache_hits_total");
  c.result_cache_misses =
      CounterDelta(before, after, "paw_query_cache_misses_total");
  const paw::PrivacyViewCache::Stats views_stats = cache.stats();
  c.view_cache_hits = views_stats.hits;
  c.view_cache_misses = views_stats.misses;
  return replay;
}

}  // namespace pawbench
