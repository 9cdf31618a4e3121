#ifndef PAWBENCH_SRC_BENCH_H_
#define PAWBENCH_SRC_BENCH_H_

/// \file bench.h
/// \brief The benchmark's run structure: set up a pawd cluster, drive
/// one timed window of closed-loop load over the wire, check answers,
/// and (traced runs) gather per-layer numbers.

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "pawbench/src/corpus.h"
#include "pawbench/src/node.h"
#include "src/common/metrics.h"
#include "src/common/status.h"
#include "src/common/trace.h"

namespace pawbench {

/// One metric as printed: a name, a value and its unit.
struct Metric {
  double value = 0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

struct Env {
  Workload workload = Workload::kTenantsZipf;
  WorkloadShape shape;
  uint64_t seed = 1;
  double seconds = 10;
  std::string pawctl;
  /// Scratch directory inside the checkout (stores, logs).
  std::string workdir;
  Corpus corpus;
};

/// Leader, plus a follower on `replicated_ingest`.
struct Cluster {
  std::unique_ptr<Node> leader;
  std::unique_ptr<Node> follower;
  /// Node the analysts read from.
  int read_port() const { return (follower ? follower : leader)->port(); }
  std::vector<Node*> nodes() const;
};

/// Launches pawd on an empty store, uploads the tenants, preloads the
/// corpus, waits for the follower, and runs the untimed warmup.
paw::Result<Cluster> SetUp(const Env& env, bool trace_all);

/// A client-side span: one call, by the trace id it carried.
struct ClientSpan {
  uint64_t trace_id = 0;
  OpKind kind = OpKind::kLineage;
  int64_t start_us = 0;
  int64_t end_us = 0;
};

/// What a timed window observed.
struct Window {
  double seconds = 0;
  /// Client latencies (us) of ops completed inside the window, by kind;
  /// ADD_EXECUTION holds send-to-ack times.
  std::vector<double> latency_us[kOpKinds];
  uint64_t reads = 0;
  uint64_t acks = 0;
  /// Ops attempted / failed inside the window.
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// Every ADD_EXECUTION acked OK, in or after the window, and the
  /// execution-text bytes they carried.
  uint64_t acked_total = 0;
  uint64_t acked_total_bytes = 0;
  /// pawd VmHWM summed over nodes, read once the load has acked
  /// kRssAtAcks (load.cc) ADD_EXECUTIONs, else at the window's end.
  double peak_rss_mb = 0;
  /// Traced runs: the calls as the client saw them.
  std::vector<ClientSpan> client_spans;
};

/// Drives `env.shape` against the cluster for `env.seconds`. `monitor`,
/// when set, is called by the main thread about every 100 ms meanwhile.
Window RunWindow(const Env& env, const Cluster& cluster, bool record_spans,
                 const std::function<void()>& monitor = nullptr);

/// Result of the answer checks.
struct Check {
  uint64_t attempted = 0;
  uint64_t mismatches = 0;
  bool status_ok = false;
  std::string detail;
};

/// Adds `part`'s samples, counts and seconds to `total`; `peak_rss_mb`
/// is left to the caller.
void Merge(const Window& part, Window* total);

/// Compares a fixed sample of read ops byte for byte with the
/// in-process reference, and STATUS executions with preload + acked.
/// `round` picks the sample, so each check of a run compares other ops.
Check CheckAnswers(const Env& env, const Cluster& cluster,
                   uint64_t acked_total, int round);

/// One METRICS round trip as the admin.
paw::Result<paw::MetricsSnapshot> FetchMetrics(int port);

/// Per-layer metrics of a traced run (`--trace 1`): sets up a cluster
/// at trace-sample=1, drives one window, then times the layers
/// in-process. `untraced_ops_per_s` is the same workload's untraced
/// throughput; the window's ops are added to `attempted` / `failed`.
paw::Result<Metrics> TracedRun(const Env& env, double untraced_ops_per_s,
                               uint64_t* attempted, uint64_t* failed);

/// Exact counters of the single-threaded replay; equal for equal seeds.
struct ReplayCounts {
  uint64_t view_computations = 0;
  uint64_t zoom_out_steps = 0;
  uint64_t lineage_cones = 0;
  uint64_t result_cache_hits = 0;
  uint64_t result_cache_misses = 0;
  uint64_t view_cache_hits = 0;
  uint64_t view_cache_misses = 0;
  bool operator==(const ReplayCounts&) const = default;
};

struct Replay {
  ReplayCounts counts;
  /// QueryEngine time per read op, by kind (view cache on).
  std::vector<double> engine_us[kOpKinds];
  /// Per search op: sum over max of the per-shard Search times.
  std::vector<double> fanout_ratio;
  /// Engine catch-up time (ExtendView + InvertedIndex::ExtendTo under the
  /// engine lock) per appended execution.
  std::vector<double> extend_us;
};

/// The first `ops` ops of the workload's streams (readers round-robin,
/// writers interleaved), replayed single-threaded through in-process
/// engines with a fresh view cache.
paw::Result<Replay> RunReplay(const Corpus& corpus, Workload workload,
                              uint64_t seed, int ops);

}  // namespace pawbench

#endif  // PAWBENCH_SRC_BENCH_H_
