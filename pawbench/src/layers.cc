// The traced run: server-side layer numbers from METRICS deltas and
// TRACE_DUMP spans joined to the client's calls, then in-process timings
// of each layer's public functions.

#include <chrono>
#include <deque>
#include <filesystem>
#include <unordered_map>

#include "pawbench/src/bench.h"
#include "pawbench/src/model.h"
#include "pawbench/src/stats.h"
#include "src/client/paw_client.h"
#include "src/privacy/policy_text.h"
#include "src/provenance/serialize.h"
#include "src/query/keyword_search.h"
#include "src/query/ranking.h"
#include "src/query/zoom_out.h"
#include "src/server/wire.h"
#include "src/store/sharded_repository.h"
#include "src/workflow/serialize.h"

namespace pawbench {

namespace {

using paw::MetricsSnapshot;
using paw::PawClient;
using paw::Result;
using paw::Span;
using paw::Status;
using Clock = std::chrono::steady_clock;

/// Ops of the single-threaded engine replay.
constexpr int kReplayOps = 240;
/// Samples of each in-process layer timing.
constexpr int kLayerSamples = 200;
/// Uncached keyword searches timed in-process (each costs 0.1-0.5 s).
constexpr int kKeywordSamples = 4;

/// Polls one node's flight recorder during the traced window.
struct NodeTrace {
  PawClient client;
  std::unordered_map<uint64_t, Span> spans;  // by span id
  uint64_t last_recorded = 0;
  uint64_t lost = 0;
};

struct TraceMonitor {
  std::vector<NodeTrace> nodes;
  int64_t queue_depth_max = 0;
  Status error;

  void Poll() {
    for (size_t i = 0; i < nodes.size(); ++i) {
      NodeTrace& node = nodes[i];
      auto metrics = node.client.Metrics();
      // The whole ring: the server's default cap (4096) would drop spans
      // that the ring still holds, uncounted by `lost` below.
      paw::wire::TraceDumpRequest request;
      request.max_spans =
          static_cast<uint32_t>(paw::TraceRecorder::kDefaultSlots);
      auto dump = node.client.TraceDump(request);
      if (!metrics.ok() || !dump.ok()) {
        if (error.ok()) {
          error = metrics.ok() ? dump.status() : metrics.status();
        }
        continue;
      }
      const MetricsSnapshot& snap = metrics.value().snapshot;
      if (i == 0) {
        queue_depth_max = std::max(
            queue_depth_max, GaugeValue(snap, "paw_store_queue_depth"));
      }
      // Spans recorded since the previous dump beyond the ring's capacity
      // were overwritten before this dump could read them.
      const paw::MetricSample* recorded =
          snap.Find("paw_trace_spans_recorded_total");
      const uint64_t now = recorded == nullptr ? 0 : recorded->counter;
      if (node.last_recorded > 0 &&
          now - node.last_recorded > paw::TraceRecorder::kDefaultSlots) {
        node.lost += now - node.last_recorded -
                     paw::TraceRecorder::kDefaultSlots;
      }
      node.last_recorded = now;
      for (const Span& s : dump.value().spans) node.spans[s.span_id] = s;
    }
  }
};

double Micros(const Span& s) { return static_cast<double>(s.end_us - s.start_us); }

std::vector<double> SpanMicros(const NodeTrace& node, std::string_view name) {
  std::vector<double> out;
  for (const auto& [id, s] : node.spans) {
    if (s.name_view() == name) out.push_back(Micros(s));
  }
  return out;
}

const char* OpcodeLabel(OpKind kind) {
  switch (kind) {
    case OpKind::kLineage: return "lineage";
    case OpKind::kStructural: return "structural_query";
    case OpKind::kSearch: return "keyword_search";
    case OpKind::kGetExecution: return "get_execution";
    case OpKind::kAddExecution: return "add_execution";
  }
  return "unknown";
}

/// In-process per-layer timings with the view cache off.
Status LayerTimings(const Env& env, Metrics* out) {
  auto put = [out](const std::string& name, double value, const char* unit) {
    (*out)[name] = Metric{value, unit};
  };
  const Corpus& corpus = env.corpus;
  PAW_ASSIGN_OR_RETURN(std::unique_ptr<Model> model,
                       Model::Build(corpus, Model::Options{}));

  std::vector<const Op*> lineage, structural, search, getexec;
  std::deque<Op> sample;  // stable addresses for the pointers above
  OpStream stream(corpus, env.workload, env.seed, 2000,
                  OpStream::Role::kMix);
  while (lineage.size() < static_cast<size_t>(kLayerSamples) ||
         structural.size() < static_cast<size_t>(kLayerSamples) ||
         getexec.size() < static_cast<size_t>(kLayerSamples)) {
    sample.push_back(stream.Next());
    const Op* op = &sample.back();
    switch (op->kind) {
      case OpKind::kLineage: lineage.push_back(op); break;
      case OpKind::kStructural: structural.push_back(op); break;
      case OpKind::kSearch: search.push_back(op); break;
      case OpKind::kGetExecution: getexec.push_back(op); break;
      case OpKind::kAddExecution: break;
    }
  }

  std::vector<double> zoom_us, access_us, mask_us, keyword_us;
  for (const Op* op : lineage) {
    const paw::ExecutionEntry& ee = model->execution(op->spec, op->ordinal);
    const paw::SpecEntry& entry =
        model->repo(model->shard_of(op->spec)).entry(ee.spec_id);
    const int level = corpus.principals[static_cast<size_t>(op->principal)].level;
    const auto start = Clock::now();
    PAW_RETURN_NOT_OK(paw::ZoomOutExecution(ee.exec, entry.hierarchy,
                                            entry.policy, level)
                          .status());
    zoom_us.push_back(MicrosSince(start));
  }
  for (const Op* op : structural) {
    const paw::SpecEntry& entry =
        model->repo(model->shard_of(op->spec)).entry(model->spec_id(op->spec));
    const auto start = Clock::now();
    PAW_RETURN_NOT_OK(model->acl()
                          .AccessViewFor(model->principal_id(op->principal),
                                         entry.spec, entry.hierarchy)
                          .status());
    access_us.push_back(MicrosSince(start));
  }
  for (const Op* op : getexec) {
    const paw::ExecutionEntry& ee = model->execution(op->spec, op->ordinal);
    const auto start = Clock::now();
    PAW_RETURN_NOT_OK(model->engine(model->shard_of(op->spec))
                          .ExecutionMask(model->principal_id(op->principal),
                                         ee.id)
                          .status());
    mask_us.push_back(MicrosSince(start));
  }
  // KeywordSearch with no result cache: every shard, one after another,
  // as HandleSearch runs them.
  std::vector<paw::TfIdfScorer> scorers(kShards);
  for (int s = 0; s < kShards; ++s) {
    model->engine(s).RefreshIndexes();
    scorers[static_cast<size_t>(s)].Build(model->engine(s).index());
  }
  for (size_t i = 0; i < search.size() && i < kKeywordSamples; ++i) {
    const Op* op = search[i];
    const int level = corpus.principals[static_cast<size_t>(op->principal)].level;
    const auto start = Clock::now();
    for (int s = 0; s < kShards; ++s) {
      PAW_RETURN_NOT_OK(paw::KeywordSearch(model->repo(s),
                                           &model->engine(s).index(),
                                           &scorers[static_cast<size_t>(s)],
                                           op->terms, level)
                            .status());
    }
    keyword_us.push_back(MicrosSince(start));
  }
  put("privacy.zoom_out_p50_us", Quantile(zoom_us, 0.5), "us");
  put("privacy.access_view_p50_us", Quantile(access_us, 0.5), "us");
  put("privacy.mask_p50_us", Quantile(mask_us, 0.5), "us");
  put("query.keyword_search_p50_us", Quantile(keyword_us, 0.5), "us");

  // Parse and wire codec over execution texts, in preload order.
  double parse_us = 0, codec_us = 0, kb = 0;
  std::vector<int> next(corpus.spec_texts.size(), 0);
  for (size_t i = 0; i < corpus.preload_order.size() &&
                     i < static_cast<size_t>(kLayerSamples);
       ++i) {
    const int s = corpus.preload_order[i];
    const std::string& text =
        corpus.execs[static_cast<size_t>(s)]
                    [static_cast<size_t>(next[static_cast<size_t>(s)]++)];
    const paw::Specification& spec =
        model->repo(model->shard_of(s)).entry(model->spec_id(s)).spec;
    auto start = Clock::now();
    PAW_RETURN_NOT_OK(paw::ParseExecution(text, spec).status());
    parse_us += MicrosSince(start);
    start = Clock::now();
    const std::string payload = paw::wire::EncodeAddExecutionRequest(
        {corpus.spec_names[static_cast<size_t>(s)], text});
    PAW_RETURN_NOT_OK(paw::wire::DecodeAddExecutionRequest(payload).status());
    codec_us += MicrosSince(start);
    kb += static_cast<double>(text.size()) / 1024.0;
  }
  put("provenance.parse_us_per_kb", Ratio(parse_us, kb), "us/KB");
  put("wire.codec_us_per_kb", Ratio(codec_us, kb), "us/KB");

  // Durable appends on a scratch 4-shard store with pawd's store knobs.
  const std::string dir = env.workdir + "/append";
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  paw::StoreOptions store_options;
  store_options.sync_each_append = true;
  store_options.writer_threads = 4;
  PAW_ASSIGN_OR_RETURN(paw::ShardedRepository store,
                       paw::ShardedRepository::Init(dir, kShards,
                                                    store_options));
  std::vector<paw::ShardedRepository::SpecRef> refs;
  for (size_t s = 0; s < corpus.spec_texts.size(); ++s) {
    PAW_ASSIGN_OR_RETURN(paw::Specification spec,
                         paw::ParseSpecification(corpus.spec_texts[s]));
    PAW_ASSIGN_OR_RETURN(paw::PolicySet policy,
                         paw::ParsePolicy(corpus.policy_texts[s], spec));
    PAW_ASSIGN_OR_RETURN(
        paw::ShardedRepository::SpecRef ref,
        store.AddSpecification(std::move(spec), std::move(policy)));
    refs.push_back(ref);
  }
  std::vector<double> append_us;
  std::fill(next.begin(), next.end(), 0);
  for (size_t i = 0; i < corpus.preload_order.size() &&
                     i < static_cast<size_t>(kLayerSamples);
       ++i) {
    const int s = corpus.preload_order[i];
    const paw::ShardedRepository::SpecRef ref = refs[static_cast<size_t>(s)];
    PAW_ASSIGN_OR_RETURN(
        paw::Execution exec,
        paw::ParseExecution(
            corpus.execs[static_cast<size_t>(s)]
                        [static_cast<size_t>(next[static_cast<size_t>(s)]++)],
            store.shard(ref.shard).repo().entry(ref.id).spec));
    const auto start = Clock::now();
    PAW_RETURN_NOT_OK(store.AddExecutionAsync(ref, std::move(exec)).get().status());
    append_us.push_back(MicrosSince(start));
  }
  put("store.append_p50_us", Quantile(append_us, 0.5), "us");
  put("store.append_p99_us", Quantile(append_us, 0.99), "us");
  return Status::OK();
}

}  // namespace

Result<Metrics> TracedRun(const Env& env, double untraced_ops_per_s,
                          uint64_t* attempted, uint64_t* failed) {
  Metrics out;
  auto put = [&out](const std::string& name, double value, const char* unit) {
    out[name] = Metric{value, unit};
  };

  PAW_ASSIGN_OR_RETURN(Cluster cluster, SetUp(env, /*trace_all=*/true));
  Node* reads = cluster.follower ? cluster.follower.get() : cluster.leader.get();
  Node* writes = cluster.leader.get();

  TraceMonitor monitor;
  for (Node* node : cluster.nodes()) {
    PAW_ASSIGN_OR_RETURN(PawClient client,
                         PawClient::Connect("127.0.0.1", node->port()));
    PAW_RETURN_NOT_OK(client.Auth(kAdminName));
    monitor.nodes.push_back(NodeTrace{std::move(client), {}, 0, 0});
  }
  PAW_ASSIGN_OR_RETURN(MetricsSnapshot read_before, FetchMetrics(reads->port()));
  PAW_ASSIGN_OR_RETURN(MetricsSnapshot write_before,
                       FetchMetrics(writes->port()));
  double cpu_before = 0;
  for (Node* node : cluster.nodes()) cpu_before += node->cpu_seconds();
  const uint64_t wal_before = writes->wal_bytes();
  monitor.Poll();  // drops the set-up spans' window from the loss count

  const Window w = RunWindow(env, cluster, /*record_spans=*/true,
                             [&monitor] { monitor.Poll(); });
  monitor.Poll();
  PAW_RETURN_NOT_OK(monitor.error);
  *attempted += w.attempted;
  *failed += w.failed;

  PAW_ASSIGN_OR_RETURN(MetricsSnapshot read_after, FetchMetrics(reads->port()));
  PAW_ASSIGN_OR_RETURN(MetricsSnapshot write_after,
                       FetchMetrics(writes->port()));
  double cpu_after = 0;
  for (Node* node : cluster.nodes()) cpu_after += node->cpu_seconds();
  const uint64_t wal_after = writes->wal_bytes();
  for (Node* node : cluster.nodes()) node->Stop();

  // Per-op ratios divide by the server's own request counts, which span
  // the same interval as the counters and CPU times (ramp and drain too).
  auto requests = [&](OpKind kind) {
    const std::string name = std::string("paw_server_requests_total{opcode=\"") +
                             OpcodeLabel(kind) + "\"}";
    return kind == OpKind::kAddExecution
               ? static_cast<double>(CounterDelta(write_before, write_after, name))
               : static_cast<double>(CounterDelta(read_before, read_after, name));
  };
  double reads_n = 0;
  for (OpKind kind : {OpKind::kLineage, OpKind::kStructural, OpKind::kSearch,
                      OpKind::kGetExecution}) {
    reads_n += requests(kind);
  }
  const double ops = reads_n + requests(OpKind::kAddExecution);

  // ---- server: request histograms, lease wait, CPU, bytes out ----
  for (int k = 0; k < kOpKinds; ++k) {
    const OpKind kind = static_cast<OpKind>(k);
    const bool is_write = kind == OpKind::kAddExecution;
    const std::string family = std::string("paw_server_request_seconds{opcode=\"") +
                               OpcodeLabel(kind) + "\"}";
    const paw::HistogramData h =
        is_write ? HistogramDelta(write_before, write_after, family)
                 : HistogramDelta(read_before, read_after, family);
    put(std::string("server.request_p50_us.") + OpName(kind),
        h.Quantile(0.5) * 1e6, "us");
    put(std::string("server.request_p99_us.") + OpName(kind),
        h.Quantile(0.99) * 1e6, "us");
  }
  put("server.lease_wait_p99_us",
      HistogramDelta(read_before, read_after, "paw_server_lease_wait_seconds")
              .Quantile(0.99) * 1e6,
      "us");
  put("server.cpu_us_per_op", Ratio((cpu_after - cpu_before) * 1e6, ops),
      "us/op");
  double bytes_out = static_cast<double>(
      CounterDelta(read_before, read_after, "paw_server_bytes_out_total"));
  if (writes != reads) {
    bytes_out += static_cast<double>(CounterDelta(
        write_before, write_after, "paw_server_bytes_out_total"));
  }
  put("server.bytes_out_per_op", Ratio(bytes_out, ops), "bytes/op");

  // ---- server: client spans joined to the server's req.* spans ----
  std::unordered_map<uint64_t, const Span*> req_by_trace;
  for (const NodeTrace& node : monitor.nodes) {
    for (const auto& [id, s] : node.spans) {
      if (s.name_view().substr(0, 4) == "req.") req_by_trace[s.trace_id] = &s;
    }
  }
  std::vector<double> wire_self, coverage;
  for (const ClientSpan& c : w.client_spans) {
    if (c.kind == OpKind::kAddExecution) continue;
    auto it = req_by_trace.find(c.trace_id);
    if (it == req_by_trace.end()) continue;
    const double client_us = static_cast<double>(c.end_us - c.start_us);
    const double server_us = Micros(*it->second);
    wire_self.push_back(client_us - server_us);
    coverage.push_back(Ratio(server_us, client_us));
  }
  put("server.wire_self_p50_us", Quantile(wire_self, 0.5), "us");
  put("server.stage_coverage", Quantile(coverage, 0.5), "ratio");

  // ---- query / index / privacy counters on the read node ----
  auto delta = [&](const char* name) {
    return static_cast<double>(CounterDelta(read_before, read_after, name));
  };
  put("query.catchups_per_1k_queries",
      Ratio(delta("paw_query_engine_catchups_total") * 1000, reads_n),
      "count/1k");
  const double rc_hits = delta("paw_query_cache_hits_total");
  const double rc_misses = delta("paw_query_cache_misses_total");
  put("index.result_cache_hit_ratio", Ratio(rc_hits, rc_hits + rc_misses),
      "ratio");
  const double vc_hits = delta("paw_privacy_view_cache_hits_total");
  const double vc_misses = delta("paw_privacy_view_cache_misses_total");
  put("privacy.view_cache_hit_ratio", Ratio(vc_hits, vc_hits + vc_misses),
      "ratio");
  put("privacy.view_cache_evictions_per_1k",
      Ratio(delta("paw_privacy_view_cache_evictions_total") * 1000, reads_n),
      "count/1k");
  put("privacy.view_cache_bytes",
      static_cast<double>(GaugeValue(read_after, "paw_privacy_view_cache_bytes")),
      "bytes");
  put("privacy.view_computations_per_query",
      Ratio(delta("paw_privacy_view_computations_total"), reads_n), "ratio");
  put("privacy.zoom_out_steps_per_lineage",
      Ratio(delta("paw_privacy_zoom_out_steps_total"),
            requests(OpKind::kLineage)),
      "ratio");

  // ---- store: WAL group commit on the leader ----
  const paw::HistogramData fsync =
      HistogramDelta(write_before, write_after, "paw_wal_fsync_seconds");
  put("store.fsync_p50_us", fsync.Quantile(0.5) * 1e6, "us");
  put("store.fsync_p99_us", fsync.Quantile(0.99) * 1e6, "us");
  put("store.appends_per_fsync",
      Ratio(static_cast<double>(CounterDelta(write_before, write_after,
                                             "paw_wal_appends_total")),
            static_cast<double>(fsync.count)),
      "count");
  put("store.queue_depth_max", static_cast<double>(monitor.queue_depth_max),
      "count");
  put("store.wal_bytes_per_user_byte",
      Ratio(static_cast<double>(wal_after - wal_before),
            static_cast<double>(w.acked_total_bytes)),
      "ratio");

  // ---- replication (leader counters, spans from both nodes) ----
  const paw::HistogramData lag =
      HistogramDelta(write_before, write_after, "paw_repl_lag_seconds");
  put("replication.lag_p50_ms", lag.Quantile(0.5) * 1e3, "ms");
  put("replication.lag_p99_ms", lag.Quantile(0.99) * 1e3, "ms");
  put("replication.records_per_batch",
      Ratio(static_cast<double>(CounterDelta(write_before, write_after,
                                             "paw_repl_records_sent_total")),
            static_cast<double>(CounterDelta(write_before, write_after,
                                             "paw_repl_batches_sent_total"))),
      "count");
  put("replication.quorum_timeouts",
      static_cast<double>(CounterDelta(write_before, write_after,
                                       "paw_repl_quorum_timeouts_total")),
      "count");
  put("replication.quorum_wait_p50_us",
      Quantile(SpanMicros(monitor.nodes[0], "quorum.wait"), 0.5), "us");
  put("replication.apply_p50_us",
      monitor.nodes.size() > 1
          ? Quantile(SpanMicros(monitor.nodes[1], "repl.apply"), 0.5)
          : 0.0,
      "us");

  // ---- bench: tracing cost and ring losses ----
  uint64_t lost = 0;
  for (const NodeTrace& node : monitor.nodes) lost += node.lost;
  put("bench.trace_spans_lost", static_cast<double>(lost), "count");
  const double traced_ops_per_s =
      static_cast<double>(w.reads + w.acks) / w.seconds;
  put("bench.trace_overhead_pct",
      Ratio(untraced_ops_per_s - traced_ops_per_s, untraced_ops_per_s) * 100,
      "%");

  // ---- in-process: engine replay and per-layer timings ----
  PAW_ASSIGN_OR_RETURN(Replay replay, RunReplay(env.corpus, env.workload,
                                                env.seed, kReplayOps));
  for (OpKind kind : {OpKind::kLineage, OpKind::kStructural, OpKind::kSearch,
                      OpKind::kGetExecution}) {
    put(std::string("query.engine_p50_us.") + OpName(kind),
        Quantile(replay.engine_us[static_cast<int>(kind)], 0.5), "us");
  }
  put("query.search_fanout_serial_ratio", Quantile(replay.fanout_ratio, 0.5),
      "ratio");
  put("index.extend_p50_us", Quantile(replay.extend_us, 0.5), "us");
  const ReplayCounts& c = replay.counts;
  put("replay.view_computations", static_cast<double>(c.view_computations),
      "count");
  put("replay.zoom_out_steps", static_cast<double>(c.zoom_out_steps), "count");
  put("replay.lineage_cones", static_cast<double>(c.lineage_cones), "count");
  put("replay.result_cache_hits", static_cast<double>(c.result_cache_hits),
      "count");
  put("replay.result_cache_misses", static_cast<double>(c.result_cache_misses),
      "count");
  put("replay.view_cache_hits", static_cast<double>(c.view_cache_hits),
      "count");
  put("replay.view_cache_misses", static_cast<double>(c.view_cache_misses),
      "count");
  PAW_RETURN_NOT_OK(LayerTimings(env, &out));
  return out;
}

}  // namespace pawbench
