// Cluster set-up, the timed closed-loop window, and the answer checks.

#include <atomic>
#include <chrono>
#include <deque>
#include <thread>

#include "pawbench/src/bench.h"
#include "pawbench/src/model.h"
#include "src/client/paw_client.h"

namespace pawbench {

namespace {

using paw::PawClient;
using paw::Result;
using paw::Status;

/// Browse ops each analyst stream issues in the untimed warmup (writes
/// skipped). Searches are not warmed: an uncached search costs
/// 0.1-0.5 s, so warming the result cache would multiply set-up time;
/// every window starts with it cold alike.
constexpr int kWarmupOps = 400;
/// Before a uniform window, batches of lineage calls over random
/// (execution, principal) pairs fill the view cache until it evicts, so
/// the window starts in the state a long-running server with a uniform
/// access pattern is in.
constexpr int kViewFillOps = 4000;
constexpr int kViewFillBatches = 16;
/// Read ops compared byte for byte with the reference per check, and the
/// most of them that may be searches (each costs pawd and the reference
/// an uncached KeywordSearch on every shard, about 0.5 s apiece).
constexpr int kCheckOps = 64;
constexpr int kCheckSearches = 1;
/// Acked ADD_EXECUTIONs of a window's load at which its peak RSS is
/// read, so the reading follows memory per execution, not throughput.
/// Pipelined writers reach it within a few seconds; a workload that
/// never does (only analysts write) is read at the end of the window.
constexpr uint64_t kRssAtAcks = 12000;

Result<PawClient> Connect(int port, const std::string& principal) {
  paw::PawClientOptions options;
  options.client_name = "pawbench";
  PAW_ASSIGN_OR_RETURN(PawClient client,
                       PawClient::Connect("127.0.0.1", port, options));
  PAW_RETURN_NOT_OK(client.Auth(principal));
  return client;
}

Result<paw::wire::StatusResponse> GetStatus(int port) {
  PAW_ASSIGN_OR_RETURN(PawClient client, Connect(port, kAdminName));
  return client.GetStatus();
}

/// One analyst connection: re-AUTHs when the stream's principal
/// changes, then issues the op and returns the encoded answer.
class Session {
 public:
  Session(const Env& env, PawClient client)
      : env_(env), client_(std::move(client)) {}

  /// Issues `op`; `answer` (may be null) receives the re-encoded wire
  /// answer of a read.
  Status Issue(const Op& op, std::string* answer) {
    if (op.principal != principal_) {
      PAW_RETURN_NOT_OK(client_.Auth(
          env_.corpus.principals[static_cast<size_t>(op.principal)].name));
      principal_ = op.principal;
    }
    const std::string& spec =
        env_.corpus.spec_names[static_cast<size_t>(op.spec)];
    namespace wire = paw::wire;
    switch (op.kind) {
      case OpKind::kLineage: {
        PAW_ASSIGN_OR_RETURN(wire::LineageResponse r,
                             client_.Lineage(spec, op.ordinal, op.item));
        if (answer != nullptr) *answer = wire::EncodeLineageResponse(r);
        return Status::OK();
      }
      case OpKind::kStructural: {
        wire::StructuralRequest req;
        req.spec_name = spec;
        req.var_terms = op.terms;
        req.edges = {{0, 1, true}};
        PAW_ASSIGN_OR_RETURN(wire::StructuralResponse r,
                             client_.Structural(req));
        if (answer != nullptr) *answer = wire::EncodeStructuralResponse(r);
        return Status::OK();
      }
      case OpKind::kSearch: {
        PAW_ASSIGN_OR_RETURN(wire::SearchResponse r, client_.Search(op.terms));
        if (answer != nullptr) *answer = wire::EncodeSearchResponse(r);
        return Status::OK();
      }
      case OpKind::kGetExecution: {
        PAW_ASSIGN_OR_RETURN(wire::GetExecutionResponse r,
                             client_.GetExecution(spec, op.ordinal));
        if (answer != nullptr) *answer = wire::EncodeGetExecutionResponse(r);
        return Status::OK();
      }
      case OpKind::kAddExecution:
        return client_
            .AddExecution(spec, env_.corpus.execs[static_cast<size_t>(op.spec)]
                                                 [static_cast<size_t>(
                                                     op.ordinal)])
            .status();
    }
    return Status::InvalidArgument("unknown op");
  }

  uint64_t last_trace_id() const { return client_.last_trace_id(); }

 private:
  const Env& env_;
  PawClient client_;
  int principal_ = 0;
};

/// Runs `fn(i)` on `n` threads and joins them.
template <typename Fn>
void Parallel(int n, Fn fn) {
  std::vector<std::thread> threads;
  for (int i = 0; i < n; ++i) threads.emplace_back(fn, i);
  for (std::thread& t : threads) t.join();
}

Status Preload(const Env& env, int port) {
  PAW_ASSIGN_OR_RETURN(PawClient client, Connect(port, kAdminName));
  const Corpus& corpus = env.corpus;
  for (size_t s = 0; s < corpus.spec_texts.size(); ++s) {
    PAW_RETURN_NOT_OK(
        client.AddSpec(corpus.spec_texts[s], corpus.policy_texts[s]).status());
  }
  std::vector<int> next(corpus.spec_texts.size(), 0);
  std::deque<paw::PawTicket> in_flight;
  for (int s : corpus.preload_order) {
    const int k = next[static_cast<size_t>(s)]++;
    PAW_ASSIGN_OR_RETURN(
        paw::PawTicket ticket,
        client.SendAddExecution(
            corpus.spec_names[static_cast<size_t>(s)],
            corpus.execs[static_cast<size_t>(s)][static_cast<size_t>(k)]));
    in_flight.push_back(ticket);
    if (in_flight.size() >= static_cast<size_t>(kPipelineWindow)) {
      PAW_RETURN_NOT_OK(
          client.AwaitAddExecution(in_flight.front()).status());
      in_flight.pop_front();
    }
  }
  for (paw::PawTicket t : in_flight) {
    PAW_RETURN_NOT_OK(client.AwaitAddExecution(t).status());
  }
  return Status::OK();
}

Status Warmup(const Env& env, int port) {
  std::atomic<int> errors{0};
  const int threads = env.shape.readers + env.shape.writers;
  // Uniform reads: fill the view cache until it evicts.
  for (int batch = 0; env.shape.skew == 0 && batch < kViewFillBatches;
       ++batch) {
    Parallel(threads, [&](int t) {
      auto client = Connect(port, kAdminName);
      if (!client.ok()) {
        ++errors;
        return;
      }
      Session session(env, std::move(client).value());
      paw::Rng rng(env.seed ^ (0xf111ULL + static_cast<uint64_t>(
                                               batch * threads + t)));
      for (int i = t; i < kViewFillOps; i += threads) {
        Op op;
        op.kind = OpKind::kLineage;
        op.principal = 1 + static_cast<int>(rng.Uniform(kPrincipals));
        op.spec = static_cast<int>(rng.Uniform(kSpecs));
        op.ordinal = static_cast<int>(rng.Uniform(kPreloadPerSpec));
        if (!session.Issue(op, nullptr).ok()) ++errors;
      }
    });
    auto metrics = FetchMetrics(port);
    if (!metrics.ok()) return metrics.status();
    const paw::MetricSample* evictions =
        metrics.value().Find("paw_privacy_view_cache_evictions_total");
    if (evictions != nullptr && evictions->counter > 0) break;
  }
  Parallel(env.shape.readers, [&](int r) {
    auto client = Connect(port, kAdminName);
    if (!client.ok()) {
      ++errors;
      return;
    }
    Session session(env, std::move(client).value());
    OpStream stream(env.corpus, env.workload, env.seed, 100 + r,
                    OpStream::Role::kBrowse);
    for (int i = 0; i < kWarmupOps; ++i) {
      const Op op = stream.Next();
      if (op.kind == OpKind::kAddExecution) continue;
      if (!session.Issue(op, nullptr).ok()) ++errors;
    }
  });
  if (errors.load() > 0) {
    return Status::Internal(std::to_string(errors.load()) +
                            " warmup op(s) failed");
  }
  return Status::OK();
}

/// Waits until `port`'s STATUS satisfies `done`, for up to `seconds`.
template <typename Pred>
Status WaitForStatus(int port, double seconds, Pred done) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(
                            static_cast<int64_t>(seconds * 1000));
  while (true) {
    auto status = GetStatus(port);
    if (status.ok() && done(status.value())) return Status::OK();
    if (std::chrono::steady_clock::now() > deadline) {
      return Status::Internal(
          "timed out waiting on STATUS: " +
          (status.ok() ? status.value().text : status.status().ToString()));
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
}

}  // namespace

std::vector<Node*> Cluster::nodes() const {
  std::vector<Node*> out = {leader.get()};
  if (follower) out.push_back(follower.get());
  return out;
}

Result<Cluster> SetUp(const Env& env, bool trace_all) {
  Cluster cluster;
  NodeOptions options;
  options.pawctl = env.pawctl;
  options.auth = AuthList(env.corpus);
  options.trace_all = trace_all;
  options.dir = env.workdir + "/leader";
  options.log_path = env.workdir + "/leader.log";
  options.quorum_acks = env.shape.replicated;
  PAW_ASSIGN_OR_RETURN(cluster.leader, Node::Start(options));
  if (env.shape.replicated) {
    options.dir = env.workdir + "/follower";
    options.log_path = env.workdir + "/follower.log";
    options.quorum_acks = false;
    options.follow_port = cluster.leader->port();
    PAW_ASSIGN_OR_RETURN(cluster.follower, Node::Start(options));
    // Quorum acks need the subscription before the first write.
    PAW_RETURN_NOT_OK(WaitForStatus(
        cluster.leader->port(), 30, [](const paw::wire::StatusResponse& s) {
          return s.text.find("replication: 1 subscriber") !=
                 std::string::npos;
        }));
  }
  PAW_RETURN_NOT_OK(Preload(env, cluster.leader->port()));
  if (cluster.follower) {
    const int total = static_cast<int>(env.corpus.preload_order.size());
    PAW_RETURN_NOT_OK(WaitForStatus(
        cluster.follower->port(), 60,
        [total](const paw::wire::StatusResponse& s) {
          return s.executions == total;
        }));
  }
  PAW_RETURN_NOT_OK(Warmup(env, cluster.read_port()));
  return cluster;
}

Window RunWindow(const Env& env, const Cluster& cluster, bool record_spans,
                 const std::function<void()>& monitor) {
  const int readers = env.shape.readers;
  const int writers = env.shape.writers;
  std::vector<Window> parts(static_cast<size_t>(readers + writers));
  std::atomic<int> connected{0};
  std::atomic<int64_t> start_us{0};
  std::atomic<uint64_t> acked{0};
  const int64_t window_us = static_cast<int64_t>(env.seconds * 1e6);
  // Load starts kRampUs before the measured window, so the burst of
  // every connection starting at once (each writer filling its whole
  // pipeline) is not measured.
  constexpr int64_t kRampUs = 1000000;

  auto wait_start = [&]() -> int64_t {
    ++connected;
    int64_t start = 0;
    while ((start = start_us.load()) == 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    return start;
  };

  auto reader = [&](int r) {
    Window& w = parts[static_cast<size_t>(r)];
    auto client = Connect(cluster.read_port(), kAdminName);
    const int64_t start = wait_start();
    if (!client.ok()) {
      ++w.attempted;
      ++w.failed;
      return;
    }
    const int64_t from = start + kRampUs;
    const int64_t end = from + window_us;
    Session session(env, std::move(client).value());
    OpStream stream(env.corpus, env.workload, env.seed, r,
                    r == 0 ? OpStream::Role::kSearch
                           : OpStream::Role::kBrowse);
    while (paw::TraceNowMicros() < end) {
      const Op op = stream.Next();
      const int64_t t0 = paw::TraceNowMicros();
      const bool ok = session.Issue(op, nullptr).ok();
      const int64_t t1 = paw::TraceNowMicros();
      const size_t bytes =
          op.kind == OpKind::kAddExecution
              ? env.corpus.execs[static_cast<size_t>(op.spec)]
                                [static_cast<size_t>(op.ordinal)]
                                    .size()
              : 0;
      if (ok && op.kind == OpKind::kAddExecution) {
        ++w.acked_total;
        w.acked_total_bytes += bytes;
        ++acked;
      }
      if (t1 > end) break;
      if (t0 < from) continue;
      ++w.attempted;
      if (!ok) {
        ++w.failed;
        continue;
      }
      w.latency_us[static_cast<int>(op.kind)].push_back(
          static_cast<double>(t1 - t0));
      if (op.kind == OpKind::kAddExecution) {
        ++w.acks;
      } else {
        ++w.reads;
      }
      if (record_spans) {
        w.client_spans.push_back({session.last_trace_id(), op.kind, t0, t1});
      }
    }
  };

  auto writer = [&](int j) {
    Window& w = parts[static_cast<size_t>(readers + j)];
    auto connected_client = Connect(cluster.leader->port(), kAdminName);
    const int64_t start = wait_start();
    if (!connected_client.ok()) {
      ++w.attempted;
      ++w.failed;
      return;
    }
    PawClient& client = connected_client.value();
    const int64_t from = start + kRampUs;
    const int64_t end = from + window_us;
    OpStream stream(env.corpus, env.workload, env.seed, j,
                    OpStream::Role::kWrite);
    struct InFlight {
      paw::PawTicket ticket;
      int64_t sent_us;
      uint64_t trace_id;
      size_t bytes;
    };
    std::deque<InFlight> in_flight;
    while (true) {
      while (paw::TraceNowMicros() < end &&
             in_flight.size() < static_cast<size_t>(kPipelineWindow)) {
        const Op op = stream.Next();
        const std::string& text =
            env.corpus.execs[static_cast<size_t>(op.spec)]
                            [static_cast<size_t>(op.ordinal)];
        const int64_t t0 = paw::TraceNowMicros();
        auto ticket = client.SendAddExecution(
            env.corpus.spec_names[static_cast<size_t>(op.spec)], text);
        if (!ticket.ok()) {
          ++w.attempted;
          ++w.failed;
          break;
        }
        in_flight.push_back(
            {ticket.value(), t0, client.last_trace_id(), text.size()});
      }
      if (in_flight.empty()) break;
      const InFlight f = in_flight.front();
      in_flight.pop_front();
      const bool ok = client.AwaitAddExecution(f.ticket).ok();
      const int64_t t1 = paw::TraceNowMicros();
      if (ok) {
        ++w.acked_total;
        w.acked_total_bytes += f.bytes;
        ++acked;
      }
      if (t1 > end || f.sent_us < from) continue;
      ++w.attempted;
      if (!ok) {
        ++w.failed;
        continue;
      }
      ++w.acks;
      w.latency_us[static_cast<int>(OpKind::kAddExecution)].push_back(
          static_cast<double>(t1 - f.sent_us));
      if (record_spans) {
        w.client_spans.push_back(
            {f.trace_id, OpKind::kAddExecution, f.sent_us, t1});
      }
    }
  };

  std::vector<std::thread> threads;
  for (int r = 0; r < readers; ++r) threads.emplace_back(reader, r);
  for (int j = 0; j < writers; ++j) threads.emplace_back(writer, j);
  while (connected.load() < readers + writers) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  const int64_t start = paw::TraceNowMicros();
  start_us.store(start);
  auto peak_rss_mb = [&cluster]() {
    double mb = 0;
    for (Node* node : cluster.nodes()) mb += node->peak_rss_mb();
    return mb;
  };
  double rss_mb = 0;
  int64_t next_monitor_us = start;
  for (int64_t now = start; now < start + kRampUs + window_us;
       now = paw::TraceNowMicros()) {
    if (monitor && now >= next_monitor_us) {
      monitor();
      next_monitor_us = now + 100000;
    }
    if (rss_mb == 0 && acked.load() >= kRssAtAcks) rss_mb = peak_rss_mb();
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  if (rss_mb == 0) rss_mb = peak_rss_mb();
  for (std::thread& t : threads) t.join();

  Window total;
  for (const Window& part : parts) Merge(part, &total);
  total.seconds = env.seconds;
  total.peak_rss_mb = rss_mb;
  return total;
}

void Merge(const Window& part, Window* total) {
  for (int k = 0; k < kOpKinds; ++k) {
    total->latency_us[k].insert(total->latency_us[k].end(),
                                part.latency_us[k].begin(),
                                part.latency_us[k].end());
  }
  total->seconds += part.seconds;
  total->reads += part.reads;
  total->acks += part.acks;
  total->attempted += part.attempted;
  total->failed += part.failed;
  total->acked_total += part.acked_total;
  total->acked_total_bytes += part.acked_total_bytes;
  total->client_spans.insert(total->client_spans.end(),
                             part.client_spans.begin(),
                             part.client_spans.end());
}

Check CheckAnswers(const Env& env, const Cluster& cluster,
                   uint64_t acked_total, int round) {
  Check check;
  auto fail = [&check](const std::string& what) {
    ++check.mismatches;
    if (check.detail.empty()) check.detail = what;
  };
  auto reference = Model::Build(env.corpus, Model::Options{});
  auto client = Connect(cluster.read_port(), kAdminName);
  if (!reference.ok() || !client.ok()) {
    ++check.attempted;
    fail("cannot build the reference or connect: " +
         (reference.ok() ? client.status() : reference.status()).ToString());
    return check;
  }
  Session session(env, std::move(client).value());
  OpStream stream(env.corpus, env.workload, env.seed, 1000 + round,
                  OpStream::Role::kMix);
  int searches = 0;
  for (int checked = 0; checked < kCheckOps;) {
    const Op op = stream.Next();
    if (op.kind == OpKind::kAddExecution) continue;
    if (op.kind == OpKind::kSearch && searches++ >= kCheckSearches) continue;
    ++checked;
    ++check.attempted;
    std::string wire_answer;
    const Status issued = session.Issue(op, &wire_answer);
    auto expected = reference.value()->Answer(op);
    if (!issued.ok() || !expected.ok()) {
      fail(std::string(OpName(op.kind)) + " failed: " +
           (issued.ok() ? expected.status() : issued).ToString());
    } else if (wire_answer != expected.value()) {
      fail(std::string(OpName(op.kind)) + " answer differs for spec " +
           std::to_string(op.spec) + " ordinal " +
           std::to_string(op.ordinal) + " principal " +
           std::to_string(op.principal));
    }
  }

  // Every acked write is in the store, and nothing else is.
  const int64_t expected =
      static_cast<int64_t>(env.corpus.preload_order.size() + acked_total);
  check.status_ok = true;
  for (Node* node : cluster.nodes()) {
    const Status seen = WaitForStatus(
        node->port(), node == cluster.leader.get() ? 0 : 30,
        [expected](const paw::wire::StatusResponse& s) {
          return s.executions == expected;
        });
    if (!seen.ok()) {
      check.status_ok = false;
      if (check.detail.empty()) {
        check.detail = "STATUS executions != preload + acked (" +
                       std::to_string(expected) + "): " + seen.ToString();
      }
    }
  }
  return check;
}

Result<paw::MetricsSnapshot> FetchMetrics(int port) {
  PAW_ASSIGN_OR_RETURN(PawClient client, Connect(port, kAdminName));
  PAW_ASSIGN_OR_RETURN(paw::wire::MetricsResponse resp, client.Metrics());
  return std::move(resp.snapshot);
}

}  // namespace pawbench
