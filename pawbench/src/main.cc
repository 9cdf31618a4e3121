// pawbench: drives a real pawd over the wire with one of four workloads
// and prints the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). The last line of stdout is the result object:
//
//   {"correct": true, "attempted": N, "failed": N, "metrics": {...}}
//
// Usage (normally through pawbench/run.py, which builds this first):
//   pawbench --workload NAME --seed N --seconds S --trace 0|1
//            --pawctl PATH --workdir DIR [--git REV]

#include <sys/utsname.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>

#include "pawbench/src/bench.h"
#include "pawbench/src/stats.h"

namespace pawbench {
namespace {

/// Full set-ups per untraced run; `setup_s` is their median.
constexpr int kSetupRepeats = 7;
/// Timed windows per run, each on a fresh cluster of its own and
/// `--seconds / kWindows` long. Ingest grows pawd by about 30 KB per
/// execution, so fresh clusters keep memory down while a run still
/// measures `--seconds` of a host whose speed drifts.
constexpr int kWindows = 3;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string pawctl;
  std::string workdir;
  std::string git = "unknown";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value, nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::atof(value);
    } else if (key == "--trace") {
      args->trace = std::atoi(value);
    } else if (key == "--pawctl") {
      args->pawctl = value;
    } else if (key == "--workdir") {
      args->workdir = value;
    } else if (key == "--git") {
      args->git = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && !args->pawctl.empty() &&
         !args->workdir.empty() && args->seconds > 0 &&
         (args->trace == 0 || args->trace == 1);
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

std::string MetricsJson(const Metrics& metrics) {
  std::string out = "{";
  for (const auto& [name, m] : metrics) {
    if (out.size() > 1) out += ", ";
    out += JsonString(name) + ": {\"value\": " + JsonNumber(m.value) +
           ", \"unit\": " + JsonString(m.unit) + "}";
  }
  return out + "}";
}

/// Host stamp: nproc, build type, commit, kernel, pawd options.
std::string HostJson(const Args& args, const std::vector<std::string>& pawd,
                     const Corpus& corpus) {
  utsname uts{};
  uname(&uts);
  std::string options;
  for (size_t i = 1; i < pawd.size(); ++i) {
    // The principal list is long and fixed by the corpus; elide it.
    std::string a = pawd[i].rfind("auth=", 0) == 0 ? "auth=<corpus>" : pawd[i];
    if (i == 2) a = "<dir>";
    options += (options.empty() ? "" : " ") + a;
  }
  return "{\"nproc\": " + std::to_string(sysconf(_SC_NPROCESSORS_ONLN)) +
         ", \"build_type\": " + JsonString(PAWBENCH_BUILD_TYPE) +
         ", \"git\": " + JsonString(args.git) +
         ", \"kernel\": " + JsonString(std::string(uts.sysname) + " " +
                                       uts.release) +
         ", \"pawd\": " + JsonString(options) +
         ", \"corpus\": {\"specs\": " +
         std::to_string(corpus.spec_texts.size()) + ", \"principals\": " +
         std::to_string(corpus.principals.size() - 1) +
         ", \"preload_executions\": " +
         std::to_string(corpus.preload_order.size()) +
         ", \"preload_bytes\": " + std::to_string(corpus.preload_bytes) +
         "}, \"workload\": " + JsonString(args.workload) +
         ", \"seed\": " + std::to_string(args.seed) +
         ", \"seconds\": " + JsonNumber(args.seconds) +
         ", \"trace\": " + std::to_string(args.trace) + "}";
}

double Seconds(std::chrono::steady_clock::time_point since) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       since)
      .count();
}

/// Deletes the stores a run leaves in `workdir`.
void RemoveStores(const std::string& workdir) {
  for (const char* dir : {"leader", "follower", "append"}) {
    std::error_code ec;
    std::filesystem::remove_all(workdir + "/" + dir, ec);
  }
}

int Fail(const std::string& what) {
  std::fprintf(stderr, "pawbench: %s\n", what.c_str());
  return 1;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    return Fail(
        "usage: pawbench --workload NAME --seed N --seconds S --trace 0|1 "
        "--pawctl PATH --workdir DIR [--git REV]");
  }
  if (std::strcmp(PAWBENCH_BUILD_TYPE, "Debug") == 0) {
    return Fail("refusing to measure a Debug build");
  }
  auto workload = ParseWorkload(args.workload);
  if (!workload.ok()) return Fail(workload.status().ToString());

  Env env;
  env.workload = workload.value();
  env.shape = ShapeOf(env.workload);
  env.seed = args.seed;
  env.seconds = args.seconds / kWindows;
  env.pawctl = args.pawctl;
  env.workdir = args.workdir;
  std::filesystem::create_directories(env.workdir);
  auto corpus = MakeCorpus(args.seed);
  if (!corpus.ok()) return Fail("corpus: " + corpus.status().ToString());
  env.corpus = std::move(corpus).value();

  // Untraced: set up kSetupRepeats times (timing each); each of the last
  // kWindows clusters gets one timed window and an answer check.
  std::vector<double> setups, peak_rss_mb;
  std::vector<std::string> pawd_args;
  Window w;
  uint64_t attempted = 0, failed = 0, checked = 0, mismatches = 0;
  bool status_ok = true;
  const int repeats = args.trace == 0 ? kSetupRepeats : kWindows;
  for (int i = 0; i < repeats; ++i) {
    const auto start = std::chrono::steady_clock::now();
    paw::Result<Cluster> cluster = SetUp(env, /*trace_all=*/false);
    if (!cluster.ok()) return Fail("set-up: " + cluster.status().ToString());
    setups.push_back(Seconds(start));
    if (i < repeats - kWindows) continue;
    pawd_args = cluster.value().leader->args();
    const Window part =
        RunWindow(env, cluster.value(), /*record_spans=*/false);
    const Check check =
        CheckAnswers(env, cluster.value(), part.acked_total, i);
    cluster = paw::Status::Internal("stopped");
    // Drop the window's store now rather than in the next set-up, which
    // is timed.
    RemoveStores(env.workdir);
    Merge(part, &w);
    peak_rss_mb.push_back(part.peak_rss_mb);
    checked += check.attempted;
    mismatches += check.mismatches;
    status_ok = status_ok && check.status_ok;
    attempted += part.attempted + check.attempted;
    failed += part.failed + check.mismatches + (check.status_ok ? 0 : 1);
    if (check.mismatches != 0 || !check.status_ok) {
      std::fprintf(stderr, "pawbench: %s\n", check.detail.c_str());
    }
  }

  Metrics metrics;
  auto put = [&metrics](const std::string& name, double value,
                        const char* unit) {
    metrics[name] = Metric{value, unit};
  };
  const double secs = w.seconds;
  if (args.trace == 0) {
    put("setup_s", Quantile(setups, 0.5), "s");
    put("query_rps", static_cast<double>(w.reads) / secs, "1/s");
    for (OpKind kind : {OpKind::kLineage, OpKind::kStructural,
                        OpKind::kSearch, OpKind::kGetExecution}) {
      const std::vector<double>& lat = w.latency_us[static_cast<int>(kind)];
      put(std::string(OpName(kind)) + "_p50_us", Quantile(lat, 0.5), "us");
      // Too unsteady on a shared host to bound; the traced run reports it.
      if (kind == OpKind::kGetExecution) continue;
      put(std::string(OpName(kind)) + "_p99_us", Quantile(lat, 0.99), "us");
    }
    const std::vector<double>& acks =
        w.latency_us[static_cast<int>(OpKind::kAddExecution)];
    put("ingest_rps", static_cast<double>(w.acks) / secs, "1/s");
    put("ingest_ack_p50_us", Quantile(acks, 0.5), "us");
    // Add-one (rule of succession) estimate, so a clean run reads as a
    // small non-zero rate. On a clean run it is 1/(attempted+1) and so
    // follows throughput; any failure fails the run below.
    put("error_rate",
        static_cast<double>(failed + 1) / static_cast<double>(attempted + 1),
        "ratio");
    put("peak_rss_mb", Quantile(peak_rss_mb, 0.5), "MiB");
  } else {
    const double ops_per_s = static_cast<double>(w.reads + w.acks) / secs;
    auto layers = TracedRun(env, ops_per_s, &attempted, &failed);
    if (!layers.ok()) return Fail("traced run: " + layers.status().ToString());
    metrics = std::move(layers).value();
    // Too unsteady on a shared host to bound; reported unbounded here.
    for (OpKind kind : {OpKind::kGetExecution, OpKind::kAddExecution}) {
      const char* name = kind == OpKind::kGetExecution
                             ? "client.getexec_p99_us"
                             : "client.ingest_ack_p99_us";
      put(name, Quantile(w.latency_us[static_cast<int>(kind)], 0.99), "us");
    }
  }

  // Every workload is built so that no operation fails: a refused op, a
  // quorum timeout, a wrong answer or a wrong STATUS count fails the run.
  const bool correct = failed == 0;

  RemoveStores(env.workdir);

  std::string samples;
  for (int k = 0; k < kOpKinds; ++k) {
    samples += std::string(samples.empty() ? "" : " ") +
               OpName(static_cast<OpKind>(k)) + "=" +
               std::to_string(w.latency_us[k].size());
  }
  const std::string host = HostJson(args, pawd_args, env.corpus);
  const std::string result =
      std::string("{\"correct\": ") + (correct ? "true" : "false") +
      ", \"attempted\": " + std::to_string(attempted) +
      ", \"failed\": " + std::to_string(failed) +
      ", \"metrics\": " + MetricsJson(metrics) + "}";
  std::printf("host: %s\n", host.c_str());
  std::printf("samples (untraced window): %s\n", samples.c_str());
  std::printf("checked: %llu answers, %llu mismatches, status %s\n",
              static_cast<unsigned long long>(checked),
              static_cast<unsigned long long>(mismatches),
              status_ok ? "ok" : "MISMATCH");
  std::ofstream(env.workdir + "/result.json")
      << "{\"host\": " << host << ", \"result\": " << result << "}\n";
  std::printf("%s\n", result.c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace pawbench

int main(int argc, char** argv) { return pawbench::Main(argc, argv); }
