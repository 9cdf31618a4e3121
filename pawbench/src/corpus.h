#ifndef PAWBENCH_SRC_CORPUS_H_
#define PAWBENCH_SRC_CORPUS_H_

/// \file corpus.h
/// \brief The benchmark's generated inputs: the tenant corpus every
/// workload shares, the per-workload load shape, and the deterministic
/// op streams the load generator and the in-process replay both read.
///
/// Everything here is a pure function of `--seed` (plus the fixed tenant
/// catalog seed below), so two runs with one seed send pawd the same
/// bytes in the same per-session order.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/random.h"
#include "src/common/status.h"

namespace pawbench {

/// Tenant catalog: 24 specs from `GenerateSpec` (depth 3, 5 modules per
/// workflow, composite_prob 0.4), each with its own privacy policy. The
/// catalog seed is fixed so every `--seed` measures the same tenants;
/// the seed varies executions, preload order and the op streams.
inline constexpr int kSpecs = 24;
inline constexpr uint64_t kCatalogSeed = 20261017;
inline constexpr int kVocabulary = 40;
/// 240 principals over 12 groups x 4 levels (levels 0..3).
inline constexpr int kPrincipals = 240;
inline constexpr int kGroups = 12;
/// Executions preloaded per spec before the timed window.
inline constexpr int kPreloadPerSpec = 50;
/// ADD_EXECUTIONs a workflow-engine connection keeps in flight.
inline constexpr int kPipelineWindow = 64;
/// Ops an analyst issues before the session re-AUTHs as the next
/// drawn principal.
inline constexpr int kAnalystOps = 16;
/// Name of the admin principal the benchmark itself connects as.
inline constexpr const char* kAdminName = "bench";
inline constexpr int kAdminLevel = 100;

enum class Workload { kTenantsZipf, kTenantsUniform, kIngestMixed,
                      kReplicatedIngest };

/// How one workload loads pawd.
struct WorkloadShape {
  /// Zipf skew of principals, specs, ordinals and keywords (0 = uniform).
  double skew = 1.1;
  /// Closed-loop analyst connections: the first one searches, the
  /// others browse (see README.md for why searches get their own).
  int readers = 4;
  /// Pipelined ADD_EXECUTION connections (window `kPipelineWindow`).
  int writers = 0;
  /// Analysts also issue the mix's 5% ADD_EXECUTION.
  bool analyst_writes = true;
  /// Leader + follower with acks=quorum; analysts read the follower.
  bool replicated = false;
};

paw::Result<Workload> ParseWorkload(std::string_view name);
const char* WorkloadName(Workload workload);
WorkloadShape ShapeOf(Workload workload);

struct PrincipalDef {
  std::string name;
  int level = 0;
  std::string group;
};

/// The generated corpus.
struct Corpus {
  std::vector<std::string> spec_names;
  std::vector<std::string> spec_texts;
  std::vector<std::string> policy_texts;
  /// Per spec, the execution texts in ordinal order: `execs[s][k]` is
  /// preloaded as ordinal k of spec s, and ingest draws from the same
  /// pool.
  std::vector<std::vector<std::string>> execs;
  /// Per spec, the data-item count of its executions (one shape per
  /// spec: executions differ only in input values).
  std::vector<int> items_per_exec;
  /// Preload order: the spec index of each ADD_EXECUTION. The k-th
  /// occurrence of spec s loads `execs[s][k]`.
  std::vector<int> preload_order;
  /// Index 0 is the admin; analysts are 1..kPrincipals.
  std::vector<PrincipalDef> principals;
  std::vector<std::string> keywords;
  size_t preload_bytes = 0;
};

/// Builds the corpus for `seed`.
paw::Result<Corpus> MakeCorpus(uint64_t seed);

/// The `auth=` list pawd is started with (admin first, then analysts in
/// index order, so principal ids match the in-process model).
std::string AuthList(const Corpus& corpus);

enum class OpKind : uint8_t {
  kLineage = 0,
  kStructural = 1,
  kSearch = 2,
  kGetExecution = 3,
  kAddExecution = 4,
};
inline constexpr int kOpKinds = 5;
const char* OpName(OpKind kind);

struct Op {
  OpKind kind = OpKind::kLineage;
  /// Index into `Corpus::principals`.
  int principal = 0;
  int spec = 0;
  /// Lineage / get-execution target (a preloaded ordinal); for
  /// ADD_EXECUTION the pool index of the text to add.
  int ordinal = 0;
  int item = 0;
  /// Search terms, or the two structural pattern variables.
  std::vector<std::string> terms;
};

/// Stratified uniform draws in [0, 1): each block of `n` draws takes
/// one value from each stratum [j/n, (j+1)/n), in seeded order. Every
/// block then matches the target distribution almost exactly, so runs
/// with different seeds see the same op mix and popularity profile and
/// differ only in which keys fall where.
class Strata {
 public:
  explicit Strata(int n) : n_(n) {}
  double Next(paw::Rng* rng);

 private:
  int n_;
  std::vector<int> order_;
  size_t pos_ = 0;
};

/// Zipf(n, s) by inverse CDF (O(log n) per draw).
class ZipfTable {
 public:
  ZipfTable(size_t n, double skew);
  /// The rank for uniform draw `u` in [0, 1).
  size_t Rank(double u) const;

 private:
  std::vector<double> cdf_;
};

/// One connection's op sequence, independent per `(seed, stream, role)`.
class OpStream {
 public:
  enum class Role {
    /// The whole E13 mix (answer checks and the in-process replay).
    kMix,
    /// Analyst browsing: the mix without keyword searches.
    kBrowse,
    /// Analyst keyword searches, each as a freshly drawn principal.
    kSearch,
    /// Workflow-engine ingest: ADD_EXECUTION only.
    kWrite,
  };
  OpStream(const Corpus& corpus, Workload workload, uint64_t seed,
           int stream, Role role);
  Op Next();

 private:
  const Corpus& corpus_;
  WorkloadShape shape_;
  Role role_;
  paw::Rng rng_;
  ZipfTable principals_, specs_, keywords_, recency_;
  Strata kind_u_, principal_u_, spec_u_, keyword_u_, recency_u_, ingest_u_;
  int principal_ = 0;
  int issued_ = 0;
};

/// FNV-1a fold of an op into `h` (op-stream determinism checks).
uint64_t HashOp(const Op& op, uint64_t h);

}  // namespace pawbench

#endif  // PAWBENCH_SRC_CORPUS_H_
