#include "pawbench/src/corpus.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>

#include "src/privacy/policy.h"
#include "src/privacy/policy_text.h"
#include "src/provenance/serialize.h"
#include "src/repo/workload.h"
#include "src/workflow/serialize.h"

namespace pawbench {

using paw::Result;
using paw::Status;

Result<Workload> ParseWorkload(std::string_view name) {
  for (Workload w : {Workload::kTenantsZipf, Workload::kTenantsUniform,
                     Workload::kIngestMixed, Workload::kReplicatedIngest}) {
    if (name == WorkloadName(w)) return w;
  }
  return Status::InvalidArgument("unknown workload \"" + std::string(name) +
                                 "\"");
}

const char* WorkloadName(Workload workload) {
  switch (workload) {
    case Workload::kTenantsZipf: return "tenants_zipf";
    case Workload::kTenantsUniform: return "tenants_uniform";
    case Workload::kIngestMixed: return "ingest_mixed";
    case Workload::kReplicatedIngest: return "replicated_ingest";
  }
  return "unknown";
}

WorkloadShape ShapeOf(Workload workload) {
  WorkloadShape shape;
  switch (workload) {
    case Workload::kTenantsZipf:
      break;
    case Workload::kTenantsUniform:
      shape.skew = 0.0;
      break;
    case Workload::kIngestMixed:
      shape.readers = 2;
      shape.writers = 2;
      shape.analyst_writes = false;
      break;
    case Workload::kReplicatedIngest:
      shape.readers = 2;
      shape.writers = 2;
      shape.analyst_writes = false;
      shape.replicated = true;
      break;
  }
  return shape;
}

const char* OpName(OpKind kind) {
  switch (kind) {
    case OpKind::kLineage: return "lineage";
    case OpKind::kStructural: return "structural";
    case OpKind::kSearch: return "search";
    case OpKind::kGetExecution: return "getexec";
    case OpKind::kAddExecution: return "add_execution";
  }
  return "unknown";
}

Result<Corpus> MakeCorpus(uint64_t seed) {
  Corpus corpus;
  paw::WorkloadParams params;
  params.depth = 3;
  params.modules_per_workflow = 5;
  params.composite_prob = 0.4;
  params.vocabulary = kVocabulary;
  params.max_level = 3;
  for (int k = 0; k < kVocabulary; ++k) {
    corpus.keywords.push_back("kw" + std::to_string(k));
  }

  // Tenants: the catalog is fixed; only executions depend on `seed`.
  paw::Rng catalog(kCatalogSeed);
  paw::Rng rng(seed);
  for (int s = 0; s < kSpecs; ++s) {
    PAW_ASSIGN_OR_RETURN(
        paw::Specification spec,
        paw::GenerateSpec(params, &catalog, "tenant " + std::to_string(s)));
    // E13's policy shape: data defaults to level 1 or 2 (lower levels
    // see masked values), plus structural requirements between the
    // first and last atomic modules of non-root workflows, so zoom-out
    // does real work for principals below level 2.
    paw::PolicySet policy;
    policy.data.default_level = 1 + s % 2;
    std::map<int32_t, std::vector<const paw::Module*>> by_workflow;
    for (const paw::Module& m : spec.modules()) {
      if (m.kind == paw::ModuleKind::kAtomic && m.workflow != spec.root()) {
        by_workflow[m.workflow.value()].push_back(&m);
      }
    }
    for (const auto& [wf, mods] : by_workflow) {
      if (mods.size() < 2) continue;
      paw::StructuralPrivacyRequirement req;
      req.src_code = mods.front()->code;
      req.dst_code = mods.back()->code;
      req.required_level = 2;
      policy.structural_reqs.push_back(req);
      if (policy.structural_reqs.size() >= 2) break;
    }
    std::vector<std::string> pool;
    int items = 0;
    for (int k = 0; k < kPreloadPerSpec; ++k) {
      PAW_ASSIGN_OR_RETURN(paw::Execution exec,
                           paw::GenerateExecution(spec, &rng));
      items = exec.num_items();
      pool.push_back(paw::SerializeExecution(exec));
      corpus.preload_bytes += pool.back().size();
    }
    corpus.spec_names.push_back(spec.name());
    corpus.spec_texts.push_back(paw::Serialize(spec));
    corpus.policy_texts.push_back(paw::SerializePolicy(policy));
    corpus.execs.push_back(std::move(pool));
    corpus.items_per_exec.push_back(items);
  }
  for (int s = 0; s < kSpecs; ++s) {
    for (int k = 0; k < kPreloadPerSpec; ++k) {
      corpus.preload_order.push_back(s);
    }
  }
  rng.Shuffle(&corpus.preload_order);

  // Principals: popularity (the zipf rank) falls with the index; the
  // popular ones are the level-3 power users whose views are largest.
  corpus.principals.push_back({kAdminName, kAdminLevel, ""});
  for (int i = 0; i < kPrincipals; ++i) {
    corpus.principals.push_back({"t" + std::to_string(i),
                                 3 - (i / kGroups) % 4,
                                 "g" + std::to_string(i % kGroups)});
  }
  return corpus;
}

std::string AuthList(const Corpus& corpus) {
  std::string out;
  for (const PrincipalDef& p : corpus.principals) {
    if (!out.empty()) out += ',';
    out += p.name + ":" + std::to_string(p.level);
    if (!p.group.empty()) out += ":" + p.group;
  }
  return out;
}

ZipfTable::ZipfTable(size_t n, double skew) {
  double total = 0;
  for (size_t i = 1; i <= n; ++i) {
    total += 1.0 / std::pow(static_cast<double>(i), skew);
    cdf_.push_back(total);
  }
  for (double& c : cdf_) c /= total;
}

double Strata::Next(paw::Rng* rng) {
  if (pos_ == order_.size()) {
    order_.resize(static_cast<size_t>(n_));
    for (int j = 0; j < n_; ++j) order_[static_cast<size_t>(j)] = j;
    rng->Shuffle(&order_);
    pos_ = 0;
  }
  return (order_[pos_++] + rng->UniformDouble()) / n_;
}

size_t ZipfTable::Rank(double u) const {
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  return std::min(static_cast<size_t>(it - cdf_.begin()), cdf_.size() - 1);
}

OpStream::OpStream(const Corpus& corpus, Workload workload, uint64_t seed,
                   int stream, Role role)
    : corpus_(corpus),
      shape_(ShapeOf(workload)),
      role_(role),
      rng_(seed * 0x9e3779b97f4a7c15ULL + static_cast<uint64_t>(stream) * 2 +
           static_cast<uint64_t>(role) * 0x10001 + 1),
      principals_(kPrincipals, shape_.skew),
      specs_(kSpecs, shape_.skew),
      keywords_(kVocabulary, shape_.skew),
      recency_(kPreloadPerSpec, shape_.skew),
      kind_u_(20),
      principal_u_(kGroups),
      spec_u_(kSpecs),
      keyword_u_(kVocabulary),
      recency_u_(kPreloadPerSpec),
      ingest_u_(kSpecs) {}

Op OpStream::Next() {
  Op op;
  // Writers ingest zipf-popular tenants whatever the read skew.
  if (role_ == Role::kWrite) {
    static const ZipfTable kIngestSpecs(kSpecs, 1.1);
    op.kind = OpKind::kAddExecution;
    op.principal = 0;
    op.spec = static_cast<int>(kIngestSpecs.Rank(ingest_u_.Next(&rng_)));
    op.ordinal = static_cast<int>(rng_.Uniform(kPreloadPerSpec));
    return op;
  }
  // A searcher's every search is a new analyst; browsers keep one
  // principal for kAnalystOps ops.
  const int analyst_ops = role_ == Role::kSearch ? 1 : kAnalystOps;
  if (issued_++ % analyst_ops == 0) {
    principal_ = 1 + static_cast<int>(
                         principals_.Rank(principal_u_.Next(&rng_)));
  }
  op.principal = principal_;
  op.spec = static_cast<int>(specs_.Rank(spec_u_.Next(&rng_)));
  // The E13 mix, 40% lineage / 25% structural / 15% search / 15% get /
  // 5% add, restricted to the role's kinds in the same proportions.
  struct Share {
    OpKind kind;
    double weight;
  };
  static constexpr Share kMix[] = {
      {OpKind::kLineage, 0.40},      {OpKind::kStructural, 0.25},
      {OpKind::kSearch, 0.15},       {OpKind::kGetExecution, 0.15},
      {OpKind::kAddExecution, 0.05}};
  auto included = [this](OpKind kind) {
    if (kind == OpKind::kAddExecution && !shape_.analyst_writes) return false;
    switch (role_) {
      case Role::kMix: return true;
      case Role::kBrowse: return kind != OpKind::kSearch;
      case Role::kSearch: return kind == OpKind::kSearch;
      case Role::kWrite: break;
    }
    return false;
  };
  double total = 0;
  for (const Share& share : kMix) {
    if (included(share.kind)) total += share.weight;
  }
  double u = kind_u_.Next(&rng_) * total;
  for (const Share& share : kMix) {
    if (!included(share.kind)) continue;
    op.kind = share.kind;
    if (u < share.weight) break;
    u -= share.weight;
  }
  // Recent-hot ordinals under skew; uniform over the history otherwise.
  const int ordinal = kPreloadPerSpec - 1 -
                      static_cast<int>(recency_.Rank(recency_u_.Next(&rng_)));
  switch (op.kind) {
    case OpKind::kLineage:
      op.ordinal = ordinal;
      op.item = static_cast<int>(rng_.Uniform(static_cast<uint64_t>(
          corpus_.items_per_exec[static_cast<size_t>(op.spec)])));
      break;
    case OpKind::kStructural:
      op.terms = {corpus_.keywords[keywords_.Rank(keyword_u_.Next(&rng_))],
                  corpus_.keywords[keywords_.Rank(keyword_u_.Next(&rng_))]};
      break;
    case OpKind::kSearch:
      op.terms = {corpus_.keywords[keywords_.Rank(keyword_u_.Next(&rng_))]};
      break;
    case OpKind::kGetExecution:
      op.ordinal = ordinal;
      break;
    case OpKind::kAddExecution:
      op.ordinal = static_cast<int>(rng_.Uniform(kPreloadPerSpec));
      break;
  }
  return op;
}

uint64_t HashOp(const Op& op, uint64_t h) {
  auto fold = [&h](const void* data, size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < n; ++i) {
      h ^= p[i];
      h *= 0x100000001b3ULL;
    }
  };
  const int32_t fields[5] = {static_cast<int32_t>(op.kind), op.principal,
                             op.spec, op.ordinal, op.item};
  fold(fields, sizeof(fields));
  for (const std::string& t : op.terms) fold(t.data(), t.size() + 1);
  return h;
}

}  // namespace pawbench
