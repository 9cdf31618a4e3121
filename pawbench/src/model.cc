#include "pawbench/src/model.h"

#include <algorithm>
#include <chrono>

#include "pawbench/src/stats.h"
#include "src/privacy/data_privacy.h"
#include "src/privacy/policy_text.h"
#include "src/provenance/serialize.h"
#include "src/server/wire.h"
#include "src/store/sharded_repository.h"
#include "src/workflow/serialize.h"

namespace pawbench {

using paw::Result;
using paw::Status;

Model::Model(const Corpus& corpus, Options options) : corpus_(corpus) {
  paw::EngineOptions engine_options;
  engine_options.view_cache = options.view_cache;
  engine_options.view_cache_instance = options.cache;
  for (int s = 0; s < kShards; ++s) {
    repos_.push_back(std::make_unique<paw::Repository>());
  }
  // pawd builds its engines once, on the empty store, and lets them
  // catch up; doing the same keeps index and scorer state identical.
  for (int s = 0; s < kShards; ++s) {
    engines_.push_back(std::make_unique<paw::QueryEngine>(
        *repos_[static_cast<size_t>(s)], acl_, engine_options));
  }
}

Result<std::unique_ptr<Model>> Model::Build(const Corpus& corpus,
                                           Options options) {
  std::unique_ptr<Model> model(new Model(corpus, options));
  for (const PrincipalDef& p : corpus.principals) {
    PAW_ASSIGN_OR_RETURN(paw::PrincipalId id,
                         model->acl_.AddPrincipal(p.name, p.level, p.group));
    model->principal_ids_.push_back(id);
  }
  for (size_t s = 0; s < corpus.spec_texts.size(); ++s) {
    PAW_ASSIGN_OR_RETURN(paw::Specification spec,
                         paw::ParseSpecification(corpus.spec_texts[s]));
    PAW_ASSIGN_OR_RETURN(paw::PolicySet policy,
                         paw::ParsePolicy(corpus.policy_texts[s], spec));
    const int shard = paw::ShardedRepository::ShardOf(spec.name(), kShards);
    PAW_ASSIGN_OR_RETURN(
        int id, model->repo(shard).AddSpecification(std::move(spec),
                                                    std::move(policy)));
    model->spec_shard_.push_back(shard);
    model->spec_id_.push_back(id);
  }
  model->ordinals_.resize(corpus.spec_texts.size());
  for (int spec : corpus.preload_order) {
    Op op;
    op.kind = OpKind::kAddExecution;
    op.spec = spec;
    op.ordinal =
        static_cast<int>(model->ordinals_[static_cast<size_t>(spec)].size());
    PAW_RETURN_NOT_OK(model->Add(op));
  }
  return model;
}

Status Model::Add(const Op& op) {
  const int shard = shard_of(op.spec);
  const paw::SpecEntry& entry = repo(shard).entry(spec_id(op.spec));
  PAW_ASSIGN_OR_RETURN(
      paw::Execution exec,
      paw::ParseExecution(corpus_.execs[static_cast<size_t>(op.spec)]
                                       [static_cast<size_t>(op.ordinal)],
                          entry.spec));
  PAW_ASSIGN_OR_RETURN(paw::ExecutionId id,
                       repo(shard).AddExecution(spec_id(op.spec),
                                                std::move(exec)));
  ordinals_[static_cast<size_t>(op.spec)].push_back(id);
  return Status::OK();
}

const paw::ExecutionEntry& Model::execution(int spec, int ordinal) const {
  return repos_[static_cast<size_t>(spec_shard_[static_cast<size_t>(spec)])]
      ->execution(ordinals_[static_cast<size_t>(spec)]
                           [static_cast<size_t>(ordinal)]);
}

// Each branch renders exactly what the matching pawd handler
// (src/server/server.cc) puts on the wire.
Result<std::string> Model::Answer(const Op& op,
                                  std::vector<double>* search_shard_us) {
  const paw::PrincipalId who = principal_id(op.principal);
  switch (op.kind) {
    case OpKind::kLineage: {
      const int shard = shard_of(op.spec);
      const paw::ExecutionEntry& ee = execution(op.spec, op.ordinal);
      PAW_ASSIGN_OR_RETURN(
          paw::LineageAnswer answer,
          engine(shard).Lineage(who, ee.id, paw::DataItemId(op.item)));
      paw::wire::LineageResponse resp;
      resp.zoom_steps = answer.zoom_steps;
      const paw::Specification& spec =
          repo(shard).entry(spec_id(op.spec)).spec;
      for (paw::WorkflowId w : answer.prefix) {
        resp.prefix_codes.push_back(spec.workflow(w).code);
      }
      resp.rows = std::move(answer.rows);
      return paw::wire::EncodeLineageResponse(resp);
    }
    case OpKind::kStructural: {
      const int shard = shard_of(op.spec);
      paw::StructuralPattern pattern;
      for (const std::string& term : op.terms) {
        pattern.vars.push_back(paw::NodePredicate{term});
      }
      pattern.edges.push_back(paw::PatternEdge{0, 1, true});
      PAW_ASSIGN_OR_RETURN(
          std::vector<paw::PatternMatch> matches,
          engine(shard).Structural(who, spec_id(op.spec), pattern));
      paw::wire::StructuralResponse resp;
      const paw::Specification& spec =
          repo(shard).entry(spec_id(op.spec)).spec;
      for (const paw::PatternMatch& match : matches) {
        std::vector<std::string> codes;
        for (paw::ModuleId m : match.binding) {
          codes.push_back(spec.module(m).code);
        }
        resp.matches.push_back(std::move(codes));
      }
      return paw::wire::EncodeStructuralResponse(resp);
    }
    case OpKind::kSearch: {
      std::vector<paw::wire::SearchHit> hits;
      for (int s = 0; s < kShards; ++s) {
        const auto start = std::chrono::steady_clock::now();
        auto answers = engine(s).Search(who, op.terms);
        if (search_shard_us != nullptr) {
          search_shard_us->push_back(MicrosSince(start));
        }
        PAW_RETURN_NOT_OK(answers.status());
        for (const paw::KeywordAnswer& answer : answers.value()) {
          const paw::SpecEntry* entry = engine(s).SpecEntryAt(answer.spec_id);
          if (entry == nullptr) continue;
          paw::wire::SearchHit hit;
          hit.spec_name = entry->spec.name();
          hit.score = answer.score;
          hit.view_size = answer.view_size;
          for (paw::ModuleId m : answer.matched) {
            hit.matched.push_back(entry->spec.module(m).code);
          }
          hits.push_back(std::move(hit));
        }
      }
      std::stable_sort(
          hits.begin(), hits.end(),
          [](const paw::wire::SearchHit& a, const paw::wire::SearchHit& b) {
            if (a.score != b.score) return a.score > b.score;
            return a.view_size < b.view_size;
          });
      paw::wire::SearchResponse resp;
      resp.hits = std::move(hits);
      return paw::wire::EncodeSearchResponse(resp);
    }
    case OpKind::kGetExecution: {
      const int shard = shard_of(op.spec);
      const paw::ExecutionEntry& ee = execution(op.spec, op.ordinal);
      PAW_ASSIGN_OR_RETURN(std::shared_ptr<const paw::MaskingReport> mask,
                           engine(shard).ExecutionMask(who, ee.id));
      const paw::Specification& spec =
          repo(shard).entry(spec_id(op.spec)).spec;
      paw::Execution masked(spec);
      for (const paw::ExecNode& node : ee.exec.nodes()) {
        masked.AddNode(node.kind, node.module, node.process_id,
                       node.enclosing);
      }
      for (const paw::DataItem& item : ee.exec.items()) {
        const bool visible =
            mask->visible[static_cast<size_t>(item.id.value())];
        masked.AddItem(item.label, item.producer,
                       visible ? item.value
                               : std::string(paw::kMaskedValue));
      }
      const paw::Digraph& g = ee.exec.graph();
      for (paw::NodeIndex u = 0; u < g.num_nodes(); ++u) {
        for (paw::NodeIndex v : g.OutNeighbors(u)) {
          (void)masked.AddFlow(paw::ExecNodeId(u), paw::ExecNodeId(v),
                               ee.exec.ItemsOn(paw::ExecNodeId(u),
                                               paw::ExecNodeId(v)));
        }
      }
      paw::wire::GetExecutionResponse resp;
      resp.exec_text = paw::SerializeExecution(masked);
      resp.num_masked = mask->num_masked;
      return paw::wire::EncodeGetExecutionResponse(resp);
    }
    case OpKind::kAddExecution:
      break;
  }
  return Status::InvalidArgument("Answer takes read ops only");
}

}  // namespace pawbench
