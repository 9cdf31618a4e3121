#ifndef PAWBENCH_SRC_MODEL_H_
#define PAWBENCH_SRC_MODEL_H_

/// \file model.h
/// \brief In-process mirror of a 4-shard pawd over the generated corpus.
///
/// Specs route to shards exactly as `ShardedRepository` routes them, each
/// shard has its own `Repository` + `QueryEngine`, and principals are
/// registered in pawd's order. Two uses:
///
///  - the correctness reference: with `view_cache = false` it renders
///    the wire answer pawd must give for an op, encoded with the same
///    `wire::Encode*Response` the server uses, so answers compare byte
///    for byte;
///  - the traced run's single-threaded replay of the op stream through
///    the query, privacy, provenance and index layers.

#include <memory>
#include <string>
#include <vector>

#include "pawbench/src/corpus.h"
#include "src/common/status.h"
#include "src/privacy/access_control.h"
#include "src/privacy/view_cache.h"
#include "src/query/engine.h"
#include "src/repo/repository.h"

namespace pawbench {

/// pawd's shard count in every workload.
inline constexpr int kShards = 4;

class Model {
 public:
  struct Options {
    /// Memoize views like pawd does (replay); off for the reference.
    bool view_cache = false;
    /// Cache the engines memoize into when `view_cache` is on.
    paw::PrivacyViewCache* cache = nullptr;
  };

  /// Loads the corpus's specs and its whole preload, in preload order.
  static paw::Result<std::unique_ptr<Model>> Build(const Corpus& corpus,
                                                   Options options);

  Model(const Model&) = delete;
  Model& operator=(const Model&) = delete;

  /// The encoded wire response payload pawd sends for read `op`.
  /// `search_shard_us`, when given, receives each shard engine's
  /// `Search` time for a search op (the server runs them one by one).
  paw::Result<std::string> Answer(const Op& op,
                                  std::vector<double>* search_shard_us =
                                      nullptr);

  /// Parses and appends the ADD_EXECUTION of `op`.
  paw::Status Add(const Op& op);

  int shard_of(int spec) const { return spec_shard_[static_cast<size_t>(spec)]; }
  int spec_id(int spec) const { return spec_id_[static_cast<size_t>(spec)]; }
  paw::Repository& repo(int shard) { return *repos_[static_cast<size_t>(shard)]; }
  paw::QueryEngine& engine(int shard) {
    return *engines_[static_cast<size_t>(shard)];
  }
  const paw::AccessControl& acl() const { return acl_; }
  paw::PrincipalId principal_id(int index) const {
    return principal_ids_[static_cast<size_t>(index)];
  }
  /// Execution entry of ordinal `ordinal` of spec `spec`.
  const paw::ExecutionEntry& execution(int spec, int ordinal) const;

 private:
  Model(const Corpus& corpus, Options options);

  const Corpus& corpus_;
  std::vector<std::unique_ptr<paw::Repository>> repos_;
  paw::AccessControl acl_;
  std::vector<std::unique_ptr<paw::QueryEngine>> engines_;
  std::vector<paw::PrincipalId> principal_ids_;
  std::vector<int> spec_shard_;
  std::vector<int> spec_id_;
  /// Per spec, execution ids (in its shard) by ordinal.
  std::vector<std::vector<paw::ExecutionId>> ordinals_;
};

}  // namespace pawbench

#endif  // PAWBENCH_SRC_MODEL_H_
