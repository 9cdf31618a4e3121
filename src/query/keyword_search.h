#ifndef PAW_QUERY_KEYWORD_SEARCH_H_
#define PAW_QUERY_KEYWORD_SEARCH_H_

/// \file keyword_search.h
/// \brief Keyword search returning minimal views (paper Sec. 4, Fig. 5,
/// following the semantics of [7]).
///
/// The answer to a keyword query over a hierarchical specification is a
/// *minimal view*: a prefix of the expansion hierarchy whose visible
/// modules cover every query term, such that no smaller prefix does. A
/// term is covered by a visible module when every token of the term
/// appears among the module's name/keyword tokens. Composite placeholders
/// can cover terms too — which is what makes coverage non-monotone in the
/// prefix lattice and the enumeration necessary.
///
/// Privacy integration: only workflows whose `required_level` is within
/// the caller's level may be expanded, so answers never reveal structure
/// beyond the caller's access view.

#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/index/inverted_index.h"
#include "src/query/ranking.h"
#include "src/repo/repository.h"
#include "src/workflow/view.h"

namespace paw {

/// \brief One keyword answer: a ranked minimal view of one spec.
struct KeywordAnswer {
  int spec_id = -1;
  Prefix prefix;
  /// Modules (visible in the view) that matched the terms.
  std::vector<ModuleId> matched;
  /// Number of visible modules in the view (answer size).
  int view_size = 0;
  double score = 0;
};

/// \brief Options for keyword search.
struct KeywordSearchOptions {
  int max_results = 10;
  /// Cap on the prefix-lattice enumeration per spec; specs with larger
  /// lattices fall back to the greedy cover.
  int max_enumerated_prefixes = 4096;
  /// Prune candidate specs through the inverted index first.
  bool use_index = true;
};

/// \brief All minimal covering prefixes of one specification at one
/// access level, smallest first.
///
/// Exhaustive over the prefix lattice for hierarchies of at most 20
/// workflows and `max_enumerated` prefixes; otherwise the single greedy
/// cover (`GreedyCoveringPrefix`). The lattice is sized in O(workflows)
/// before anything is enumerated. The walk works on workflow bitmasks and
/// visits only the workflows holding a covering module and their
/// ancestors. Coverage comes from per-term lists of covering modules, each
/// module matched once per term; no view is built.
Result<std::vector<Prefix>> MinimalCoveringPrefixes(
    const Specification& spec, const ExpansionHierarchy& hierarchy,
    const std::vector<std::string>& terms, AccessLevel level,
    int max_enumerated = 4096);

/// \brief Greedy cover fallback for large hierarchies: expand, for each
/// uncovered term, the shallowest admissible workflow containing a match.
/// Like the exhaustive search it checks coverage against per-term lists of
/// covering modules and builds no view.
Result<Prefix> GreedyCoveringPrefix(const Specification& spec,
                                    const ExpansionHierarchy& hierarchy,
                                    const std::vector<std::string>& terms,
                                    AccessLevel level);

/// \brief Search over a pinned view: prune specs via `index` (if given),
/// compute minimal views, rank with TF-IDF (ties: smaller views first).
/// An answer's matched modules and view size come from the prefix's
/// visible modules (`VisibleModules`); no view graph is built.
/// The index must cover at least the view's cut; candidates beyond the
/// cut are skipped, so an index slightly ahead of the view is safe.
Result<std::vector<KeywordAnswer>> KeywordSearch(
    const RepositoryView& view, const InvertedIndex* index,
    const TfIdfScorer* scorer, const std::vector<std::string>& terms,
    AccessLevel level, const KeywordSearchOptions& options = {});

/// \brief Repository-wide search over the current contents (captures a
/// view internally; quiescent or single-writer callers only).
Result<std::vector<KeywordAnswer>> KeywordSearch(
    const Repository& repo, const InvertedIndex* index,
    const TfIdfScorer* scorer, const std::vector<std::string>& terms,
    AccessLevel level, const KeywordSearchOptions& options = {});

/// \brief The modules of `view` that cover `term` (helper shared with
/// pawctl and tests).
std::vector<ModuleId> MatchingModules(const Specification& spec,
                                      const SpecView& view,
                                      const std::string& term);

}  // namespace paw

#endif  // PAW_QUERY_KEYWORD_SEARCH_H_
