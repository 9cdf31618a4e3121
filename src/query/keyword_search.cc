#include "src/query/keyword_search.h"

#include <algorithm>
#include <cstdint>

#include "src/common/strings.h"

namespace paw {
namespace {

/// True iff every token of a term (`term_tokens`, from `Tokenize`) is
/// among the tokens of the module's name and keywords.
bool ModuleCovers(const Module& m,
                  const std::vector<std::string>& term_tokens) {
  for (const std::string& token : term_tokens) {
    if (HasToken(m.name, token)) continue;
    if (std::none_of(m.keywords.begin(), m.keywords.end(),
                     [&token](const std::string& k) {
                       return HasToken(k, token);
                     })) {
      return false;
    }
  }
  return true;
}

std::vector<std::vector<std::string>> TokenizeTerms(
    const std::vector<std::string>& terms) {
  std::vector<std::vector<std::string>> out;
  for (const std::string& term : terms) out.push_back(Tokenize(term));
  return out;
}

/// Prefixes admissible at `level`: every member, the root included, within
/// level.
bool PrefixAdmissible(const Specification& spec, const Prefix& prefix,
                      AccessLevel level) {
  for (WorkflowId w : prefix) {
    if (spec.workflow(w).required_level > level) return false;
  }
  return true;
}

/// Hierarchies with more workflows than this are never enumerated. It also
/// keeps every workflow id a bit of a `Mask`.
constexpr int kMaxExhaustiveWorkflows = 20;

/// A prefix as a set of workflow-id bits.
using Mask = uint32_t;

Mask Bit(WorkflowId w) { return Mask{1} << w.value(); }

/// A module covering some term, as the bits that decide its visibility:
/// it is visible iff its workflow is expanded and it is atomic or its
/// expansion is not (the Flattener's rule).
struct Cover {
  Mask workflow = 0;
  Mask expansion = 0;  // 0 for atomic and I/O modules
};

bool Covered(const std::vector<Cover>& covers, Mask prefix) {
  for (const Cover& c : covers) {
    if ((prefix & c.workflow) != 0 && (prefix & c.expansion) == 0) {
      return true;
    }
  }
  return false;
}

/// Appends every admissible prefix extending `mask` over `order[i..]`:
/// each workflow may join only once its parent has.
void EnumerateMasks(const ExpansionHierarchy& hierarchy,
                    const std::vector<WorkflowId>& order, size_t i, Mask mask,
                    std::vector<Mask>* out) {
  if (i == order.size()) {
    out->push_back(mask);
    return;
  }
  EnumerateMasks(hierarchy, order, i + 1, mask, out);
  if ((mask & Bit(hierarchy.Parent(order[i]))) != 0) {
    EnumerateMasks(hierarchy, order, i + 1, mask | Bit(order[i]), out);
  }
}

/// `EnumeratePrefixes` order: smaller first, then lexicographic over the
/// sorted members, which puts first the mask holding the lowest differing
/// bit.
bool MaskBefore(Mask a, Mask b) {
  int ca = __builtin_popcount(a);
  int cb = __builtin_popcount(b);
  if (ca != cb) return ca < cb;
  Mask diff = a ^ b;
  return (a & diff & (~diff + 1)) != 0;
}

}  // namespace

std::vector<ModuleId> MatchingModules(const Specification& spec,
                                      const SpecView& view,
                                      const std::string& term) {
  const std::vector<std::string> tokens = Tokenize(term);
  std::vector<ModuleId> out;
  for (ModuleId mid : view.visible_modules()) {
    if (ModuleCovers(spec.module(mid), tokens)) out.push_back(mid);
  }
  return out;
}

Result<std::vector<Prefix>> MinimalCoveringPrefixes(
    const Specification& spec, const ExpansionHierarchy& hierarchy,
    const std::vector<std::string>& terms, AccessLevel level,
    int max_enumerated) {
  // Size the lattice before enumerating it: too many workflows or
  // prefixes fall back to the greedy cover.
  const uint64_t cap =
      max_enumerated < 0 ? 0 : static_cast<uint64_t>(max_enumerated);
  if (hierarchy.size() > kMaxExhaustiveWorkflows ||
      hierarchy.CountPrefixes(cap + 1) > cap) {
    PAW_ASSIGN_OR_RETURN(Prefix greedy,
                         GreedyCoveringPrefix(spec, hierarchy, terms, level));
    return std::vector<Prefix>{greedy};
  }
  // Every prefix holds the root, so none is admissible without it.
  if (spec.workflow(hierarchy.root()).required_level > level) {
    return std::vector<Prefix>{};
  }
  // Admissible workflows, top-down; a prefix may use only these.
  std::vector<WorkflowId> order{hierarchy.root()};
  Mask admissible = 0;
  for (size_t i = 0; i < order.size(); ++i) {
    admissible |= Bit(order[i]);
    for (WorkflowId c : hierarchy.Children(order[i])) {
      if (spec.workflow(c).required_level <= level) order.push_back(c);
    }
  }
  // Per term, the admissible modules covering it. A minimal covering
  // prefix is the closure of one covering module's workflow per term, so
  // only those workflows and their ancestors (`relevant`) can be members
  // of one.
  const std::vector<std::vector<std::string>> term_tokens =
      TokenizeTerms(terms);
  std::vector<std::vector<Cover>> covers(terms.size());
  Mask relevant = Bit(hierarchy.root());
  for (const Module& m : spec.modules()) {
    if ((admissible & Bit(m.workflow)) == 0) continue;
    for (size_t t = 0; t < terms.size(); ++t) {
      if (!ModuleCovers(m, term_tokens[t])) continue;
      covers[t].push_back(Cover{
          Bit(m.workflow),
          m.kind == ModuleKind::kComposite ? Bit(m.expansion) : Mask{0}});
      for (WorkflowId w = m.workflow; (relevant & Bit(w)) == 0;
           w = hierarchy.Parent(w)) {
        relevant |= Bit(w);
      }
    }
  }
  for (const std::vector<Cover>& c : covers) {
    if (c.empty()) return std::vector<Prefix>{};
  }
  order.erase(std::remove_if(order.begin(), order.end(),
                             [relevant](WorkflowId w) {
                               return (relevant & Bit(w)) == 0;
                             }),
              order.end());
  // Walk the admissible lattice over those workflows smallest-first; a
  // covering prefix is kept only if no kept prefix is a subset of it.
  std::vector<Mask> lattice;
  EnumerateMasks(hierarchy, order, 1, Bit(hierarchy.root()), &lattice);
  std::sort(lattice.begin(), lattice.end(), MaskBefore);
  std::vector<Mask> minimal;
  for (Mask p : lattice) {
    bool dominated = std::any_of(minimal.begin(), minimal.end(),
                                 [p](Mask kept) { return (kept & ~p) == 0; });
    if (dominated) continue;
    bool covers_all = std::all_of(
        covers.begin(), covers.end(),
        [p](const std::vector<Cover>& c) { return Covered(c, p); });
    if (covers_all) minimal.push_back(p);
  }
  std::vector<Prefix> out;
  for (Mask p : minimal) {
    Prefix prefix;
    for (WorkflowId w : order) {
      if ((p & Bit(w)) != 0) prefix.insert(w);
    }
    out.push_back(std::move(prefix));
  }
  return out;
}

Result<Prefix> GreedyCoveringPrefix(const Specification& spec,
                                    const ExpansionHierarchy& hierarchy,
                                    const std::vector<std::string>& terms,
                                    AccessLevel level) {
  // Per term, the modules covering it.
  const std::vector<std::vector<std::string>> term_tokens =
      TokenizeTerms(terms);
  std::vector<std::vector<const Module*>> covers(terms.size());
  for (const Module& m : spec.modules()) {
    for (size_t t = 0; t < terms.size(); ++t) {
      if (ModuleCovers(m, term_tokens[t])) covers[t].push_back(&m);
    }
  }
  Prefix prefix = hierarchy.RootPrefix();
  // The Flattener's rule; `prefix` stays parent-closed.
  auto visible = [&prefix](const Module* m) {
    return prefix.count(m->workflow) != 0 &&
           (m->kind != ModuleKind::kComposite ||
            prefix.count(m->expansion) == 0);
  };
  for (int round = 0; round < spec.num_workflows() + 1; ++round) {
    // Find an uncovered term.
    size_t t = 0;
    while (t < terms.size() &&
           std::any_of(covers[t].begin(), covers[t].end(), visible)) {
      ++t;
    }
    if (t == terms.size()) return prefix;
    // Expand the shallowest admissible workflow containing a module that
    // covers the term.
    WorkflowId best;
    int best_depth = 1 << 30;
    for (const Module* m : covers[t]) {
      WorkflowId w = m->workflow;
      if (prefix.count(w)) continue;  // already expanded; placeholder issue
      // Admissibility of the whole ancestor chain.
      Prefix closed = hierarchy.Close({w});
      if (!PrefixAdmissible(spec, closed, level)) continue;
      if (hierarchy.Depth(w) < best_depth) {
        best_depth = hierarchy.Depth(w);
        best = w;
      }
    }
    if (!best.valid()) {
      return Status::NotFound("term '" + terms[t] +
                              "' cannot be covered at this access level");
    }
    Prefix closed = hierarchy.Close({best});
    prefix.insert(closed.begin(), closed.end());
  }
  return Status::Internal("greedy cover failed to converge");
}

Result<std::vector<KeywordAnswer>> KeywordSearch(
    const Repository& repo, const InvertedIndex* index,
    const TfIdfScorer* scorer, const std::vector<std::string>& terms,
    AccessLevel level, const KeywordSearchOptions& options) {
  return KeywordSearch(repo.View(), index, scorer, terms, level, options);
}

Result<std::vector<KeywordAnswer>> KeywordSearch(
    const RepositoryView& view, const InvertedIndex* index,
    const TfIdfScorer* scorer, const std::vector<std::string>& terms,
    AccessLevel level, const KeywordSearchOptions& options) {
  std::vector<int> candidates;
  if (options.use_index && index != nullptr) {
    candidates = index->CandidateSpecs(terms, level);
  } else {
    for (int s = 0; s < view.num_specs(); ++s) candidates.push_back(s);
  }

  const std::vector<std::vector<std::string>> term_tokens =
      TokenizeTerms(terms);
  std::vector<KeywordAnswer> answers;
  for (int s : candidates) {
    if (s >= view.num_specs()) continue;  // index ahead of the pinned cut
    const SpecEntry& entry = view.entry(s);
    auto minimal =
        MinimalCoveringPrefixes(entry.spec, entry.hierarchy, terms, level,
                                options.max_enumerated_prefixes);
    if (!minimal.ok()) continue;  // spec not coverable at this level
    for (const Prefix& p : minimal.value()) {
      const std::vector<ModuleId> visible = VisibleModules(entry.spec, p);
      KeywordAnswer answer;
      answer.spec_id = s;
      answer.prefix = p;
      answer.view_size = static_cast<int>(visible.size());
      for (const std::vector<std::string>& tokens : term_tokens) {
        for (ModuleId m : visible) {
          if (ModuleCovers(entry.spec.module(m), tokens) &&
              std::find(answer.matched.begin(), answer.matched.end(), m) ==
                  answer.matched.end()) {
            answer.matched.push_back(m);
          }
        }
      }
      if (answer.matched.empty()) continue;
      answer.score = scorer != nullptr
                         ? scorer->ScoreAnswer(entry.spec, answer.matched,
                                               terms)
                         : static_cast<double>(answer.matched.size());
      answers.push_back(std::move(answer));
    }
  }
  std::sort(answers.begin(), answers.end(),
            [](const KeywordAnswer& a, const KeywordAnswer& b) {
              if (a.score != b.score) return a.score > b.score;
              if (a.view_size != b.view_size) {
                return a.view_size < b.view_size;
              }
              return a.spec_id < b.spec_id;
            });
  if (static_cast<int>(answers.size()) > options.max_results) {
    answers.resize(static_cast<size_t>(options.max_results));
  }
  return answers;
}

}  // namespace paw
