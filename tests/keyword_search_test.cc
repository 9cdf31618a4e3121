// Tests for keyword search with minimal views — including the exact
// Fig. 5 reproduction.

#include "src/query/keyword_search.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "src/common/random.h"
#include "src/common/strings.h"
#include "src/repo/disease.h"
#include "src/repo/workload.h"

namespace paw {
namespace {

class KeywordSearchTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto spec = BuildDiseaseSpec();
    ASSERT_TRUE(spec.ok());
    ASSERT_TRUE(
        repo_.AddSpecification(std::move(spec).value(), DiseasePolicy())
            .ok());
    index_.Build(repo_);
    scorer_.Build(index_);
  }

  const Specification& spec() { return repo_.entry(0).spec; }
  const ExpansionHierarchy& hierarchy() {
    return repo_.entry(0).hierarchy;
  }
  WorkflowId W(const std::string& code) {
    return spec().FindWorkflow(code).value();
  }

  Repository repo_;
  InvertedIndex index_;
  TfIdfScorer scorer_;
};

TEST_F(KeywordSearchTest, Fig5MinimalViewForDatabaseQueriesDisorderRisk) {
  // The Fig. 5 query: the terms force expansion down to W4 (which holds
  // "Generate Database Queries") while M2 covers "disorder risk" as a
  // collapsed placeholder -> minimal view {W1, W2, W4}.
  auto minimal = MinimalCoveringPrefixes(
      spec(), hierarchy(), {"database queries", "disorder risk"},
      /*level=*/2);
  ASSERT_TRUE(minimal.ok()) << minimal.status().ToString();
  ASSERT_EQ(minimal.value().size(), 1u);
  EXPECT_EQ(minimal.value()[0], (Prefix{W("W1"), W("W2"), W("W4")}));
}

TEST_F(KeywordSearchTest, PlaceholderCoverageKeepsViewsSmall) {
  // "databases" matches the *composite* M4 placeholder already at
  // {W1, W2}: minimal view stops there.
  auto minimal = MinimalCoveringPrefixes(
      spec(), hierarchy(), {"external databases"}, /*level=*/2);
  ASSERT_TRUE(minimal.ok());
  ASSERT_EQ(minimal.value().size(), 1u);
  EXPECT_EQ(minimal.value()[0], (Prefix{W("W1"), W("W2")}));
}

TEST_F(KeywordSearchTest, RootTermNeedsNoExpansion) {
  auto minimal = MinimalCoveringPrefixes(
      spec(), hierarchy(), {"genetic susceptibility"}, /*level=*/2);
  ASSERT_TRUE(minimal.ok());
  ASSERT_EQ(minimal.value().size(), 1u);
  EXPECT_EQ(minimal.value()[0], (Prefix{W("W1")}));
}

TEST_F(KeywordSearchTest, AccessLevelPrunesAnswers) {
  // "omim" lives in W4 (level 2); a level-0 observer gets nothing.
  auto minimal =
      MinimalCoveringPrefixes(spec(), hierarchy(), {"omim"}, /*level=*/0);
  ASSERT_TRUE(minimal.ok());
  EXPECT_TRUE(minimal.value().empty());
  auto minimal2 =
      MinimalCoveringPrefixes(spec(), hierarchy(), {"omim"}, /*level=*/2);
  ASSERT_TRUE(minimal2.ok());
  EXPECT_EQ(minimal2.value().size(), 1u);
}

TEST_F(KeywordSearchTest, MultipleIncomparableMinimalViews) {
  // "reformat" is in W3; "expand snp" in W2: one minimal view needs both.
  auto minimal = MinimalCoveringPrefixes(
      spec(), hierarchy(), {"reformat", "expand snp"}, /*level=*/2);
  ASSERT_TRUE(minimal.ok());
  ASSERT_EQ(minimal.value().size(), 1u);
  EXPECT_EQ(minimal.value()[0], (Prefix{W("W1"), W("W2"), W("W3")}));
}

TEST_F(KeywordSearchTest, UncoverableTermYieldsNoViews) {
  auto minimal = MinimalCoveringPrefixes(
      spec(), hierarchy(), {"quantum chromodynamics"}, /*level=*/2);
  ASSERT_TRUE(minimal.ok());
  EXPECT_TRUE(minimal.value().empty());
}

TEST_F(KeywordSearchTest, GreedyCoverAgreesOnPaperQuery) {
  auto greedy = GreedyCoveringPrefix(
      spec(), hierarchy(), {"database queries", "disorder risk"},
      /*level=*/2);
  ASSERT_TRUE(greedy.ok()) << greedy.status().ToString();
  EXPECT_EQ(greedy.value(), (Prefix{W("W1"), W("W2"), W("W4")}));
}

TEST_F(KeywordSearchTest, GreedyRejectsUncoverable) {
  auto greedy = GreedyCoveringPrefix(spec(), hierarchy(),
                                     {"no such term"}, /*level=*/2);
  EXPECT_FALSE(greedy.ok());
}

TEST_F(KeywordSearchTest, RepositorySearchRanksAndFilters) {
  auto answers = KeywordSearch(repo_, &index_, &scorer_,
                               {"database queries", "disorder risk"},
                               /*level=*/2);
  ASSERT_TRUE(answers.ok());
  ASSERT_EQ(answers.value().size(), 1u);
  const KeywordAnswer& a = answers.value()[0];
  EXPECT_EQ(a.spec_id, 0);
  EXPECT_EQ(a.prefix, (Prefix{W("W1"), W("W2"), W("W4")}));
  EXPECT_GT(a.score, 0);
  // Matched modules include M5 and M2.
  std::vector<std::string> codes;
  for (ModuleId m : a.matched) codes.push_back(spec().module(m).code);
  EXPECT_NE(std::find(codes.begin(), codes.end(), "M5"), codes.end());
  EXPECT_NE(std::find(codes.begin(), codes.end(), "M2"), codes.end());
}

TEST_F(KeywordSearchTest, SearchWithoutIndexScansEverything) {
  KeywordSearchOptions options;
  options.use_index = false;
  auto answers = KeywordSearch(repo_, nullptr, &scorer_, {"reformat"},
                               /*level=*/2, options);
  ASSERT_TRUE(answers.ok());
  EXPECT_EQ(answers.value().size(), 1u);
}

TEST_F(KeywordSearchTest, LevelZeroSeesOnlyRootAnswers) {
  auto answers =
      KeywordSearch(repo_, &index_, &scorer_, {"disorder risk"},
                    /*level=*/0);
  ASSERT_TRUE(answers.ok());
  ASSERT_EQ(answers.value().size(), 1u);
  EXPECT_EQ(answers.value()[0].prefix, (Prefix{W("W1")}));
}

// ---- Differential test against the view-building search ----
//
// The reference below is the direct search: it enumerates the whole prefix
// lattice, builds the view of every admissible, undominated prefix and
// scans its visible modules for each term; its greedy cover builds a view
// per round. The library walks the lattice as workflow bitmasks and checks
// coverage against per-term lists of covering modules instead; both must
// give the same answers in the same order.

namespace reference {

bool ViewCovers(const Specification& spec, const SpecView& view,
                const std::vector<std::string>& terms) {
  for (const std::string& term : terms) {
    if (MatchingModules(spec, view, term).empty()) return false;
  }
  return true;
}

bool PrefixAdmissible(const Specification& spec, const Prefix& prefix,
                      AccessLevel level) {
  for (WorkflowId w : prefix) {
    if (spec.workflow(w).required_level > level) return false;
  }
  return true;
}

Result<Prefix> GreedyCoveringPrefix(const Specification& spec,
                                    const ExpansionHierarchy& hierarchy,
                                    const std::vector<std::string>& terms,
                                    AccessLevel level) {
  Prefix prefix = hierarchy.RootPrefix();
  for (int round = 0; round < spec.num_workflows() + 1; ++round) {
    PAW_ASSIGN_OR_RETURN(SpecView view,
                         ExpandPrefix(spec, hierarchy, prefix));
    std::string uncovered;
    for (const std::string& term : terms) {
      if (MatchingModules(spec, view, term).empty()) {
        uncovered = term;
        break;
      }
    }
    if (uncovered.empty()) return prefix;
    WorkflowId best;
    int best_depth = 1 << 30;
    for (const Module& m : spec.modules()) {
      std::vector<std::string> bag = Tokenize(m.name);
      for (const std::string& k : m.keywords) {
        for (const std::string& t : Tokenize(k)) bag.push_back(t);
      }
      if (!TokensContainPhrase(bag, uncovered)) continue;
      WorkflowId w = m.workflow;
      if (prefix.count(w)) continue;
      if (!PrefixAdmissible(spec, hierarchy.Close({w}), level)) continue;
      if (hierarchy.Depth(w) < best_depth) {
        best_depth = hierarchy.Depth(w);
        best = w;
      }
    }
    if (!best.valid()) {
      return Status::NotFound("term '" + uncovered +
                              "' cannot be covered at this access level");
    }
    Prefix closed = hierarchy.Close({best});
    prefix.insert(closed.begin(), closed.end());
  }
  return Status::Internal("greedy cover failed to converge");
}

/// `lattice` is `hierarchy.EnumeratePrefixes(20)`, computed once per spec
/// by the caller because a lattice over the cap takes 0.1 s to build.
Result<std::vector<Prefix>> MinimalCoveringPrefixes(
    const Specification& spec, const ExpansionHierarchy& hierarchy,
    const Result<std::vector<Prefix>>& lattice,
    const std::vector<std::string>& terms, AccessLevel level,
    int max_enumerated) {
  if (!lattice.ok() ||
      static_cast<int>(lattice.value().size()) > max_enumerated) {
    PAW_ASSIGN_OR_RETURN(
        Prefix greedy,
        reference::GreedyCoveringPrefix(spec, hierarchy, terms, level));
    return std::vector<Prefix>{greedy};
  }
  std::vector<Prefix> minimal;
  for (const Prefix& p : lattice.value()) {
    if (!PrefixAdmissible(spec, p, level)) continue;
    bool dominated = false;
    for (const Prefix& kept : minimal) {
      if (std::includes(p.begin(), p.end(), kept.begin(), kept.end())) {
        dominated = true;
        break;
      }
    }
    if (dominated) continue;
    PAW_ASSIGN_OR_RETURN(SpecView view, ExpandPrefix(spec, hierarchy, p));
    if (ViewCovers(spec, view, terms)) minimal.push_back(p);
  }
  return minimal;
}

Result<std::vector<KeywordAnswer>> KeywordSearch(
    const RepositoryView& view, const InvertedIndex* index,
    const TfIdfScorer* scorer,
    const std::vector<Result<std::vector<Prefix>>>& lattices,
    const std::vector<std::string>& terms, AccessLevel level,
    const KeywordSearchOptions& options) {
  std::vector<int> candidates;
  if (options.use_index && index != nullptr) {
    candidates = index->CandidateSpecs(terms, level);
  } else {
    for (int s = 0; s < view.num_specs(); ++s) candidates.push_back(s);
  }
  std::vector<KeywordAnswer> answers;
  for (int s : candidates) {
    if (s >= view.num_specs()) continue;
    const SpecEntry& entry = view.entry(s);
    auto minimal = MinimalCoveringPrefixes(
        entry.spec, entry.hierarchy, lattices[static_cast<size_t>(s)], terms,
        level, options.max_enumerated_prefixes);
    if (!minimal.ok()) continue;
    for (const Prefix& p : minimal.value()) {
      PAW_ASSIGN_OR_RETURN(SpecView sv,
                           ExpandPrefix(entry.spec, entry.hierarchy, p));
      KeywordAnswer answer;
      answer.spec_id = s;
      answer.prefix = p;
      answer.view_size = static_cast<int>(sv.num_visible());
      for (const std::string& term : terms) {
        for (ModuleId m : MatchingModules(entry.spec, sv, term)) {
          if (std::find(answer.matched.begin(), answer.matched.end(), m) ==
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

}  // namespace reference

std::string Describe(const std::vector<std::string>& terms,
                     AccessLevel level) {
  std::string out = "level " + std::to_string(level) + ", terms";
  for (const std::string& t : terms) out += " '" + t + "'";
  return out;
}

/// Generated specs at depths 1-4 (pawbench's tenant shape at depth 3),
/// plus the vocabulary their queries draw from.
class DifferentialTest : public ::testing::Test {
 protected:
  static constexpr int kCap = 4096;

  void SetUp() override {
    WorkloadParams params;
    params.modules_per_workflow = 5;
    params.composite_prob = 0.4;
    params.vocabulary = 40;
    Rng rng(1405);
    for (int depth = 1; depth <= 4; ++depth) {
      params.depth = depth;
      for (int i = 0; i < 10; ++i) {
        auto spec = GenerateSpec(params, &rng,
                                 "spec" + std::to_string(repo_.num_specs()));
        ASSERT_TRUE(spec.ok()) << spec.status().ToString();
        ASSERT_TRUE(repo_.AddSpecification(std::move(spec).value()).ok());
      }
    }
    index_.Build(repo_);
    scorer_.Build(index_);
    for (int s = 0; s < repo_.num_specs(); ++s) {
      const ExpansionHierarchy& h = repo_.entry(s).hierarchy;
      lattices_.push_back(h.EnumeratePrefixes(20));
      if (h.size() > 20) {
        ++too_many_workflows_;
      } else if (lattices_.back().value().size() > kCap) {
        ++over_cap_;
      }
    }
  }

  /// 1-3 query terms for `spec`: module keywords, module codes (a
  /// composite's code is covered only by its collapsed placeholder),
  /// multi-token phrases, and a word no module has.
  std::vector<std::string> DrawTerms(const Specification& spec, Rng* rng) {
    std::vector<std::string> tokens;
    std::vector<std::string> composite_codes;
    for (const Module& m : spec.modules()) {
      for (const std::string& k : m.keywords) tokens.push_back(k);
      if (m.kind == ModuleKind::kComposite) {
        composite_codes.push_back(Tokenize(m.code).front());
      } else if (m.kind == ModuleKind::kAtomic) {
        tokens.push_back(Tokenize(m.code).front());
      }
    }
    auto pick = [rng](const std::vector<std::string>& from) {
      return from[static_cast<size_t>(rng->Uniform(from.size()))];
    };
    std::vector<std::string> terms;
    int num_terms = static_cast<int>(rng->UniformInt(1, 3));
    for (int i = 0; i < num_terms; ++i) {
      switch (rng->Uniform(6)) {
        case 0:
          terms.push_back(composite_codes.empty() ? pick(tokens)
                                                  : pick(composite_codes));
          break;
        case 1:
          terms.push_back(pick(tokens) + " " + pick(tokens));
          break;
        case 2:
          terms.push_back("step " + (composite_codes.empty()
                                         ? pick(tokens)
                                         : pick(composite_codes)));
          break;
        case 3:
          terms.push_back(rng->Bernoulli(0.5) ? "nosuchword" : "step");
          break;
        default:
          terms.push_back(pick(tokens));
      }
    }
    return terms;
  }

  Repository repo_;
  InvertedIndex index_;
  TfIdfScorer scorer_;
  std::vector<Result<std::vector<Prefix>>> lattices_;
  int too_many_workflows_ = 0;
  int over_cap_ = 0;
};

TEST_F(DifferentialTest, MinimalCoveringPrefixesMatchViewBuildingSearch) {
  // The generated set reaches both fallbacks.
  EXPECT_GT(too_many_workflows_, 0);
  EXPECT_GT(over_cap_, 0);
  Rng rng(77);
  int cases = 0;
  int nonempty = 0;
  for (int s = 0; s < repo_.num_specs(); ++s) {
    const SpecEntry& entry = repo_.entry(s);
    for (int q = 0; q < 12; ++q) {
      std::vector<std::string> terms = DrawTerms(entry.spec, &rng);
      // Level -1 is below the root's level 0: no prefix is admissible.
      for (AccessLevel level = -1; level <= 3; ++level) {
        auto want = reference::MinimalCoveringPrefixes(
            entry.spec, entry.hierarchy, lattices_[static_cast<size_t>(s)],
            terms, level, kCap);
        auto got = MinimalCoveringPrefixes(entry.spec, entry.hierarchy,
                                           terms, level, kCap);
        ++cases;
        ASSERT_EQ(got.ok(), want.ok())
            << entry.spec.name() << " " << Describe(terms, level);
        if (!want.ok()) {
          EXPECT_EQ(got.status().code(), want.status().code());
          continue;
        }
        EXPECT_EQ(got.value(), want.value())
            << entry.spec.name() << " " << Describe(terms, level);
        if (!want.value().empty()) ++nonempty;
      }
    }
  }
  EXPECT_GT(nonempty, cases / 4);
}

TEST_F(DifferentialTest, SmallCapsFallBackLikeTheReference) {
  // Caps below the lattice size take the greedy path in both.
  Rng rng(78);
  for (int s = 0; s < repo_.num_specs(); ++s) {
    const SpecEntry& entry = repo_.entry(s);
    std::vector<std::string> terms = DrawTerms(entry.spec, &rng);
    for (int cap : {-1, 0, 1, 6, 64}) {
      for (AccessLevel level = 0; level <= 3; ++level) {
        auto want = reference::MinimalCoveringPrefixes(
            entry.spec, entry.hierarchy, lattices_[static_cast<size_t>(s)],
            terms, level, cap);
        auto got = MinimalCoveringPrefixes(entry.spec, entry.hierarchy,
                                           terms, level, cap);
        ASSERT_EQ(got.ok(), want.ok())
            << entry.spec.name() << " cap " << cap << " "
            << Describe(terms, level);
        if (!want.ok()) {
          EXPECT_EQ(got.status().ToString(), want.status().ToString());
          continue;
        }
        EXPECT_EQ(got.value(), want.value())
            << entry.spec.name() << " cap " << cap << " "
            << Describe(terms, level);
      }
    }
  }
}

TEST_F(DifferentialTest, KeywordSearchAnswersMatchFieldByField) {
  Rng rng(79);
  RepositoryView view = repo_.View();
  int answers = 0;
  for (int q = 0; q < 8; ++q) {
    const Specification& spec =
        repo_.entry(static_cast<int>(rng.Uniform(
                        static_cast<uint64_t>(repo_.num_specs()))))
            .spec;
    std::vector<std::string> terms = DrawTerms(spec, &rng);
    for (AccessLevel level = 0; level <= 3; ++level) {
      // The full scan costs the reference a lattice walk per spec; one
      // level of it per query is enough to cover specs the index prunes.
      for (bool use_index : {true, false}) {
        if (!use_index && level != q % 4) continue;
        KeywordSearchOptions options;
        options.use_index = use_index;
        options.max_results = 1000;
        auto want = reference::KeywordSearch(view, &index_, &scorer_,
                                             lattices_, terms, level,
                                             options);
        auto got =
            KeywordSearch(view, &index_, &scorer_, terms, level, options);
        ASSERT_TRUE(want.ok());
        ASSERT_TRUE(got.ok());
        ASSERT_EQ(got.value().size(), want.value().size())
            << Describe(terms, level);
        for (size_t i = 0; i < want.value().size(); ++i) {
          const KeywordAnswer& g = got.value()[i];
          const KeywordAnswer& w = want.value()[i];
          EXPECT_EQ(g.spec_id, w.spec_id) << Describe(terms, level);
          EXPECT_EQ(g.prefix, w.prefix) << Describe(terms, level);
          EXPECT_EQ(g.matched, w.matched) << Describe(terms, level);
          EXPECT_EQ(g.view_size, w.view_size) << Describe(terms, level);
          EXPECT_EQ(g.score, w.score) << Describe(terms, level);
        }
        answers += static_cast<int>(want.value().size());
      }
    }
  }
  EXPECT_GT(answers, 0);
}

}  // namespace
}  // namespace paw
