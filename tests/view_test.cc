// Tests for prefix-defined views (paper Sec. 2): expansion, rerouting,
// and the exact full-expansion facts the paper states.

#include "src/workflow/view.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "src/common/random.h"
#include "src/graph/algorithms.h"
#include "src/repo/disease.h"
#include "src/repo/workload.h"

namespace paw {
namespace {

class ViewTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto spec = BuildDiseaseSpec();
    ASSERT_TRUE(spec.ok()) << spec.status().ToString();
    spec_ = std::move(spec).value();
    h_ = ExpansionHierarchy::Build(spec_);
  }

  WorkflowId W(const std::string& code) {
    return spec_.FindWorkflow(code).value();
  }
  ModuleId M(const std::string& code) {
    return spec_.FindModule(code).value();
  }

  std::vector<std::string> VisibleCodes(const SpecView& view) {
    std::vector<std::string> codes;
    for (ModuleId m : view.visible_modules()) {
      codes.push_back(spec_.module(m).code);
    }
    return codes;
  }

  bool HasEdge(const SpecView& view, const std::string& a,
               const std::string& b) {
    auto ia = view.IndexOf(M(a));
    auto ib = view.IndexOf(M(b));
    if (!ia.ok() || !ib.ok()) return false;
    return view.graph().HasEdge(ia.value(), ib.value());
  }

  Specification spec_;
  ExpansionHierarchy h_;
};

TEST_F(ViewTest, RootPrefixShowsTopLevel) {
  auto view = ExpandPrefix(spec_, h_, {W("W1")});
  ASSERT_TRUE(view.ok()) << view.status().ToString();
  EXPECT_EQ(VisibleCodes(view.value()),
            (std::vector<std::string>{"I", "M1", "M2", "O"}));
  EXPECT_TRUE(HasEdge(view.value(), "I", "M1"));
  EXPECT_TRUE(HasEdge(view.value(), "I", "M2"));
  EXPECT_TRUE(HasEdge(view.value(), "M1", "M2"));
  EXPECT_TRUE(HasEdge(view.value(), "M2", "O"));
  EXPECT_EQ(view.value().graph().num_edges(), 4);
}

TEST_F(ViewTest, PaperExamplePrefixW1W2) {
  // "{W1, W2} ... is the simple workflow obtained from W1 by replacing M1
  // with W2" -- M1 disappears; M3 and M4 appear; M2 stays collapsed.
  auto view = ExpandPrefix(spec_, h_, {W("W1"), W("W2")});
  ASSERT_TRUE(view.ok());
  auto codes = VisibleCodes(view.value());
  EXPECT_EQ(codes,
            (std::vector<std::string>{"I", "M3", "M4", "M2", "O"}));
  EXPECT_TRUE(HasEdge(view.value(), "I", "M3"));
  EXPECT_TRUE(HasEdge(view.value(), "M3", "M4"));
  EXPECT_TRUE(HasEdge(view.value(), "M4", "M2"));  // rerouted M1->M2
  EXPECT_TRUE(HasEdge(view.value(), "M2", "O"));
}

TEST_F(ViewTest, FullExpansionMatchesPaperProse) {
  // "the full expansion ... yields a workflow with module names I, O, M3,
  // and M5-M15 and whose edges include one from M3 to M5 and another from
  // M8 to M9."
  auto view = FullExpansion(spec_, h_);
  ASSERT_TRUE(view.ok());
  auto codes = VisibleCodes(view.value());
  std::sort(codes.begin(), codes.end());
  std::vector<std::string> expected{"I",   "M10", "M11", "M12", "M13",
                                    "M14", "M15", "M3",  "M5",  "M6",
                                    "M7",  "M8",  "M9",  "O"};
  EXPECT_EQ(codes, expected);
  EXPECT_TRUE(HasEdge(view.value(), "M3", "M5"));
  EXPECT_TRUE(HasEdge(view.value(), "M8", "M9"));
  EXPECT_TRUE(HasEdge(view.value(), "I", "M9"));
  EXPECT_TRUE(HasEdge(view.value(), "M15", "O"));
}

TEST_F(ViewTest, Figure5ViewPrefixW1W2W4) {
  // Fig. 5: M1 and M4 expanded, M2 collapsed.
  auto view = ExpandPrefix(spec_, h_, {W("W1"), W("W2"), W("W4")});
  ASSERT_TRUE(view.ok());
  auto codes = VisibleCodes(view.value());
  std::sort(codes.begin(), codes.end());
  EXPECT_EQ(codes, (std::vector<std::string>{"I", "M2", "M3", "M5", "M6",
                                             "M7", "M8", "O"}));
  EXPECT_TRUE(HasEdge(view.value(), "I", "M3"));
  EXPECT_TRUE(HasEdge(view.value(), "M3", "M5"));
  EXPECT_TRUE(HasEdge(view.value(), "M5", "M6"));
  EXPECT_TRUE(HasEdge(view.value(), "M5", "M7"));
  EXPECT_TRUE(HasEdge(view.value(), "M6", "M8"));
  EXPECT_TRUE(HasEdge(view.value(), "M7", "M8"));
  EXPECT_TRUE(HasEdge(view.value(), "M8", "M2"));
  EXPECT_TRUE(HasEdge(view.value(), "I", "M2"));
  EXPECT_TRUE(HasEdge(view.value(), "M2", "O"));
}

TEST_F(ViewTest, EdgeLabelsSurviveRerouting) {
  auto view = ExpandPrefix(spec_, h_, {W("W1"), W("W2")});
  ASSERT_TRUE(view.ok());
  NodeIndex m4 = view.value().IndexOf(M("M4")).value();
  NodeIndex m2 = view.value().IndexOf(M("M2")).value();
  EXPECT_EQ(view.value().EdgeLabels(m4, m2),
            (std::vector<std::string>{"disorders"}));
  NodeIndex i = view.value().IndexOf(M("I")).value();
  NodeIndex m3 = view.value().IndexOf(M("M3")).value();
  EXPECT_EQ(view.value().EdgeLabels(i, m3),
            (std::vector<std::string>{"SNPs", "ethnicity"}));
}

TEST_F(ViewTest, CollapsedFlagAndSubsumedAtomics) {
  auto view = ExpandPrefix(spec_, h_, {W("W1"), W("W2")});
  ASSERT_TRUE(view.ok());
  NodeIndex m2 = view.value().IndexOf(M("M2")).value();
  NodeIndex m4 = view.value().IndexOf(M("M4")).value();
  NodeIndex m3 = view.value().IndexOf(M("M3")).value();
  EXPECT_TRUE(view.value().IsCollapsed(m2));
  EXPECT_TRUE(view.value().IsCollapsed(m4));
  EXPECT_FALSE(view.value().IsCollapsed(m3));
  // M2 subsumes the seven W3 atomics.
  EXPECT_EQ(view.value().SubsumedAtomics(m2).size(), 7u);
  // M4 subsumes the four W4 atomics.
  EXPECT_EQ(view.value().SubsumedAtomics(m4).size(), 4u);
  EXPECT_EQ(view.value().SubsumedAtomics(m3),
            (std::vector<ModuleId>{M("M3")}));
}

TEST_F(ViewTest, InvalidPrefixRejected) {
  EXPECT_FALSE(ExpandPrefix(spec_, h_, {W("W2")}).ok());
  EXPECT_FALSE(ExpandPrefix(spec_, h_, {W("W1"), W("W4")}).ok());
}

TEST_F(ViewTest, IndexOfInvisibleModuleFails) {
  auto view = ExpandPrefix(spec_, h_, {W("W1")});
  ASSERT_TRUE(view.ok());
  EXPECT_TRUE(view.value().IndexOf(M("M5")).status().IsNotFound());
}

TEST_F(ViewTest, ViewGraphIsAcyclicForAllPrefixes) {
  auto prefixes = h_.EnumeratePrefixes();
  ASSERT_TRUE(prefixes.ok());
  for (const Prefix& p : prefixes.value()) {
    auto view = ExpandPrefix(spec_, h_, p);
    ASSERT_TRUE(view.ok());
    // Every view of a DAG hierarchy must stay a DAG (soundness of
    // prefix views, in contrast to ad-hoc clustering).
    EXPECT_TRUE(IsAcyclic(view.value().graph()));
  }
}

TEST_F(ViewTest, DotRenderingMentionsModules) {
  auto view = ExpandPrefix(spec_, h_, {W("W1")});
  ASSERT_TRUE(view.ok());
  std::string dot = view.value().ToDot("w1_view");
  EXPECT_NE(dot.find("digraph w1_view"), std::string::npos);
  EXPECT_NE(dot.find("M1"), std::string::npos);
  EXPECT_NE(dot.find("disorders"), std::string::npos);
}

TEST_F(ViewTest, VisibleModulesMatchExpandedViews) {
  auto prefixes = h_.EnumeratePrefixes();
  ASSERT_TRUE(prefixes.ok());
  for (const Prefix& p : prefixes.value()) {
    auto view = ExpandPrefix(spec_, h_, p);
    ASSERT_TRUE(view.ok());
    EXPECT_EQ(VisibleModules(spec_, p), view.value().visible_modules());
  }
}

TEST(VisibleModulesTest, MatchExpandedViewsOnGeneratedSpecs) {
  WorkloadParams params;
  params.composite_prob = 0.4;
  Rng rng(5);
  int checked = 0;
  for (int depth = 1; depth <= 3; ++depth) {
    params.depth = depth;
    for (int i = 0; i < 6; ++i) {
      auto spec = GenerateSpec(params, &rng, "gen");
      ASSERT_TRUE(spec.ok());
      ExpansionHierarchy h = ExpansionHierarchy::Build(spec.value());
      if (h.CountPrefixes(512) >= 512) continue;  // keep the walk cheap
      auto prefixes = h.EnumeratePrefixes();
      ASSERT_TRUE(prefixes.ok());
      for (const Prefix& p : prefixes.value()) {
        auto view = ExpandPrefix(spec.value(), h, p);
        ASSERT_TRUE(view.ok());
        EXPECT_EQ(VisibleModules(spec.value(), p),
                  view.value().visible_modules());
        ++checked;
      }
    }
  }
  EXPECT_GT(checked, 100);
}

}  // namespace
}  // namespace paw
