// Tests for the expansion hierarchy (paper Fig. 3) and its prefixes.

#include "src/workflow/hierarchy.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>

#include "src/common/random.h"
#include "src/repo/disease.h"
#include "src/repo/workload.h"
#include "src/workflow/builder.h"

namespace paw {
namespace {

class HierarchyTest : public ::testing::Test {
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

  Specification spec_;
  ExpansionHierarchy h_;
};

TEST_F(HierarchyTest, Figure3Shape) {
  // W1 -> {W2, W3}, W2 -> {W4}: the consistent reconstruction of Fig. 3.
  EXPECT_EQ(h_.root(), W("W1"));
  EXPECT_EQ(h_.Children(W("W1")),
            (std::vector<WorkflowId>{W("W2"), W("W3")}));
  EXPECT_EQ(h_.Children(W("W2")), (std::vector<WorkflowId>{W("W4")}));
  EXPECT_TRUE(h_.Children(W("W3")).empty());
  EXPECT_TRUE(h_.Children(W("W4")).empty());
  EXPECT_EQ(h_.Parent(W("W4")), W("W2"));
  EXPECT_EQ(h_.Parent(W("W2")), W("W1"));
  EXPECT_FALSE(h_.Parent(W("W1")).valid());
}

TEST_F(HierarchyTest, Depths) {
  EXPECT_EQ(h_.Depth(W("W1")), 0);
  EXPECT_EQ(h_.Depth(W("W2")), 1);
  EXPECT_EQ(h_.Depth(W("W3")), 1);
  EXPECT_EQ(h_.Depth(W("W4")), 2);
  EXPECT_EQ(h_.Height(), 2);
}

TEST_F(HierarchyTest, PrefixValidity) {
  EXPECT_TRUE(h_.IsValidPrefix({W("W1")}));
  EXPECT_TRUE(h_.IsValidPrefix({W("W1"), W("W2")}));
  EXPECT_TRUE(h_.IsValidPrefix({W("W1"), W("W2"), W("W4")}));
  // Missing the root.
  EXPECT_FALSE(h_.IsValidPrefix({W("W2")}));
  // W4 without its parent W2.
  EXPECT_FALSE(h_.IsValidPrefix({W("W1"), W("W4")}));
  EXPECT_FALSE(h_.IsValidPrefix({}));
}

TEST_F(HierarchyTest, CloseAddsAncestors) {
  Prefix closed = h_.Close({W("W4")});
  EXPECT_EQ(closed, (Prefix{W("W1"), W("W2"), W("W4")}));
  EXPECT_TRUE(h_.IsValidPrefix(closed));
  EXPECT_EQ(h_.Close({}), h_.RootPrefix());
}

TEST_F(HierarchyTest, EnumeratePrefixesOfPaperExample) {
  auto prefixes = h_.EnumeratePrefixes();
  ASSERT_TRUE(prefixes.ok());
  // Prefixes of Fig. 3: {W1}, {W1,W2}, {W1,W3}, {W1,W2,W3}, {W1,W2,W4},
  // {W1,W2,W3,W4} -- six in total.
  EXPECT_EQ(prefixes.value().size(), 6u);
  for (const Prefix& p : prefixes.value()) {
    EXPECT_TRUE(h_.IsValidPrefix(p));
  }
  // Smallest first.
  EXPECT_EQ(prefixes.value().front(), h_.RootPrefix());
  EXPECT_EQ(prefixes.value().back(), h_.FullPrefix());
}

TEST_F(HierarchyTest, CountPrefixesOfPaperExample) {
  EXPECT_EQ(h_.CountPrefixes(), 6u);
  // Saturates at the cap.
  EXPECT_EQ(h_.CountPrefixes(6), 6u);
  EXPECT_EQ(h_.CountPrefixes(5), 5u);
  EXPECT_EQ(h_.CountPrefixes(1), 1u);
}

TEST_F(HierarchyTest, AccessPrefixRespectsLevels) {
  // Disease spec levels: W1=0, W2=1, W3=1, W4=2.
  EXPECT_EQ(h_.AccessPrefix(spec_, 0), (Prefix{W("W1")}));
  EXPECT_EQ(h_.AccessPrefix(spec_, 1),
            (Prefix{W("W1"), W("W2"), W("W3")}));
  EXPECT_EQ(h_.AccessPrefix(spec_, 2), h_.FullPrefix());
  EXPECT_EQ(h_.AccessPrefix(spec_, 99), h_.FullPrefix());
}

TEST(HierarchySingleTest, SingleWorkflow) {
  SpecBuilder b("single");
  WorkflowId w = b.AddWorkflow("W1", "top");
  ModuleId i = b.AddInput(w);
  ModuleId o = b.AddOutput(w);
  ASSERT_TRUE(b.Connect(i, o, {"x"}).ok());
  auto spec = std::move(b).Build();
  ASSERT_TRUE(spec.ok());
  ExpansionHierarchy h = ExpansionHierarchy::Build(spec.value());
  EXPECT_EQ(h.Height(), 0);
  EXPECT_EQ(h.size(), 1);
  auto prefixes = h.EnumeratePrefixes();
  ASSERT_TRUE(prefixes.ok());
  EXPECT_EQ(prefixes.value().size(), 1u);
}

TEST(HierarchyCountTest, CountMatchesEnumerationOnGeneratedSpecs) {
  WorkloadParams params;
  params.composite_prob = 0.4;
  Rng rng(2011);
  int checked = 0;
  for (int depth = 1; depth <= 3; ++depth) {
    params.depth = depth;
    for (int i = 0; i < 12; ++i) {
      auto spec = GenerateSpec(params, &rng, "gen");
      ASSERT_TRUE(spec.ok()) << spec.status().ToString();
      ExpansionHierarchy h = ExpansionHierarchy::Build(spec.value());
      if (h.size() > 16) continue;  // keep the enumeration cheap
      auto prefixes = h.EnumeratePrefixes();
      ASSERT_TRUE(prefixes.ok());
      const uint64_t n = prefixes.value().size();
      EXPECT_EQ(h.CountPrefixes(), n) << "workflows " << h.size();
      EXPECT_EQ(h.CountPrefixes(n), n);
      EXPECT_EQ(h.CountPrefixes(n - 1), n - 1);
      ++checked;
    }
  }
  EXPECT_GT(checked, 20);
}

TEST(HierarchyCountTest, WideTreeSaturatesInsteadOfOverflowing) {
  // A root with 100 composite children, each expanding to a workflow with
  // one composite child of its own: 3^100 prefixes, far past uint64_t.
  SpecBuilder b("wide");
  WorkflowId root = b.AddWorkflow("W0", "top");
  ModuleId in = b.AddInput(root);
  ModuleId prev = in;
  for (int i = 0; i < 100; ++i) {
    std::string n = std::to_string(i);
    ModuleId m = b.AddModule(root, "C" + n, "composite " + n, {});
    ASSERT_TRUE(b.Connect(prev, m, {"d" + n}).ok());
    prev = m;
    WorkflowId mid = b.AddWorkflow("A" + n, "middle " + n);
    ASSERT_TRUE(b.MakeComposite(m, mid).ok());
    ModuleId inner = b.AddModule(mid, "D" + n, "inner " + n, {});
    WorkflowId leaf = b.AddWorkflow("B" + n, "leaf " + n);
    ASSERT_TRUE(b.MakeComposite(inner, leaf).ok());
    b.AddModule(leaf, "E" + n, "atomic " + n, {});
  }
  ModuleId out = b.AddOutput(root);
  ASSERT_TRUE(b.Connect(prev, out, {"out"}).ok());
  auto spec = std::move(b).Build();
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  ExpansionHierarchy h = ExpansionHierarchy::Build(spec.value());
  ASSERT_EQ(h.size(), 201);
  EXPECT_EQ(h.CountPrefixes(), std::numeric_limits<uint64_t>::max());
  EXPECT_EQ(h.CountPrefixes(4097), 4097u);
  EXPECT_FALSE(h.EnumeratePrefixes().ok());
}

}  // namespace
}  // namespace paw
