// Tests for transitive closure/reduction — the engine behind structural
// privacy metrics.

#include "src/graph/transitive.h"

#include <gtest/gtest.h>

#include "src/common/random.h"
#include "src/graph/algorithms.h"

namespace paw {
namespace {

Digraph Chain(int n) {
  Digraph g(n);
  for (int i = 0; i + 1 < n; ++i) EXPECT_TRUE(g.AddEdge(i, i + 1).ok());
  return g;
}

TEST(TransitiveTest, ChainClosure) {
  Digraph g = Chain(5);
  TransitiveClosure tc = TransitiveClosure::Compute(g);
  for (int i = 0; i < 5; ++i) {
    for (int j = 0; j < 5; ++j) {
      EXPECT_EQ(tc.Reaches(i, j), i < j) << i << "->" << j;
    }
  }
  EXPECT_EQ(tc.CountPairs(), 10);  // C(5,2)
}

TEST(TransitiveTest, RowOf) {
  Digraph g = Chain(4);
  TransitiveClosure tc = TransitiveClosure::Compute(g);
  EXPECT_EQ(tc.RowOf(1), (std::vector<NodeIndex>{2, 3}));
  EXPECT_TRUE(tc.RowOf(3).empty());
}

TEST(TransitiveTest, CyclicGraphSelfReach) {
  Digraph g(3);
  ASSERT_TRUE(g.AddEdge(0, 1).ok());
  ASSERT_TRUE(g.AddEdge(1, 2).ok());
  ASSERT_TRUE(g.AddEdge(2, 0).ok());
  TransitiveClosure tc = TransitiveClosure::Compute(g);
  EXPECT_TRUE(tc.Reaches(0, 0));
  EXPECT_TRUE(tc.Reaches(1, 0));
  EXPECT_TRUE(tc.Reaches(2, 1));
}

TEST(TransitiveTest, PairsMinus) {
  Digraph g = Chain(4);
  Digraph h = Chain(4);
  ASSERT_TRUE(h.RemoveEdge(1, 2).ok());
  TransitiveClosure tg = TransitiveClosure::Compute(g);
  TransitiveClosure th = TransitiveClosure::Compute(h);
  auto lost = tg.PairsMinus(th);
  ASSERT_TRUE(lost.ok());
  // 0->2, 0->3, 1->2, 1->3 lost.
  EXPECT_EQ(lost.value().size(), 4u);
  auto gained = th.PairsMinus(tg);
  ASSERT_TRUE(gained.ok());
  EXPECT_TRUE(gained.value().empty());
}

TEST(TransitiveTest, PairsMinusSizeMismatch) {
  TransitiveClosure a = TransitiveClosure::Compute(Chain(3));
  TransitiveClosure b = TransitiveClosure::Compute(Chain(4));
  EXPECT_FALSE(a.PairsMinus(b).ok());
}

TEST(TransitiveTest, ClosureMatchesBfsOnRandomDags) {
  Rng rng(99);
  for (int trial = 0; trial < 10; ++trial) {
    int n = 20;
    Digraph g(n);
    for (int i = 0; i < n; ++i) {
      for (int j = i + 1; j < n; ++j) {
        if (rng.Bernoulli(0.15)) {
          ASSERT_TRUE(g.AddEdge(i, j).ok());
        }
      }
    }
    TransitiveClosure tc = TransitiveClosure::Compute(g);
    for (int i = 0; i < n; ++i) {
      for (int j = 0; j < n; ++j) {
        if (i == j) continue;
        EXPECT_EQ(tc.Reaches(i, j), PathExists(g, i, j))
            << "trial " << trial << ": " << i << "->" << j;
      }
    }
  }
}

TEST(TransitiveTest, ReductionRemovesShortcut) {
  Digraph g = Chain(3);
  ASSERT_TRUE(g.AddEdge(0, 2).ok());  // redundant shortcut
  auto red = TransitiveReduction(g);
  ASSERT_TRUE(red.ok());
  EXPECT_EQ(red.value().num_edges(), 2);
  EXPECT_FALSE(red.value().HasEdge(0, 2));
}

TEST(TransitiveTest, ReductionPreservesClosure) {
  Rng rng(5);
  Digraph g(15);
  for (int i = 0; i < 15; ++i) {
    for (int j = i + 1; j < 15; ++j) {
      if (rng.Bernoulli(0.3)) {
        ASSERT_TRUE(g.AddEdge(i, j).ok());
      }
    }
  }
  auto red = TransitiveReduction(g);
  ASSERT_TRUE(red.ok());
  TransitiveClosure a = TransitiveClosure::Compute(g);
  TransitiveClosure b = TransitiveClosure::Compute(red.value());
  EXPECT_TRUE(a.PairsMinus(b).value().empty());
  EXPECT_TRUE(b.PairsMinus(a).value().empty());
  EXPECT_LE(red.value().num_edges(), g.num_edges());
}

TEST(TransitiveTest, ReductionRejectsCycles) {
  Digraph g(2);
  ASSERT_TRUE(g.AddEdge(0, 1).ok());
  ASSERT_TRUE(g.AddEdge(1, 0).ok());
  EXPECT_FALSE(TransitiveReduction(g).ok());
}

TEST(TransitiveTest, LargeGraphBitsetBoundary) {
  // Exercise the >64-node word boundary.
  Digraph g = Chain(130);
  TransitiveClosure tc = TransitiveClosure::Compute(g);
  EXPECT_TRUE(tc.Reaches(0, 129));
  EXPECT_TRUE(tc.Reaches(63, 64));
  EXPECT_TRUE(tc.Reaches(64, 128));
  EXPECT_FALSE(tc.Reaches(129, 0));
  EXPECT_EQ(tc.CountPairs(), 130 * 129 / 2);
}

}  // namespace
}  // namespace paw
