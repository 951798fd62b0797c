//===- tests/ir_graph_test.cpp - Flattening and graph tests -----------------===//

#include "ir/StreamGraph.h"

#include <gtest/gtest.h>

#include "testing/TestGraphs.h"

using namespace sgpu;
using namespace sgpu::testing;

TEST(Flatten, PipelineShape) {
  StreamGraph G = makeScalePipeline();
  EXPECT_EQ(G.numNodes(), 3);
  EXPECT_EQ(G.numEdges(), 2);
  EXPECT_EQ(G.entryNode(), 0);
  EXPECT_EQ(G.exitNode(), 2);
  EXPECT_FALSE(G.validate().has_value()) << *G.validate();
}

TEST(Flatten, EdgeRatesFromFilters) {
  StreamGraph G = makeFig4Graph();
  ASSERT_EQ(G.numEdges(), 1);
  const ChannelEdge &E = G.edge(0);
  EXPECT_EQ(E.ProdRate, 2);
  EXPECT_EQ(E.ConsRate, 3);
  EXPECT_EQ(E.PeekRate, 3);
  EXPECT_EQ(E.InitTokens, 0);
}

TEST(Flatten, DuplicateSplitJoin) {
  StreamGraph G = makeDupSplitGraph();
  // __input identity (the splitter cannot read the program input
  // directly) + split + 2 branches + join + out filter.
  EXPECT_EQ(G.numNodes(), 6);
  EXPECT_EQ(G.numEdges(), 6);
  EXPECT_FALSE(G.validate().has_value()) << *G.validate();

  int Splitters = 0, Joiners = 0;
  for (const GraphNode &N : G.nodes()) {
    Splitters += N.isSplitter();
    Joiners += N.isJoiner();
  }
  EXPECT_EQ(Splitters, 1);
  EXPECT_EQ(Joiners, 1);
}

TEST(Flatten, RoundRobinWeights) {
  std::vector<StreamPtr> Branches;
  Branches.push_back(filterStream(makeScaleInt("L", 2)));
  Branches.push_back(filterStream(makeScaleInt("R", 3)));
  StreamGraph G =
      flatten(*roundRobinSplitJoin({4, 2}, std::move(Branches), {1, 1}));
  const GraphNode *Split = nullptr;
  for (const GraphNode &N : G.nodes())
    if (N.isSplitter())
      Split = &N;
  ASSERT_NE(Split, nullptr);
  EXPECT_EQ(Split->totalPopPerFiring(), 6);
  // Output edge 0 carries 4 tokens per splitter firing.
  EXPECT_EQ(G.edge(Split->OutEdges[0]).ProdRate, 4);
  EXPECT_EQ(G.edge(Split->OutEdges[1]).ProdRate, 2);
}

TEST(Flatten, FeedbackLoopHasInitTokens) {
  // Joiner merges input (w=1) with feedback (w=1); body scales by 2;
  // splitter sends 1 out, 1 back through the loop identity.
  StreamPtr Loop = feedbackLoopStream(
      {1, 1}, filterStream(makeScaleInt("Body", 2)), {1, 1},
      filterStream(makeScaleInt("LoopId", 1)), /*InitTokens=*/2);
  StreamGraph G = flatten(*Loop);
  EXPECT_FALSE(G.validate().has_value()) << *G.validate();

  bool FoundInit = false;
  for (const ChannelEdge &E : G.edges())
    if (E.InitTokens == 2)
      FoundInit = true;
  EXPECT_TRUE(FoundInit);
  ASSERT_TRUE(G.topologicalOrder().has_value());
}

TEST(Flatten, FeedbackLoopWithoutTokensDeadlocks) {
  StreamPtr Loop = feedbackLoopStream(
      {1, 1}, filterStream(makeScaleInt("Body", 2)), {1, 1},
      filterStream(makeScaleInt("LoopId", 1)), /*InitTokens=*/0);
  StreamGraph G = flatten(*Loop);
  EXPECT_FALSE(G.topologicalOrder().has_value());
}

TEST(StreamGraph, TopologicalOrderRespectsEdges) {
  StreamGraph G = makeDupSplitGraph();
  std::optional<std::vector<int>> Order = G.topologicalOrder();
  ASSERT_TRUE(Order.has_value());
  std::vector<int> Pos(G.numNodes());
  for (int I = 0; I < G.numNodes(); ++I)
    Pos[(*Order)[I]] = I;
  for (const ChannelEdge &E : G.edges())
    EXPECT_LT(Pos[E.Src], Pos[E.Dst]);
}

TEST(StreamGraph, SourceSinkQueries) {
  StreamGraph G = makeScalePipeline();
  EXPECT_EQ(G.sourceNodes(), std::vector<int>{0});
  EXPECT_EQ(G.sinkNodes(), std::vector<int>{2});
}

TEST(StreamGraph, CountsPeekingFilters) {
  std::vector<StreamPtr> Parts;
  Parts.push_back(filterStream(makeMovingSum("MS1", 4)));
  Parts.push_back(filterStream(makeOffsetFloat("Off", 1.0)));
  Parts.push_back(filterStream(makeMovingSum("MS2", 8)));
  StreamGraph G = flatten(*pipelineStream(std::move(Parts)));
  EXPECT_EQ(G.numFilterNodes(), 3);
  EXPECT_EQ(G.numPeekingFilters(), 2);
}

TEST(StreamGraph, DotOutput) {
  StreamGraph G = makeFig4Graph();
  std::string Dot = G.toDot("fig4");
  EXPECT_NE(Dot.find("digraph"), std::string::npos);
  EXPECT_NE(Dot.find("2:3"), std::string::npos);
  EXPECT_NE(Dot.find("pop 1 push 2"), std::string::npos);
}

TEST(StreamGraph, PeekRatePropagatesToEdge) {
  std::vector<StreamPtr> Parts;
  Parts.push_back(filterStream(makeOffsetFloat("Pre", 0.0)));
  Parts.push_back(filterStream(makeMovingSum("MS", 5)));
  StreamGraph G = flatten(*pipelineStream(std::move(Parts)));
  ASSERT_EQ(G.numEdges(), 1);
  EXPECT_EQ(G.edge(0).PeekRate, 5);
  EXPECT_EQ(G.edge(0).ConsRate, 1);
}
