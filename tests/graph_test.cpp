#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "chisimnet/graph/algorithms.hpp"
#include "chisimnet/graph/generators.hpp"
#include "chisimnet/graph/graph.hpp"
#include "chisimnet/graph/io.hpp"
#include "chisimnet/graph/layout.hpp"
#include "chisimnet/util/rng.hpp"
#include "scratch_dir.hpp"

namespace chisimnet::graph {
namespace {

Graph triangleWithTail() {
  // 0-1-2 triangle plus 2-3 tail (labels are identity).
  const std::vector<Edge> edges{{0, 1, 1}, {1, 2, 2}, {0, 2, 3}, {2, 3, 4}};
  return Graph::fromEdges(edges, 4);
}

TEST(Graph, BasicAccessors) {
  const Graph graph = triangleWithTail();
  EXPECT_EQ(graph.vertexCount(), 4u);
  EXPECT_EQ(graph.edgeCount(), 4u);
  EXPECT_EQ(graph.degree(2), 3u);
  EXPECT_EQ(graph.degree(3), 1u);
  EXPECT_TRUE(graph.hasEdge(0, 1));
  EXPECT_TRUE(graph.hasEdge(1, 0));
  EXPECT_FALSE(graph.hasEdge(0, 3));
  EXPECT_EQ(graph.weightBetween(2, 3), 4u);
  EXPECT_EQ(graph.weightBetween(0, 3), 0u);
  EXPECT_EQ(graph.totalWeight(), 10u);
}

TEST(Graph, NeighborsSorted) {
  const Graph graph = triangleWithTail();
  for (Vertex v = 0; v < graph.vertexCount(); ++v) {
    const auto row = graph.neighbors(v);
    EXPECT_TRUE(std::is_sorted(row.begin(), row.end()));
  }
}

TEST(Graph, ParallelEdgesMergedBySummingWeights) {
  const std::vector<Edge> edges{{0, 1, 2}, {1, 0, 3}};
  const Graph graph = Graph::fromEdges(edges, 2);
  EXPECT_EQ(graph.edgeCount(), 1u);
  EXPECT_EQ(graph.weightBetween(0, 1), 5u);
}

TEST(Graph, SelfLoopRejected) {
  const std::vector<Edge> loop{{1, 1, 1}};
  EXPECT_THROW(Graph::fromEdges(loop, 2), std::invalid_argument);
}

TEST(Graph, FromTripletsCompactsLabels) {
  const std::vector<sparse::AdjacencyTriplet> triplets{
      {100, 500, 2}, {100, 900, 1}};
  const Graph graph = Graph::fromTriplets(triplets);
  EXPECT_EQ(graph.vertexCount(), 3u);
  EXPECT_EQ(graph.label(0), 100u);
  EXPECT_EQ(graph.label(1), 500u);
  EXPECT_EQ(graph.label(2), 900u);
  ASSERT_TRUE(graph.vertexForLabel(500).has_value());
  EXPECT_EQ(*graph.vertexForLabel(500), 1u);
  EXPECT_FALSE(graph.vertexForLabel(123).has_value());
  EXPECT_EQ(graph.weightBetween(0, 1), 2u);
}

TEST(Graph, FromTripletsWithUniverseKeepsIsolated) {
  const std::vector<sparse::AdjacencyTriplet> triplets{{10, 20, 1}};
  const std::vector<std::uint32_t> universe{10, 20, 30};
  const Graph graph = Graph::fromTriplets(triplets, universe);
  EXPECT_EQ(graph.vertexCount(), 3u);
  EXPECT_EQ(graph.degree(*graph.vertexForLabel(30)), 0u);
}

TEST(Graph, FromTripletsMissingLabelRejected) {
  const std::vector<sparse::AdjacencyTriplet> triplets{{10, 99, 1}};
  const std::vector<std::uint32_t> universe{10, 20};
  EXPECT_THROW(Graph::fromTriplets(triplets, universe), std::invalid_argument);
}

TEST(Algorithms, DegreeSequence) {
  const Graph graph = triangleWithTail();
  EXPECT_EQ(degreeSequence(graph),
            (std::vector<std::uint64_t>{2, 2, 3, 1}));
  EXPECT_DOUBLE_EQ(meanDegree(graph), 2.0);
}

TEST(Algorithms, ClusteringOnKnownGraph) {
  const Graph graph = triangleWithTail();
  const auto coefficients = localClusteringCoefficients(graph);
  EXPECT_DOUBLE_EQ(coefficients[0], 1.0);  // both neighbors connected
  EXPECT_DOUBLE_EQ(coefficients[1], 1.0);
  EXPECT_DOUBLE_EQ(coefficients[2], 1.0 / 3.0);  // one of three pairs closed
  EXPECT_DOUBLE_EQ(coefficients[3], 0.0);        // degree 1
}

TEST(Algorithms, CompleteGraphFullyClustered) {
  std::vector<Edge> edges;
  const Vertex n = 8;
  for (Vertex u = 0; u < n; ++u) {
    for (Vertex v = u + 1; v < n; ++v) {
      edges.push_back(Edge{u, v, 1});
    }
  }
  const Graph complete = Graph::fromEdges(edges, n);
  EXPECT_EQ(triangleCount(complete), 56u);  // C(8,3)
  EXPECT_DOUBLE_EQ(globalTransitivity(complete), 1.0);
  for (double c : localClusteringCoefficients(complete)) {
    EXPECT_DOUBLE_EQ(c, 1.0);
  }
}

/// O(n^3) reference clustering for the property sweep.
std::vector<double> bruteForceClustering(const Graph& graph) {
  std::vector<double> coefficients(graph.vertexCount(), 0.0);
  for (Vertex v = 0; v < graph.vertexCount(); ++v) {
    const auto row = graph.neighbors(v);
    if (row.size() < 2) {
      continue;
    }
    std::uint64_t closed = 0;
    for (std::size_t a = 0; a < row.size(); ++a) {
      for (std::size_t b = a + 1; b < row.size(); ++b) {
        closed += graph.hasEdge(row[a], row[b]) ? 1 : 0;
      }
    }
    coefficients[v] = static_cast<double>(closed) /
                      (static_cast<double>(row.size()) *
                       static_cast<double>(row.size() - 1) / 2.0);
  }
  return coefficients;
}

class ClusteringProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ClusteringProperty, MatchesBruteForceOnRandomGraphs) {
  util::Rng rng(GetParam());
  const Graph graph = erdosRenyi(60, 240, rng);
  const auto fast = localClusteringCoefficients(graph);
  const auto reference = bruteForceClustering(graph);
  ASSERT_EQ(fast.size(), reference.size());
  for (std::size_t v = 0; v < fast.size(); ++v) {
    EXPECT_NEAR(fast[v], reference[v], 1e-12) << "vertex " << v;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ClusteringProperty,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

TEST(Algorithms, VerticesWithinRadius) {
  // Path 0-1-2-3-4.
  std::vector<Edge> edges;
  for (Vertex v = 0; v + 1 < 5; ++v) {
    edges.push_back(Edge{v, static_cast<Vertex>(v + 1), 1});
  }
  const Graph path = Graph::fromEdges(edges, 5);
  EXPECT_EQ(verticesWithinRadius(path, 0, 0), (std::vector<Vertex>{0}));
  EXPECT_EQ(verticesWithinRadius(path, 0, 2), (std::vector<Vertex>{0, 1, 2}));
  EXPECT_EQ(verticesWithinRadius(path, 2, 2),
            (std::vector<Vertex>{0, 1, 2, 3, 4}));
}

TEST(Algorithms, EgoNetworkPreservesInternalEdges) {
  const Graph graph = triangleWithTail();
  const Graph ego = egoNetwork(graph, 0, 1);  // 0 + neighbors {1, 2}
  EXPECT_EQ(ego.vertexCount(), 3u);
  EXPECT_EQ(ego.edgeCount(), 3u);  // the full triangle, incl. edge 1-2
  EXPECT_EQ(ego.weightBetween(*ego.vertexForLabel(1), *ego.vertexForLabel(2)),
            2u);
}

TEST(Algorithms, InducedSubgraphKeepsIsolatedVertices) {
  const Graph graph = triangleWithTail();
  const std::vector<Vertex> pick{0, 3};  // no edge between them
  const Graph sub = inducedSubgraph(graph, pick);
  EXPECT_EQ(sub.vertexCount(), 2u);
  EXPECT_EQ(sub.edgeCount(), 0u);
}

TEST(Algorithms, ConnectedComponents) {
  // Two components: triangle {0,1,2} and edge {3,4}; isolated 5.
  const std::vector<Edge> edges{{0, 1, 1}, {1, 2, 1}, {0, 2, 1}, {3, 4, 1}};
  const Graph graph = Graph::fromEdges(edges, 6);
  const Components components = connectedComponents(graph);
  EXPECT_EQ(components.count(), 3u);
  EXPECT_EQ(components.giantSize(), 3u);
  EXPECT_EQ(components.componentOf[0], components.componentOf[2]);
  EXPECT_NE(components.componentOf[0], components.componentOf[3]);
}

TEST(Generators, ErdosRenyiExactEdgeCount) {
  util::Rng rng(11);
  const Graph graph = erdosRenyi(100, 350, rng);
  EXPECT_EQ(graph.vertexCount(), 100u);
  EXPECT_EQ(graph.edgeCount(), 350u);
}

TEST(Generators, ErdosRenyiRejectsImpossible) {
  util::Rng rng(1);
  EXPECT_THROW(erdosRenyi(3, 10, rng), std::invalid_argument);
}

TEST(Generators, BarabasiAlbertDegreesAndTail) {
  util::Rng rng(13);
  const Graph graph = barabasiAlbert(2000, 3, rng);
  EXPECT_EQ(graph.vertexCount(), 2000u);
  // Every non-seed vertex attaches with >= 3 edges.
  std::uint64_t maxDegree = 0;
  for (Vertex v = 0; v < graph.vertexCount(); ++v) {
    EXPECT_GE(graph.degree(v), 3u);
    maxDegree = std::max(maxDegree, graph.degree(v));
  }
  // Preferential attachment grows hubs far beyond the minimum.
  EXPECT_GT(maxDegree, 30u);
}

TEST(Generators, WattsStrogatzZeroBetaIsLattice) {
  util::Rng rng(17);
  const Graph graph = wattsStrogatz(50, 2, 0.0, rng);
  for (Vertex v = 0; v < graph.vertexCount(); ++v) {
    EXPECT_EQ(graph.degree(v), 4u);
  }
  // Ring lattice with k=2 has transitivity 0.5.
  EXPECT_NEAR(globalTransitivity(graph), 0.5, 1e-9);
}

TEST(Generators, WattsStrogatzRewiringLowersClustering) {
  util::Rng rng(19);
  const Graph ordered = wattsStrogatz(400, 3, 0.0, rng);
  const Graph rewired = wattsStrogatz(400, 3, 0.9, rng);
  EXPECT_EQ(ordered.edgeCount(), rewired.edgeCount());
  EXPECT_GT(globalTransitivity(ordered), globalTransitivity(rewired) + 0.1);
}

class IoTest : public ::testing::Test {
 protected:
  testutil::ScratchDir scratch_;
  const std::filesystem::path dir_ = scratch_.path();
};

std::string slurp(const std::filesystem::path& path) {
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

TEST_F(IoTest, EdgeListHasOneLinePerEdge) {
  const Graph graph = triangleWithTail();
  const auto path = dir_ / "g.tsv";
  writeEdgeListTsv(graph, path);
  const std::string content = slurp(path);
  EXPECT_EQ(std::count(content.begin(), content.end(), '\n'), 4);
  EXPECT_NE(content.find("2\t3\t4"), std::string::npos);
}

TEST_F(IoTest, GraphMlContainsNodesEdgesAndDegrees) {
  const Graph graph = triangleWithTail();
  const auto path = dir_ / "g.graphml";
  writeGraphMl(graph, path);
  const std::string content = slurp(path);
  EXPECT_NE(content.find("<graphml"), std::string::npos);
  EXPECT_NE(content.find("<node id=\"n0\">"), std::string::npos);
  EXPECT_NE(content.find("attr.name=\"degree\""), std::string::npos);
  // 5 header lines + 4 nodes + 4 edges + 2 closing lines.
  EXPECT_EQ(std::count(content.begin(), content.end(), '\n'), 5 + 4 + 4 + 2);
}

TEST_F(IoTest, DotOutputParses) {
  const Graph graph = triangleWithTail();
  const auto path = dir_ / "g.dot";
  writeDot(graph, path);
  const std::string content = slurp(path);
  EXPECT_NE(content.find("graph G {"), std::string::npos);
  EXPECT_NE(content.find("0 -- 1"), std::string::npos);
}

TEST(Layout, PositionsFiniteAndClustersCloser) {
  // Two triangles joined by one bridge edge: layout should place
  // intra-triangle pairs closer than the triangles' centroids.
  const std::vector<Edge> edges{{0, 1, 5}, {1, 2, 5}, {0, 2, 5},
                                {3, 4, 5}, {4, 5, 5}, {3, 5, 5},
                                {2, 3, 1}};
  const Graph graph = Graph::fromEdges(edges, 6);
  util::Rng rng(23);
  LayoutOptions options;
  options.iterations = 300;
  const auto positions = forceAtlas2Layout(graph, options, rng);
  ASSERT_EQ(positions.size(), 6u);
  for (const Point& point : positions) {
    EXPECT_TRUE(std::isfinite(point.x));
    EXPECT_TRUE(std::isfinite(point.y));
  }
  const auto distance = [&positions](Vertex a, Vertex b) {
    const double dx = positions[a].x - positions[b].x;
    const double dy = positions[a].y - positions[b].y;
    return std::sqrt(dx * dx + dy * dy);
  };
  EXPECT_LT(distance(0, 1), distance(0, 4));
  EXPECT_LT(distance(3, 5), distance(1, 5));
}

TEST_F(IoTest, SvgRendererWritesValidFile) {
  const Graph graph = triangleWithTail();
  util::Rng rng(29);
  const auto positions = forceAtlas2Layout(graph, LayoutOptions{}, rng);
  const auto path = dir_ / "g.svg";
  writeSvg(graph, positions, path);
  const std::string content = slurp(path);
  EXPECT_NE(content.find("<svg"), std::string::npos);
  EXPECT_EQ(std::count(content.begin(), content.end(), '\n'),
            // header+rect+2 group opens+4 edges+4 nodes+2 group closes+close
            2 + 2 + 4 + 4 + 2 + 1);
}

TEST(Layout, EmptyGraph) {
  const Graph graph;
  util::Rng rng(1);
  EXPECT_TRUE(forceAtlas2Layout(graph, LayoutOptions{}, rng).empty());
}

}  // namespace
}  // namespace chisimnet::graph
