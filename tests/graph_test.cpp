#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <map>
#include <numeric>
#include <sstream>
#include <string>

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
  // A dense universe is indexed through a table: ids past its end and
  // holes inside it are both rejected.
  const std::vector<std::uint32_t> dense{0, 1, 2, 3, 5, 6, 7};
  const std::vector<sparse::AdjacencyTriplet> past{{3, 12, 1}};
  const std::vector<sparse::AdjacencyTriplet> hole{{3, 4, 1}};
  EXPECT_THROW(Graph::fromTriplets(past, dense), std::invalid_argument);
  EXPECT_THROW(Graph::fromTriplets(hole, dense), std::invalid_argument);
}

/// CSR arrays of a graph, in the form both builds are compared in.
struct Csr {
  std::vector<std::uint64_t> offsets;
  std::vector<Vertex> neighbors;
  std::vector<Weight> weights;
  std::vector<std::uint32_t> labels;
};

Csr csrOf(const Graph& graph) {
  Csr csr;
  csr.offsets.push_back(0);
  for (Vertex v = 0; v < graph.vertexCount(); ++v) {
    csr.offsets.push_back(csr.offsets.back() + graph.degree(v));
    const auto row = graph.neighbors(v);
    const auto rowWeights = graph.edgeWeights(v);
    csr.neighbors.insert(csr.neighbors.end(), row.begin(), row.end());
    csr.weights.insert(csr.weights.end(), rowWeights.begin(),
                       rowWeights.end());
  }
  csr.labels.assign(graph.labels().begin(), graph.labels().end());
  return csr;
}

/// The CSR build as it stood before the counting build: canonicalize,
/// sort and merge a copy of the edges, scatter both directions, then sort
/// every row. The differential oracle for Graph::build.
Csr referenceBuild(std::vector<Edge> edges, std::vector<std::uint32_t> labels) {
  for (Edge& edge : edges) {
    if (edge.u > edge.v) {
      std::swap(edge.u, edge.v);
    }
  }
  std::sort(edges.begin(), edges.end(), [](const Edge& a, const Edge& b) {
    return a.u != b.u ? a.u < b.u : a.v < b.v;
  });
  std::vector<Edge> merged;
  for (const Edge& edge : edges) {
    if (!merged.empty() && merged.back().u == edge.u &&
        merged.back().v == edge.v) {
      merged.back().weight += edge.weight;
    } else {
      merged.push_back(edge);
    }
  }
  Csr csr;
  csr.labels = std::move(labels);
  const std::size_t n = csr.labels.size();
  csr.offsets.assign(n + 1, 0);
  for (const Edge& edge : merged) {
    ++csr.offsets[edge.u + 1];
    ++csr.offsets[edge.v + 1];
  }
  for (std::size_t v = 1; v <= n; ++v) {
    csr.offsets[v] += csr.offsets[v - 1];
  }
  csr.neighbors.resize(merged.size() * 2);
  csr.weights.resize(merged.size() * 2);
  std::vector<std::uint64_t> cursor(csr.offsets.begin(), csr.offsets.end() - 1);
  for (const Edge& edge : merged) {
    csr.neighbors[cursor[edge.u]] = edge.v;
    csr.weights[cursor[edge.u]++] = edge.weight;
    csr.neighbors[cursor[edge.v]] = edge.u;
    csr.weights[cursor[edge.v]++] = edge.weight;
  }
  for (std::size_t v = 0; v < n; ++v) {
    std::vector<std::pair<Vertex, Weight>> row;
    for (std::uint64_t i = csr.offsets[v]; i < csr.offsets[v + 1]; ++i) {
      row.emplace_back(csr.neighbors[i], csr.weights[i]);
    }
    std::sort(row.begin(), row.end());
    for (std::uint64_t i = csr.offsets[v]; i < csr.offsets[v + 1]; ++i) {
      csr.neighbors[i] = row[i - csr.offsets[v]].first;
      csr.weights[i] = row[i - csr.offsets[v]].second;
    }
  }
  return csr;
}

Csr referenceFromTriplets(std::span<const sparse::AdjacencyTriplet> triplets,
                          std::vector<std::uint32_t> labels) {
  std::sort(labels.begin(), labels.end());
  labels.erase(std::unique(labels.begin(), labels.end()), labels.end());
  std::vector<Edge> edges;
  for (const sparse::AdjacencyTriplet& triplet : triplets) {
    const auto compact = [&labels](std::uint32_t id) {
      return static_cast<Vertex>(
          std::lower_bound(labels.begin(), labels.end(), id) - labels.begin());
    };
    edges.push_back(
        Edge{compact(triplet.i), compact(triplet.j), triplet.weight});
  }
  return referenceBuild(std::move(edges), std::move(labels));
}

Csr referenceFromTriplets(std::span<const sparse::AdjacencyTriplet> triplets) {
  std::vector<std::uint32_t> labels;
  for (const sparse::AdjacencyTriplet& triplet : triplets) {
    labels.push_back(triplet.i);
    labels.push_back(triplet.j);
  }
  return referenceFromTriplets(triplets, std::move(labels));
}

void expectSameCsr(const Graph& graph, const Csr& reference,
                   const std::string& what) {
  const Csr built = csrOf(graph);
  EXPECT_EQ(built.offsets, reference.offsets) << what;
  EXPECT_EQ(built.neighbors, reference.neighbors) << what;
  EXPECT_EQ(built.weights, reference.weights) << what;
  EXPECT_EQ(built.labels, reference.labels) << what;
}

/// Random triplets over ids drawn by `id`, in random order, with some
/// endpoints swapped (i > j) and some triplets repeated.
template <class DrawId>
std::vector<sparse::AdjacencyTriplet> messyTriplets(util::Rng& rng,
                                                    std::size_t count,
                                                    DrawId drawId) {
  std::vector<sparse::AdjacencyTriplet> triplets;
  while (triplets.size() < count) {
    const std::uint32_t i = drawId();
    const std::uint32_t j = drawId();
    if (i == j) {
      continue;
    }
    triplets.push_back({i, j, 1 + rng.uniformBelow(100)});
    if (rng.uniformBelow(5) == 0) {
      triplets.push_back({j, i, 1 + rng.uniformBelow(100)});
    }
  }
  return triplets;
}

/// The same triplets with i < j, grouped by ascending i but in random
/// order, repeats included, within each row: canonical-looking until a
/// column steps back.
std::vector<sparse::AdjacencyTriplet> rowOrder(
    std::vector<sparse::AdjacencyTriplet> triplets, util::Rng& rng) {
  for (sparse::AdjacencyTriplet& triplet : triplets) {
    if (triplet.i > triplet.j) {
      std::swap(triplet.i, triplet.j);
    }
  }
  rng.shuffle(triplets);
  std::stable_sort(triplets.begin(), triplets.end(),
                   [](const sparse::AdjacencyTriplet& a,
                      const sparse::AdjacencyTriplet& b) { return a.i < b.i; });
  return triplets;
}

/// The same edges as CADJ stores them: i < j, strictly ascending, merged.
std::vector<sparse::AdjacencyTriplet> cadjOrder(
    std::vector<sparse::AdjacencyTriplet> triplets) {
  std::map<std::pair<std::uint32_t, std::uint32_t>, std::uint64_t> merged;
  for (const sparse::AdjacencyTriplet& triplet : triplets) {
    merged[{std::min(triplet.i, triplet.j), std::max(triplet.i, triplet.j)}] +=
        triplet.weight;
  }
  std::vector<sparse::AdjacencyTriplet> sorted;
  for (const auto& [pair, weight] : merged) {
    sorted.push_back({pair.first, pair.second, weight});
  }
  return sorted;
}

TEST(Graph, CountingBuildMatchesSortingBuild) {
  util::Rng rng(47);
  const auto denseId = [&rng] {
    return static_cast<std::uint32_t>(rng.uniformBelow(400));
  };
  // Mostly huge ids: the id table would not fit, so compaction sorts.
  const auto sparseId = [&rng] {
    return rng.uniformBelow(4) == 0
               ? static_cast<std::uint32_t>(rng.uniformBelow(50))
               : 0xFFFFFFF0u - static_cast<std::uint32_t>(rng.uniformBelow(60));
  };
  const std::vector<std::pair<std::string, std::vector<sparse::AdjacencyTriplet>>>
      inputs{{"empty", {}},
             {"dense ids, unsorted with duplicates",
              messyTriplets(rng, 3000, denseId)},
             {"sparse ids, unsorted with duplicates",
              messyTriplets(rng, 600, sparseId)}};
  for (const auto& [name, messy] : inputs) {
    for (const auto& [order, triplets] :
         {std::pair{"messy", messy}, std::pair{"rows", rowOrder(messy, rng)},
          std::pair{"cadj", cadjOrder(messy)}}) {
      const std::string what = name + " / " + order;
      expectSameCsr(Graph::fromTriplets(triplets),
                    referenceFromTriplets(triplets), what);
      // A shuffled universe with repeats and isolated vertices.
      std::vector<std::uint32_t> universe{7, 0xFFFFFFFEu, 7, 401, 3};
      for (const sparse::AdjacencyTriplet& triplet : triplets) {
        universe.push_back(triplet.j);
        universe.push_back(triplet.i);
      }
      rng.shuffle(universe);
      expectSameCsr(Graph::fromTriplets(triplets, universe),
                    referenceFromTriplets(triplets, universe),
                    what + " / universe");
    }
  }

  std::vector<Edge> edges;
  for (int k = 0; k < 2000; ++k) {
    const auto u = static_cast<Vertex>(rng.uniformBelow(300));
    const auto v = static_cast<Vertex>(rng.uniformBelow(300));
    if (u != v) {
      edges.push_back(Edge{u, v, 1 + rng.uniformBelow(9)});
    }
  }
  std::vector<std::uint32_t> identity(300);
  std::iota(identity.begin(), identity.end(), 0u);
  expectSameCsr(Graph::fromEdges(edges, 300), referenceBuild(edges, identity),
                "edges, unsorted with duplicates");
  std::map<std::pair<Vertex, Vertex>, Weight> merged;
  for (const Edge& edge : edges) {
    merged[{std::min(edge.u, edge.v), std::max(edge.u, edge.v)}] += edge.weight;
  }
  std::vector<Edge> canonical;
  for (const auto& [pair, weight] : merged) {
    canonical.push_back(Edge{pair.first, pair.second, weight});
  }
  expectSameCsr(Graph::fromEdges(canonical, 300),
                referenceBuild(canonical, identity), "edges, canonical");
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

/// Triangles through each vertex: its neighbour pairs joined by an edge.
std::vector<std::uint64_t> bruteForceTriangles(const Graph& graph) {
  std::vector<std::uint64_t> triangles(graph.vertexCount(), 0);
  for (Vertex v = 0; v < graph.vertexCount(); ++v) {
    const auto row = graph.neighbors(v);
    for (std::size_t a = 0; a < row.size(); ++a) {
      for (std::size_t b = a + 1; b < row.size(); ++b) {
        triangles[v] += graph.hasEdge(row[a], row[b]) ? 1 : 0;
      }
    }
  }
  return triangles;
}

/// Local clustering as computed before the oriented triangle kernel: a
/// sorted-list merge intersection along every directed edge, so each
/// triangle at v is seen twice. Pins the coefficients bit for bit.
std::vector<double> mergeIntersectionClustering(const Graph& graph) {
  std::vector<double> coefficients(graph.vertexCount(), 0.0);
  for (Vertex v = 0; v < graph.vertexCount(); ++v) {
    const std::uint64_t degree = graph.degree(v);
    if (degree < 2) {
      continue;
    }
    std::uint64_t closed = 0;
    for (Vertex neighbor : graph.neighbors(v)) {
      const auto a = graph.neighbors(v);
      const auto b = graph.neighbors(neighbor);
      std::size_t ia = 0;
      std::size_t ib = 0;
      while (ia < a.size() && ib < b.size()) {
        if (a[ia] < b[ib]) {
          ++ia;
        } else if (b[ib] < a[ia]) {
          ++ib;
        } else {
          ++closed;
          ++ia;
          ++ib;
        }
      }
    }
    const double triples = static_cast<double>(degree) *
                           static_cast<double>(degree - 1) / 2.0;
    coefficients[v] = static_cast<double>(closed) / 2.0 / triples;
  }
  return coefficients;
}

struct NamedGraph {
  std::string name;
  Graph graph;
};

/// Shapes that stress the orientation: nothing to orient, a hub whose
/// triangles all start at its leaves, a clique, degree ties everywhere
/// (a ring lattice), preferential-attachment hubs, and the ER seeds of
/// ClusteringProperty.
std::vector<NamedGraph> triangleCases() {
  std::vector<NamedGraph> cases;
  cases.push_back({"empty", Graph{}});
  cases.push_back({"isolated", Graph::fromEdges({}, 7)});
  std::vector<Edge> star;
  for (Vertex leaf = 1; leaf <= 40; ++leaf) {
    star.push_back(Edge{0, leaf, leaf});
  }
  for (Vertex leaf = 1; leaf + 1 <= 40; leaf += 3) {
    star.push_back(Edge{leaf, static_cast<Vertex>(leaf + 1), 1});
  }
  cases.push_back({"star", Graph::fromEdges(star, 41)});
  std::vector<Edge> clique;
  for (Vertex u = 0; u < 8; ++u) {
    for (Vertex v = u + 1; v < 8; ++v) {
      clique.push_back(Edge{u, v, 1});
    }
  }
  cases.push_back({"K8", Graph::fromEdges(clique, 8)});
  util::Rng rng(41);
  cases.push_back({"ring lattice", wattsStrogatz(64, 3, 0.0, rng)});
  cases.push_back({"barabasi-albert", barabasiAlbert(600, 4, rng)});
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    util::Rng erRng(seed);
    cases.push_back(
        {"ER seed " + std::to_string(seed), erdosRenyi(60, 240, erRng)});
  }
  return cases;
}

TEST(TriangleKernel, CountsMatchNeighbourPairOracle) {
  for (const NamedGraph& entry : triangleCases()) {
    const std::vector<std::uint64_t> oracle = bruteForceTriangles(entry.graph);
    EXPECT_EQ(detail::vertexTriangles(entry.graph, 1), oracle) << entry.name;
    std::uint64_t corners = 0;
    std::uint64_t triples = 0;
    for (Vertex v = 0; v < entry.graph.vertexCount(); ++v) {
      corners += oracle[v];
      const std::uint64_t degree = entry.graph.degree(v);
      triples += degree * (degree - 1) / 2;
    }
    ASSERT_EQ(corners % 3, 0u) << entry.name;
    EXPECT_EQ(triangleCount(entry.graph), corners / 3) << entry.name;
    EXPECT_EQ(globalTransitivity(entry.graph),
              triples == 0 ? 0.0
                           : 3.0 * static_cast<double>(corners / 3) /
                                 static_cast<double>(triples))
        << entry.name;
  }
}

TEST(TriangleKernel, ClusteringBitIdenticalToMergeIntersection) {
  for (const NamedGraph& entry : triangleCases()) {
    EXPECT_EQ(localClusteringCoefficients(entry.graph),
              mergeIntersectionClustering(entry.graph))
        << entry.name;
  }
}

TEST(TriangleKernel, CountsDoNotDependOnWorkerCount) {
  std::vector<NamedGraph> cases = triangleCases();
  util::Rng rng(43);
  cases.push_back({"large ER", erdosRenyi(3000, 60000, rng)});
  for (const NamedGraph& entry : cases) {
    EXPECT_EQ(detail::vertexTriangles(entry.graph, 4),
              detail::vertexTriangles(entry.graph, 1))
        << entry.name;
  }
}

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
