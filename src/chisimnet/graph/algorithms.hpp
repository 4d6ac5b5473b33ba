#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "chisimnet/graph/graph.hpp"

/// Graph analyses used in the paper's §V: degree sequences (Figs 3, 5),
/// local clustering coefficients (Fig 4), radius-limited ego networks and
/// induced subgraphs (Figs 1, 2), plus connected components.

namespace chisimnet::graph {

/// degrees()[v] is the (unweighted) vertex degree of v.
std::vector<std::uint64_t> degreeSequence(const Graph& graph);

/// Local clustering coefficient per vertex: the ratio of closed triangles
/// to connected triples centered on the vertex (Wasserman & Faust). By
/// convention vertices with degree < 2 get coefficient 0.
///
/// This and the two triangle functions below share one pass (see
/// detail::vertexTriangles) that finds each triangle once, on one thread
/// per core; its integer counts, and so every result, do not depend on
/// the thread count.
std::vector<double> localClusteringCoefficients(const Graph& graph);

/// Global transitivity: 3 x triangles / connected triples over the whole
/// graph (0 for triple-free graphs).
double globalTransitivity(const Graph& graph);

/// Total number of triangles in the graph.
std::uint64_t triangleCount(const Graph& graph);

namespace detail {

/// Triangles through each vertex, from degree-ordered forward enumeration
/// on `workers` threads: orient each edge from the lower to the higher
/// (degree, id) endpoint, and for each vertex u mark its out-neighbours;
/// a marked out-neighbour w of an out-neighbour v closes the triangle
/// (u, v, w), credited to all three corners.
std::vector<std::uint64_t> vertexTriangles(const Graph& graph,
                                           unsigned workers);

}  // namespace detail

/// All vertices within `radius` hops of `source` (including the source),
/// sorted ascending. Radius 0 yields just the source.
std::vector<Vertex> verticesWithinRadius(const Graph& graph, Vertex source,
                                         unsigned radius);

/// Induced subgraph over `vertices` (need not be sorted; duplicates
/// ignored). All edges between selected vertices are preserved, as are
/// their weights; subgraph labels are the parent graph's labels, so results
/// can still be joined back to person ids.
Graph inducedSubgraph(const Graph& graph, std::span<const Vertex> vertices);

/// Ego network: the induced subgraph on all vertices within `radius` of
/// `source` — the V = V1 ∪ V2 construction of paper §V.A for radius 2.
Graph egoNetwork(const Graph& graph, Vertex source, unsigned radius);

struct Components {
  std::vector<std::uint32_t> componentOf;  ///< per-vertex component id
  std::vector<std::uint64_t> sizes;        ///< per-component vertex count

  std::size_t count() const noexcept { return sizes.size(); }
  std::uint64_t giantSize() const noexcept;
};

/// Connected components via BFS.
Components connectedComponents(const Graph& graph);

/// k-core decomposition (Batagelj-Zaversnik peeling): coreOf[v] is the
/// largest k such that v belongs to a subgraph where every vertex has
/// degree >= k. A macro-structure summary complementing the degree
/// distribution: congregate places show up as deep cores.
std::vector<std::uint32_t> kCoreDecomposition(const Graph& graph);

/// Mean unweighted degree (0 for the empty graph).
double meanDegree(const Graph& graph);

}  // namespace chisimnet::graph
