#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "chisimnet/sparse/adjacency.hpp"

/// Undirected weighted graph in CSR form (the iGraph substitute).
///
/// The collocation network is built from the sparse triangular adjacency
/// matrix (paper §IV-V): vertices are persons, edge weights are collocated
/// person-hours. Vertex ids are compacted to [0, n); the original person ids
/// are retained as labels so analyses can join back to demographic data.
/// Neighbor lists are sorted by vertex id, which hasEdge/weightBetween
/// rely on for binary search.

namespace chisimnet::graph {

using Vertex = std::uint32_t;
using Weight = std::uint64_t;

struct Edge {
  Vertex u = 0;
  Vertex v = 0;
  Weight weight = 1;
};

class Graph {
 public:
  Graph() = default;

  /// Builds from upper-triangular adjacency triplets; vertex labels are the
  /// person ids appearing in the triplets, compacted in ascending order.
  static Graph fromTriplets(std::span<const sparse::AdjacencyTriplet> triplets);

  /// Same, but over an explicit vertex universe: `vertexLabels` lists every
  /// vertex (by original id) that must exist, including isolated ones;
  /// every triplet endpoint must be in the list.
  static Graph fromTriplets(std::span<const sparse::AdjacencyTriplet> triplets,
                            std::span<const std::uint32_t> vertexLabels);

  /// Builds from explicit edges over compact vertex ids [0, vertexCount).
  /// Parallel edges are merged by summing weights; self-loops are rejected.
  static Graph fromEdges(std::span<const Edge> edges, Vertex vertexCount);

  Vertex vertexCount() const noexcept {
    return static_cast<Vertex>(offsets_.empty() ? 0 : offsets_.size() - 1);
  }
  std::uint64_t edgeCount() const noexcept { return neighbors_.size() / 2; }

  std::span<const Vertex> neighbors(Vertex v) const {
    return {neighbors_.data() + offsets_[v], neighbors_.data() + offsets_[v + 1]};
  }
  std::span<const Weight> edgeWeights(Vertex v) const {
    return {weights_.data() + offsets_[v], weights_.data() + offsets_[v + 1]};
  }

  std::uint64_t degree(Vertex v) const {
    return offsets_[v + 1] - offsets_[v];
  }

  /// Sum of all edge weights (each undirected edge counted once).
  Weight totalWeight() const noexcept;

  bool hasEdge(Vertex u, Vertex v) const noexcept;

  /// Weight of edge (u, v), or 0 when absent.
  Weight weightBetween(Vertex u, Vertex v) const noexcept;

  /// Original id (e.g. person id) of compact vertex v.
  std::uint32_t label(Vertex v) const { return labels_[v]; }
  std::span<const std::uint32_t> labels() const noexcept { return labels_; }

  /// Compact vertex for an original id, if present.
  std::optional<Vertex> vertexForLabel(std::uint32_t label) const noexcept;

  /// Approximate heap bytes of the CSR storage.
  std::size_t memoryBytes() const noexcept;

 private:
  /// Every constructor ends here. edgeAt(k), k in [0, count), yields the
  /// edges over compact ids [0, labels.size()). Canonical input (u < v,
  /// strictly ascending in (u, v), as CADJ stores its triplets) is built
  /// in a degree-counting pass, a prefix sum and a fill pass, with no
  /// sort; other input is canonicalized, sorted and its parallel edges
  /// merged first, then built the same way.
  template <class EdgeAt>
  static Graph build(std::uint64_t count, const EdgeAt& edgeAt,
                     std::vector<std::uint32_t> labels);

  std::vector<std::uint64_t> offsets_;  ///< size n+1
  std::vector<Vertex> neighbors_;       ///< both directions, sorted per row
  std::vector<Weight> weights_;
  std::vector<std::uint32_t> labels_;   ///< compact vertex -> original id (sorted)
};

}  // namespace chisimnet::graph
