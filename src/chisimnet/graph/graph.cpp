#include "chisimnet/graph/graph.hpp"

#include <algorithm>
#include <numeric>

#include "chisimnet/util/error.hpp"

namespace chisimnet::graph {

namespace {

/// Id tables may hold up to this many slots per id they index; sparser ids
/// take the sort/binary-search path, so an id like 0xFFFFFFF0 never sizes
/// a 16 GiB table.
constexpr std::uint64_t kTableSlotsPerId = 2;

bool denseIds(std::uint32_t maxId, std::uint64_t idCount) {
  return maxId / kTableSlotsPerId < idCount;
}

/// The sorted, distinct endpoint ids of `triplets`: marked in a byte array
/// when they are dense, else sorted and deduplicated.
std::vector<std::uint32_t> endpointLabels(
    std::span<const sparse::AdjacencyTriplet> triplets) {
  std::uint32_t maxId = 0;
  for (const sparse::AdjacencyTriplet& triplet : triplets) {
    maxId = std::max({maxId, triplet.i, triplet.j});
  }
  std::vector<std::uint32_t> labels;
  if (denseIds(maxId, 2 * std::uint64_t{triplets.size()})) {
    std::vector<std::uint8_t> seen(std::size_t{maxId} + 1, 0);
    for (const sparse::AdjacencyTriplet& triplet : triplets) {
      seen[triplet.i] = 1;
      seen[triplet.j] = 1;
    }
    for (std::size_t id = 0; id < seen.size(); ++id) {
      if (seen[id] != 0) {
        labels.push_back(static_cast<std::uint32_t>(id));
      }
    }
    return labels;
  }
  labels.reserve(triplets.size() * 2);
  for (const sparse::AdjacencyTriplet& triplet : triplets) {
    labels.push_back(triplet.i);
    labels.push_back(triplet.j);
  }
  std::sort(labels.begin(), labels.end());
  labels.erase(std::unique(labels.begin(), labels.end()), labels.end());
  return labels;
}

/// Original id -> compact vertex over sorted, distinct labels: a direct
/// table when the ids are dense, else binary search.
class LabelIndex {
 public:
  LabelIndex(std::span<const std::uint32_t> labels, std::uint64_t lookups)
      : labels_(labels) {
    if (!labels.empty() && denseIds(labels.back(), labels.size() + lookups)) {
      table_.assign(std::size_t{labels.back()} + 1, kAbsent);
      for (std::size_t v = 0; v < labels.size(); ++v) {
        table_[labels[v]] = static_cast<Vertex>(v);
      }
    }
  }

  Vertex operator()(std::uint32_t id) const {
    Vertex vertex = kAbsent;
    if (!table_.empty()) {
      vertex = id < table_.size() ? table_[id] : kAbsent;
    } else {
      const auto it = std::lower_bound(labels_.begin(), labels_.end(), id);
      if (it != labels_.end() && *it == id) {
        vertex = static_cast<Vertex>(it - labels_.begin());
      }
    }
    CHISIM_REQUIRE(vertex != kAbsent,
                   "triplet endpoint missing from vertex label universe");
    return vertex;
  }

 private:
  static constexpr Vertex kAbsent = ~Vertex{0};
  std::span<const std::uint32_t> labels_;
  std::vector<Vertex> table_;
};

/// Graph::build's edge source over an edge list. A named type, so the
/// build that follows canonicalization instantiates only once.
struct EdgeList {
  std::span<const Edge> edges;
  Edge operator()(std::uint64_t k) const { return edges[k]; }
};

/// Edges with u < v, sorted by (u, v), parallel edges merged by summing
/// their weights.
template <class EdgeAt>
std::vector<Edge> canonicalEdges(std::uint64_t count, const EdgeAt& edgeAt) {
  std::vector<Edge> edges;
  edges.reserve(count);
  for (std::uint64_t k = 0; k < count; ++k) {
    Edge edge = edgeAt(k);
    CHISIM_REQUIRE(edge.u != edge.v, "self-loops are not supported");
    if (edge.u > edge.v) {
      std::swap(edge.u, edge.v);
    }
    edges.push_back(edge);
  }
  std::sort(edges.begin(), edges.end(), [](const Edge& a, const Edge& b) {
    return a.u != b.u ? a.u < b.u : a.v < b.v;
  });
  std::vector<Edge> merged;
  merged.reserve(edges.size());
  for (const Edge& edge : edges) {
    if (!merged.empty() && merged.back().u == edge.u &&
        merged.back().v == edge.v) {
      merged.back().weight += edge.weight;
    } else {
      merged.push_back(edge);
    }
  }
  return merged;
}

}  // namespace

Graph Graph::fromTriplets(std::span<const sparse::AdjacencyTriplet> triplets) {
  return fromTriplets(triplets, endpointLabels(triplets));
}

Graph Graph::fromTriplets(std::span<const sparse::AdjacencyTriplet> triplets,
                          std::span<const std::uint32_t> vertexLabels) {
  std::vector<std::uint32_t> labels(vertexLabels.begin(), vertexLabels.end());
  if (!std::is_sorted(labels.begin(), labels.end())) {
    std::sort(labels.begin(), labels.end());
  }
  labels.erase(std::unique(labels.begin(), labels.end()), labels.end());
  // Moving `labels` into the graph keeps the buffer `compact` reads.
  const LabelIndex compact(labels, 2 * std::uint64_t{triplets.size()});
  return build(
      triplets.size(),
      [&](std::uint64_t k) {
        const sparse::AdjacencyTriplet& triplet = triplets[k];
        return Edge{compact(triplet.i), compact(triplet.j), triplet.weight};
      },
      std::move(labels));
}

Graph Graph::fromEdges(std::span<const Edge> edges, Vertex vertexCount) {
  for (const Edge& edge : edges) {
    CHISIM_REQUIRE(edge.u < vertexCount && edge.v < vertexCount,
                   "edge endpoint out of range");
  }
  std::vector<std::uint32_t> labels(vertexCount);
  std::iota(labels.begin(), labels.end(), 0u);
  return build(edges.size(), EdgeList{edges}, std::move(labels));
}

template <class EdgeAt>
Graph Graph::build(std::uint64_t count, const EdgeAt& edgeAt,
                   std::vector<std::uint32_t> labels) {
  Graph graph;
  graph.labels_ = std::move(labels);
  const std::size_t n = graph.labels_.size();
  graph.offsets_.assign(n + 1, 0);

  // Pass 1: degrees, while checking that the input is canonical.
  Edge previous{};
  for (std::uint64_t k = 0; k < count; ++k) {
    const Edge edge = edgeAt(k);
    const bool ascending = k == 0 || edge.u > previous.u ||
                           (edge.u == previous.u && edge.v > previous.v);
    if (edge.u >= edge.v || !ascending) {
      const std::vector<Edge> canonical = canonicalEdges(count, edgeAt);
      return build(canonical.size(), EdgeList{canonical},
                   std::move(graph.labels_));
    }
    ++graph.offsets_[edge.u + 1];
    ++graph.offsets_[edge.v + 1];
    previous = edge;
  }
  for (std::size_t v = 1; v <= n; ++v) {
    graph.offsets_[v] += graph.offsets_[v - 1];
  }

  // Pass 2: fill. Row x receives its lower neighbours from the edges
  // (u, x), u < x, which all precede the edges (x, v) that bring its upper
  // neighbours, each group in ascending order: every row comes out sorted.
  graph.neighbors_.resize(2 * count);
  graph.weights_.resize(2 * count);
  std::vector<std::uint64_t> cursor(graph.offsets_.begin(),
                                    graph.offsets_.end() - 1);
  for (std::uint64_t k = 0; k < count; ++k) {
    const Edge edge = edgeAt(k);
    graph.neighbors_[cursor[edge.u]] = edge.v;
    graph.weights_[cursor[edge.u]++] = edge.weight;
    graph.neighbors_[cursor[edge.v]] = edge.u;
    graph.weights_[cursor[edge.v]++] = edge.weight;
  }
  return graph;
}

Weight Graph::totalWeight() const noexcept {
  Weight doubled = 0;
  for (Weight weight : weights_) {
    doubled += weight;
  }
  return doubled / 2;
}

bool Graph::hasEdge(Vertex u, Vertex v) const noexcept {
  if (u >= vertexCount() || v >= vertexCount()) {
    return false;
  }
  const auto row = neighbors(u);
  return std::binary_search(row.begin(), row.end(), v);
}

Weight Graph::weightBetween(Vertex u, Vertex v) const noexcept {
  if (u >= vertexCount() || v >= vertexCount()) {
    return 0;
  }
  const auto row = neighbors(u);
  const auto it = std::lower_bound(row.begin(), row.end(), v);
  if (it == row.end() || *it != v) {
    return 0;
  }
  return edgeWeights(u)[static_cast<std::size_t>(it - row.begin())];
}

std::optional<Vertex> Graph::vertexForLabel(std::uint32_t label) const noexcept {
  const auto it = std::lower_bound(labels_.begin(), labels_.end(), label);
  if (it == labels_.end() || *it != label) {
    return std::nullopt;
  }
  return static_cast<Vertex>(it - labels_.begin());
}

std::size_t Graph::memoryBytes() const noexcept {
  return offsets_.size() * sizeof(std::uint64_t) +
         neighbors_.size() * sizeof(Vertex) + weights_.size() * sizeof(Weight) +
         labels_.size() * sizeof(std::uint32_t);
}

}  // namespace chisimnet::graph
