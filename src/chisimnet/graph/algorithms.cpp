#include "chisimnet/graph/algorithms.hpp"

#include <algorithm>
#include <deque>
#include <thread>

#include "chisimnet/runtime/thread_pool.hpp"
#include "chisimnet/util/error.hpp"

namespace chisimnet::graph {

std::vector<std::uint64_t> degreeSequence(const Graph& graph) {
  std::vector<std::uint64_t> degrees(graph.vertexCount());
  for (Vertex v = 0; v < graph.vertexCount(); ++v) {
    degrees[v] = graph.degree(v);
  }
  return degrees;
}

namespace {

/// Edges per triangle-pass thread: below this a thread costs more to start
/// than it saves, so small graphs count on the calling thread.
constexpr std::uint64_t kEdgesPerTriangleWorker = std::uint64_t{1} << 15;

unsigned triangleWorkers(const Graph& graph) {
  const unsigned cores = std::max(1u, std::thread::hardware_concurrency());
  return static_cast<unsigned>(std::min<std::uint64_t>(
      cores, 1 + graph.edgeCount() / kEdgesPerTriangleWorker));
}

}  // namespace

namespace detail {

std::vector<std::uint64_t> vertexTriangles(const Graph& graph,
                                           unsigned workers) {
  const Vertex n = graph.vertexCount();
  workers = std::max(1u, workers);

  // Orient every edge from the lower to the higher (degree, id) endpoint.
  // Each triangle then has exactly one corner u with both other corners in
  // N+(u), and no out-row is longer than O(sqrt(edges)), which bounds the
  // work at hubs. Out-rows keep the ascending order of the CSR rows.
  const auto precedes = [&graph](Vertex a, Vertex b) {
    const std::uint64_t da = graph.degree(a);
    const std::uint64_t db = graph.degree(b);
    return da != db ? da < db : a < b;
  };
  std::vector<std::uint64_t> outOffsets(std::size_t{n} + 1, 0);
  runtime::parallelFor(n, workers, [&](std::uint64_t u) {
    std::uint64_t out = 0;
    for (const Vertex v : graph.neighbors(static_cast<Vertex>(u))) {
      out += precedes(static_cast<Vertex>(u), v) ? 1 : 0;
    }
    outOffsets[u + 1] = out;
  });
  for (std::size_t u = 0; u < n; ++u) {
    outOffsets[u + 1] += outOffsets[u];
  }
  std::vector<Vertex> outNeighbors(outOffsets[n]);
  runtime::parallelFor(n, workers, [&](std::uint64_t u) {
    std::uint64_t cursor = outOffsets[u];
    for (const Vertex v : graph.neighbors(static_cast<Vertex>(u))) {
      if (precedes(static_cast<Vertex>(u), v)) {
        outNeighbors[cursor++] = v;
      }
    }
  });
  const auto out = [&](Vertex u) {
    return std::span<const Vertex>(outNeighbors.data() + outOffsets[u],
                                   outNeighbors.data() + outOffsets[u + 1]);
  };

  // Mark N+(u); every marked w in N+(v), v in N+(u), closes (u, v, w).
  // Each worker credits the three corners in its own count array, summed
  // below, so the integer counts do not depend on the schedule.
  std::vector<std::vector<std::uint64_t>> counts(workers);
  std::vector<std::vector<std::uint8_t>> marks(workers);
  runtime::parallelForWorkers(n, workers, [&](unsigned worker,
                                              std::uint64_t index) {
    const auto u = static_cast<Vertex>(index);
    const auto outU = out(u);
    if (outU.size() < 2) {
      return;  // u is the lowest corner of no triangle
    }
    std::vector<std::uint64_t>& count = counts[worker];
    std::vector<std::uint8_t>& mark = marks[worker];
    if (count.empty()) {
      count.assign(n, 0);
      mark.assign(n, 0);
    }
    for (const Vertex w : outU) {
      mark[w] = 1;
    }
    std::uint64_t atU = 0;
    for (const Vertex v : outU) {
      std::uint64_t atV = 0;
      for (const Vertex w : out(v)) {
        if (mark[w] != 0) {
          ++atV;
          ++count[w];
        }
      }
      count[v] += atV;
      atU += atV;
    }
    count[u] += atU;
    for (const Vertex w : outU) {
      mark[w] = 0;
    }
  });

  std::vector<std::uint64_t> triangles(n, 0);
  for (const std::vector<std::uint64_t>& count : counts) {
    for (std::size_t v = 0; v < count.size(); ++v) {
      triangles[v] += count[v];
    }
  }
  return triangles;
}

}  // namespace detail

std::vector<double> localClusteringCoefficients(const Graph& graph) {
  const std::vector<std::uint64_t> triangles =
      detail::vertexTriangles(graph, triangleWorkers(graph));
  std::vector<double> coefficients(graph.vertexCount(), 0.0);
  for (Vertex v = 0; v < graph.vertexCount(); ++v) {
    const std::uint64_t degree = graph.degree(v);
    if (degree < 2) {
      continue;
    }
    const double triples = static_cast<double>(degree) *
                           static_cast<double>(degree - 1) / 2.0;
    coefficients[v] = static_cast<double>(triangles[v]) / triples;
  }
  return coefficients;
}

std::uint64_t triangleCount(const Graph& graph) {
  // Every triangle is credited to each of its three corners.
  std::uint64_t cornerCredits = 0;
  for (const std::uint64_t count :
       detail::vertexTriangles(graph, triangleWorkers(graph))) {
    cornerCredits += count;
  }
  return cornerCredits / 3;
}

double globalTransitivity(const Graph& graph) {
  std::uint64_t triples = 0;
  for (Vertex v = 0; v < graph.vertexCount(); ++v) {
    const std::uint64_t degree = graph.degree(v);
    triples += degree * (degree - 1) / 2;
  }
  if (triples == 0) {
    return 0.0;
  }
  return 3.0 * static_cast<double>(triangleCount(graph)) /
         static_cast<double>(triples);
}

std::vector<Vertex> verticesWithinRadius(const Graph& graph, Vertex source,
                                         unsigned radius) {
  CHISIM_REQUIRE(source < graph.vertexCount(), "source vertex out of range");
  std::vector<bool> visited(graph.vertexCount(), false);
  std::vector<Vertex> result;
  std::deque<std::pair<Vertex, unsigned>> frontier;
  visited[source] = true;
  frontier.emplace_back(source, 0u);
  result.push_back(source);
  while (!frontier.empty()) {
    const auto [vertex, depth] = frontier.front();
    frontier.pop_front();
    if (depth == radius) {
      continue;
    }
    for (Vertex neighbor : graph.neighbors(vertex)) {
      if (!visited[neighbor]) {
        visited[neighbor] = true;
        result.push_back(neighbor);
        frontier.emplace_back(neighbor, depth + 1);
      }
    }
  }
  std::sort(result.begin(), result.end());
  return result;
}

Graph inducedSubgraph(const Graph& graph, std::span<const Vertex> vertices) {
  std::vector<Vertex> selected(vertices.begin(), vertices.end());
  std::sort(selected.begin(), selected.end());
  selected.erase(std::unique(selected.begin(), selected.end()), selected.end());
  for (Vertex v : selected) {
    CHISIM_REQUIRE(v < graph.vertexCount(), "subgraph vertex out of range");
  }

  const auto localIndex = [&selected](Vertex v) {
    const auto it = std::lower_bound(selected.begin(), selected.end(), v);
    return it != selected.end() && *it == v
               ? static_cast<Vertex>(it - selected.begin())
               : static_cast<Vertex>(selected.size());
  };

  std::vector<sparse::AdjacencyTriplet> triplets;
  for (Vertex u : selected) {
    const auto row = graph.neighbors(u);
    const auto rowWeights = graph.edgeWeights(u);
    for (std::size_t i = 0; i < row.size(); ++i) {
      const Vertex v = row[i];
      if (v <= u) {
        continue;  // count each edge once
      }
      if (localIndex(v) == selected.size()) {
        continue;  // endpoint not selected
      }
      // Keep parent labels so person ids survive the extraction.
      triplets.push_back(sparse::AdjacencyTriplet{
          graph.label(u), graph.label(v), rowWeights[i]});
    }
  }
  // Build over the full selected-vertex universe so isolated vertices are
  // preserved.
  std::vector<std::uint32_t> labels;
  labels.reserve(selected.size());
  for (Vertex v : selected) {
    labels.push_back(graph.label(v));
  }
  return Graph::fromTriplets(triplets, labels);
}

Graph egoNetwork(const Graph& graph, Vertex source, unsigned radius) {
  const std::vector<Vertex> vertices =
      verticesWithinRadius(graph, source, radius);
  return inducedSubgraph(graph, vertices);
}

Components connectedComponents(const Graph& graph) {
  Components components;
  components.componentOf.assign(graph.vertexCount(),
                                static_cast<std::uint32_t>(-1));
  for (Vertex start = 0; start < graph.vertexCount(); ++start) {
    if (components.componentOf[start] != static_cast<std::uint32_t>(-1)) {
      continue;
    }
    const auto id = static_cast<std::uint32_t>(components.sizes.size());
    std::uint64_t size = 0;
    std::deque<Vertex> frontier{start};
    components.componentOf[start] = id;
    while (!frontier.empty()) {
      const Vertex vertex = frontier.front();
      frontier.pop_front();
      ++size;
      for (Vertex neighbor : graph.neighbors(vertex)) {
        if (components.componentOf[neighbor] == static_cast<std::uint32_t>(-1)) {
          components.componentOf[neighbor] = id;
          frontier.push_back(neighbor);
        }
      }
    }
    components.sizes.push_back(size);
  }
  return components;
}

std::uint64_t Components::giantSize() const noexcept {
  std::uint64_t giant = 0;
  for (std::uint64_t size : sizes) {
    giant = std::max(giant, size);
  }
  return giant;
}

std::vector<std::uint32_t> kCoreDecomposition(const Graph& graph) {
  const std::size_t n = graph.vertexCount();
  std::vector<std::uint32_t> degree(n);
  std::uint32_t maxDegree = 0;
  for (Vertex v = 0; v < n; ++v) {
    degree[v] = static_cast<std::uint32_t>(graph.degree(v));
    maxDegree = std::max(maxDegree, degree[v]);
  }

  // Bucket-sort vertices by current degree (Batagelj-Zaversnik: O(E)).
  std::vector<std::uint32_t> binStart(maxDegree + 2, 0);
  for (Vertex v = 0; v < n; ++v) {
    ++binStart[degree[v] + 1];
  }
  for (std::size_t d = 1; d < binStart.size(); ++d) {
    binStart[d] += binStart[d - 1];
  }
  std::vector<Vertex> order(n);
  std::vector<std::uint32_t> position(n);
  {
    std::vector<std::uint32_t> cursor(binStart.begin(), binStart.end() - 1);
    for (Vertex v = 0; v < n; ++v) {
      position[v] = cursor[degree[v]];
      order[position[v]] = v;
      ++cursor[degree[v]];
    }
  }

  std::vector<std::uint32_t> core(n, 0);
  std::vector<bool> removed(n, false);
  for (std::size_t i = 0; i < n; ++i) {
    const Vertex v = order[i];
    core[v] = degree[v];
    removed[v] = true;
    for (Vertex neighbor : graph.neighbors(v)) {
      if (removed[neighbor] || degree[neighbor] <= degree[v]) {
        continue;
      }
      // Move `neighbor` one bucket down: swap it with the first vertex of
      // its current bucket, then shrink the bucket boundary.
      const std::uint32_t d = degree[neighbor];
      const std::uint32_t firstPos = binStart[d];
      const Vertex firstVertex = order[firstPos];
      if (firstVertex != neighbor) {
        std::swap(order[firstPos], order[position[neighbor]]);
        std::swap(position[firstVertex], position[neighbor]);
      }
      ++binStart[d];
      --degree[neighbor];
    }
  }
  return core;
}

double meanDegree(const Graph& graph) {
  if (graph.vertexCount() == 0) {
    return 0.0;
  }
  return 2.0 * static_cast<double>(graph.edgeCount()) /
         static_cast<double>(graph.vertexCount());
}

}  // namespace chisimnet::graph
