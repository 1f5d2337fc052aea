// Communication graphs for the Dijkstra state model (paper, Section 2).
//
// A distributed system is an undirected, simple, connected graph g = (V, E):
// vertices are processes; edges are pairs of processes that can atomically
// read each other's state.  Vertices are identified by dense indices
// 0..n-1, which double as the process identities ID = {0, .., n-1} that the
// SSME protocol requires (paper, Section 4.1, citing Burns & Pachl).
#ifndef SPECSTAB_GRAPH_GRAPH_HPP
#define SPECSTAB_GRAPH_GRAPH_HPP

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

namespace specstab {

/// Dense vertex index; also the process identity id_v in protocols that
/// need identities (SSME, matching).
using VertexId = std::int32_t;

/// Non-owning view of one vertex's sorted neighbour row inside the CSR
/// arrays.  Cheap to copy; invalidated by the next add_edge() on the
/// owning graph (like iterators into the old per-vertex vectors).
class NeighborSpan {
 public:
  using value_type = VertexId;
  using const_iterator = const VertexId*;

  constexpr NeighborSpan() = default;
  constexpr NeighborSpan(const VertexId* data, std::size_t size) noexcept
      : data_(data), size_(size) {}

  [[nodiscard]] constexpr const VertexId* begin() const noexcept {
    return data_;
  }
  [[nodiscard]] constexpr const VertexId* end() const noexcept {
    return data_ + size_;
  }
  [[nodiscard]] constexpr const VertexId* data() const noexcept {
    return data_;
  }
  [[nodiscard]] constexpr std::size_t size() const noexcept { return size_; }
  [[nodiscard]] constexpr bool empty() const noexcept { return size_ == 0; }
  constexpr VertexId operator[](std::size_t i) const { return data_[i]; }
  [[nodiscard]] constexpr VertexId front() const { return data_[0]; }
  [[nodiscard]] constexpr VertexId back() const { return data_[size_ - 1]; }

  friend bool operator==(NeighborSpan a, NeighborSpan b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }
  friend bool operator==(NeighborSpan a, const std::vector<VertexId>& b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }

 private:
  const VertexId* data_ = nullptr;
  std::size_t size_ = 0;
};

/// Read-only view of a Graph's CSR arrays: the neighbours of v occupy
/// targets[offsets[v] .. offsets[v + 1]), sorted ascending.  Guard
/// kernels stream these instead of calling Graph::neighbors() per
/// vertex.  Invalidated by the next add_edge() on the owning graph.
struct CsrView {
  const std::int64_t* offsets = nullptr;  ///< n + 1 entries
  const VertexId* targets = nullptr;      ///< 2m entries
};

/// Undirected simple graph with dense vertex ids and sorted adjacency in
/// CSR form: one offsets array (n + 1 entries) plus one flat neighbour
/// array, so a 10^7-vertex ring costs two contiguous allocations instead
/// of 10^7 vectors, and shard-range scans touch contiguous memory.
///
/// Invariants: no self-loops, no parallel edges, every neighbour row
/// sorted ascending.  Most algorithms additionally require connectivity;
/// the generators in generators.hpp only produce connected graphs, and
/// `is_connected()` is available for arbitrary inputs.
///
/// `add_edge()` stages edges in a pending buffer that is folded into the
/// CSR arrays on the next read (lazy flush), keeping incremental
/// construction O(m) overall instead of O(m * deg).  All flushes happen
/// on the first sequential read; after that, concurrent reads from
/// worker threads are safe (flush() on an empty pending buffer writes
/// nothing).
class Graph {
 public:
  Graph() = default;

  /// Creates a graph with `n` vertices and no edges.
  explicit Graph(VertexId n);

  /// Creates a graph from an explicit edge list (pairs may be in any
  /// order; duplicates and self-loops throw std::invalid_argument,
  /// out-of-range endpoints std::out_of_range).  Builds the CSR arrays
  /// in two passes — the bulk path the large-topology generators use.
  Graph(VertexId n, const std::vector<std::pair<VertexId, VertexId>>& edges);

  /// Number of vertices (the paper's n = |V|).
  [[nodiscard]] VertexId n() const noexcept { return n_; }

  /// Number of edges (the paper's m = |E|).
  [[nodiscard]] std::int64_t m() const noexcept { return m_; }

  /// Adds the undirected edge {u, v}.  Throws std::invalid_argument on
  /// self-loops or duplicate edges, std::out_of_range on bad endpoints.
  void add_edge(VertexId u, VertexId v);

  /// True iff {u, v} is an edge.  O(log deg); sees staged edges.
  [[nodiscard]] bool has_edge(VertexId u, VertexId v) const;

  /// Sorted neighbours of v (the paper's neig(v)) as a view into the
  /// flat CSR neighbour array.
  [[nodiscard]] NeighborSpan neighbors(VertexId v) const {
    check_vertex(v);
    ensure_flushed();
    const auto lo = offsets_[static_cast<std::size_t>(v)];
    const auto hi = offsets_[static_cast<std::size_t>(v) + 1];
    return {targets_.data() + lo, static_cast<std::size_t>(hi - lo)};
  }

  /// The CSR arrays themselves (flushes staged edges first, so the first
  /// call must be sequential, like the first neighbors() call).
  [[nodiscard]] CsrView csr() const {
    ensure_flushed();
    return {offsets_.data(), targets_.data()};
  }

  /// Degree of v.
  [[nodiscard]] VertexId degree(VertexId v) const {
    check_vertex(v);
    ensure_flushed();
    return static_cast<VertexId>(offsets_[static_cast<std::size_t>(v) + 1] -
                                 offsets_[static_cast<std::size_t>(v)]);
  }

  /// All edges as (u, v) pairs with u < v, lexicographically sorted.
  [[nodiscard]] std::vector<std::pair<VertexId, VertexId>> edges() const;

  /// True iff the graph is connected (vacuously true for n <= 1).
  [[nodiscard]] bool is_connected() const;

  /// GraphViz "graph { .. }" rendering, for documentation and debugging.
  [[nodiscard]] std::string to_dot() const;

  friend bool operator==(const Graph& a, const Graph& b) {
    a.ensure_flushed();
    b.ensure_flushed();
    return a.n_ == b.n_ && a.offsets_ == b.offsets_ &&
           a.targets_ == b.targets_;
  }

 private:
  void check_vertex(VertexId v) const;
  void ensure_flushed() const {
    if (!pending_.empty()) flush();
  }
  void flush() const;

  static std::uint64_t edge_key(VertexId u, VertexId v) noexcept {
    const auto lo = static_cast<std::uint32_t>(u < v ? u : v);
    const auto hi = static_cast<std::uint32_t>(u < v ? v : u);
    return (static_cast<std::uint64_t>(lo) << 32) | hi;
  }

  VertexId n_ = 0;
  std::int64_t m_ = 0;
  // CSR arrays over the flushed edges; mutable for the lazy flush.
  mutable std::vector<std::int64_t> offsets_ = {0};
  mutable std::vector<VertexId> targets_;
  // Edges staged by add_edge() since the last flush, plus a key set for
  // O(1) duplicate checks while staging.
  mutable std::vector<std::pair<VertexId, VertexId>> pending_;
  mutable std::unordered_set<std::uint64_t> pending_keys_;
};

}  // namespace specstab

#endif  // SPECSTAB_GRAPH_GRAPH_HPP
