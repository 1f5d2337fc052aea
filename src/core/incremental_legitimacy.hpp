// Incremental legitimacy checkers for the main predicates.
//
// Every legitimacy predicate in this repo decomposes into a sum of
// vertex-local violation scores whose value at v depends only on states
// within a fixed radius of v:
//
//   Gamma_1 (unison/SSME)   score_v = !locally_legitimate(v)   radius 1
//   spec_ME safety (SSME)   score_v = privileged(v)            radius 0
//   single token (Dijkstra) score_v = privileged(v)            radius 1
//   stable matching         score_v = enabled(v)               radius 1
//   min+1 exact BFS         score_v = level_v != dist(root,v)  radius 0
//   leader election         score_v = state_v != elected_v     radius 0
//   (Delta+1)-coloring      score_v = out-of-palette +
//                                     monochromatic incidences radius 1
//   unbounded unison        score_v = #neighbours drifted > 1  radius 1
//
// LocalScoreChecker caches the per-vertex scores and the total; after an
// action it rescores only the radius-ball around the touched vertices and
// adjusts the cached total — the legitimacy verdict is a function of the
// total (== 0, <= 1, == 1).  The property harness
// (tests/legitimacy_closure_test.cpp) asserts the cached verdict equals a
// from-scratch evaluation after every enabled move, including the
// re-convergence path.
//
// The factories capture the protocol objects by reference: the protocol
// must outlive the checker (true everywhere in this repo — checkers are
// stack locals next to the protocol).
#ifndef SPECSTAB_CORE_INCREMENTAL_LEGITIMACY_HPP
#define SPECSTAB_CORE_INCREMENTAL_LEGITIMACY_HPP

#include <concepts>
#include <cstdint>
#include <functional>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

#include "baselines/dijkstra_ring.hpp"
#include "baselines/matching.hpp"
#include "baselines/min_plus_one.hpp"
#include "baselines/unbounded_unison.hpp"
#include "core/ssme.hpp"
#include "extensions/coloring.hpp"
#include "extensions/leader_election.hpp"
#include "graph/graph.hpp"
#include "sim/incremental_engine.hpp"
#include "sim/simd_eval.hpp"
#include "sim/types.hpp"
#include "unison/unison.hpp"

namespace specstab {

/// Tag: no bulk total available — full() falls back to summing the
/// vertex-local score over every vertex.
struct NoBulkTotal {};

/// Incremental counter over a vertex-local violation score.  `Score` is
/// (const Graph&, const ConfigView<State>&, VertexId) -> std::int32_t and may
/// read only states within `radius` hops of the scored vertex; `Verdict`
/// is (std::int64_t total) -> bool.
///
/// `Bulk`, when provided, is (const Graph&, const ConfigView<State>&) ->
/// std::int64_t computing the SAME total as summing `Score` over all
/// vertices, but as one pass over the configuration — typically a
/// contiguous column scan the compiler can vectorize.  full() (the
/// rescanning engines' per-step path) uses it; the incremental path never
/// does, so the cached per-vertex scores stay the source of truth for
/// on_update().  tests/legitimacy_closure_test.cpp asserts bulk and
/// per-vertex totals agree move-by-move.
///
/// `Kind`, when not void, is a score-kind tag (sim/simd_eval.hpp) naming
/// the score definition; a vector-engine kernel advertising the same tag
/// may hand a precomputed total to accept_total() instead of having
/// full() rescan.
template <class State, class Score, class Verdict, class Bulk = NoBulkTotal,
          class Kind = void>
class LocalScoreChecker {
 public:
  using ScoreKind = Kind;

  LocalScoreChecker(Score score, Verdict verdict, VertexId radius)
      : score_(std::move(score)),
        verdict_(std::move(verdict)),
        radius_(radius) {}

  LocalScoreChecker(Score score, Verdict verdict, VertexId radius, Bulk bulk)
      : score_(std::move(score)),
        verdict_(std::move(verdict)),
        bulk_(std::move(bulk)),
        radius_(radius) {}

  bool init(const Graph& g, const ConfigView<State>& cfg) {
    cached_.assign(static_cast<std::size_t>(g.n()), 0);
    total_ = 0;
    cached_stale_ = false;
    for (VertexId v = 0; v < g.n(); ++v) {
      const std::int32_t s = score_(g, cfg, v);
      cached_[static_cast<std::size_t>(v)] = s;
      total_ += s;
    }
    // Dropped every init: a checker instance may be reused across runs on
    // graphs of different sizes (measure_convergence does).  The first
    // ball update sizes a fresh one.
    expander_.reset();
    return verdict_(total_);
  }

  /// init() from a gamma_0 total computed elsewhere (the fused initial
  /// guard scan of a kernel with the matching ScoreKind): same verdict,
  /// no per-vertex sweep.  The caches are left stale, exactly as after
  /// accept_total(); the first incremental update rebuilds them.
  bool init_from_total(const Graph&, std::int64_t total) {
    expander_.reset();
    return accept_total(total);
  }

  bool on_update(const Graph& g, const ConfigView<State>& cfg,
                 const std::vector<VertexId>& touched) {
    // Dense actions (synchronous steps) dirty most of the graph; rescore
    // everything linearly instead of expanding balls.
    if (radius_ > 0 &&
        is_dense_update(static_cast<std::int64_t>(touched.size()), radius_,
                        g)) {
      return refresh_all(g, cfg);
    }
    if (cached_stale_) refresh_all(g, cfg);
    if (radius_ > 0 && !expander_) expander_.emplace(g.n());
    const std::vector<VertexId>& affected =
        radius_ > 0 ? expander_->expand(g, touched, radius_) : touched;
    for (VertexId v : affected) rescore(g, cfg, v);
    return verdict_(total_);
  }

  /// Verdict from a total computed elsewhere (a fused vector-engine
  /// kernel with the matching ScoreKind).  The per-vertex caches go
  /// stale; the next incremental update rebuilds them, so accept_total()
  /// and on_update() may interleave freely (the vector engine never
  /// mixes them within a run).
  bool accept_total(std::int64_t total) {
    total_ = total;
    cached_stale_ = true;
    return verdict_(total);
  }

  bool full(const Graph& g, const ConfigView<State>& cfg) {
    if constexpr (!std::is_same_v<Bulk, NoBulkTotal>) {
      return verdict_(bulk_(g, cfg));
    } else {
      std::int64_t total = 0;
      for (VertexId v = 0; v < g.n(); ++v) total += score_(g, cfg, v);
      return verdict_(total);
    }
  }

  // --- Shared-ball fast path (see HasBallUpdate in
  //     incremental_engine.hpp): when the engine's dirty ball was
  //     expanded with the same radius, rescore exactly it instead of
  //     re-expanding.

  [[nodiscard]] VertexId update_radius() const noexcept { return radius_; }

  bool on_update_ball(const Graph& g, const ConfigView<State>& cfg,
                      const std::vector<VertexId>& ball) {
    if (cached_stale_) refresh_all(g, cfg);
    for (VertexId v : ball) rescore(g, cfg, v);
    return verdict_(total_);
  }

  /// The cached violation total (tests cross-check it against from-scratch
  /// sums).
  [[nodiscard]] std::int64_t total() const noexcept { return total_; }

  /// From-scratch rebuild of every cached score and the total, returning
  /// the fresh verdict.  The delta arithmetic of rescore() is only sound
  /// against fresh caches, so this is the recovery path after
  /// accept_total() marked them stale — and the repair path the engines'
  /// fault-injection hook calls after a dense perturbation, so
  /// legitimacy counters can never go stale across a corruption.
  bool refresh_all(const Graph& g, const ConfigView<State>& cfg) {
    // Sized here rather than relied on from init(): init_from_total()
    // leaves the caches unsized until the first update needs them.
    cached_.resize(static_cast<std::size_t>(g.n()));
    total_ = 0;
    for (VertexId v = 0; v < g.n(); ++v) {
      const std::int32_t s = score_(g, cfg, v);
      cached_[static_cast<std::size_t>(v)] = s;
      total_ += s;
    }
    cached_stale_ = false;
    return verdict_(total_);
  }

 private:
  void rescore(const Graph& g, const ConfigView<State>& cfg, VertexId v) {
    const std::int32_t s = score_(g, cfg, v);
    total_ += s - cached_[static_cast<std::size_t>(v)];
    cached_[static_cast<std::size_t>(v)] = s;
  }

  Score score_;
  Verdict verdict_;
  [[no_unique_address]] Bulk bulk_{};
  VertexId radius_;
  std::vector<std::int32_t> cached_;
  std::int64_t total_ = 0;
  bool cached_stale_ = false;
  std::optional<NeighborhoodExpander> expander_;
};

/// Fallback checker for arbitrary predicates: every call re-evaluates the
/// wrapped function from scratch.  Keeps run_with_engine() available for
/// predicates without an incremental decomposition (the enabled-set
/// maintenance still pays off).
template <class State>
class RescanChecker {
 public:
  using Predicate = LegitimacyPredicate<State>;

  explicit RescanChecker(Predicate predicate)
      : predicate_(std::move(predicate)) {}

  bool init(const Graph& g, const ConfigView<State>& cfg) {
    return predicate_(g, cfg);
  }
  bool on_update(const Graph& g, const ConfigView<State>& cfg,
                 const std::vector<VertexId>&) {
    return predicate_(g, cfg);
  }
  bool full(const Graph& g, const ConfigView<State>& cfg) {
    return predicate_(g, cfg);
  }

 private:
  Predicate predicate_;
};

/// Wrapper counting legitimate -> illegitimate transitions.  Both engines
/// evaluate the checker exactly once per configuration, in execution
/// order, so the wrapper sees the full legitimacy sequence gamma_0,
/// gamma_1, ...  init() resets the transition state along with the inner
/// checker, so one instance serves consecutive runs; violations() then
/// reports the count of the latest run.
template <class C>
class ClosureCounting {
 public:
  using ScoreKind = typename ScoreKindOf<C>::type;

  explicit ClosureCounting(C inner) : inner_(std::move(inner)) {}

  template <class Cfg>
  bool init(const Graph& g, const Cfg& cfg) {
    was_legit_ = false;
    violations_ = 0;
    return note(inner_.init(g, cfg));
  }
  template <class Cfg>
  bool on_update(const Graph& g, const Cfg& cfg,
                 const std::vector<VertexId>& touched) {
    return note(inner_.on_update(g, cfg, touched));
  }
  template <class Cfg>
  bool full(const Graph& g, const Cfg& cfg) {
    return note(inner_.full(g, cfg));
  }

  // Forward the fused-kernel total path when the wrapped checker has one.
  bool accept_total(std::int64_t total)
    requires requires(C& c) { c.accept_total(total); }
  {
    return note(inner_.accept_total(total));
  }
  bool init_from_total(const Graph& g, std::int64_t total)
    requires requires(C& c) { c.init_from_total(g, total); }
  {
    was_legit_ = false;
    violations_ = 0;
    return note(inner_.init_from_total(g, total));
  }

  // Forward the from-scratch rebuild (the fault-injection repair path)
  // when the wrapped checker has one.
  template <class Cfg>
  bool refresh_all(const Graph& g, const Cfg& cfg)
    requires requires(C& c) {
      { c.refresh_all(g, cfg) } -> std::same_as<bool>;
    }
  {
    return note(inner_.refresh_all(g, cfg));
  }

  // Forward the shared-ball fast path when the wrapped checker has one.
  [[nodiscard]] VertexId update_radius() const
    requires requires(const C& c) { c.update_radius(); }
  {
    return inner_.update_radius();
  }
  template <class Cfg>
  bool on_update_ball(const Graph& g, const Cfg& cfg,
                      const std::vector<VertexId>& ball)
    requires requires(C& c) { c.on_update_ball(g, cfg, ball); }
  {
    return note(inner_.on_update_ball(g, cfg, ball));
  }

  [[nodiscard]] std::int64_t violations() const noexcept {
    return violations_;
  }

 private:
  bool note(bool legit) {
    if (was_legit_ && !legit) ++violations_;
    was_legit_ = legit;
    return legit;
  }

  C inner_;
  bool was_legit_ = false;
  std::int64_t violations_ = 0;
};

// --- Factories ----------------------------------------------------------

/// Gamma_1: every vertex locally legitimate (stab values, drift <= 1).
[[nodiscard]] inline auto make_gamma1_checker(const UnisonProtocol& unison) {
  auto score = [&unison](const Graph& g, const ConfigView<ClockValue>& cfg,
                         VertexId v) -> std::int32_t {
    return unison.locally_legitimate(g, cfg, v) ? 0 : 1;
  };
  auto verdict = [](std::int64_t total) { return total == 0; };
  // One pass over the raw clock column with the ring arithmetic inlined
  // (the int64 formulation of CherryClock::ring_distance) instead of a
  // locally_legitimate() call chain per vertex.
  auto bulk = [&unison](const Graph& g,
                        const ConfigView<ClockValue>& cfg) -> std::int64_t {
    const ClockValue* c = cfg.column();
    const std::int64_t k = unison.clock().k();
    std::int64_t total = 0;
    for (VertexId v = 0; v < g.n(); ++v) {
      const std::int64_t rv = c[static_cast<std::size_t>(v)];
      auto ok = static_cast<unsigned>(rv >= 0 && rv < k);
      for (VertexId u : g.neighbors(v)) {
        const std::int64_t ru = c[static_cast<std::size_t>(u)];
        std::int64_t d = ru - rv;
        if (d >= k || d <= -k) d %= k;
        if (d < 0) d += k;
        const std::int64_t dist = d <= k - d ? d : k - d;
        ok &= static_cast<unsigned>(ru >= 0 && ru < k && dist <= 1);
      }
      total += ok ^ 1u;
    }
    return total;
  };
  return LocalScoreChecker<ClockValue, decltype(score), decltype(verdict),
                           decltype(bulk), Gamma1ScoreKind>(score, verdict, 1,
                                                            bulk);
}

/// Gamma_1 membership of the SSME substrate.
[[nodiscard]] inline auto make_gamma1_checker(const SsmeProtocol& proto) {
  return make_gamma1_checker(proto.unison());
}

/// spec_ME safety slice: at most one privileged vertex.
[[nodiscard]] inline auto make_mutex_safety_checker(const SsmeProtocol& proto) {
  auto score = [&proto](const Graph&, const ConfigView<ClockValue>& cfg,
                        VertexId v) -> std::int32_t {
    return proto.privileged(cfg, v) ? 1 : 0;
  };
  auto verdict = [](std::int64_t total) { return total <= 1; };
  // Column scan comparing each register against its unique privileged
  // value 2n + 2 diam id.
  auto bulk = [&proto](const Graph& g,
                       const ConfigView<ClockValue>& cfg) -> std::int64_t {
    const ClockValue* c = cfg.column();
    const SsmeParams& p = proto.params();
    std::int64_t total = 0;
    for (VertexId v = 0; v < g.n(); ++v) {
      total += c[static_cast<std::size_t>(v)] == p.privileged_value(v) ? 1 : 0;
    }
    return total;
  };
  return LocalScoreChecker<ClockValue, decltype(score), decltype(verdict),
                           decltype(bulk)>(score, verdict, 0, bulk);
}

/// Dijkstra's ring: exactly one token (privilege == enabledness).
[[nodiscard]] inline auto make_single_token_checker(
    const DijkstraRingProtocol& proto) {
  auto score = [&proto](const Graph&,
                        const ConfigView<DijkstraRingProtocol::State>& cfg,
                        VertexId v) -> std::int32_t {
    return proto.privileged(cfg, v) ? 1 : 0;
  };
  auto verdict = [](std::int64_t total) { return total == 1; };
  // Token count is a shifted compare along the counter column: vertex 0
  // holds a token iff c_0 = c_{n-1}, every other v iff c_v != c_{v-1}.
  auto bulk = [](const Graph& g,
                 const ConfigView<DijkstraRingProtocol::State>& cfg)
      -> std::int64_t {
    const auto* c = cfg.column();
    const auto n = static_cast<std::size_t>(g.n());
    if (n == 0) return 0;
    std::int64_t total = c[0] == c[n - 1] ? 1 : 0;
    for (std::size_t v = 1; v < n; ++v) total += c[v] != c[v - 1] ? 1 : 0;
    return total;
  };
  return LocalScoreChecker<DijkstraRingProtocol::State, decltype(score),
                           decltype(verdict), decltype(bulk)>(score, verdict,
                                                              1, bulk);
}

/// Stable maximal matching: terminal, i.e. no rule enabled anywhere.
[[nodiscard]] inline auto make_matching_checker(const MatchingProtocol& proto) {
  auto score = [&proto](const Graph& g,
                        const ConfigView<MatchingProtocol::State>& cfg,
                        VertexId v) -> std::int32_t {
    return proto.enabled(g, cfg, v) ? 1 : 0;
  };
  auto verdict = [](std::int64_t total) { return total == 0; };
  return LocalScoreChecker<MatchingProtocol::State, decltype(score),
                           decltype(verdict)>(score, verdict, 1);
}

/// min+1: every level equals the exact BFS distance from the root.
[[nodiscard]] inline auto make_min_plus_one_checker(
    const MinPlusOneProtocol& proto) {
  auto score = [&proto](const Graph&,
                        const ConfigView<MinPlusOneProtocol::State>& cfg,
                        VertexId v) -> std::int32_t {
    return cfg[static_cast<std::size_t>(v)] ==
                   proto.exact_levels()[static_cast<std::size_t>(v)]
               ? 0
               : 1;
  };
  auto verdict = [](std::int64_t total) { return total == 0; };
  // Columnar compare against the precomputed exact BFS levels.
  auto bulk = [&proto](const Graph&,
                       const ConfigView<MinPlusOneProtocol::State>& cfg)
      -> std::int64_t {
    const auto* c = cfg.column();
    const auto& exact = proto.exact_levels();
    std::int64_t total = 0;
    for (std::size_t i = 0; i < cfg.size(); ++i) {
      total += c[i] != exact[i] ? 1 : 0;
    }
    return total;
  };
  return LocalScoreChecker<MinPlusOneProtocol::State, decltype(score),
                           decltype(verdict), decltype(bulk)>(score, verdict,
                                                              0, bulk);
}

/// Leader election: the unique terminal configuration (min identity
/// elected, exact BFS distances).  Precomputes elected_config once.
[[nodiscard]] inline auto make_leader_election_checker(
    const LeaderElectionProtocol& proto, const Graph& g) {
  Config<LeaderState> elected = proto.elected_config(g);
  // Split the elected configuration into per-field columns so the bulk
  // scan is two contiguous compares under SoA layout.
  std::vector<std::int32_t> el_lead(elected.size());
  std::vector<std::int32_t> el_dist(elected.size());
  for (std::size_t i = 0; i < elected.size(); ++i) {
    el_lead[i] = elected[i].leader;
    el_dist[i] = elected[i].dist;
  }
  auto score = [elected = std::move(elected)](
                   const Graph&, const ConfigView<LeaderState>& cfg,
                   VertexId v) -> std::int32_t {
    return cfg[static_cast<std::size_t>(v)] ==
                   elected[static_cast<std::size_t>(v)]
               ? 0
               : 1;
  };
  auto verdict = [](std::int64_t total) { return total == 0; };
  auto bulk = [el_lead = std::move(el_lead), el_dist = std::move(el_dist)](
                  const Graph&,
                  const ConfigView<LeaderState>& cfg) -> std::int64_t {
    const std::int32_t* lead = cfg.column<kLeaderField>();
    const std::int32_t* dst = cfg.column<kDistField>();
    std::int64_t total = 0;
    if (lead != nullptr && dst != nullptr) {
      for (std::size_t i = 0; i < cfg.size(); ++i) {
        total += static_cast<std::int64_t>(
            static_cast<unsigned>(lead[i] != el_lead[i]) |
            static_cast<unsigned>(dst[i] != el_dist[i]));
      }
    } else {
      for (std::size_t i = 0; i < cfg.size(); ++i) {
        total += cfg[i] == LeaderState{el_lead[i], el_dist[i]} ? 0 : 1;
      }
    }
    return total;
  };
  return LocalScoreChecker<LeaderState, decltype(score), decltype(verdict),
                           decltype(bulk)>(score, verdict, 0, bulk);
}

/// Proper (Delta+1)-coloring: no out-of-palette color, no monochromatic
/// edge (each counted from both endpoints; the total is zero exactly when
/// the coloring is legitimate).
[[nodiscard]] inline auto make_coloring_checker(const ColoringProtocol& proto) {
  const std::int32_t palette = proto.palette_size();
  auto score = [palette](const Graph& g,
                         const ConfigView<ColoringProtocol::State>& cfg,
                         VertexId v) -> std::int32_t {
    const auto cv = cfg[static_cast<std::size_t>(v)];
    std::int32_t s = (cv >= 0 && cv < palette) ? 0 : 1;
    for (VertexId u : g.neighbors(v)) {
      if (cfg[static_cast<std::size_t>(u)] == cv) ++s;
    }
    return s;
  };
  auto verdict = [](std::int64_t total) { return total == 0; };
  return LocalScoreChecker<ColoringProtocol::State, decltype(score),
                           decltype(verdict)>(score, verdict, 1);
}

/// Unbounded unison spec_AU slice: every neighbouring pair within drift 1
/// (each drifted pair counted from both endpoints).
[[nodiscard]] inline auto make_unbounded_unison_checker(
    const UnboundedUnisonProtocol&) {
  auto score = [](const Graph& g,
                  const ConfigView<UnboundedUnisonProtocol::State>& cfg,
                  VertexId v) -> std::int32_t {
    const auto cv = cfg[static_cast<std::size_t>(v)];
    std::int32_t s = 0;
    for (VertexId u : g.neighbors(v)) {
      const auto cu = cfg[static_cast<std::size_t>(u)];
      if (cv - cu > 1 || cu - cv > 1) ++s;
    }
    return s;
  };
  auto verdict = [](std::int64_t total) { return total == 0; };
  // Each drifted pair is scored from both endpoints, so the bulk total is
  // twice the count of drifted edges — one pass over the edge list
  // against the raw clock column.
  auto bulk = [](const Graph& g,
                 const ConfigView<UnboundedUnisonProtocol::State>& cfg)
      -> std::int64_t {
    const auto* c = cfg.column();
    std::int64_t total = 0;
    for (const auto& [u, v] : g.edges()) {
      const auto d = c[static_cast<std::size_t>(u)] -
                     c[static_cast<std::size_t>(v)];
      total += (d > 1 || d < -1) ? 2 : 0;
    }
    return total;
  };
  return LocalScoreChecker<UnboundedUnisonProtocol::State, decltype(score),
                           decltype(verdict), decltype(bulk)>(score, verdict,
                                                              1, bulk);
}

}  // namespace specstab

#endif  // SPECSTAB_CORE_INCREMENTAL_LEGITIMACY_HPP
