// Edge cases across the stack: degenerate topologies (n = 1, 2), the
// identities-matter demonstration (paper Section 4.1 citing Burns &
// Pachl), generalized layouts under the full adversary portfolio, and
// composition across the extension protocols.
#include <gtest/gtest.h>

#include <functional>
#include <string>

#include "baselines/matching.hpp"
#include "baselines/unbounded_unison.hpp"
#include "core/adversarial_configs.hpp"
#include "core/composition.hpp"
#include "core/generalized_ssme.hpp"
#include "core/incremental_legitimacy.hpp"
#include "core/speculation.hpp"
#include "core/ssme.hpp"
#include "extensions/coloring.hpp"
#include "extensions/leader_election.hpp"
#include "graph/generators.hpp"
#include "graph/properties.hpp"
#include "sim/daemon.hpp"
#include "sim/engine.hpp"
#include "sim/incremental_engine.hpp"
#include "sim/protocol_registry.hpp"

namespace specstab {
namespace {

using Legit = std::function<bool(const Graph&, const Config<ClockValue>&)>;

Legit gamma1(const SsmeProtocol& proto) {
  return [&proto](const Graph& g, const Config<ClockValue>& cfg) {
    return proto.legitimate(g, cfg);
  };
}

// --- Degenerate topologies ---

TEST(EdgeCaseTest, SingleVertexSystemStabilizesAndIsAlwaysSafe) {
  const Graph g = make_path(1);
  const SsmeProtocol proto = SsmeProtocol::for_graph(g);
  EXPECT_EQ(proto.params().diam, 0);
  SynchronousDaemon d;
  RunOptions opt;
  opt.max_steps = 4 * proto.params().k;
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    const auto res = run_execution(
        g, proto, d, random_config(g, proto.clock(), seed), opt,
        gamma1(proto));
    ASSERT_TRUE(res.converged()) << seed;
    // One vertex: safety can never break.
    EXPECT_TRUE(proto.mutex_safe(g, res.final_config));
  }
}

TEST(EdgeCaseTest, TwoVertexSystemHonoursTheoremTwo) {
  const Graph g = make_path(2);
  const SsmeProtocol proto = SsmeProtocol::for_graph(g);
  SynchronousDaemon d;
  RunOptions opt;
  opt.max_steps = 4 * (proto.params().k + proto.params().n);
  const std::function<bool(const Graph&, const Config<ClockValue>&)> safe =
      [&proto](const Graph& gg, const Config<ClockValue>& c) {
        return proto.mutex_safe(gg, c);
      };
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    const auto res = run_execution(
        g, proto, d, random_config(g, proto.clock(), seed), opt, safe);
    ASSERT_TRUE(res.converged()) << seed;
    EXPECT_LE(res.convergence_steps(), 1) << seed;  // ceil(1/2) = 1
  }
}

TEST(EdgeCaseTest, CompleteGraphHasUnitBound) {
  // diam = 1: safety stabilizes within one synchronous step from any
  // configuration.
  const Graph g = make_complete(6);
  const SsmeProtocol proto = SsmeProtocol::for_graph(g);
  SynchronousDaemon d;
  RunOptions opt;
  opt.max_steps = 4 * proto.params().k;
  const std::function<bool(const Graph&, const Config<ClockValue>&)> safe =
      [&proto](const Graph& gg, const Config<ClockValue>& c) {
        return proto.mutex_safe(gg, c);
      };
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    const auto res = run_execution(
        g, proto, d, random_config(g, proto.clock(), seed), opt, safe);
    ASSERT_TRUE(res.converged()) << seed;
    EXPECT_LE(res.convergence_steps(), 1) << seed;
  }
}

// --- Empty and single-vertex graphs, all three engines ---

/// Every engine must return a well-formed *terminated* RunResult on the
/// empty graph: no enabled vertices exist, so the run ends before the
/// daemon is ever consulted — steps = moves = rounds = 0, terminated,
/// no step-cap hit, and an empty final configuration.  The parallel
/// engine additionally runs with more worker threads than vertices
/// (all shard ranges empty).
template <class P, class MakeChecker>
void expect_degenerate_termination(const Graph& g, const P& proto,
                                   const Config<typename P::State>& init,
                                   MakeChecker make_checker) {
  struct EngineCase {
    EngineKind kind;
    unsigned threads;
  };
  constexpr EngineCase kCases[] = {{EngineKind::kReference, 1},
                                   {EngineKind::kIncremental, 1},
                                   {EngineKind::kParallel, 1},
                                   {EngineKind::kParallel, 8}};
  for (const auto& daemon_name :
       {std::string("synchronous"), std::string("central-rr"),
        std::string("bernoulli-0.5"), std::string("random-subset")}) {
    for (const EngineCase c : kCases) {
      RunOptions opt;
      opt.max_steps = 50;
      opt.engine = c.kind;
      opt.threads = c.threads;
      opt.record_trace = true;
      auto daemon = make_daemon(daemon_name, 7);
      auto checker = make_checker();
      const auto res =
          run_with_engine(g, proto, *daemon, init, opt, checker);
      const std::string ctx = "daemon=" + daemon_name + " engine=" +
                              std::string(engine_name(c.kind)) +
                              " threads=" + std::to_string(c.threads);
      EXPECT_TRUE(res.terminated) << ctx;
      EXPECT_FALSE(res.hit_step_cap) << ctx;
      EXPECT_EQ(res.steps, 0) << ctx;
      EXPECT_EQ(res.moves, 0) << ctx;
      EXPECT_EQ(res.rounds, 0) << ctx;
      EXPECT_EQ(res.final_config, init) << ctx;
      // Vacuously legitimate from configuration 0.
      EXPECT_EQ(res.first_legitimate, 0) << ctx;
      EXPECT_EQ(res.last_illegitimate, -1) << ctx;
    }
  }
}

TEST(EdgeCaseTest, EmptyGraphTerminatesOnAllEngines) {
  const Graph g(0);
  {
    const UnboundedUnisonProtocol proto;
    expect_degenerate_termination(
        g, proto, Config<UnboundedUnisonProtocol::State>{},
        [&] { return make_unbounded_unison_checker(proto); });
  }
  {
    const MatchingProtocol proto;
    expect_degenerate_termination(
        g, proto, Config<MatchingProtocol::State>{},
        [&] { return make_matching_checker(proto); });
  }
}

TEST(EdgeCaseTest, SingleVertexMatchingTerminatesOnAllEngines) {
  // An isolated vertex can never match (no neighbor to point at), so
  // once its pointer is null the protocol is silent.  A null init
  // terminates at step 0 on every engine.
  const Graph g(1);
  const MatchingProtocol proto;
  expect_degenerate_termination(g, proto, Config<MatchingProtocol::State>{-1},
                                [&] { return make_matching_checker(proto); });
}

TEST(EdgeCaseTest, SingleVertexUnisonRunsToCapIdenticallyOnAllEngines) {
  // Unbounded unison's guard is vacuously true on an isolated vertex
  // ("no neighbor lags"), so the vertex increments forever — the run is
  // *supposed* to hit the step cap.  Well-formedness here means every
  // engine reports the cap identically: steps = moves = max_steps, one
  // round per step, final clock = init + steps.
  const Graph g(1);
  const UnboundedUnisonProtocol proto;
  struct EngineCase {
    EngineKind kind;
    unsigned threads;
  };
  constexpr EngineCase kCases[] = {{EngineKind::kReference, 1},
                                   {EngineKind::kIncremental, 1},
                                   {EngineKind::kParallel, 1},
                                   {EngineKind::kParallel, 8}};
  for (const EngineCase c : kCases) {
    RunOptions opt;
    opt.max_steps = 40;
    opt.engine = c.kind;
    opt.threads = c.threads;
    auto daemon = make_daemon("synchronous", 1);
    auto checker = make_unbounded_unison_checker(proto);
    const auto res = run_with_engine(
        g, proto, *daemon, Config<UnboundedUnisonProtocol::State>{3}, opt,
        checker);
    const std::string ctx = std::string("engine=") +
                            std::string(engine_name(c.kind)) +
                            " threads=" + std::to_string(c.threads);
    EXPECT_FALSE(res.terminated) << ctx;
    EXPECT_TRUE(res.hit_step_cap) << ctx;
    EXPECT_EQ(res.steps, 40) << ctx;
    EXPECT_EQ(res.moves, 40) << ctx;
    EXPECT_EQ(res.rounds, 40) << ctx;
    ASSERT_EQ(res.final_config.size(), 1u) << ctx;
    EXPECT_EQ(res.final_config[0], 43) << ctx;
  }
}

TEST(EdgeCaseTest, SingleVertexSessionsThreadInvariantThroughRegistry) {
  // The type-erased session path on a single-vertex graph: every
  // non-ring protocol must produce a well-formed SessionResult, and the
  // incremental and parallel engines must match the reference byte for
  // byte (ring-only protocols are skipped — an index ring needs n >= 3).
  const auto& registry = ProtocolRegistry::instance();
  const Graph g(1);
  for (const auto& entry : registry.entries()) {
    if (entry.info.ring_only) continue;
    SessionSpec spec;
    spec.seed = 11;
    spec.engine = EngineKind::kReference;
    const SessionResult ref = entry.run(g, spec);
    ASSERT_EQ(ref.final_state.size(), 1u) << entry.info.name;
    struct EngineCase {
      EngineKind kind;
      unsigned threads;
    };
    constexpr EngineCase kCases[] = {{EngineKind::kIncremental, 1},
                                     {EngineKind::kParallel, 1},
                                     {EngineKind::kParallel, 8}};
    for (const EngineCase c : kCases) {
      spec.engine = c.kind;
      spec.threads = c.threads;
      const SessionResult res = entry.run(g, spec);
      const std::string ctx = entry.info.name + " engine=" +
                              std::string(engine_name(c.kind)) +
                              " threads=" + std::to_string(c.threads);
      EXPECT_EQ(res.final_state, ref.final_state) << ctx;
      EXPECT_EQ(res.final_digest, ref.final_digest) << ctx;
      EXPECT_EQ(res.steps, ref.steps) << ctx;
      EXPECT_EQ(res.moves, ref.moves) << ctx;
      EXPECT_EQ(res.rounds, ref.rounds) << ctx;
      EXPECT_EQ(res.terminated, ref.terminated) << ctx;
      EXPECT_EQ(res.hit_step_cap, ref.hit_step_cap) << ctx;
      EXPECT_EQ(res.converged, ref.converged) << ctx;
    }
  }
}

// --- Identities matter (paper Section 4.1, citing Burns & Pachl [4]) ---

TEST(EdgeCaseTest, AnonymousPrivilegeLayoutCannotBeSafe) {
  // Strip the identities out of the layout (spacing 0: every vertex
  // privileged at the same clock value — the anonymous protocol) and
  // safety becomes impossible inside Gamma_1: the conflict witness is
  // realisable on every topology with n >= 2.  This is the executable
  // face of the paper's "we must assume a system with identities".
  for (const auto& g : {make_ring(6), make_path(4), make_grid(2, 3)}) {
    GeneralizedSsmeParams params =
        GeneralizedSsmeParams::paper(g.n(), diameter(g));
    params.spacing = 0;
    ASSERT_FALSE(gamma1_safe_layout(params));
    const auto conflict = find_gamma1_conflict(g, params);
    ASSERT_TRUE(conflict.has_value());
    const auto cfg =
        gamma1_conflict_config(g, params, conflict->first, conflict->second);
    const GeneralizedSsmeProtocol proto(params);
    EXPECT_TRUE(proto.legitimate(g, cfg));
    // With spacing 0 the conflict configuration is the uniform one:
    // every vertex is privileged simultaneously.
    EXPECT_EQ(proto.count_privileged(g, cfg), g.n());
  }
}

// --- Generalized layout under the full portfolio ---

TEST(EdgeCaseTest, MinimalLayoutStabilizesUnderPortfolio) {
  const Graph g = make_ring(8);
  const auto params = GeneralizedSsmeParams::minimal_safe(
      g.n(), diameter(g), static_cast<ClockValue>(g.n()));
  const GeneralizedSsmeProtocol proto(params);
  auto portfolio = AdversaryPortfolio::standard(0xedbe);
  RunOptions opt;
  opt.max_steps = 200 * (params.k + params.alpha);
  const std::function<bool(const Graph&, const Config<ClockValue>&)> legit =
      [&proto](const Graph& gg, const Config<ClockValue>& c) {
        return proto.legitimate(gg, c);
      };
  const auto inits = random_configs(g, proto.clock(), 4, 0x11);
  const auto pm =
      measure_portfolio(g, proto, portfolio, inits, legit, opt);
  EXPECT_TRUE(pm.all_converged);
}

// --- Composition across the extension protocols ---

TEST(EdgeCaseTest, SsmeComposesWithColoring) {
  using Composed = CollateralComposition<SsmeProtocol, ColoringProtocol>;
  const Graph g = make_grid(3, 3);
  const Composed composed{SsmeProtocol::for_graph(g), ColoringProtocol{g}};
  SynchronousDaemon d;
  RunOptions opt;
  opt.max_steps = 10 * composed.first().params().k;
  opt.steps_after_convergence = 0;

  auto init = Composed::combine(
      random_config(g, composed.first().clock(), 5),
      monochrome_config(g, 0));
  const std::function<bool(const Graph&, const Config<Composed::State>&)>
      both = [&composed](const Graph& gg, const Config<Composed::State>& c) {
        return composed.first().legitimate(gg, Composed::project_first(c)) &&
               composed.second().legitimate(gg, Composed::project_second(c));
      };
  const auto res = run_execution(g, composed, d, init, opt, both);
  ASSERT_TRUE(res.converged());
  EXPECT_EQ(composed.second().conflict_count(
                g, Composed::project_second(res.final_config)),
            0);
  EXPECT_TRUE(composed.first().mutex_safe(
      g, Composed::project_first(res.final_config)));
}

TEST(EdgeCaseTest, LeaderElectionComposesWithColoring) {
  using Composed =
      CollateralComposition<LeaderElectionProtocol, ColoringProtocol>;
  const Graph g = make_binary_tree(7);
  const Composed composed{LeaderElectionProtocol{g}, ColoringProtocol{g}};
  SynchronousDaemon d;
  RunOptions opt;
  opt.max_steps = 200 * g.n();
  auto init = Composed::combine(random_leader_config(g, 3),
                                monochrome_config(g, 1));
  // Both components are silent: the composition terminates in their
  // conjunction.
  const auto res = run_execution(g, composed, d, init, opt);
  ASSERT_TRUE(res.terminated);
  EXPECT_TRUE(composed.first().legitimate(
      g, Composed::project_first(res.final_config)));
  EXPECT_TRUE(composed.second().legitimate(
      g, Composed::project_second(res.final_config)));
}

// --- Theorem 2 on asymmetric diameter pairs ---

TEST(EdgeCaseTest, WitnessWorksOnNonDiameterPairs) {
  // The two-gradient construction fires for ANY vertex pair, at
  // ceil(dist/2) - 1 — not only for diameter pairs.
  const Graph g = make_ring(12);
  const SsmeProtocol proto = SsmeProtocol::for_graph(g);
  SynchronousDaemon d;
  for (const auto& [u, v] : {std::pair<VertexId, VertexId>{0, 3}, {0, 5},
                            {2, 8}}) {
    const auto init = two_gradient_config(g, proto, u, v);
    const auto fire = two_gradient_violation_step(g, u, v);
    RunOptions opt;
    opt.max_steps = fire + 1;
    opt.record_trace = true;
    const auto res = run_execution(g, proto, d, init, opt);
    ASSERT_GT(res.trace.size(), static_cast<std::size_t>(fire));
    const auto& cfg = res.trace[static_cast<std::size_t>(fire)];
    EXPECT_TRUE(proto.privileged(cfg, u)) << u << "," << v;
    EXPECT_TRUE(proto.privileged(cfg, v)) << u << "," << v;
  }
}

}  // namespace
}  // namespace specstab
