// Layout-agreement differential suite.
//
// The ConfigStore contract: results are *byte-identical* across storage
// layouts — a run differs in memory traffic only, never in observable
// behaviour.  This harness holds every registered protocol to it, through
// the type-erased session API, across the full
// protocol x init x daemon x engine x layout grid: printed final states,
// FNV digests, every meter, and the complete delta trace must match the
// reference-engine AoS baseline combo for combo.
//
// The typed half drives the store's remaining code paths directly:
//   - a struct state with a *cold payload* (covers_state == false), so
//     the residual full-struct array plus hot-column mirror is exercised
//     (no built-in protocol needs it);
//   - LeaderState's covers-all split (column gather on whole-state
//     reads);
//   - ConfigStore unit semantics (set/get round trips, dense_apply vs a
//     naive apply, take()/materialize()).
#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "extensions/leader_election.hpp"
#include "graph/generators.hpp"
#include "sim/any_protocol.hpp"
#include "sim/config_store.hpp"
#include "sim/daemon.hpp"
#include "sim/incremental_engine.hpp"
#include "sim/protocol_registry.hpp"

namespace specstab {

/// Test-only state with one hot guard field and a cold payload the guards
/// never read — the shape the residual array exists for.
struct HotColdState {
  std::int32_t hot = 0;
  std::int64_t payload = 0;

  friend bool operator==(const HotColdState&, const HotColdState&) = default;
};

template <>
struct SoaFields<HotColdState> {
  static constexpr auto members = std::make_tuple(&HotColdState::hot);
  static constexpr bool covers_state = false;  // payload stays residual
};

namespace {

/// Max-propagation over the hot field; every move also churns the cold
/// payload, so a layout bug that loses residual writes breaks equality.
class HotColdProtocol {
 public:
  using State = HotColdState;

  [[nodiscard]] bool enabled(const Graph& g, const ConfigView<State>& cfg,
                             VertexId v) const {
    const std::int32_t mine = cfg.field<0>(static_cast<std::size_t>(v));
    for (VertexId u : g.neighbors(v)) {
      if (cfg.field<0>(static_cast<std::size_t>(u)) > mine) return true;
    }
    return false;
  }
  [[nodiscard]] State apply(const Graph& g, const ConfigView<State>& cfg,
                            VertexId v) const {
    State s = cfg.get(static_cast<std::size_t>(v));
    for (VertexId u : g.neighbors(v)) {
      const std::int32_t hu = cfg.field<0>(static_cast<std::size_t>(u));
      if (hu > s.hot) s.hot = hu;
    }
    s.payload = s.payload * 31 + v + 1;
    return s;
  }
  [[nodiscard]] std::string_view rule_name(const Graph&,
                                           const ConfigView<State>&,
                                           VertexId) const {
    return "MAX";
  }
};

Config<HotColdState> random_hotcold(const Graph& g, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  Config<HotColdState> cfg(static_cast<std::size_t>(g.n()));
  for (auto& s : cfg) {
    s.hot = static_cast<std::int32_t>(rng() % 17);
    s.payload = static_cast<std::int64_t>(rng() % 1000);
  }
  return cfg;
}

template <class State>
void expect_same_run(const RunResult<State>& a, const RunResult<State>& b,
                     const std::string& label) {
  EXPECT_EQ(a.steps, b.steps) << label;
  EXPECT_EQ(a.moves, b.moves) << label;
  EXPECT_EQ(a.rounds, b.rounds) << label;
  EXPECT_EQ(a.terminated, b.terminated) << label;
  EXPECT_EQ(a.hit_step_cap, b.hit_step_cap) << label;
  EXPECT_EQ(a.first_legitimate, b.first_legitimate) << label;
  EXPECT_EQ(a.last_illegitimate, b.last_illegitimate) << label;
  EXPECT_EQ(a.moves_to_convergence, b.moves_to_convergence) << label;
  EXPECT_EQ(a.rounds_to_convergence, b.rounds_to_convergence) << label;
  EXPECT_TRUE(a.final_config == b.final_config) << label;
  EXPECT_TRUE(a.trace == b.trace) << label;
}

// --- Typed differential: residual split, engines x layouts ------------

TEST(LayoutAgreement, HotColdResidualSplitAgreesAcrossEnginesAndLayouts) {
  const HotColdProtocol proto;
  for (const Graph& g : {make_ring(12), make_torus(3, 4),
                         make_random_connected(16, 0.3, 5)}) {
    for (const std::string daemon_name :
         {std::string("synchronous"), std::string("central-rr"),
          std::string("bernoulli-0.5")}) {
      for (std::uint64_t seed = 0; seed < 5; ++seed) {
        std::vector<RunResult<HotColdState>> runs;
        std::vector<std::string> labels;
        for (const EngineKind engine :
             {EngineKind::kReference, EngineKind::kIncremental,
              EngineKind::kParallel}) {
          for (const ConfigLayout layout :
               {ConfigLayout::kAoS, ConfigLayout::kSoA}) {
            RunOptions opt;
            opt.engine = engine;
            opt.threads = engine == EngineKind::kParallel ? 3 : 1;
            opt.layout = layout;
            opt.max_steps = 4000;
            opt.record_trace = true;
            const auto daemon = make_daemon(daemon_name, seed);
            AlwaysLegitimate checker;
            runs.push_back(run_with_engine(g, proto, *daemon,
                                           random_hotcold(g, seed), opt,
                                           checker));
            labels.push_back(std::string(engine_name(engine)) + "/" +
                             std::string(config_layout_name(layout)));
            EXPECT_TRUE(runs.back().terminated) << labels.back();
          }
        }
        for (std::size_t i = 1; i < runs.size(); ++i) {
          expect_same_run(runs[0], runs[i],
                          daemon_name + " seed " + std::to_string(seed) +
                              ": " + labels[0] + " vs " + labels[i]);
        }
      }
    }
  }
}

TEST(LayoutAgreement, FusedParallelThreadGridAgreesAcrossLayouts) {
  // The fused dense path fills column segments per shard
  // (dense_map_range), including the residual full-struct array the
  // HotCold split leaves behind — a lost residual write or a torn column
  // segment shows up as a final-config or trace mismatch.  Graph sizes
  // straddle the 64-vertex word boundary (97, 130) so shards get unequal
  // word counts at every thread value.
  const HotColdProtocol proto;
  for (const Graph& g :
       {make_ring(130), make_random_connected(97, 0.05, 13)}) {
    for (const std::string daemon_name :
         {std::string("synchronous"), std::string("bernoulli-0.5")}) {
      for (std::uint64_t seed = 0; seed < 4; ++seed) {
        RunOptions opt;
        opt.max_steps = 4000;
        opt.record_trace = true;
        opt.engine = EngineKind::kIncremental;
        opt.threads = 1;
        opt.layout = ConfigLayout::kAoS;
        const auto init = random_hotcold(g, seed);
        const auto base_daemon = make_daemon(daemon_name, seed);
        AlwaysLegitimate base_checker;
        const auto base = run_with_engine(g, proto, *base_daemon, init, opt,
                                          base_checker);
        EXPECT_TRUE(base.terminated);

        opt.engine = EngineKind::kParallel;
        for (const unsigned threads : {1u, 2u, 8u}) {
          for (const ConfigLayout layout :
               {ConfigLayout::kAoS, ConfigLayout::kSoA}) {
            opt.threads = threads;
            opt.layout = layout;
            const auto daemon = make_daemon(daemon_name, seed);
            AlwaysLegitimate checker;
            const auto got =
                run_with_engine(g, proto, *daemon, init, opt, checker);
            expect_same_run(
                base, got,
                "n=" + std::to_string(g.n()) + " " + daemon_name + " seed " +
                    std::to_string(seed) + " parallel-t" +
                    std::to_string(threads) + "/" +
                    std::string(config_layout_name(layout)));
          }
        }
      }
    }
  }
}

// --- Typed differential: covers-all split (LeaderState) ---------------

TEST(LayoutAgreement, LeaderColumnsAgreeWithAoSIncludingTraces) {
  const Graph g = make_random_connected(24, 0.2, 9);
  const LeaderElectionProtocol proto(g);
  for (const std::string daemon_name :
       {std::string("synchronous"), std::string("bernoulli-0.5")}) {
    for (std::uint64_t seed = 0; seed < 5; ++seed) {
      std::vector<RunResult<LeaderState>> runs;
      for (const EngineKind engine :
           {EngineKind::kReference, EngineKind::kIncremental,
            EngineKind::kParallel}) {
        for (const ConfigLayout layout :
             {ConfigLayout::kAoS, ConfigLayout::kSoA}) {
          RunOptions opt;
          opt.engine = engine;
          opt.threads = engine == EngineKind::kParallel ? 3 : 1;
          opt.layout = layout;
          opt.max_steps = 4000;
          opt.record_trace = true;
          const auto daemon = make_daemon(daemon_name, seed);
          auto checker = make_leader_election_checker(proto, g);
          runs.push_back(run_with_engine(g, proto, *daemon,
                                         random_leader_config(g, seed), opt,
                                         checker));
        }
      }
      for (std::size_t i = 1; i < runs.size(); ++i) {
        expect_same_run(runs[0], runs[i],
                        daemon_name + " seed " + std::to_string(seed) +
                            " combo " + std::to_string(i));
      }
    }
  }
}

// --- Registry-driven: every protocol x init x daemon x engine x layout -

TEST(LayoutAgreement, RegistrySessionsAgreeByteForByteAcrossLayouts) {
  const auto& registry = ProtocolRegistry::instance();
  const Graph ring = make_ring(9);
  const Graph torus = make_torus(3, 3);
  for (const auto& entry : registry.entries()) {
    for (const Graph* g :
         entry.info.ring_only ? std::vector<const Graph*>{&ring}
                              : std::vector<const Graph*>{&ring, &torus}) {
      for (const auto& init : entry.info.inits) {
        for (const std::string daemon_name :
             {std::string("synchronous"), std::string("central-rr"),
              std::string("bernoulli-0.5")}) {
          SessionSpec spec;
          spec.daemon = daemon_name;
          spec.init = init;
          spec.seed = 7;
          spec.record_trace = true;

          std::vector<SessionResult> results;
          std::vector<std::string> labels;
          for (const EngineKind engine :
               {EngineKind::kReference, EngineKind::kIncremental,
                EngineKind::kParallel}) {
            for (const ConfigLayout layout :
                 {ConfigLayout::kAoS, ConfigLayout::kSoA}) {
              spec.engine = engine;
              spec.threads = engine == EngineKind::kParallel ? 3 : 1;
              spec.layout = layout;
              results.push_back(entry.run(*g, spec));
              labels.push_back(std::string(engine_name(engine)) + "/" +
                               std::string(config_layout_name(layout)));
            }
          }
          const auto& base = results.front();
          for (std::size_t i = 1; i < results.size(); ++i) {
            const std::string label = entry.info.name + " init=" + init +
                                      " daemon=" + daemon_name + " " +
                                      labels[0] + " vs " + labels[i];
            const auto& r = results[i];
            ASSERT_EQ(base.final_digest, r.final_digest) << label;
            ASSERT_EQ(base.final_state, r.final_state) << label;
            EXPECT_EQ(base.steps, r.steps) << label;
            EXPECT_EQ(base.moves, r.moves) << label;
            EXPECT_EQ(base.rounds, r.rounds) << label;
            EXPECT_EQ(base.converged, r.converged) << label;
            EXPECT_EQ(base.convergence_steps, r.convergence_steps) << label;
            EXPECT_EQ(base.closure_violations, r.closure_violations) << label;
            ASSERT_EQ(base.trace_length, r.trace_length) << label;
            // Full delta-trace agreement through the erased boundary.
            EXPECT_EQ(base.trace_materialize(), r.trace_materialize())
                << label;
          }
        }
      }
    }
  }
}

// --- ConfigStore unit semantics ---------------------------------------

TEST(ConfigStore, LayoutResolutionAndNames) {
  EXPECT_EQ(ConfigStore<std::int32_t>::resolve(ConfigLayout::kAuto),
            ConfigLayout::kSoA);
  EXPECT_EQ(ConfigStore<std::int32_t>::resolve(ConfigLayout::kAoS),
            ConfigLayout::kAoS);
  EXPECT_EQ(ConfigStore<LeaderState>::resolve(ConfigLayout::kAuto),
            ConfigLayout::kSoA);
  EXPECT_EQ(ConfigStore<HotColdState>::resolve(ConfigLayout::kAuto),
            ConfigLayout::kSoA);
  // No split declared: SoA requests fall back to AoS.
  using Pair = std::pair<std::int32_t, std::int32_t>;
  EXPECT_EQ(ConfigStore<Pair>::resolve(ConfigLayout::kSoA),
            ConfigLayout::kAoS);

  EXPECT_EQ(config_layout_name(ConfigLayout::kSoA), "soa");
  EXPECT_EQ(config_layout_by_name("aos"), ConfigLayout::kAoS);
  EXPECT_THROW((void)config_layout_by_name("bogus"), std::invalid_argument);
}

TEST(ConfigStore, RoundTripsAndFieldAccessAcrossLayouts) {
  const Graph g = make_ring(6);
  const Config<LeaderState> init = random_leader_config(g, 3);
  for (const ConfigLayout layout : {ConfigLayout::kAoS, ConfigLayout::kSoA}) {
    ConfigStore<LeaderState> store(init, layout);
    EXPECT_EQ(store.layout(), layout);
    const ConfigView<LeaderState> view = store.view();
    for (std::size_t i = 0; i < init.size(); ++i) {
      EXPECT_TRUE(view.get(i) == init[i]);
      EXPECT_EQ(view.field<kLeaderField>(i), init[i].leader);
      EXPECT_EQ(view.field<kDistField>(i), init[i].dist);
    }
    store.set(2, LeaderState{-5, 9});
    EXPECT_TRUE(store.get(2) == (LeaderState{-5, 9}));
    EXPECT_EQ(store.view().field<kDistField>(2), 9);
    EXPECT_TRUE(store.materialize() != init);
    Config<LeaderState> expected = init;
    expected[2] = LeaderState{-5, 9};
    EXPECT_TRUE(store.take() == expected);
  }
}

TEST(ConfigStore, DenseApplyMatchesNaiveApply) {
  const Graph g = make_ring(10);
  for (const ConfigLayout layout : {ConfigLayout::kAoS, ConfigLayout::kSoA}) {
    const Config<HotColdState> init = random_hotcold(g, 11);
    const HotColdProtocol proto;
    const std::vector<VertexId> activated = {0, 3, 4, 7, 9};

    Config<HotColdState> expected = init;
    for (VertexId v : activated) {
      expected[static_cast<std::size_t>(v)] = proto.apply(g, init, v);
    }

    ConfigStore<HotColdState> store(init, layout);
    store.dense_apply(activated, [&](ConfigView<HotColdState> prev,
                                     VertexId v) {
      return proto.apply(g, prev, v);
    });
    EXPECT_TRUE(store.materialize() == expected);
    // The swapped-out buffer still reads the pre-action configuration.
    EXPECT_TRUE(store.prev_view().materialize() == init);
  }
}

}  // namespace
}  // namespace specstab
