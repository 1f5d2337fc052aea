// Tests for the fault-injection subsystem (sim/fault_plan.hpp): spec
// parsing, plan determinism and victim-selection properties, the
// recovery meter, service-stall windows, and a hand-computable min+1
// fixture whose corruption epochs and steps-to-legitimacy are known
// exactly and must agree across all three engines, both layouts, and
// every thread count.
#include "sim/fault_plan.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "baselines/min_plus_one.hpp"
#include "core/incremental_legitimacy.hpp"
#include "graph/generators.hpp"
#include "sim/daemon.hpp"
#include "sim/engine.hpp"
#include "sim/incremental_engine.hpp"

namespace specstab {
namespace {

using I32 = std::int32_t;

TEST(FaultSpecTest, ParsesAndFormatsCanonically) {
  // parse() accepts `,` separators; format() always emits the CSV-safe
  // `;`-joined canonical form, which round-trips exactly.
  const FaultSpec spec = FaultSpec::parse("periodic:period=16,k=2,epochs=3");
  EXPECT_EQ(spec.kind, FaultKind::kPeriodic);
  EXPECT_EQ(spec.period, 16);
  EXPECT_EQ(spec.k, 2);
  EXPECT_EQ(spec.epochs, 3);
  EXPECT_EQ(spec.start, 16);  // start defaults to period
  EXPECT_EQ(spec.format(), "periodic:period=16;k=2;epochs=3;start=16");
  EXPECT_EQ(FaultSpec::parse(spec.format()), spec);

  EXPECT_FALSE(FaultSpec::parse("none").active());
  EXPECT_FALSE(FaultSpec::parse("").active());
  EXPECT_EQ(FaultSpec{}.format(), "none");

  const FaultSpec defaults = FaultSpec::parse("burst");
  EXPECT_EQ(defaults.kind, FaultKind::kBurst);
  EXPECT_EQ(defaults.period, 64);
  EXPECT_EQ(defaults.start, 64);
  EXPECT_EQ(defaults.k, 1);
  EXPECT_EQ(defaults.epochs, 4);

  const FaultSpec immediate = FaultSpec::parse("adversarial:start=0;k=3");
  EXPECT_EQ(immediate.kind, FaultKind::kAdversarial);
  EXPECT_EQ(immediate.start, 0);
  EXPECT_EQ(immediate.k, 3);
}

TEST(FaultSpecTest, RejectsMalformedSpecs) {
  EXPECT_THROW((void)FaultSpec::parse("gamma:k=1"), std::invalid_argument);
  EXPECT_THROW((void)FaultSpec::parse("periodic:k"), std::invalid_argument);
  EXPECT_THROW((void)FaultSpec::parse("periodic:k=two"),
               std::invalid_argument);
  EXPECT_THROW((void)FaultSpec::parse("periodic:radius=2"),
               std::invalid_argument);
  EXPECT_THROW((void)FaultSpec::parse("periodic:period=0"),
               std::invalid_argument);
  EXPECT_THROW((void)FaultSpec::parse("periodic:k=0"), std::invalid_argument);
  EXPECT_THROW((void)FaultSpec::parse("periodic:epochs=0"),
               std::invalid_argument);
  EXPECT_THROW((void)FaultSpec::parse("periodic:start=-1"),
               std::invalid_argument);
}

/// Deterministic scalar pool for plan unit tests: every entry is a
/// function of (seed, index) only.
Config<I32> scalar_pool(std::size_t n, std::uint64_t seed) {
  Config<I32> c(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    c[i] = static_cast<I32>((seed + 31 * i) % 97);
  }
  return c;
}

TEST(FaultPlanTest, SameSpecAndSeedDrawIdenticalEpochs) {
  const Graph g = make_ring(12);
  const Config<I32> live(12, 0);
  const auto pool = [](std::uint64_t s) { return scalar_pool(12, s); };
  const FaultSpec spec = FaultSpec::parse("periodic:k=3;epochs=4;period=8");
  FaultPlan<I32> a(spec, 42, 1, pool, nullptr);
  FaultPlan<I32> b(spec, 42, 1, pool, nullptr);
  FaultPlan<I32> other_seed(spec, 43, 1, pool, nullptr);

  bool seeds_diverged = false;
  for (int e = 0; e < 4; ++e) {
    const StepIndex step = 8 * (e + 1);
    const Perturbation<I32> pa = a.fire(g, live, step);
    const Perturbation<I32>& pb = b.fire(g, live, step);
    const Perturbation<I32>& pc = other_seed.fire(g, live, step);
    EXPECT_EQ(pa.victims, pb.victims) << "epoch " << e;
    EXPECT_EQ(pa.values, pb.values) << "epoch " << e;
    ASSERT_EQ(pa.victims.size(), 3u);
    EXPECT_TRUE(std::is_sorted(pa.victims.begin(), pa.victims.end()));
    EXPECT_EQ(std::adjacent_find(pa.victims.begin(), pa.victims.end()),
              pa.victims.end());
    seeds_diverged =
        seeds_diverged || pa.victims != pc.victims || pa.values != pc.values;
  }
  EXPECT_TRUE(seeds_diverged);
  EXPECT_TRUE(a.exhausted());
  EXPECT_THROW((void)a.fire(g, live, 99), std::logic_error);
}

TEST(FaultPlanTest, BurstVictimsFormAConnectedCluster) {
  const Graph g = make_ring(16);
  const Config<I32> live(16, 0);
  const auto pool = [](std::uint64_t s) { return scalar_pool(16, s); };
  const FaultSpec spec = FaultSpec::parse("burst:k=5;epochs=6;period=4");
  FaultPlan<I32> plan(spec, 7, 1, pool, nullptr);
  for (int e = 0; e < 6; ++e) {
    const Perturbation<I32>& pert = plan.fire(g, live, 4 * (e + 1));
    ASSERT_EQ(pert.victims.size(), 5u) << "epoch " << e;
    // Flood from the first victim over edges inside the victim set; a
    // BFS cluster must be reachable in its induced subgraph.
    std::vector<char> in(16, 0), seen(16, 0);
    for (const VertexId v : pert.victims) in[static_cast<std::size_t>(v)] = 1;
    std::vector<VertexId> queue{pert.victims.front()};
    seen[static_cast<std::size_t>(pert.victims.front())] = 1;
    for (std::size_t head = 0; head < queue.size(); ++head) {
      for (const VertexId u : g.neighbors(queue[head])) {
        const auto ui = static_cast<std::size_t>(u);
        if (in[ui] && !seen[ui]) {
          seen[ui] = 1;
          queue.push_back(u);
        }
      }
    }
    EXPECT_EQ(queue.size(), pert.victims.size()) << "epoch " << e;
  }
}

TEST(FaultPlanTest, VictimCountIsClampedToTheGraph) {
  const Graph g = make_path(5);
  const Config<I32> live(5, 0);
  const auto pool = [](std::uint64_t s) { return scalar_pool(5, s); };
  FaultPlan<I32> plan(FaultSpec::parse("periodic:k=100"), 3, 1, pool, nullptr);
  const Perturbation<I32>& pert = plan.fire(g, live, 64);
  EXPECT_EQ(pert.victims, (std::vector<VertexId>{0, 1, 2, 3, 4}));
  EXPECT_EQ(pert.values.size(), 5u);
}

TEST(FaultPlanTest, FiresOnScheduleAndOnStall) {
  const Graph g = make_ring(8);
  const Config<I32> live(8, 0);
  const auto pool = [](std::uint64_t s) { return scalar_pool(8, s); };
  FaultPlan<I32> plan(FaultSpec::parse("periodic:period=10;start=5;epochs=2"),
                      11, 1, pool, nullptr);
  EXPECT_EQ(plan.next_fire_step(), 5);
  EXPECT_FALSE(plan.due(4, /*stalled=*/false));
  EXPECT_TRUE(plan.due(5, /*stalled=*/false));
  EXPECT_TRUE(plan.due(0, /*stalled=*/true));  // stalls fire early
  (void)plan.fire(g, live, 5);
  EXPECT_EQ(plan.next_fire_step(), 15);
  (void)plan.fire(g, live, 15);
  EXPECT_TRUE(plan.exhausted());
  EXPECT_FALSE(plan.due(99, /*stalled=*/true));
}

TEST(FaultPlanTest, ConstructorValidatesItsInputs) {
  const auto pool = [](std::uint64_t s) { return scalar_pool(4, s); };
  EXPECT_THROW(FaultPlan<I32>(FaultSpec{}, 1, 1, pool, nullptr),
               std::invalid_argument);
  EXPECT_THROW(FaultPlan<I32>(FaultSpec::parse("periodic"), 1, 1, nullptr,
                              nullptr),
               std::invalid_argument);
  EXPECT_THROW(FaultPlan<I32>(FaultSpec::parse("adversarial"), 1, 1, pool,
                              nullptr),
               std::invalid_argument);
}

TEST(RecoveryMeterTest, MetersEpochsAndSealsUnrecoveredOnes) {
  RecoveryMeter m;
  m.on_verdict(0, true);  // no epoch awaiting: ignored
  m.on_fire(10);
  m.on_verdict(10, false);
  m.on_verdict(12, false);
  m.on_verdict(13, true);   // recovered 3 steps after the corruption
  m.on_verdict(14, true);   // post-recovery verdicts are ignored
  m.on_fire(20);
  m.on_verdict(20, true);   // corruption landed legitimate: recovery 0
  m.on_fire(30);            // never recovers: sealed as -1 by finish()
  const PerturbationStats stats = m.finish();
  EXPECT_EQ(stats.epochs_fired, 3);
  EXPECT_EQ(stats.fire_steps, (std::vector<StepIndex>{10, 20, 30}));
  EXPECT_EQ(stats.recovery_steps, (std::vector<StepIndex>{3, 0, -1}));
  EXPECT_EQ(stats.unrecovered(), 1);
}

TEST(RecoveryMeterTest, NextFireSealsAStillAwaitingEpoch) {
  RecoveryMeter m;
  m.on_fire(0);
  m.on_verdict(0, false);
  m.on_fire(5);             // epoch 0 still awaiting: sealed as -1
  m.on_verdict(7, true);
  const PerturbationStats stats = m.finish();
  EXPECT_EQ(stats.recovery_steps, (std::vector<StepIndex>{-1, 2}));
  EXPECT_EQ(stats.unrecovered(), 1);
}

TEST(ServiceStallsTest, WindowsArePerEpochAndHalfOpen) {
  const std::vector<StepIndex> fires{0, 10};
  // First service at-or-after each fire, strictly before the next fire
  // (or the end of the run for the last epoch).
  EXPECT_EQ(service_stalls_per_epoch(fires, {3, 9, 10, 15}, 20),
            (std::vector<StepIndex>{3, 0}));
  // A service event exactly at the next fire belongs to the next window.
  EXPECT_EQ(service_stalls_per_epoch(fires, {10}, 20),
            (std::vector<StepIndex>{-1, 0}));
  // total_steps bounds the last window half-open too.
  EXPECT_EQ(service_stalls_per_epoch(fires, {20}, 20),
            (std::vector<StepIndex>{-1, -1}));
  EXPECT_EQ(service_stalls_per_epoch(fires, {}, 20),
            (std::vector<StepIndex>{-1, -1}));
  EXPECT_TRUE(service_stalls_per_epoch({}, {1, 2}, 20).empty());
}

/// min+1 on the 5-path, corrupted to all-zeros: the hand fixture.  The
/// exact-levels init is terminal, so epoch 1 stall-fires at step 0;
/// synchronous recovery is exactly 4 steps —
///   (0,0,0,0,0) -> (0,1,1,1,1) -> (0,1,2,2,2) -> (0,1,2,3,3) -> (0,1,2,3,4)
/// — whereupon the run re-stalls and epoch 2 fires at step 4.
RunResult<I32> run_perturbed_min_plus_one(EngineKind engine,
                                          ConfigLayout layout,
                                          unsigned threads) {
  const Graph g = make_path(5);
  const MinPlusOneProtocol proto(g);
  SynchronousDaemon daemon;
  RunOptions opt;
  opt.max_steps = 64;
  opt.engine = engine;
  opt.layout = layout;
  opt.threads = threads;
  FaultPlan<I32> plan(
      FaultSpec::parse("periodic:k=5;epochs=2;period=4;start=4"), 7, 1,
      [&g](std::uint64_t) {
        return Config<I32>(static_cast<std::size_t>(g.n()), 0);
      },
      nullptr);
  ClosureCounting checker(make_min_plus_one_checker(proto));
  return run_with_engine(g, proto, daemon, proto.exact_levels(), opt, checker,
                         nullptr, &plan);
}

TEST(FaultHandFixtureTest, MinPlusOnePathRecoversInExactlyFourSteps) {
  const auto res = run_perturbed_min_plus_one(EngineKind::kReference,
                                              ConfigLayout::kAoS, 1);
  EXPECT_EQ(res.perturb.epochs_fired, 2);
  EXPECT_EQ(res.perturb.fire_steps, (std::vector<StepIndex>{0, 4}));
  EXPECT_EQ(res.perturb.recovery_steps, (std::vector<StepIndex>{4, 4}));
  EXPECT_EQ(res.perturb.unrecovered(), 0);
  EXPECT_EQ(res.steps, 8);
  EXPECT_EQ(res.moves, 20);  // 4+3+2+1 activations per recovery wave
  EXPECT_TRUE(res.terminated);
  EXPECT_TRUE(res.converged());
  EXPECT_EQ(res.convergence_steps(), 8);
  EXPECT_EQ(res.final_config, (Config<I32>{0, 1, 2, 3, 4}));
}

TEST(FaultHandFixtureTest, AllEnginesLayoutsAndThreadCountsAgree) {
  const auto ref = run_perturbed_min_plus_one(EngineKind::kReference,
                                              ConfigLayout::kAoS, 1);
  for (const EngineKind engine :
       {EngineKind::kReference, EngineKind::kIncremental,
        EngineKind::kParallel}) {
    for (const ConfigLayout layout :
         {ConfigLayout::kAuto, ConfigLayout::kAoS, ConfigLayout::kSoA}) {
      for (const unsigned threads : {1u, 2u, 8u}) {
        const auto res = run_perturbed_min_plus_one(engine, layout, threads);
        const std::string at = std::string(engine_name(engine)) + "/" +
                               std::string(config_layout_name(layout)) + "/" +
                               std::to_string(threads);
        EXPECT_EQ(res.perturb, ref.perturb) << at;
        EXPECT_EQ(res.steps, ref.steps) << at;
        EXPECT_EQ(res.moves, ref.moves) << at;
        EXPECT_EQ(res.rounds, ref.rounds) << at;
        EXPECT_EQ(res.first_legitimate, ref.first_legitimate) << at;
        EXPECT_EQ(res.last_illegitimate, ref.last_illegitimate) << at;
        EXPECT_EQ(res.final_config, ref.final_config) << at;
        EXPECT_EQ(res.terminated, ref.terminated) << at;
      }
    }
  }
}

}  // namespace
}  // namespace specstab
