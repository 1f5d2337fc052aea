// Unit tests for asynchronous round accounting.
#include "sim/trace.hpp"

#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "graph/generators.hpp"
#include "sim/daemon.hpp"
#include "sim/engine.hpp"
#include "sim/protocol.hpp"

namespace specstab {
namespace {

TEST(RoundCounterTest, SynchronousStepsAreRounds) {
  RoundCounter rc(3);
  // Every action serves the whole enabled set: one round per action.
  rc.on_action({0, 1, 2}, {0, 1, 2}, {0, 1, 2});
  EXPECT_EQ(rc.completed_rounds(), 1);
  rc.on_action({0, 1, 2}, {0, 1, 2}, {});
  EXPECT_EQ(rc.completed_rounds(), 2);
}

TEST(RoundCounterTest, CentralScheduleNeedsFullSweep) {
  RoundCounter rc(3);
  rc.on_action({0, 1, 2}, {0}, {0, 1, 2});
  EXPECT_EQ(rc.completed_rounds(), 0);
  rc.on_action({0, 1, 2}, {1}, {0, 1, 2});
  EXPECT_EQ(rc.completed_rounds(), 0);
  rc.on_action({0, 1, 2}, {2}, {0, 1, 2});
  EXPECT_EQ(rc.completed_rounds(), 1);  // all three initially-enabled served
}

TEST(RoundCounterTest, DisablingNeutralisesPending) {
  RoundCounter rc(3);
  rc.on_action({0, 1, 2}, {0}, {0, 1});  // 2 became disabled: neutralised
  EXPECT_EQ(rc.completed_rounds(), 0);
  rc.on_action({0, 1}, {1}, {0, 1});     // 0 and 1 served -> round closes
  EXPECT_EQ(rc.completed_rounds(), 1);
}

TEST(RoundCounterTest, ReactivationDoesNotRejoinOpenRound) {
  RoundCounter rc(2);
  // Round opens on {0, 1}; vertex 1 disabled then re-enabled: it was
  // neutralised, so only 0 remains pending.
  rc.on_action({0, 1}, {0}, {0});
  EXPECT_EQ(rc.completed_rounds(), 1);  // 0 served, 1 neutralised
}

TEST(RoundCounterTest, ResetClearsState) {
  RoundCounter rc(2);
  rc.on_action({0, 1}, {0}, {0, 1});
  rc.reset();
  EXPECT_EQ(rc.completed_rounds(), 0);
  rc.on_action({0, 1}, {0, 1}, {});
  EXPECT_EQ(rc.completed_rounds(), 1);
}

TEST(RoundCounterTest, FullActionCountPathMatchesExplicitVectors) {
  // The engines account a full action at a round boundary by count
  // alone (counts_full_action + on_full_action) and snapshot the
  // pre-action set only when a partial action opens a round.  Over
  // random enabled-set sequences mixing full and partial actions, that
  // protocol must count exactly the rounds on_action() counts from the
  // explicit vectors.
  constexpr VertexId kN = 40;
  std::mt19937_64 rng(11);
  for (int trial = 0; trial < 50; ++trial) {
    RoundCounter by_vectors(kN), by_count(kN);
    std::vector<VertexId> before;
    for (VertexId v = 0; v < kN; ++v) {
      if (rng() % 2) before.push_back(v);
    }
    if (before.empty()) before.push_back(0);
    std::vector<VertexId> round_base;
    for (int step = 0; step < 60; ++step) {
      std::vector<VertexId> activated;
      if (rng() % 3 == 0) {
        activated = before;  // full action
      } else {
        for (VertexId v : before) {
          if (rng() % 3 == 0) activated.push_back(v);
        }
        if (activated.empty()) {
          activated.push_back(before[rng() % before.size()]);
        }
      }
      std::vector<VertexId> after;
      for (VertexId v = 0; v < kN; ++v) {
        if (rng() % 2) after.push_back(v);
      }
      if (after.empty()) after.push_back(static_cast<VertexId>(rng() % kN));

      by_vectors.on_action(before, activated, after);

      const bool full = by_count.counts_full_action(before.size(),
                                                    activated.size());
      if (!full && !by_count.round_open()) round_base = before;
      if (full) {
        by_count.on_full_action();
      } else {
        by_count.on_action(round_base, activated, after);
      }
      ASSERT_EQ(by_count.completed_rounds(), by_vectors.completed_rounds())
          << "trial " << trial << " step " << step;
      ASSERT_EQ(by_count.round_open(), by_vectors.round_open())
          << "trial " << trial << " step " << step;
      before = after;
    }
  }
}

// Integration: engine round metering on a countdown protocol.
struct CountdownProtocol {
  using State = int;
  [[nodiscard]] bool enabled(const Graph&, const Config<State>& cfg,
                             VertexId v) const {
    return cfg[static_cast<std::size_t>(v)] > 0;
  }
  [[nodiscard]] State apply(const Graph&, const Config<State>& cfg,
                            VertexId v) const {
    return cfg[static_cast<std::size_t>(v)] - 1;
  }
  [[nodiscard]] std::string_view rule_name(const Graph&, const Config<State>&,
                                           VertexId) const {
    return "DEC";
  }
};

TEST(RoundCounterTest, EngineSynchronousRoundsEqualSteps) {
  const Graph g = make_ring(5);
  CountdownProtocol proto;
  SynchronousDaemon d;
  RunOptions opt;
  const auto res =
      run_execution(g, proto, d, Config<int>{3, 3, 3, 3, 3}, opt);
  EXPECT_EQ(res.steps, 3);
  EXPECT_EQ(res.rounds, res.steps);
}

TEST(RoundCounterTest, EngineCentralRoundsAreCompressed) {
  const Graph g = make_ring(4);
  CountdownProtocol proto;
  CentralRoundRobinDaemon d;
  RunOptions opt;
  const auto res =
      run_execution(g, proto, d, Config<int>{2, 2, 2, 2}, opt);
  EXPECT_EQ(res.steps, 8);   // 8 central actions
  EXPECT_EQ(res.rounds, 2);  // two sweeps over everyone
}

}  // namespace
}  // namespace specstab
