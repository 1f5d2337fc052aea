// Unit tests for asynchronous round accounting.
#include "sim/trace.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <random>
#include <set>
#include <vector>

#include "graph/generators.hpp"
#include "sim/daemon.hpp"
#include "sim/engine.hpp"
#include "sim/protocol.hpp"

namespace specstab {
namespace {

/// Feeds one action to `rc` the way the run driver does: by count when
/// counts_full_action() holds, otherwise the action plus the enabled
/// set's delta, derived here from the explicit sets (`before` is read as
/// the pre-action set only when the action opens a round; any superset
/// of the pending vertices serves otherwise).
void account(RoundCounter& rc, const std::vector<VertexId>& before,
             const std::vector<VertexId>& activated,
             const std::vector<VertexId>& after) {
  if (rc.counts_full_action(before.size(), activated.size())) {
    rc.on_full_action();
    return;
  }
  std::vector<VertexId> added, removed;
  std::set_difference(after.begin(), after.end(), before.begin(),
                      before.end(), std::back_inserter(added));
  std::set_difference(before.begin(), before.end(), after.begin(),
                      after.end(), std::back_inserter(removed));
  rc.on_action(activated, EnabledDelta{added, removed, after});
}

TEST(RoundCounterTest, SynchronousStepsAreRounds) {
  RoundCounter rc(3);
  // Every action serves the whole enabled set: one round per action.
  account(rc, {0, 1, 2}, {0, 1, 2}, {0, 1, 2});
  EXPECT_EQ(rc.completed_rounds(), 1);
  account(rc, {0, 1, 2}, {0, 1, 2}, {});
  EXPECT_EQ(rc.completed_rounds(), 2);
}

TEST(RoundCounterTest, CentralScheduleNeedsFullSweep) {
  RoundCounter rc(3);
  account(rc, {0, 1, 2}, {0}, {0, 1, 2});
  EXPECT_EQ(rc.completed_rounds(), 0);
  account(rc, {0, 1, 2}, {1}, {0, 1, 2});
  EXPECT_EQ(rc.completed_rounds(), 0);
  account(rc, {0, 1, 2}, {2}, {0, 1, 2});
  EXPECT_EQ(rc.completed_rounds(), 1);  // all three initially-enabled served
}

TEST(RoundCounterTest, DisablingNeutralisesPending) {
  RoundCounter rc(3);
  account(rc, {0, 1, 2}, {0}, {0, 1});  // 2 became disabled: neutralised
  EXPECT_EQ(rc.completed_rounds(), 0);
  account(rc, {0, 1}, {1}, {0, 1});     // 0 and 1 served -> round closes
  EXPECT_EQ(rc.completed_rounds(), 1);
}

TEST(RoundCounterTest, ReactivationDoesNotRejoinOpenRound) {
  RoundCounter rc(2);
  // Round opens on {0, 1}; vertex 1 disabled then re-enabled: it was
  // neutralised, so only 0 remains pending.
  account(rc, {0, 1}, {0}, {0});
  EXPECT_EQ(rc.completed_rounds(), 1);  // 0 served, 1 neutralised
}

TEST(RoundCounterTest, ResetClearsState) {
  RoundCounter rc(2);
  account(rc, {0, 1}, {0}, {0, 1});
  rc.reset();
  EXPECT_EQ(rc.completed_rounds(), 0);
  account(rc, {0, 1}, {0, 1}, {});
  EXPECT_EQ(rc.completed_rounds(), 1);
}

TEST(RoundCounterTest, FullActionCountPathMatchesExplicitVectors) {
  // A full action at a round boundary is accounted by count alone
  // (counts_full_action + on_full_action), and while a round is open
  // the pre-action set handed in may be the snapshot taken when it
  // opened.  Over random enabled-set sequences mixing full and partial
  // actions, that must count exactly the rounds the explicit vectors
  // give.
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

      account(by_vectors, before, activated, after);

      const bool full = by_count.counts_full_action(before.size(),
                                                    activated.size());
      if (!full && !by_count.round_open()) round_base = before;
      if (full) {
        by_count.on_full_action();
      } else {
        account(by_count, round_base, activated, after);
      }
      ASSERT_EQ(by_count.completed_rounds(), by_vectors.completed_rounds())
          << "trial " << trial << " step " << step;
      ASSERT_EQ(by_count.round_open(), by_vectors.round_open())
          << "trial " << trial << " step " << step;
      before = after;
    }
  }
}

// Rounds straight from the definition: a round waits on the vertices
// enabled in its first configuration and closes after the first action
// by which each of them has been activated or neutralised (found
// disabled after some action of the round).  Sets, no shortcuts.
struct DefinitionRounds {
  std::set<VertexId> waiting;
  bool open = false;
  StepIndex rounds = 0;

  void action(const std::vector<VertexId>& before,
              const std::vector<VertexId>& activated,
              const std::vector<VertexId>& after) {
    if (!open) {
      waiting.insert(before.begin(), before.end());
      open = true;
    }
    for (VertexId v : activated) waiting.erase(v);
    const std::set<VertexId> enabled_after(after.begin(), after.end());
    std::erase_if(waiting,
                  [&](VertexId v) { return enabled_after.count(v) == 0; });
    if (waiting.empty()) {
      ++rounds;
      open = false;
    }
  }
};

TEST(RoundCounterTest, DeltaInputMatchesDefinition) {
  // The drivers' per-action input — count alone for a full action at a
  // round boundary, otherwise the action plus the enabled set's delta,
  // and on_perturbation() when a fault edits the set between actions —
  // over random sequences with neutralisation, re-enabling inside open
  // rounds, perturbations, and sizes that are not multiples of 64.
  std::mt19937_64 rng(29);
  const auto flip = [&](int percent) {
    return static_cast<int>(rng() % 100) < percent;
  };
  for (const VertexId n : {1, 2, 63, 64, 65, 130, 200}) {
    for (int trial = 0; trial < 20; ++trial) {
      RoundCounter rc(n);
      DefinitionRounds def;
      const auto random_set = [&](int percent) {
        std::vector<VertexId> out;
        for (VertexId v = 0; v < n; ++v) {
          if (flip(percent)) out.push_back(v);
        }
        if (out.empty()) out.push_back(static_cast<VertexId>(rng() % n));
        return out;
      };
      std::vector<VertexId> before = random_set(50);
      for (int step = 0; step < 80; ++step) {
        if (flip(5)) {
          before = random_set(50);  // a fault rewrites the enabled set
          rc.on_perturbation();
        }
        std::vector<VertexId> activated;
        if (flip(20)) {
          activated = before;
        } else {
          for (VertexId v : before) {
            if (flip(15)) activated.push_back(v);
          }
          if (activated.empty()) {
            activated.push_back(before[rng() % before.size()]);
          }
        }
        // Every vertex flips with a small probability: enabled ones are
        // neutralised, disabled ones (re-)enabled.
        std::vector<VertexId> after;
        for (VertexId v = 0; v < n; ++v) {
          const bool was = std::binary_search(before.begin(), before.end(), v);
          if (was != flip(10)) after.push_back(v);
        }
        if (after.empty()) after.push_back(static_cast<VertexId>(rng() % n));

        def.action(before, activated, after);
        account(rc, before, activated, after);
        ASSERT_EQ(rc.completed_rounds(), def.rounds)
            << "n " << n << " trial " << trial << " step " << step;
        ASSERT_EQ(rc.round_open(), def.open)
            << "n " << n << " trial " << trial << " step " << step;
        before = after;
      }
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
