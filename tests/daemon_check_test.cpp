// Tests driving every concrete daemon through DaemonAudit and asserting
// its class promises (the executable daemon taxonomy).
#include "sim/daemon_check.hpp"

#include <gtest/gtest.h>

#include "core/adversarial_configs.hpp"
#include "core/ssme.hpp"
#include "graph/generators.hpp"
#include "sim/engine.hpp"

namespace specstab {
namespace {

/// Runs SSME under the audited daemon for `steps` actions and returns
/// the audit report.
DaemonAuditReport audit_run(Daemon& daemon, const Graph& g, StepIndex steps,
                            std::uint64_t seed) {
  const SsmeProtocol proto = SsmeProtocol::for_graph(g);
  DaemonAudit audit(daemon, g.n());
  RunOptions opt;
  opt.max_steps = steps;
  (void)run_execution(g, proto, audit, random_config(g, proto.clock(), seed),
                      opt);
  return audit.report();
}

TEST(DaemonCheckTest, SynchronousActivatesAllEnabled) {
  SynchronousDaemon d;
  const auto report = audit_run(d, make_grid(3, 3), 300, 1);
  EXPECT_TRUE(report.contract_holds());
  EXPECT_TRUE(report.always_all_enabled);
  // Under sd an enabled vertex is never bypassed.
  EXPECT_EQ(report.worst_bypass_streak, 0);
}

TEST(DaemonCheckTest, CentralDaemonsActivateExactlyOne) {
  CentralRoundRobinDaemon rr;
  CentralRandomDaemon random(3);
  CentralMinIdDaemon min_id;
  CentralMaxIdDaemon max_id;
  for (Daemon* d : {static_cast<Daemon*>(&rr), static_cast<Daemon*>(&random),
                    static_cast<Daemon*>(&min_id),
                    static_cast<Daemon*>(&max_id)}) {
    const auto report = audit_run(*d, make_ring(8), 300, 2);
    EXPECT_TRUE(report.contract_holds()) << d->name();
    EXPECT_TRUE(report.always_singleton) << d->name();
    EXPECT_FALSE(report.adjacent_coactivation) << d->name();
  }
}

TEST(DaemonCheckTest, LocallyCentralNeverCoactivatesNeighbours) {
  LocallyCentralDaemon d(7);
  const auto report = audit_run(d, make_grid(3, 4), 500, 3);
  EXPECT_TRUE(report.contract_holds());
  EXPECT_FALSE(report.adjacent_coactivation);
  // But it is genuinely distributed: more than one vertex sometimes.
  EXPECT_GT(report.max_activation, 1u);
}

TEST(DaemonCheckTest, BernoulliRespectsBaseContract) {
  DistributedBernoulliDaemon d(0.5, 11);
  const auto report = audit_run(d, make_ring(10), 500, 4);
  EXPECT_TRUE(report.contract_holds());
  // Bernoulli(0.5) is neither synchronous nor central in general.
  EXPECT_FALSE(report.always_all_enabled);
  EXPECT_FALSE(report.always_singleton);
}

TEST(DaemonCheckTest, KFairBoundsBypassStreaks) {
  const StepIndex k = 4;
  KFairCentralDaemon d(k, 5);
  const auto report = audit_run(d, make_ring(6), 600, 5);
  EXPECT_TRUE(report.contract_holds());
  EXPECT_TRUE(report.always_singleton);
  // A continuously enabled vertex is served within k actions: bypass
  // streaks stay below k * n as a loose envelope of the implementation's
  // promise (exact constant depends on its queueing discipline).
  EXPECT_LE(report.worst_bypass_streak, k * 6);
}

TEST(DaemonCheckTest, StarvationDaemonDefersItsVictim) {
  StarvationDaemon d(0);
  const auto report = audit_run(d, make_ring(6), 400, 6);
  EXPECT_TRUE(report.contract_holds());
  // The daemon bypasses the victim while anything else is enabled, so
  // streaks accumulate — but the unison *refuses to be starved*: the
  // victim's frozen register blocks its neighbours (NA needs r_v <=_l
  // r_u), the blockade spreads, and within one clock lap the victim is
  // the only enabled vertex, which the daemon is forced to pick.  The
  // streak is therefore positive but bounded — the liveness half of
  // spec_AU under the unfair daemon, visible in the audit.
  EXPECT_GT(report.worst_bypass_streak, 0);
  EXPECT_LT(report.worst_bypass_streak, 50);
  // And every selection is still a legal singleton-or-more subset.
  EXPECT_GE(report.min_activation, 1u);
}

TEST(DaemonCheckTest, RandomSubsetIsDistributedAndUnfairish) {
  RandomSubsetDaemon d(13);
  const auto report = audit_run(d, make_grid(3, 3), 500, 7);
  EXPECT_TRUE(report.contract_holds());
  EXPECT_GE(report.max_activation, 2u);
  EXPECT_GE(report.min_activation, 1u);
}

TEST(DaemonCheckTest, AuditForwardsNameAndReset) {
  SynchronousDaemon inner;
  DaemonAudit audit(inner, 4);
  EXPECT_EQ(audit.name(), "audit(synchronous)");
  audit.reset();  // must not throw
}

// --- Contract breaches are detected, not silently executed ---

/// A daemon that violates the base contract on demand: activates a
/// vertex OUTSIDE the enabled set, or reports its choice unsorted.
/// Stands in for the class of buggy custom daemons whose selections
/// desync the engines' EnabledSet (the small-flip commit() path used to
/// hit undefined behaviour erasing a vertex such a selection removed
/// twice — now an assert; see enabled_set_test.cpp).
class ContractBreachingDaemon final : public Daemon {
 public:
  enum class Breach { kOutsideEnabled, kUnsorted };

  explicit ContractBreachingDaemon(Breach breach) : breach_(breach) {}

  void select_into(const Graph& g, const EnabledView& enabled, StepIndex,
                   ActionBuffer& out) override {
    out.active.clear();
    if (breach_ == Breach::kOutsideEnabled) {
      // Pick the smallest vertex NOT enabled — guaranteed to exist on
      // the test graphs below.
      for (VertexId v = 0; v < g.n(); ++v) {
        if (!enabled.contains(v)) {
          out.active.push_back(v);
          return;
        }
      }
    }
    // Unsorted: report two enabled vertices in descending order.
    const auto& vs = enabled.vertices();
    out.active.push_back(vs.back());
    out.active.push_back(vs.front());
  }

  [[nodiscard]] std::string name() const override { return "breaching"; }

 private:
  Breach breach_;
};

TEST(DaemonCheckTest, AuditFlagsActivationOutsideEnabledSet) {
  // Drive the audit directly (running a breaching selection through an
  // engine would apply a rule on a disabled vertex — exactly what the
  // audit exists to catch beforehand).
  const Graph g = make_ring(6);
  ContractBreachingDaemon inner(
      ContractBreachingDaemon::Breach::kOutsideEnabled);
  DaemonAudit audit(inner, g.n());
  // Enabled = {1, 3, 5}; the breaching daemon will choose vertex 0.
  std::vector<VertexId> enabled_vec = {1, 3, 5};
  std::vector<std::uint64_t> words = {0b101010};
  const EnabledView view(enabled_vec, words);
  ActionBuffer buf;
  audit.select_into(g, view, 0, buf);
  EXPECT_EQ(buf.active, (std::vector<VertexId>{0}));
  EXPECT_FALSE(audit.report().subset_of_enabled);
  EXPECT_FALSE(audit.report().contract_holds());
}

TEST(DaemonCheckTest, AuditFlagsUnsortedSelection) {
  const Graph g = make_ring(6);
  ContractBreachingDaemon inner(ContractBreachingDaemon::Breach::kUnsorted);
  DaemonAudit audit(inner, g.n());
  std::vector<VertexId> enabled_vec = {1, 3, 5};
  std::vector<std::uint64_t> words = {0b101010};
  const EnabledView view(enabled_vec, words);
  ActionBuffer buf;
  audit.select_into(g, view, 0, buf);
  EXPECT_EQ(buf.active, (std::vector<VertexId>{5, 1}));
  EXPECT_FALSE(audit.report().sorted);
  EXPECT_FALSE(audit.report().contract_holds());
}

}  // namespace
}  // namespace specstab
