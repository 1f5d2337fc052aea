// Guard-kernel contract tests for the unison / SSME SimdEval kernel.
//
// The kernel writes rule codes (1 = NA or CA, 2 = RA, 0 = disabled) from
// uint32 wrap-around arithmetic, and the parallel engine's dense install
// applies from those codes.  The exhaustive cases below evaluate the
// kernel on every register assignment of small graphs — corrupted values
// outside cherry(alpha, K) and the int32 extremes included — and hold it
// to the scalar guards, apply(), and the Gamma_1 checker's count.  The
// engine case drives sparse steps and fault epochs (which leave the
// verdict buffer stale) right before dense steps, so the stale-code
// fallback to apply() is exercised against the incremental engine.
//
// This suite carries the `differential` ctest label, so CI runs it under
// ASan/UBSan with fatal UBSan reports: an overflow in the kernel's
// arithmetic fails here.
#include <gtest/gtest.h>

#include <climits>
#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "core/incremental_legitimacy.hpp"
#include "core/ssme.hpp"
#include "graph/generators.hpp"
#include "sim/daemon.hpp"
#include "sim/engine.hpp"
#include "sim/fault_plan.hpp"
#include "sim/incremental_engine.hpp"
#include "sim/parallel_engine.hpp"
#include "unison/unison.hpp"

namespace specstab {
namespace {

/// [-alpha - 1, K] (one value past each end of cherry(alpha, K)) plus the
/// int32 extremes.
std::vector<ClockValue> register_domain(const CherryClock& clock) {
  std::vector<ClockValue> values;
  for (ClockValue r = -clock.alpha() - 1; r <= clock.k(); ++r) {
    values.push_back(r);
  }
  values.push_back(INT32_MIN);
  values.push_back(INT32_MAX);
  return values;
}

struct NamedGraph {
  std::string name;
  Graph g;
};

std::vector<NamedGraph> small_graphs() {
  std::vector<NamedGraph> graphs;
  graphs.push_back({"path-3", make_path(3)});
  graphs.push_back({"star-4", make_star(4)});
  graphs.push_back({"triangle", make_complete(3)});
  graphs.push_back({"isolated vertex", Graph(1)});
  return graphs;
}

/// Runs the kernel of P on every assignment of `domain` to g's vertices
/// and checks it against the scalar guards of `unison` (P's substrate).
template <class P>
void check_every_assignment(const P& proto, const UnisonProtocol& unison,
                            const Graph& g, const std::string& context) {
  using Kernel = SimdEval<P>;
  const std::vector<ClockValue> domain = register_domain(unison.clock());
  const auto n = static_cast<std::size_t>(g.n());
  const typename Kernel::Context ctx = Kernel::make_context(g, proto);
  auto checker = make_gamma1_checker(unison);
  std::vector<std::size_t> digit(n, 0);
  Config<ClockValue> cfg(n, domain[0]);
  std::vector<std::uint8_t> codes(n), plain(n);
  std::int64_t assignments = 0;
  while (true) {
    const ConfigView<ClockValue> view(cfg);
    const std::int64_t total = Kernel::enabled_bytes_scored(
        ctx, proto, view, codes.data(), 0, g.n());
    Kernel::enabled_bytes(ctx, proto, view, plain.data(), 0, g.n());
    checker.init(g, view);  // from-scratch rebuild of the cached total
    const auto describe = [&] {
      std::string s = context + " registers";
      for (const ClockValue r : cfg) s += " " + std::to_string(r);
      return s;
    };
    ASSERT_EQ(codes, plain) << describe();
    ASSERT_EQ(total, checker.total()) << describe();
    for (VertexId v = 0; v < g.n(); ++v) {
      const auto i = static_cast<std::size_t>(v);
      const bool increment = unison.normal_step(g, view, v) ||
                             unison.converge_step(g, view, v);
      const bool reset = unison.reset_init(g, view, v);
      ASSERT_EQ(codes[i] == 1, increment) << describe() << " v=" << v;
      ASSERT_EQ(codes[i] == 2, reset) << describe() << " v=" << v;
      ASSERT_EQ(codes[i] == 0, !proto.enabled(g, view, v))
          << describe() << " v=" << v;
      if (codes[i] != 0) {
        ASSERT_EQ(Kernel::successor(proto, cfg[i], codes[i]),
                  proto.apply(g, view, v))
            << describe() << " v=" << v;
      }
    }
    ++assignments;
    // Odometer over domain^n.
    std::size_t pos = 0;
    while (pos < n && ++digit[pos] == domain.size()) {
      digit[pos] = 0;
      cfg[pos] = domain[0];
      ++pos;
    }
    if (pos == n) break;
    cfg[pos] = domain[digit[pos]];
  }
  std::int64_t expected = 1;
  for (std::size_t i = 0; i < n; ++i) {
    expected *= static_cast<std::int64_t>(domain.size());
  }
  EXPECT_EQ(assignments, expected) << context;
}

TEST(SimdKernel, UnisonRuleCodesMatchScalarGuardsExhaustively) {
  for (const auto& [alpha, k] : {std::pair<ClockValue, ClockValue>{2, 5},
                                 std::pair<ClockValue, ClockValue>{3, 7}}) {
    const UnisonProtocol proto{CherryClock(alpha, k)};
    for (const NamedGraph& ng : small_graphs()) {
      check_every_assignment(proto, proto, ng.g,
                             proto.clock().describe() + " on " + ng.name);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

TEST(SimdKernel, SsmeForwardsRuleCodesAndSuccessor) {
  // SSME's own clock on path-3 (alpha = 3, K = 17): the forwarding
  // kernel must agree with the substrate's scalar guards.
  const Graph g = make_path(3);
  const SsmeProtocol proto = SsmeProtocol::for_graph(g);
  check_every_assignment(proto, proto.unison(), g, "ssme on path-3");
}

/// Alternates sparse and dense actions: every third step activates only
/// the lowest enabled vertex, the others activate every enabled vertex.
class SparseThenDenseDaemon final : public Daemon {
 public:
  void select_into(const Graph&, const EnabledView& enabled, StepIndex step,
                   ActionBuffer& out) override {
    if (step % 3 == 0) {
      out.active.assign(1, enabled.front());
    } else {
      out.active.assign(enabled.vertices().begin(), enabled.vertices().end());
    }
  }
  [[nodiscard]] std::string name() const override {
    return "sparse-then-dense";
  }
};

Config<ClockValue> uniform_registers(const Graph& g, const CherryClock& clock,
                                     std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<ClockValue> pick(-clock.alpha(),
                                                 clock.k() - 1);
  Config<ClockValue> cfg(static_cast<std::size_t>(g.n()));
  for (auto& r : cfg) r = pick(rng);
  return cfg;
}

/// Every register 5 (a legitimate unison configuration, all NA-enabled)
/// except the last, which sits half a ring away: the last vertex and its
/// two neighbours are RA-enabled.  The first sparse action resets vertex
/// 0, which turns vertex 1 from NA (code 1) into RA (code 2) — so a dense
/// step that applied the stale code would increment where apply() resets.
Config<ClockValue> flat_with_spike(const Graph& g, const CherryClock& clock) {
  Config<ClockValue> cfg(static_cast<std::size_t>(g.n()), 5);
  cfg.back() = clock.k() / 2;
  return cfg;
}

TEST(SimdKernel, DenseStepsAfterSparseStepsAndFaultsMatchIncremental) {
  // A ring big enough for several 64-vertex shards.  Sparse steps and
  // fault epochs (k = 2 takes the ball repair, k = 80 the dense rebuild)
  // leave the verdict buffer stale; the dense step after each must fall
  // back to apply() and still match the incremental engine byte for byte.
  // Faults that corrupt a legitimate configuration turn the victims'
  // NA-enabled neighbours into RA, so they catch stale codes too.
  const Graph g = make_ring(200);
  const SsmeProtocol proto = SsmeProtocol::for_graph(g);
  const auto pool = [&](std::uint64_t s) {
    return uniform_registers(g, proto.clock(), s);
  };
  const auto guard = [&proto](const Graph& gg,
                              const ConfigView<ClockValue>& cv,
                              VertexId v) { return proto.enabled(gg, cv, v); };
  for (const char* fault_text : {"periodic:period=5;k=2;epochs=4;start=2",
                                 "periodic:period=7;k=80;epochs=3;start=4"}) {
    const FaultSpec fault = FaultSpec::parse(fault_text);
    for (std::uint64_t seed = 0; seed <= 3; ++seed) {
      const Config<ClockValue> init =
          seed == 0 ? flat_with_spike(g, proto.clock())
                    : uniform_registers(g, proto.clock(), seed);
      // Per action of the base run: whether it was dense.
      std::vector<bool> dense_at;
      const StepObserver<ClockValue> record =
          [&](StepIndex, ConfigView<ClockValue>,
              const std::vector<VertexId>& activated) {
            dense_at.push_back(is_dense_update(
                static_cast<std::int64_t>(activated.size()),
                protocol_locality_radius(proto), g));
          };
      const auto run = [&](EngineKind engine, unsigned threads,
                           const StepObserver<ClockValue>& observer) {
        RunOptions opt;
        opt.engine = engine;
        opt.threads = threads;
        opt.max_steps = 60;
        opt.record_trace = true;
        SparseThenDenseDaemon daemon;
        auto checker = make_gamma1_checker(proto);
        FaultPlan<ClockValue> plan(fault, seed,
                                   protocol_locality_radius(proto), pool,
                                   guard);
        return run_with_engine(g, proto, daemon, init, opt, checker,
                               observer, &plan);
      };
      const auto base = run(EngineKind::kIncremental, 1, record);
      ASSERT_EQ(base.perturb.epochs_fired, fault.epochs) << fault_text;
      // The schedule really puts dense steps right after sparse steps and
      // right after fault epochs.
      bool dense_after_sparse = false;
      for (std::size_t s = 1; s < dense_at.size(); ++s) {
        dense_after_sparse |= dense_at[s] && !dense_at[s - 1];
      }
      EXPECT_TRUE(dense_after_sparse) << fault_text << " seed=" << seed;
      bool dense_after_fault = false;
      for (const StepIndex fired : base.perturb.fire_steps) {
        const auto s = static_cast<std::size_t>(fired);
        dense_after_fault |= s < dense_at.size() && dense_at[s];
      }
      EXPECT_TRUE(dense_after_fault) << fault_text << " seed=" << seed;
      for (const unsigned threads : {1u, 2u, 3u, 8u}) {
        const std::string context = std::string(fault_text) + " seed=" +
                                    std::to_string(seed) + " threads=" +
                                    std::to_string(threads);
        const auto got = run(EngineKind::kParallel, threads, nullptr);
        ASSERT_EQ(base.final_config, got.final_config) << context;
        EXPECT_EQ(base.steps, got.steps) << context;
        EXPECT_EQ(base.moves, got.moves) << context;
        EXPECT_EQ(base.rounds, got.rounds) << context;
        EXPECT_EQ(base.first_legitimate, got.first_legitimate) << context;
        EXPECT_EQ(base.last_illegitimate, got.last_illegitimate) << context;
        EXPECT_EQ(base.perturb, got.perturb) << context;
        EXPECT_TRUE(base.trace == got.trace) << context;
      }
    }
  }
}

}  // namespace
}  // namespace specstab
