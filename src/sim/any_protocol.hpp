// Monomorphized adapters behind the protocol registry.
//
// Each protocol contributes one *traits* struct describing, at compile
// time, everything a session needs: how to build the protocol for a
// topology, its supported init families, its default incremental
// legitimacy checker, the step-cap policy, a per-vertex state printer
// and protocol-specific report lines.  run_protocol_session<Traits>()
// compiles the whole pipeline — init builder, daemon, templated
// run_with_engine() with the concrete checker — into one function whose
// hot loops are exactly the ones the typed API runs; the registry stores
// it behind a std::function, so type erasure costs one indirect call per
// *session*, nothing per step.
//
// Adding a protocol is: write the traits struct in your protocol's
// header (or here), then
//     ProtocolRegistry::instance().add(make_protocol_entry<MyTraits>());
// — after which `specstab run --protocol`, `specstab list`, campaign
// grids and the registry-iterating differential tests all pick it up.
// The built-ins register through for_each_builtin_protocol(), which the
// tests also iterate, so the registry and its test coverage cannot
// drift apart.
//
// Registration is engine-complete: the compiled session runs under the
// incremental, reference and parallel engines alike.  Their dense rescan
// falls back to a scalar sweep unless the protocol specializes
// SimdEval<P> (sim/simd_eval.hpp) — see docs/adding-a-protocol.md for
// the opt-in steps.
#ifndef SPECSTAB_SIM_ANY_PROTOCOL_HPP
#define SPECSTAB_SIM_ANY_PROTOCOL_HPP

#include <memory>
#include <optional>
#include <random>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "baselines/dijkstra_ring.hpp"
#include "baselines/matching.hpp"
#include "baselines/min_plus_one.hpp"
#include "baselines/unbounded_unison.hpp"
#include "core/adversarial_configs.hpp"
#include "core/incremental_legitimacy.hpp"
#include "core/ssme.hpp"
#include "core/theory.hpp"
#include "extensions/coloring.hpp"
#include "extensions/leader_election.hpp"
#include "graph/graph.hpp"
#include "sim/daemon.hpp"
#include "sim/incremental_engine.hpp"
#include "sim/protocol_registry.hpp"
#include "sim/types.hpp"
#include "unison/unison.hpp"

namespace specstab {

namespace detail {

/// FNV-1a over the printed states, with a separator byte per state so
/// the digest is injective on the state list.
[[nodiscard]] inline std::uint64_t digest_states(
    const std::vector<std::string>& states) {
  std::uint64_t h = 1469598103934665603ull;
  const auto eat = [&h](unsigned char c) {
    h ^= c;
    h *= 1099511628211ull;
  };
  for (const auto& s : states) {
    for (const unsigned char c : s) eat(c);
    eat(0x1e);  // record separator
  }
  return h;
}

template <class State>
[[nodiscard]] Config<State> uniform_init(const Graph& g, std::int64_t lo,
                                         std::int64_t hi,
                                         std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<std::int64_t> pick(lo, hi);
  Config<State> cfg(static_cast<std::size_t>(g.n()));
  for (auto& v : cfg) v = static_cast<State>(pick(rng));
  return cfg;
}

[[noreturn]] inline void bad_init(const ProtocolInfo& info,
                                  const std::string& init) {
  throw std::invalid_argument("protocol '" + info.name +
                              "' does not support init '" + init +
                              "' (supported: " + info.inits_joined() + ")");
}

}  // namespace detail

/// Runs one session through the typed pipeline for `Traits` and flattens
/// the RunResult into the type-erased SessionResult.  This is the
/// function the registry's dispatch record points at — and the function
/// the differential tests call directly to prove the erased boundary
/// changes nothing.
template <class Traits>
[[nodiscard]] SessionResult run_protocol_session(const Graph& g,
                                                 VertexId diam,
                                                 const SessionSpec& spec) {
  using Protocol = typename Traits::Protocol;
  using State = typename Protocol::State;

  // One ProtocolInfo per instantiation, not per session: campaigns run
  // thousands of sessions and the metadata never changes.
  static const ProtocolInfo info = Traits::info();
  const std::string init = spec.init.empty() ? info.inits.front() : spec.init;
  if (!info.supports_init(init)) detail::bad_init(info, init);
  // Enforced here, at the session boundary, so every caller — CLI,
  // campaign, library users — gets the same guard: a ring-only protocol
  // on a non-ring graph would silently compute garbage (index-arithmetic
  // predecessors do not match graph adjacency off a ring).
  if (info.ring_only && !is_ring_topology(g)) {
    throw std::invalid_argument("protocol '" + info.name +
                                "' is defined on `ring N` topologies only");
  }

  const Protocol proto = Traits::make(g, diam);
  const auto daemon = make_daemon(spec.daemon, spec.seed);
  RunOptions opt;
  opt.engine = spec.engine;
  opt.layout = spec.layout;
  opt.threads = spec.threads;
  opt.pool = spec.pool;
  opt.record_trace = spec.record_trace;
  opt.max_steps =
      spec.max_steps > 0 ? spec.max_steps : Traits::step_cap(g, diam);
  // Predicates closed under the protocol stop at first entry; non-closed
  // slices (spec_ME safety) must span the whole window.
  if (Traits::kStopAtConvergence) opt.steps_after_convergence = 0;

  const FaultSpec fault = FaultSpec::parse(spec.perturb);
  if (fault.active() && spec.max_steps == 0) {
    // Every epoch opens a fresh recovery race: extend the default cap so
    // the last epoch still gets the protocol's own convergence budget.
    opt.max_steps =
        fault.start + fault.epochs * (fault.period + opt.max_steps);
  }
  std::optional<FaultPlan<State>> plan;
  if (fault.active()) {
    // Corruption values are sampled from the protocol's own seeded init
    // family: arbitrary protocol-typed states (the transient-fault model)
    // without per-protocol corruption hooks.
    std::string pool_init = info.inits.front();
    for (const auto& family : info.inits) {
      if (info.init_is_seeded(family)) {
        pool_init = family;
        break;
      }
    }
    plan.emplace(
        fault, spec.seed, protocol_locality_radius(proto),
        [&g, &proto, pool_init](std::uint64_t s) {
          return Traits::make_init(g, proto, pool_init, s);
        },
        [&proto](const Graph& gg, const ConfigView<State>& cv, VertexId v) {
          return proto.enabled(gg, cv, v);
        });
  }

  // Protocols with a privilege notion (SSME, Dijkstra's ring) also meter
  // service-time degradation: the step of every privileged activation,
  // reduced per epoch below.
  constexpr bool kHasPrivilege =
      requires(const Protocol& p, const ConfigView<State>& cv, VertexId v) {
        { p.privileged(cv, v) } -> std::convertible_to<bool>;
      };
  StepObserver<State> observer;
  std::vector<StepIndex> service_steps;
  if constexpr (kHasPrivilege) {
    if (fault.active()) {
      observer = [&proto, &service_steps](
                     StepIndex step, ConfigView<State> cv,
                     const std::vector<VertexId>& activated) {
        for (const VertexId v : activated) {
          if (proto.privileged(cv, v)) {
            service_steps.push_back(step);
            return;
          }
        }
      };
    }
  }

  ClosureCounting checker(Traits::make_checker(g, proto));
  auto res = run_with_engine(g, proto, *daemon,
                             Traits::make_init(g, proto, init, spec.seed),
                             opt, checker, observer,
                             plan ? &*plan : nullptr);

  SessionResult out;
  out.steps = res.steps;
  out.moves = res.moves;
  out.rounds = res.rounds;
  out.terminated = res.terminated;
  out.hit_step_cap = res.hit_step_cap;
  out.converged = res.converged();
  out.convergence_steps = res.converged() ? res.convergence_steps() : -1;
  out.moves_to_convergence = res.moves_to_convergence;
  out.rounds_to_convergence = res.rounds_to_convergence;
  out.closure_violations = checker.violations();

  out.perturb = fault.format();
  out.perturb_epochs = res.perturb.epochs_fired;
  out.perturb_unrecovered = res.perturb.unrecovered();
  out.perturb_fire_steps = res.perturb.fire_steps;
  out.recovery_steps = res.perturb.recovery_steps;
  if constexpr (kHasPrivilege) {
    if (fault.active()) {
      out.service_stalls = service_stalls_per_epoch(res.perturb.fire_steps,
                                                    service_steps, res.steps);
    }
  }

  if (!spec.meters_only) {
    out.final_state.reserve(res.final_config.size());
    for (const auto& s : res.final_config) {
      out.final_state.push_back(Traits::print_state(s));
    }
    out.final_digest = detail::digest_states(out.final_state);
    Traits::annotate(g, diam, proto, res, out.notes);
    if (fault.active()) {
      out.notes.push_back(
          "fault injection " + fault.format() + ": epochs " +
          std::to_string(out.perturb_epochs) + ", unrecovered " +
          std::to_string(out.perturb_unrecovered));
    }
  }

  if (spec.record_trace) {
    out.trace_length = static_cast<StepIndex>(res.trace.size());
    const auto trace =
        std::make_shared<DeltaTrace<State>>(std::move(res.trace));
    const auto print = [](const Config<State>& cfg) {
      std::vector<std::string> printed;
      printed.reserve(cfg.size());
      for (const auto& s : cfg) printed.push_back(Traits::print_state(s));
      return printed;
    };
    out.trace_config = [trace, print](StepIndex i) {
      return print(trace->at(static_cast<std::size_t>(i)));
    };
    out.trace_materialize = [trace, print]() {
      std::vector<std::vector<std::string>> out_states;
      out_states.reserve(trace->size());
      // Streaming cursor: O(changes) per step, not per-index replay.
      for (const auto& cfg : *trace) out_states.push_back(print(cfg));
      return out_states;
    };
    out.trace_delta = [trace](StepIndex a) {
      const auto idx = static_cast<std::size_t>(a);
      SessionResult::TraceDeltaRecord rec;
      rec.perturbation = trace->is_perturbation(idx);
      const auto activated = trace->activated_at(idx);
      rec.activated.assign(activated.begin(), activated.end());
      for (const auto& change : trace->changes_at(idx)) {
        rec.changes.push_back({change.v, Traits::print_state(change.before),
                               Traits::print_state(change.after)});
      }
      return rec;
    };
  }
  return out;
}

/// Builds the registry record for `Traits` — one monomorphized run
/// function plus the step-cap estimator, behind the erased interface.
template <class Traits>
[[nodiscard]] ProtocolEntry make_protocol_entry() {
  ProtocolEntry entry;
  entry.info = Traits::info();
  entry.run_on = [](const Graph& g, VertexId diam, const SessionSpec& spec) {
    return run_protocol_session<Traits>(g, diam, spec);
  };
  entry.default_step_cap = [](const Graph& g, VertexId diam) {
    return Traits::step_cap(g, diam);
  };
  entry.needs_diameter = Traits::kNeedsDiameter;
  return entry;
}

// --- Built-in protocol traits -------------------------------------------

/// SSME dynamics measured into Gamma_1 (Theorems 1 and 3).
struct SsmeGamma1Traits {
  using Protocol = SsmeProtocol;

  static ProtocolInfo info() {
    return {"ssme",
            "SSME unison dynamics, Gamma_1 legitimacy (Thm 1/3)",
            "cherry-clock register",
            {"random", "zero", "two-gradient"}};
  }
  static Protocol make(const Graph& g, VertexId diam) {
    return Protocol(SsmeParams::from_dimensions(g.n(), diam));
  }
  static Config<ClockValue> make_init(const Graph& g, const Protocol& p,
                                      const std::string& init,
                                      std::uint64_t seed) {
    if (init == "zero") return zero_config(g);
    if (init == "two-gradient") return two_gradient_config(g, p);
    return random_config(g, p.clock(), seed);
  }
  static auto make_checker(const Graph&, const Protocol& p) {
    return make_gamma1_checker(p);
  }
  static StepIndex step_cap(const Graph& g, VertexId diam) {
    return 2 * ssme_ud_bound(g.n(), diam);
  }
  static constexpr bool kStopAtConvergence = true;
  static constexpr bool kNeedsDiameter = true;
  static std::string print_state(ClockValue s) { return std::to_string(s); }
  static void annotate(const Graph& g, VertexId diam, const Protocol& p,
                       const RunResult<ClockValue>& res,
                       std::vector<std::string>& notes) {
    notes.push_back("privileged vertices in final config: " +
                    std::to_string(p.count_privileged(g, res.final_config)));
    notes.push_back("bounds: sync <= " +
                    std::to_string(ssme_sync_bound(diam)) +
                    " steps (Thm 2), async <= " +
                    std::to_string(ssme_ud_bound(g.n(), diam)) +
                    " steps (Thm 3)");
  }
};

/// SSME dynamics measured into the spec_ME safety slice (Theorem 2).
/// Not closed — the two-gradient witness starts safe, goes unsafe, then
/// stabilizes — so sessions span the whole window.
struct SsmeSafetyTraits {
  using Protocol = SsmeProtocol;

  static ProtocolInfo info() {
    return {"ssme-safety",
            "SSME dynamics, spec_ME safety slice (Thm 2)",
            "cherry-clock register",
            {"random", "zero", "two-gradient"}};
  }
  static Protocol make(const Graph& g, VertexId diam) {
    return Protocol(SsmeParams::from_dimensions(g.n(), diam));
  }
  static Config<ClockValue> make_init(const Graph& g, const Protocol& p,
                                      const std::string& init,
                                      std::uint64_t seed) {
    return SsmeGamma1Traits::make_init(g, p, init, seed);
  }
  static auto make_checker(const Graph&, const Protocol& p) {
    return make_mutex_safety_checker(p);
  }
  static StepIndex step_cap(const Graph& g, VertexId diam) {
    const auto params = SsmeParams::from_dimensions(g.n(), diam);
    return 4 * (params.k + params.n);
  }
  static constexpr bool kStopAtConvergence = false;
  static constexpr bool kNeedsDiameter = true;
  static std::string print_state(ClockValue s) { return std::to_string(s); }
  static void annotate(const Graph& g, VertexId, const Protocol& p,
                       const RunResult<ClockValue>& res,
                       std::vector<std::string>& notes) {
    notes.push_back("spec_ME: last safety violation at step " +
                    std::to_string(res.last_illegitimate) +
                    ", privileged now: " +
                    std::to_string(p.count_privileged(g, res.final_config)));
  }
};

/// Dijkstra's K-state token ring (Section 3 baseline).
struct DijkstraRingTraits {
  using Protocol = DijkstraRingProtocol;

  static ProtocolInfo info() {
    ProtocolInfo info{"dijkstra-ring",
                     "Dijkstra's K-state ring, single-token legitimacy",
                     "counter mod K",
                     {"random", "zero", "max-tokens"}};
    info.ring_only = true;
    return info;
  }
  static Protocol make(const Graph& g, VertexId) {
    return Protocol::for_ring(g);
  }
  static Config<Protocol::State> make_init(const Graph& g, const Protocol& p,
                                           const std::string& init,
                                           std::uint64_t seed) {
    if (init == "zero") {
      return Config<Protocol::State>(static_cast<std::size_t>(g.n()), 0);
    }
    if (init == "max-tokens") return p.max_token_config();
    return detail::uniform_init<Protocol::State>(g, 0, p.k() - 1, seed);
  }
  static auto make_checker(const Graph&, const Protocol& p) {
    return make_single_token_checker(p);
  }
  static StepIndex step_cap(const Graph& g, VertexId) {
    return 4 * dijkstra_ud_theta(g.n()) + 64;
  }
  static constexpr bool kStopAtConvergence = true;
  static constexpr bool kNeedsDiameter = false;
  static std::string print_state(Protocol::State s) {
    return std::to_string(s);
  }
  static void annotate(const Graph&, VertexId, const Protocol& p,
                       const RunResult<Protocol::State>& res,
                       std::vector<std::string>& notes) {
    notes.push_back("tokens in final config: " +
                    std::to_string(p.count_privileged(res.final_config)) +
                    " (K = " + std::to_string(p.k()) + ")");
  }
};

/// The bare Boulinier-Petit-Villain unison on the paper's clock
/// parameters (SSME minus the privilege predicate).
struct UnisonTraits {
  using Protocol = UnisonProtocol;

  static ProtocolInfo info() {
    return {"unison",
            "bounded asynchronous unison (BPV), Gamma_1 legitimacy",
            "cherry-clock register",
            {"random", "zero"}};
  }
  static Protocol make(const Graph& g, VertexId diam) {
    return Protocol(SsmeParams::from_dimensions(g.n(), diam).make_clock());
  }
  static Config<ClockValue> make_init(const Graph& g, const Protocol& p,
                                      const std::string& init,
                                      std::uint64_t seed) {
    if (init == "zero") return zero_config(g);
    return random_config(g, p.clock(), seed);
  }
  static auto make_checker(const Graph&, const Protocol& p) {
    return make_gamma1_checker(p);
  }
  static StepIndex step_cap(const Graph& g, VertexId diam) {
    return 2 * ssme_ud_bound(g.n(), diam);
  }
  static constexpr bool kStopAtConvergence = true;
  static constexpr bool kNeedsDiameter = true;
  static std::string print_state(ClockValue s) { return std::to_string(s); }
  static void annotate(const Graph& g, VertexId, const Protocol& p,
                       const RunResult<ClockValue>& res,
                       std::vector<std::string>& notes) {
    notes.push_back(std::string("Gamma_1 (drift <= 1 everywhere): ") +
                    (p.legitimate(g, res.final_config) ? "yes" : "NO"));
  }
};

/// Unbounded-clock asynchronous unison (spec_AU safety slice).
struct UnboundedUnisonTraits {
  using Protocol = UnboundedUnisonProtocol;

  static ProtocolInfo info() {
    return {"unbounded-unison",
            "unbounded-clock unison, drift <= 1 legitimacy",
            "unbounded integer clock",
            {"random", "zero"}};
  }
  static Protocol make(const Graph&, VertexId) { return Protocol{}; }
  static Config<Protocol::State> make_init(const Graph& g, const Protocol&,
                                           const std::string& init,
                                           std::uint64_t seed) {
    if (init == "zero") {
      return Config<Protocol::State>(static_cast<std::size_t>(g.n()), 0);
    }
    // Spread proportional to n: the quantity stabilization consumes.
    return detail::uniform_init<Protocol::State>(
        g, -static_cast<std::int64_t>(g.n()),
        static_cast<std::int64_t>(g.n()), seed);
  }
  static auto make_checker(const Graph&, const Protocol& p) {
    return make_unbounded_unison_checker(p);
  }
  static StepIndex step_cap(const Graph& g, VertexId) {
    const auto n = static_cast<StepIndex>(g.n());
    return 8 * n * n + 64;
  }
  static constexpr bool kStopAtConvergence = true;
  static constexpr bool kNeedsDiameter = false;
  static std::string print_state(Protocol::State s) {
    return std::to_string(s);
  }
  static void annotate(const Graph&, VertexId, const Protocol&,
                       const RunResult<Protocol::State>& res,
                       std::vector<std::string>& notes) {
    notes.push_back("final clock spread: " +
                    std::to_string(
                        UnboundedUnisonProtocol::spread(res.final_config)));
  }
};

/// Manne-Mjelde-Pilard-Tixeuil maximal matching (Section 3 baseline).
struct MatchingTraits {
  using Protocol = MatchingProtocol;

  static ProtocolInfo info() {
    ProtocolInfo info{"matching",
                      "MMPT maximal matching, stable-matching legitimacy",
                      "pointer p_v (neighbour id or null)",
                      {"random", "zero"}};
    info.silent = true;
    return info;
  }
  static Protocol make(const Graph&, VertexId) { return Protocol{}; }
  static Config<Protocol::State> make_init(const Graph& g, const Protocol&,
                                           const std::string& init,
                                           std::uint64_t seed) {
    if (init == "zero") return MatchingProtocol::null_config(g);
    // Pointers across the whole corrupted range: null, valid ids,
    // out-of-range garbage.
    return detail::uniform_init<Protocol::State>(g, -3, g.n() + 2, seed);
  }
  static auto make_checker(const Graph&, const Protocol& p) {
    return make_matching_checker(p);
  }
  static StepIndex step_cap(const Graph& g, VertexId) {
    // UD bound 4n + 2m steps (TCS 2009); doubled for slack.
    return 2 * (4 * static_cast<StepIndex>(g.n()) +
                2 * static_cast<StepIndex>(g.m())) +
           64;
  }
  static constexpr bool kStopAtConvergence = true;
  static constexpr bool kNeedsDiameter = false;
  static std::string print_state(Protocol::State s) {
    return std::to_string(s);
  }
  static void annotate(const Graph& g, VertexId, const Protocol& p,
                       const RunResult<Protocol::State>& res,
                       std::vector<std::string>& notes) {
    notes.push_back(
        "matched pairs: " +
        std::to_string(p.matched_pairs(g, res.final_config).size()) +
        ", maximal: " +
        (p.is_maximal_matching(g, res.final_config) ? "yes" : "NO"));
  }
};

/// Huang & Chen's min+1 BFS levels (Section 3 baseline).
struct MinPlusOneTraits {
  using Protocol = MinPlusOneProtocol;

  static ProtocolInfo info() {
    ProtocolInfo info{"min-plus-one",
                      "Huang-Chen min+1 BFS levels, exact-distance legitimacy",
                      "level estimate in [0, n]",
                      {"random", "zero"}};
    info.silent = true;
    return info;
  }
  static Protocol make(const Graph& g, VertexId) { return Protocol(g); }
  static Config<Protocol::State> make_init(const Graph& g, const Protocol& p,
                                           const std::string& init,
                                           std::uint64_t seed) {
    if (init == "zero") {
      return Config<Protocol::State>(static_cast<std::size_t>(g.n()), 0);
    }
    return detail::uniform_init<Protocol::State>(g, 0, p.level_cap(), seed);
  }
  static auto make_checker(const Graph&, const Protocol& p) {
    return make_min_plus_one_checker(p);
  }
  static StepIndex step_cap(const Graph& g, VertexId) {
    const auto n = static_cast<StepIndex>(g.n());
    return 4 * n * n + 64;
  }
  static constexpr bool kStopAtConvergence = true;
  static constexpr bool kNeedsDiameter = false;
  static std::string print_state(Protocol::State s) {
    return std::to_string(s);
  }
  static void annotate(const Graph& g, VertexId, const Protocol& p,
                       const RunResult<Protocol::State>& res,
                       std::vector<std::string>& notes) {
    notes.push_back(std::string("exact BFS levels from root ") +
                    std::to_string(p.root()) + ": " +
                    (p.legitimate(g, res.final_config) ? "yes" : "NO"));
  }
};

/// Self-stabilizing leader election (Section 6 programme, problem #1).
struct LeaderTraits {
  using Protocol = LeaderElectionProtocol;

  static ProtocolInfo info() {
    ProtocolInfo info{"leader",
                      "min-identity leader election with BFS distances "
                      "(Sec. 6)",
                      "(leader, dist) pair",
                      {"random", "zero"}};
    info.silent = true;
    return info;
  }
  static Protocol make(const Graph& g, VertexId) { return Protocol(g); }
  static Config<LeaderState> make_init(const Graph& g, const Protocol&,
                                       const std::string& init,
                                       std::uint64_t seed) {
    if (init == "zero") {
      return Config<LeaderState>(static_cast<std::size_t>(g.n()));
    }
    return random_leader_config(g, seed);
  }
  static auto make_checker(const Graph& g, const Protocol& p) {
    return make_leader_election_checker(p, g);
  }
  static StepIndex step_cap(const Graph& g, VertexId) {
    return 2000 * static_cast<StepIndex>(g.n());
  }
  static constexpr bool kStopAtConvergence = true;
  static constexpr bool kNeedsDiameter = false;
  static std::string print_state(const LeaderState& s) {
    return std::to_string(s.leader) + "@" + std::to_string(s.dist);
  }
  static void annotate(const Graph& g, VertexId, const Protocol& p,
                       const RunResult<LeaderState>& res,
                       std::vector<std::string>& notes) {
    notes.push_back("leader: identity " + std::to_string(p.min_id()) +
                    " (vertex " + std::to_string(p.min_id_vertex()) +
                    "), elected: " +
                    (p.legitimate(g, res.final_config) ? "yes" : "NO"));
  }
};

/// Self-stabilizing (Delta+1)-coloring (Section 6 programme, problem #2).
struct ColoringTraits {
  using Protocol = ColoringProtocol;

  static ProtocolInfo info() {
    ProtocolInfo info{"coloring",
                      "(Delta+1)-coloring by seniority, proper-coloring "
                      "legitimacy",
                      "color in [0, Delta]",
                      {"random", "zero"}};
    info.silent = true;
    return info;
  }
  static Protocol make(const Graph& g, VertexId) { return Protocol(g); }
  static Config<Protocol::State> make_init(const Graph& g, const Protocol& p,
                                           const std::string& init,
                                           std::uint64_t seed) {
    // "zero" is the worst fault a transient can plant: every edge
    // monochromatic.
    if (init == "zero") return monochrome_config(g, 0);
    return random_coloring_config(g, p.palette_size(), seed);
  }
  static auto make_checker(const Graph&, const Protocol& p) {
    return make_coloring_checker(p);
  }
  static StepIndex step_cap(const Graph& g, VertexId) {
    return 2000 * static_cast<StepIndex>(g.n());
  }
  static constexpr bool kStopAtConvergence = true;
  static constexpr bool kNeedsDiameter = false;
  static std::string print_state(Protocol::State s) {
    return std::to_string(s);
  }
  static void annotate(const Graph& g, VertexId, const Protocol& p,
                       const RunResult<Protocol::State>& res,
                       std::vector<std::string>& notes) {
    notes.push_back("palette: " + std::to_string(p.palette_size()) +
                    " colors, final monochromatic edges: " +
                    std::to_string(p.conflict_count(g, res.final_config)));
  }
};

/// Tag carrying a traits type through the visitor below.
template <class T>
struct ProtocolTag {
  using Traits = T;
};

/// Applies `visit` to every built-in protocol's traits tag, in
/// registration order.  The registry constructor and the differential
/// tests both iterate this list, so a protocol added here is
/// automatically registered *and* covered.
template <class Visitor>
void for_each_builtin_protocol(Visitor&& visit) {
  visit(ProtocolTag<SsmeGamma1Traits>{});
  visit(ProtocolTag<SsmeSafetyTraits>{});
  visit(ProtocolTag<DijkstraRingTraits>{});
  visit(ProtocolTag<UnisonTraits>{});
  visit(ProtocolTag<UnboundedUnisonTraits>{});
  visit(ProtocolTag<MatchingTraits>{});
  visit(ProtocolTag<MinPlusOneTraits>{});
  visit(ProtocolTag<LeaderTraits>{});
  visit(ProtocolTag<ColoringTraits>{});
}

}  // namespace specstab

#endif  // SPECSTAB_SIM_ANY_PROTOCOL_HPP
