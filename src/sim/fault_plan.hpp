// Deterministic fault injection: seed-derived schedules of mid-run state
// corruption, plus the recovery-time meter the engines feed.
//
// The paper's guarantees are conditioned on faults *stopping*: every
// theorem quantifies convergence from an arbitrary gamma_0 with no
// further corruption.  A FaultPlan simulates the complementary regime
// (Dolev & Herman's "unsupportive environments"): transient faults keep
// arriving while the protocol runs, and the quantity of interest becomes
// the recovery-time distribution between perturbations.
//
// Determinism contract: every choice a plan makes (victims, corrupted
// values, adversarial candidates) is drawn from a splitmix64 stream
// seeded by mix(plan_seed, epoch_index) — never from engine-side state —
// so the same spec + seed produces byte-identical perturbations in all
// three engines, both layouts, and any thread count.  Scheduling is by
// step index with one exception: a plan also fires when the run stalls
// (enabled set empty) before the next fire point, so silent protocols
// cannot terminate with epochs still pending.  Stall steps are identical
// across engines, so this keeps the differential invariant intact.
#ifndef SPECSTAB_SIM_FAULT_PLAN_HPP
#define SPECSTAB_SIM_FAULT_PLAN_HPP

#include <algorithm>
#include <cstdint>
#include <functional>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "graph/graph.hpp"
#include "sim/config_store.hpp"
#include "sim/enabled_set.hpp"
#include "sim/types.hpp"

namespace specstab {

/// How a perturbation epoch picks its victim vertices.
enum class FaultKind {
  kNone,         ///< inactive plan (no fault injection)
  kPeriodic,     ///< k distinct uniform vertices per epoch
  kBurst,        ///< a BFS cluster of k vertices around a uniform center
  kAdversarial,  ///< k uniform vertices, each corrupted with the candidate
                 ///< value that maximizes the enabled-count in its ball
};

[[nodiscard]] constexpr std::string_view fault_kind_name(FaultKind kind) {
  switch (kind) {
    case FaultKind::kNone:
      return "none";
    case FaultKind::kPeriodic:
      return "periodic";
    case FaultKind::kBurst:
      return "burst";
    case FaultKind::kAdversarial:
      return "adversarial";
  }
  return "none";
}

/// Parsed perturbation schedule: `kind:period=P;k=K;epochs=E;start=S`
/// (any key subset, any order, fields separated by `;` or `,`; `start`
/// defaults to `period`), or the literal `none`.  format() emits every
/// field `;`-separated — comma-free on purpose, so the canonical text
/// round-trips exactly and is a stable, CSV-safe campaign-cell identity.
struct FaultSpec {
  FaultKind kind = FaultKind::kNone;
  StepIndex period = 64;  ///< steps between scheduled fire points (>= 1)
  StepIndex start = 64;   ///< step index of the first fire point (>= 0)
  std::int64_t k = 1;     ///< victims per epoch (>= 1; clamped to n)
  std::int64_t epochs = 4;  ///< total perturbation epochs (>= 1)

  [[nodiscard]] bool active() const { return kind != FaultKind::kNone; }
  [[nodiscard]] std::string format() const;
  /// Throws std::invalid_argument on malformed text.  "" and "none" both
  /// parse to an inactive spec.
  static FaultSpec parse(const std::string& text);

  friend bool operator==(const FaultSpec&, const FaultSpec&) = default;
};

inline std::string FaultSpec::format() const {
  if (!active()) return "none";
  std::string out{fault_kind_name(kind)};
  out += ":period=" + std::to_string(period);
  out += ";k=" + std::to_string(k);
  out += ";epochs=" + std::to_string(epochs);
  out += ";start=" + std::to_string(start);
  return out;
}

inline FaultSpec FaultSpec::parse(const std::string& text) {
  FaultSpec spec;
  if (text.empty() || text == "none") return spec;
  const auto fail = [&text](const std::string& why) -> FaultSpec {
    throw std::invalid_argument("bad fault spec '" + text + "': " + why);
  };
  const std::size_t colon = text.find(':');
  const std::string kind = text.substr(0, colon);
  if (kind == "periodic") {
    spec.kind = FaultKind::kPeriodic;
  } else if (kind == "burst") {
    spec.kind = FaultKind::kBurst;
  } else if (kind == "adversarial") {
    spec.kind = FaultKind::kAdversarial;
  } else {
    return fail("unknown kind '" + kind + "'");
  }
  bool start_given = false;
  std::size_t pos = colon == std::string::npos ? text.size() : colon + 1;
  while (pos < text.size()) {
    std::size_t end = text.find_first_of(",;", pos);
    if (end == std::string::npos) end = text.size();
    const std::string field = text.substr(pos, end - pos);
    const std::size_t eq = field.find('=');
    if (eq == std::string::npos) return fail("field '" + field + "' has no =");
    const std::string key = field.substr(0, eq);
    const std::string value = field.substr(eq + 1);
    std::int64_t parsed = 0;
    try {
      std::size_t used = 0;
      parsed = std::stoll(value, &used);
      if (used != value.size()) throw std::invalid_argument(value);
    } catch (const std::exception&) {
      return fail("non-integer value '" + value + "' for '" + key + "'");
    }
    if (key == "period") {
      spec.period = parsed;
    } else if (key == "k") {
      spec.k = parsed;
    } else if (key == "epochs") {
      spec.epochs = parsed;
    } else if (key == "start") {
      spec.start = parsed;
      start_given = true;
    } else {
      return fail("unknown key '" + key + "'");
    }
    pos = end + 1;
  }
  if (!start_given) spec.start = spec.period;
  if (spec.period < 1) return fail("period must be >= 1");
  if (spec.k < 1) return fail("k must be >= 1");
  if (spec.epochs < 1) return fail("epochs must be >= 1");
  if (spec.start < 0) return fail("start must be >= 0");
  return spec;
}

/// Recovery-time record of one perturbed run, carried on RunResult.
/// Epoch e corrupted the configuration at step fire_steps[e];
/// recovery_steps[e] is the number of steps from the perturbed
/// configuration to the first legitimate one (0 when the corruption left
/// the configuration legitimate), or -1 when the run never re-converged
/// inside the epoch's window.
struct PerturbationStats {
  std::int64_t epochs_fired = 0;
  std::vector<StepIndex> fire_steps;
  std::vector<StepIndex> recovery_steps;

  [[nodiscard]] std::int64_t unrecovered() const {
    return static_cast<std::int64_t>(
        std::count(recovery_steps.begin(), recovery_steps.end(),
                   StepIndex{-1}));
  }

  friend bool operator==(const PerturbationStats&,
                         const PerturbationStats&) = default;
};

/// Builds PerturbationStats from the engine's legitimacy verdicts.  The
/// engine calls on_fire() when an epoch corrupts the configuration and
/// on_verdict() once per configuration (including the perturbed one, so
/// a corruption that lands legitimate meters as recovery 0).  An epoch
/// still awaiting recovery is sealed as -1 by the next fire or finish().
class RecoveryMeter {
 public:
  void on_fire(StepIndex step) {
    if (awaiting_) stats_.recovery_steps.push_back(-1);
    stats_.fire_steps.push_back(step);
    ++stats_.epochs_fired;
    awaiting_ = true;
    fire_step_ = step;
  }

  void on_verdict(StepIndex step, bool legitimate) {
    if (awaiting_ && legitimate) {
      stats_.recovery_steps.push_back(step - fire_step_);
      awaiting_ = false;
    }
  }

  [[nodiscard]] PerturbationStats finish() {
    if (awaiting_) {
      stats_.recovery_steps.push_back(-1);
      awaiting_ = false;
    }
    return stats_;
  }

 private:
  PerturbationStats stats_;
  bool awaiting_ = false;
  StepIndex fire_step_ = 0;
};

/// One epoch's corruption: sorted distinct victims and, in parallel, the
/// state each victim is overwritten with.
template <class State>
struct Perturbation {
  std::vector<VertexId> victims;
  std::vector<State> values;
};

namespace fault_detail {

/// splitmix64: the statistically solid 64-bit stream generator behind
/// every in-plan random choice.  Header-local so plans stay header-only.
class SplitMix {
 public:
  explicit SplitMix(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  /// Uniform draw in [0, bound) for bound >= 1 (modulo bias is
  /// irrelevant at graph sizes vs 2^64).
  std::uint64_t below(std::uint64_t bound) { return next() % bound; }

 private:
  std::uint64_t state_;
};

inline std::uint64_t mix64(std::uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ull;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebull;
  x ^= x >> 31;
  return x;
}

}  // namespace fault_detail

/// Deterministic schedule of perturbation events over one run.
///
/// The plan owns the epoch counter, the victim/value selection and the
/// recovery meter; engines own the installation (writing the values into
/// their ConfigStore) and the repair (guard re-tests in the perturbed
/// ball, checker refresh) because those are layout- and engine-specific.
template <class State>
class FaultPlan {
 public:
  /// Produces a full configuration of protocol-reachable states from a
  /// seed; corruption values are sampled from it per victim.  Sessions
  /// bind this to the protocol's seeded init family, which yields
  /// arbitrary states without per-protocol corruption hooks.
  using ValuePool = std::function<Config<State>(std::uint64_t seed)>;
  /// The protocol's guard; the adversarial kind scores candidate values
  /// by the enabled-count they induce in the victim's ball.
  using GuardFn = std::function<bool(const Graph&, const ConfigView<State>&,
                                     VertexId)>;

  FaultPlan(FaultSpec spec, std::uint64_t seed, VertexId guard_radius,
            ValuePool pool, GuardFn guard)
      : spec_(spec),
        seed_(fault_detail::mix64(seed ^ kSeedSalt)),
        radius_(std::max<VertexId>(guard_radius, 1)),
        pool_(std::move(pool)),
        guard_(std::move(guard)) {
    if (!spec_.active()) {
      throw std::invalid_argument("FaultPlan needs an active FaultSpec");
    }
    if (!pool_) throw std::invalid_argument("FaultPlan needs a value pool");
    if (spec_.kind == FaultKind::kAdversarial && !guard_) {
      throw std::invalid_argument("adversarial FaultPlan needs a guard");
    }
  }

  [[nodiscard]] const FaultSpec& spec() const { return spec_; }
  [[nodiscard]] bool exhausted() const { return fired_ >= spec_.epochs; }
  [[nodiscard]] StepIndex next_fire_step() const {
    return spec_.start + static_cast<StepIndex>(fired_) * spec_.period;
  }
  /// Whether the next epoch fires now: its scheduled step was reached, or
  /// the run stalled (empty enabled set) with epochs still pending.
  [[nodiscard]] bool due(StepIndex step, bool stalled) const {
    return !exhausted() && (stalled || step >= next_fire_step());
  }

  RecoveryMeter& meter() { return meter_; }
  /// Seals a trailing unrecovered epoch and returns the run's stats.
  [[nodiscard]] PerturbationStats finish() { return meter_.finish(); }

  /// Draws the next epoch's corruption.  `live` is the configuration the
  /// epoch corrupts (read-only here; the engine installs the values).
  /// The returned reference is invalidated by the next fire().
  const Perturbation<State>& fire(const Graph& g, const ConfigView<State>& live,
                                  StepIndex step) {
    if (exhausted()) throw std::logic_error("FaultPlan::fire past last epoch");
    fault_detail::SplitMix rng(
        fault_detail::mix64(seed_ ^ static_cast<std::uint64_t>(fired_)));
    pert_.victims.clear();
    pert_.values.clear();
    const auto n = static_cast<std::int64_t>(g.n());
    if (n > 0) {
      const std::int64_t k = std::min(spec_.k, n);
      switch (spec_.kind) {
        case FaultKind::kPeriodic:
          pick_uniform(rng, n, k);
          fill_from_pool(rng);
          break;
        case FaultKind::kBurst:
          pick_burst(g, rng, n, k);
          fill_from_pool(rng);
          break;
        case FaultKind::kAdversarial:
          pick_uniform(rng, n, k);
          fill_adversarial(g, live, rng);
          break;
        case FaultKind::kNone:
          break;
      }
    }
    ++fired_;
    meter_.on_fire(step);
    return pert_;
  }

 private:
  // Salt keeps the plan's stream disjoint from every other consumer of
  // the session seed (init sampling, daemons).
  static constexpr std::uint64_t kSeedSalt = 0xfa017a10c0de5eedull;

  /// k distinct uniform victims via a partial Fisher-Yates shuffle
  /// (O(n), epoch-rare), sorted ascending.
  void pick_uniform(fault_detail::SplitMix& rng, std::int64_t n,
                    std::int64_t k) {
    indices_.resize(static_cast<std::size_t>(n));
    std::iota(indices_.begin(), indices_.end(), VertexId{0});
    for (std::int64_t i = 0; i < k; ++i) {
      const auto j = static_cast<std::int64_t>(
          rng.below(static_cast<std::uint64_t>(n - i)));
      std::swap(indices_[static_cast<std::size_t>(i)],
                indices_[static_cast<std::size_t>(i + j)]);
    }
    pert_.victims.assign(indices_.begin(), indices_.begin() + k);
    std::sort(pert_.victims.begin(), pert_.victims.end());
  }

  /// A cluster of k vertices collected by BFS (adjacency order) from a
  /// uniform center, sorted ascending.
  void pick_burst(const Graph& g, fault_detail::SplitMix& rng, std::int64_t n,
                  std::int64_t k) {
    seen_.assign(static_cast<std::size_t>(n), 0);
    frontier_.clear();
    const auto center =
        static_cast<VertexId>(rng.below(static_cast<std::uint64_t>(n)));
    frontier_.push_back(center);
    seen_[static_cast<std::size_t>(center)] = 1;
    for (std::size_t head = 0;
         head < frontier_.size() &&
         static_cast<std::int64_t>(frontier_.size()) < k;
         ++head) {
      for (const VertexId u : g.neighbors(frontier_[head])) {
        if (seen_[static_cast<std::size_t>(u)]) continue;
        seen_[static_cast<std::size_t>(u)] = 1;
        frontier_.push_back(u);
        if (static_cast<std::int64_t>(frontier_.size()) >= k) break;
      }
    }
    pert_.victims = frontier_;
    std::sort(pert_.victims.begin(), pert_.victims.end());
  }

  /// Victim values sampled from one pool configuration per epoch.
  void fill_from_pool(fault_detail::SplitMix& rng) {
    const Config<State> pool = pool_(rng.next());
    pert_.values.reserve(pert_.victims.size());
    for (const VertexId v : pert_.victims) {
      pert_.values.push_back(pool[static_cast<std::size_t>(v)]);
    }
  }

  /// Worst-neighbor corruption: per victim (ascending), install the
  /// candidate value whose write maximizes the number of enabled
  /// vertices in the victim's guard ball — a greedy local maximization
  /// of the violation score, evaluated on a scratch copy so earlier
  /// victims' corruption compounds.  First maximum wins ties, keeping
  /// the choice deterministic.
  void fill_adversarial(const Graph& g, const ConfigView<State>& live,
                        fault_detail::SplitMix& rng) {
    candidates_.clear();
    for (int c = 0; c < kAdversarialCandidates; ++c) {
      candidates_.push_back(pool_(rng.next()));
    }
    scratch_ = live.materialize();
    const ConfigView<State> scratch_view(scratch_);
    ball_seed_.resize(1);
    pert_.values.reserve(pert_.victims.size());
    for (const VertexId v : pert_.victims) {
      ball_seed_[0] = v;
      const std::vector<VertexId>& ball =
          expander(g).expand(g, ball_seed_, radius_);
      std::size_t best = 0;
      std::int64_t best_score = -1;
      for (std::size_t c = 0; c < candidates_.size(); ++c) {
        scratch_[static_cast<std::size_t>(v)] =
            candidates_[c][static_cast<std::size_t>(v)];
        std::int64_t score = 0;
        for (const VertexId u : ball) {
          score += guard_(g, scratch_view, u) ? 1 : 0;
        }
        if (score > best_score) {
          best_score = score;
          best = c;
        }
      }
      scratch_[static_cast<std::size_t>(v)] =
          candidates_[best][static_cast<std::size_t>(v)];
      pert_.values.push_back(scratch_[static_cast<std::size_t>(v)]);
    }
  }

  NeighborhoodExpander& expander(const Graph& g) {
    if (!expander_) expander_.emplace(g.n());
    return *expander_;
  }

  static constexpr int kAdversarialCandidates = 4;

  FaultSpec spec_;
  std::uint64_t seed_;
  VertexId radius_;
  ValuePool pool_;
  GuardFn guard_;
  std::int64_t fired_ = 0;
  RecoveryMeter meter_;
  Perturbation<State> pert_;
  std::vector<VertexId> indices_, frontier_, ball_seed_;
  std::vector<char> seen_;
  std::vector<Config<State>> candidates_;
  Config<State> scratch_;
  std::optional<NeighborhoodExpander> expander_;
};

/// Refreshes an incremental checker after a perturbation: the
/// from-scratch rebuild when the checker exposes one (so cached local
/// scores can never go stale), the touched-vertex incremental path
/// otherwise.  Both return the exact verdict of the perturbed
/// configuration.
template <class C, class State>
bool fault_refresh_checker(C& checker, const Graph& g,
                           const ConfigView<State>& cfg,
                           const std::vector<VertexId>& victims) {
  if constexpr (requires {
                  { checker.refresh_all(g, cfg) } -> std::same_as<bool>;
                }) {
    return checker.refresh_all(g, cfg);
  } else {
    return checker.on_update(g, cfg, victims);
  }
}

/// Per-epoch service-time degradation: for each fire step, the number of
/// steps until the first service event (e.g. an SSME privileged action)
/// at or after it, before the next epoch begins; -1 when the window saw
/// no service.  `service_steps` must be ascending; `total_steps` bounds
/// the last window.
[[nodiscard]] inline std::vector<StepIndex> service_stalls_per_epoch(
    const std::vector<StepIndex>& fire_steps,
    const std::vector<StepIndex>& service_steps, StepIndex total_steps) {
  std::vector<StepIndex> out;
  out.reserve(fire_steps.size());
  for (std::size_t e = 0; e < fire_steps.size(); ++e) {
    const StepIndex fire = fire_steps[e];
    const StepIndex window_end =
        e + 1 < fire_steps.size() ? fire_steps[e + 1] : total_steps;
    const auto it =
        std::lower_bound(service_steps.begin(), service_steps.end(), fire);
    const bool served = it != service_steps.end() && *it < window_end;
    out.push_back(served ? *it - fire : -1);
  }
  return out;
}

}  // namespace specstab

#endif  // SPECSTAB_SIM_FAULT_PLAN_HPP
