// Daemons (adversaries) — paper, Section 2, Definitions 1 and 2.
//
// A daemon restricts the executions considered possible: in every
// configuration it chooses one action, i.e. a non-empty subset of the
// enabled vertices to activate.  Daemons here are state-agnostic — they
// see only the topology, the enabled set, and the step index — which makes
// every instance a valid daemon for *any* protocol, exactly as in
// Definition 1.
//
// The partial order of Definition 2 (d' more powerful than d iff every
// execution d allows, d' also allows) is reflected operationally: the
// *unfair distributed daemon* ud allows everything, so any concrete daemon
// below is one of its schedules; the *synchronous daemon* sd is the single
// schedule that activates all enabled vertices.  Worst-case behaviour
// under ud is approximated by the AdversaryPortfolio in
// core/speculation.hpp (see DESIGN.md, substitution note).
//
// Selection API: the engine calls select_into() once per action with a
// caller-owned ActionBuffer that lives for the whole execution, so the
// hot path allocates nothing in steady state.  The enabled set arrives as
// an EnabledView — always the sorted vertex vector, plus the O(1)
// membership mask words when the caller maintains them (the engines'
// EnabledSet does) — which gives cursor daemons constant-time advance in
// the common case.  A daemon whose every action is the whole enabled set
// says so through activates_all_enabled(); the parallel engine then runs
// such steps straight from its mask words without calling select_into().
#ifndef SPECSTAB_SIM_DAEMON_HPP
#define SPECSTAB_SIM_DAEMON_HPP

#include <algorithm>
#include <cstdint>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "graph/graph.hpp"
#include "sim/types.hpp"

namespace specstab {

/// Read-only view of the enabled set: the sorted vertex vector plus
/// optional 64-bit membership mask words (bit v % 64 of word v / 64 set
/// iff v is enabled, zero past the last vertex) for O(1) contains().
/// Non-owning; valid only for the duration of one select_into() call.
class EnabledView {
 public:
  /* implicit */ EnabledView(const std::vector<VertexId>& sorted)
      : sorted_(&sorted), words_(nullptr) {}
  EnabledView(const std::vector<VertexId>& sorted,
              const std::vector<std::uint64_t>& words)
      : sorted_(&sorted), words_(&words) {}

  [[nodiscard]] const std::vector<VertexId>& vertices() const {
    return *sorted_;
  }
  [[nodiscard]] std::size_t size() const { return sorted_->size(); }
  [[nodiscard]] bool empty() const { return sorted_->empty(); }
  [[nodiscard]] VertexId front() const { return sorted_->front(); }
  [[nodiscard]] VertexId back() const { return sorted_->back(); }
  [[nodiscard]] VertexId operator[](std::size_t i) const {
    return (*sorted_)[i];
  }

  /// Membership test: O(1) via the mask words when the caller provided
  /// them (the engines' EnabledSet), O(log n) binary search otherwise.
  [[nodiscard]] bool contains(VertexId v) const {
    if (words_) {
      const auto i = static_cast<std::size_t>(v);
      return i / 64 < words_->size() && (((*words_)[i / 64] >> (i % 64)) & 1);
    }
    return std::binary_search(sorted_->begin(), sorted_->end(), v);
  }

 private:
  const std::vector<VertexId>* sorted_;
  const std::vector<std::uint64_t>* words_;  // optional O(1) membership
};

/// Per-vertex scratch flags with O(1) amortized clearing via version
/// stamps: begin() invalidates all previous marks without touching the
/// array, so reuse across actions allocates nothing in steady state.
class VertexMarks {
 public:
  /// Starts a fresh marking generation over vertices [0, n).  Grows the
  /// backing array on first use (or a larger graph); O(1) afterwards.
  void begin(VertexId n) {
    if (stamp_.size() < static_cast<std::size_t>(n)) {
      stamp_.resize(static_cast<std::size_t>(n), 0);
    }
    if (++current_ == 0) {  // wrap-around: one full clear every 2^32 uses
      std::fill(stamp_.begin(), stamp_.end(), 0);
      current_ = 1;
    }
  }
  void mark(VertexId v) { stamp_[static_cast<std::size_t>(v)] = current_; }
  [[nodiscard]] bool marked(VertexId v) const {
    return stamp_[static_cast<std::size_t>(v)] == current_;
  }

 private:
  std::vector<std::uint32_t> stamp_;
  std::uint32_t current_ = 0;
};

/// Caller-owned scratch workspace for Daemon::select_into().  The engine
/// keeps one instance alive for the whole execution; vectors reach their
/// high-water capacity within a few actions and the loop stops
/// allocating.  `active` is the selection output; `marks` is per-vertex
/// scratch for daemons that need it (locally-central, k-fair).
struct ActionBuffer {
  std::vector<VertexId> active;
  VertexMarks marks;
};

/// Abstract daemon: selects the activation set of each action.
class Daemon {
 public:
  virtual ~Daemon() = default;

  /// Writes a non-empty subset of `enabled` (which is non-empty) into
  /// `out.active`, **sorted ascending**, replacing any previous content.
  /// Called once per action with `step` the 0-based action index; `out`
  /// is owned by the caller and reused across the whole execution, so
  /// implementations must not assume it starts empty and should not
  /// allocate beyond warm-up.
  virtual void select_into(const Graph& g, const EnabledView& enabled,
                           StepIndex step, ActionBuffer& out) = 0;

  /// Convenience wrapper over select_into() that allocates a fresh buffer
  /// per call.  For tests and one-shot tools; hot paths keep their own
  /// ActionBuffer.
  [[nodiscard]] std::vector<VertexId> select(
      const Graph& g, const std::vector<VertexId>& enabled, StepIndex step);

  /// Human-readable name for reports.
  [[nodiscard]] virtual std::string name() const = 0;

  /// True when every select_into() call is a pure copy of the enabled
  /// set that changes no daemon state (no cursor moves, no RNG draws).
  /// A property of the daemon's definition, not a run option: the
  /// parallel engine then skips select_into() on dense steps and drives
  /// the action from the enabled set's mask words, which must not change
  /// what any later call returns.
  [[nodiscard]] virtual bool activates_all_enabled() const { return false; }

  /// Restores the daemon's initial internal state (cursor, RNG) so the
  /// same instance can drive several executions reproducibly.
  virtual void reset() {}
};

/// sd: activates every enabled vertex — one synchronous step per action.
class SynchronousDaemon final : public Daemon {
 public:
  void select_into(const Graph&, const EnabledView& e, StepIndex,
                   ActionBuffer& out) override;
  [[nodiscard]] std::string name() const override { return "synchronous"; }
  [[nodiscard]] bool activates_all_enabled() const override { return true; }
};

/// cd variant: activates the single enabled vertex next in id order after
/// the previously activated one (fair central schedule).  Advance is O(1)
/// when the cursor's vertex is still enabled (mask-word hit on the
/// incremental EnabledSet); O(log n) successor search otherwise.
class CentralRoundRobinDaemon final : public Daemon {
 public:
  void select_into(const Graph& g, const EnabledView& e, StepIndex,
                   ActionBuffer& out) override;
  [[nodiscard]] std::string name() const override {
    return "central-round-robin";
  }
  void reset() override { cursor_ = 0; }

 private:
  VertexId cursor_ = 0;
};

/// cd variant: activates one uniformly random enabled vertex.
class CentralRandomDaemon final : public Daemon {
 public:
  explicit CentralRandomDaemon(std::uint64_t seed) : seed_(seed), rng_(seed) {}
  void select_into(const Graph&, const EnabledView& e, StepIndex,
                   ActionBuffer& out) override;
  [[nodiscard]] std::string name() const override { return "central-random"; }
  void reset() override { rng_.seed(seed_); }

 private:
  std::uint64_t seed_;
  std::mt19937_64 rng_;
};

/// Unfair central schedule: always activates the enabled vertex with the
/// smallest id.  Starves high-id vertices whenever possible — a cheap but
/// effective unfairness pattern.
class CentralMinIdDaemon final : public Daemon {
 public:
  void select_into(const Graph&, const EnabledView& e, StepIndex,
                   ActionBuffer& out) override;
  [[nodiscard]] std::string name() const override { return "central-min-id"; }
};

/// Unfair central schedule: always activates the enabled vertex with the
/// largest id.
class CentralMaxIdDaemon final : public Daemon {
 public:
  void select_into(const Graph&, const EnabledView& e, StepIndex,
                   ActionBuffer& out) override;
  [[nodiscard]] std::string name() const override { return "central-max-id"; }
};

/// Distributed daemon: each enabled vertex is activated independently with
/// probability p; if the sample is empty, one random enabled vertex is
/// activated (a daemon must choose an action).  p = 1 degenerates to sd.
///
/// Sampling is batched: instead of one Bernoulli draw per enabled vertex,
/// the daemon draws geometric skip lengths (the gap to the next success
/// of an i.i.d. Bernoulli(p) sequence), which produces the same subset
/// distribution with ~p draws per enabled vertex instead of one.
class DistributedBernoulliDaemon final : public Daemon {
 public:
  DistributedBernoulliDaemon(double p, std::uint64_t seed);
  void select_into(const Graph&, const EnabledView& e, StepIndex,
                   ActionBuffer& out) override;
  [[nodiscard]] std::string name() const override;
  /// p = 1 selects everything without drawing (see select_into()).
  [[nodiscard]] bool activates_all_enabled() const override {
    return p_ >= 1.0;
  }
  void reset() override { rng_.seed(seed_); }

 private:
  double p_;
  std::uint64_t seed_;
  std::mt19937_64 rng_;
};

/// Distributed daemon: activates a uniformly random non-empty subset of
/// the enabled vertices (i.i.d. coin flips at p = 1/2, geometric-skip
/// sampled like DistributedBernoulliDaemon).
class RandomSubsetDaemon final : public Daemon {
 public:
  explicit RandomSubsetDaemon(std::uint64_t seed) : seed_(seed), rng_(seed) {}
  void select_into(const Graph&, const EnabledView& e, StepIndex,
                   ActionBuffer& out) override;
  [[nodiscard]] std::string name() const override { return "random-subset"; }
  void reset() override { rng_.seed(seed_); }

 private:
  std::uint64_t seed_;
  std::mt19937_64 rng_;
};

/// Locally central daemon: activates a maximal independent subset of the
/// enabled vertices (greedy by id with RNG-rotated starting point) — no
/// two neighbours move in the same action.  A classical daemon class
/// between central and distributed.
class LocallyCentralDaemon final : public Daemon {
 public:
  explicit LocallyCentralDaemon(std::uint64_t seed) : seed_(seed), rng_(seed) {}
  void select_into(const Graph& g, const EnabledView& e, StepIndex,
                   ActionBuffer& out) override;
  [[nodiscard]] std::string name() const override { return "locally-central"; }
  void reset() override { rng_.seed(seed_); }

 private:
  std::uint64_t seed_;
  std::mt19937_64 rng_;
};

/// k-fair central daemon: random choices, but any vertex continuously
/// enabled for k consecutive actions is served immediately.  Interpolates
/// between the fully random central daemon (k = infinity) and strict
/// round-robin fairness.
class KFairCentralDaemon final : public Daemon {
 public:
  KFairCentralDaemon(StepIndex k, std::uint64_t seed);
  void select_into(const Graph& g, const EnabledView& e, StepIndex step,
                   ActionBuffer& out) override;
  [[nodiscard]] std::string name() const override;
  void reset() override;

 private:
  StepIndex k_;
  std::uint64_t seed_;
  std::mt19937_64 rng_;
  std::vector<StepIndex> enabled_since_;  // -1 = not continuously enabled
};

/// Starvation adversary: a central daemon that never serves a designated
/// victim while any other vertex is enabled — the sharpest expressible
/// unfairness pattern.  Self-stabilizing protocols must converge anyway.
class StarvationDaemon final : public Daemon {
 public:
  explicit StarvationDaemon(VertexId victim) : victim_(victim) {}
  void select_into(const Graph&, const EnabledView& e, StepIndex,
                   ActionBuffer& out) override;
  [[nodiscard]] std::string name() const override;

 private:
  VertexId victim_;
};

/// Central daemon with a fixed priority order: always activates the single
/// enabled vertex appearing earliest in `priority`.  Vertices absent from
/// the order get lowest (id-ordered) priority.  Used for crafted
/// worst-case schedules such as the token chase on Dijkstra's ring.
class PriorityCentralDaemon final : public Daemon {
 public:
  explicit PriorityCentralDaemon(std::vector<VertexId> priority);
  void select_into(const Graph&, const EnabledView& e, StepIndex,
                   ActionBuffer& out) override;
  [[nodiscard]] std::string name() const override {
    return "priority-central";
  }

 private:
  std::vector<VertexId> priority_;
};

/// Replays an explicit schedule (one activation set per action); once the
/// schedule is exhausted, falls back to a provided daemon (default:
/// synchronous).  Entries are intersected with the enabled set; if the
/// intersection is empty the fallback daemon decides.  Used to drive
/// crafted worst-case schedules, e.g. the Theta(n^2) token chase on
/// Dijkstra's ring.
class ScheduledDaemon final : public Daemon {
 public:
  explicit ScheduledDaemon(std::vector<std::vector<VertexId>> schedule,
                           std::unique_ptr<Daemon> fallback = nullptr);
  void select_into(const Graph& g, const EnabledView& e, StepIndex step,
                   ActionBuffer& out) override;
  [[nodiscard]] std::string name() const override { return "scheduled"; }
  void reset() override;

 private:
  std::vector<std::vector<VertexId>> schedule_;
  std::size_t next_ = 0;
  std::unique_ptr<Daemon> fallback_;
};

/// One row of the canonical daemon catalog — the single source of truth
/// for the daemon names available by string.  make_daemon(), the CLI
/// `daemons` and `list` subcommands, and the campaign's repetition logic
/// all query this table, so a daemon added here is immediately
/// constructible, listed, and classified everywhere.
struct DaemonInfo {
  std::string name;         ///< concrete name, or the "bernoulli-<p>" pattern
  std::string description;  ///< one line for listings
  bool randomized = false;  ///< schedule depends on the seed
};

/// The catalog, in listing order.
[[nodiscard]] const std::vector<DaemonInfo>& daemon_catalog();

/// Daemon factory by name: every catalog row (synchronous | central-rr |
/// central-random | central-min-id | central-max-id | random-subset |
/// locally-central | bernoulli-<p>, e.g. bernoulli-0.5).  Throws
/// std::invalid_argument on unknown names.  `seed` feeds the randomized
/// daemons and is ignored by the deterministic ones.
[[nodiscard]] std::unique_ptr<Daemon> make_daemon(const std::string& name,
                                                  std::uint64_t seed);

/// Names accepted by make_daemon (the catalog's name column).
[[nodiscard]] std::vector<std::string> known_daemon_names();

/// True for daemon names whose schedule depends on the seed
/// (central-random, random-subset, locally-central, bernoulli-<p>);
/// deterministic daemons replay the same schedule at every seed.
/// Resolved against the catalog.
[[nodiscard]] bool daemon_name_is_randomized(const std::string& name);

}  // namespace specstab

#endif  // SPECSTAB_SIM_DAEMON_HPP
