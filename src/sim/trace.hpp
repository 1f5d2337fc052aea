// Round accounting and execution trace helpers.
//
// Steps are the paper's complexity unit (one daemon action).  For
// asynchronous daemons it is also standard to report *rounds*: the first
// round of an execution is its minimal prefix in which every vertex that
// was enabled at the start has been activated or neutralised (became
// disabled); subsequent rounds are defined on the remaining suffix.
// Under the synchronous daemon, rounds and steps coincide.
#ifndef SPECSTAB_SIM_TRACE_HPP
#define SPECSTAB_SIM_TRACE_HPP

#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

#include "graph/graph.hpp"
#include "sim/config_store.hpp"
#include "sim/types.hpp"

namespace specstab {

/// Delta-compressed execution trace: gamma_0 in full, then one compact
/// record per action holding the activated set and the (vertex, before,
/// after) triples of the vertices whose state actually changed —
/// O(changes) memory per action instead of O(n) full-configuration
/// copies.  Configurations are reconstructed on demand by replaying the
/// deltas (at()/operator[]), or streamed in order by the input iterator,
/// which keeps one working configuration and advances it in O(changes)
/// per step.
///
/// Both engines record identical representations (the daemon contract
/// delivers activated sets sorted, and deltas are noted in that order),
/// so traces compare byte-for-byte across engines.
template <class State>
class DeltaTrace {
 public:
  /// One changed vertex of one action.
  struct Delta {
    VertexId v;
    State before;
    State after;

    friend bool operator==(const Delta&, const Delta&) = default;
  };

  void clear() {
    started_ = false;
    initial_.clear();
    deltas_.clear();
    delta_offset_.assign(1, 0);
    activated_.clear();
    activated_offset_.assign(1, 0);
    perturbation_.clear();
  }

  /// Installs gamma_0 (snapshotted to an AoS copy, whatever layout backs
  /// the view).  Must be called exactly once, before any seal_action().
  void start(ConfigView<State> initial) {
    clear();
    started_ = true;
    initial_ = initial.materialize();
  }

  /// Stages one changed vertex of the action being recorded.  No-op when
  /// the state did not change (activated vertices may rewrite their
  /// current value).  Call in ascending vertex order.
  void note_change(VertexId v, const State& before, const State& after) {
    if (before == after) return;
    deltas_.push_back({v, before, after});
  }

  /// Seals the action: the staged deltas plus its activated set become
  /// the record producing the next configuration.
  void seal_action(const std::vector<VertexId>& activated) {
    seal(activated, false);
  }

  /// Seals a fault-injection event: same record shape as an action (the
  /// staged deltas plus the sorted victim set), but flagged so replay
  /// and analysis can tell the daemon's moves from the adversary's
  /// corruption.  Perturbation records keep perturbed runs replaying
  /// byte-identically through the same delta machinery.
  void seal_perturbation(const std::vector<VertexId>& victims) {
    seal(victims, true);
  }

  /// Whether record a is a perturbation (corruption) rather than a
  /// daemon action.
  [[nodiscard]] bool is_perturbation(std::size_t a) const {
    if (a >= actions()) throw std::out_of_range("DeltaTrace::is_perturbation");
    return perturbation_[a] != 0;
  }

  /// Number of perturbation records in the trace.
  [[nodiscard]] std::size_t perturbations() const {
    std::size_t count = 0;
    for (const std::uint8_t flag : perturbation_) count += flag;
    return count;
  }

  /// True before start(): the run did not record a trace.
  [[nodiscard]] bool empty() const { return !started_; }

  /// Number of recorded configurations: actions() + 1, or 0 before
  /// start() — mirrors the length of the full-copy trace it replaces.
  [[nodiscard]] std::size_t size() const {
    return started_ ? actions() + 1 : 0;
  }

  /// Number of recorded actions.
  [[nodiscard]] std::size_t actions() const {
    return activated_offset_.size() - 1;
  }

  /// Reconstructs gamma_i by replaying deltas 0..i-1 onto gamma_0.
  [[nodiscard]] Config<State> at(std::size_t i) const {
    if (i >= size()) throw std::out_of_range("DeltaTrace::at");
    Config<State> cfg = initial_;
    apply_range(cfg, 0, i);
    return cfg;
  }

  [[nodiscard]] Config<State> operator[](std::size_t i) const { return at(i); }
  [[nodiscard]] Config<State> front() const { return at(0); }
  [[nodiscard]] Config<State> back() const { return at(size() - 1); }

  /// The daemon's activation set of action a (the move from gamma_a to
  /// gamma_{a+1}).
  [[nodiscard]] std::span<const VertexId> activated_at(std::size_t a) const {
    if (a >= actions()) throw std::out_of_range("DeltaTrace::activated_at");
    return {activated_.data() + activated_offset_[a],
            activated_offset_[a + 1] - activated_offset_[a]};
  }

  /// The state changes of action a (subset of its activated vertices).
  [[nodiscard]] std::span<const Delta> changes_at(std::size_t a) const {
    if (a >= actions()) throw std::out_of_range("DeltaTrace::changes_at");
    return {deltas_.data() + delta_offset_[a],
            delta_offset_[a + 1] - delta_offset_[a]};
  }

  /// Expands the whole trace to full configurations (for helpers that
  /// want random access without per-index replay cost).
  [[nodiscard]] std::vector<Config<State>> materialize() const {
    std::vector<Config<State>> out;
    if (!started_) return out;
    out.reserve(size());
    Config<State> cfg = initial_;
    out.push_back(cfg);
    for (std::size_t a = 0; a < actions(); ++a) {
      apply_range(cfg, a, a + 1);
      out.push_back(cfg);
    }
    return out;
  }

  friend bool operator==(const DeltaTrace&, const DeltaTrace&) = default;

  /// Input iterator streaming gamma_0, gamma_1, ... with one O(changes)
  /// advance per step (no per-index replay).  operator* returns a
  /// reference to the iterator's working configuration, invalidated by
  /// ++.
  class const_iterator {
   public:
    using value_type = Config<State>;

    const_iterator(const DeltaTrace* trace, std::size_t index)
        : trace_(trace), index_(index) {
      if (trace_ && index_ < trace_->size()) current_ = trace_->initial_;
    }

    const Config<State>& operator*() const { return current_; }
    const Config<State>* operator->() const { return &current_; }

    const_iterator& operator++() {
      if (index_ < trace_->actions()) {
        trace_->apply_range(current_, index_, index_ + 1);
      }
      ++index_;
      return *this;
    }

    friend bool operator==(const const_iterator& a, const const_iterator& b) {
      return a.index_ == b.index_;
    }

   private:
    const DeltaTrace* trace_;
    std::size_t index_;
    Config<State> current_;
  };

  [[nodiscard]] const_iterator begin() const {
    return const_iterator(this, 0);
  }
  [[nodiscard]] const_iterator end() const {
    return const_iterator(this, size());
  }

 private:
  void seal(const std::vector<VertexId>& activated, bool perturbation) {
    activated_.insert(activated_.end(), activated.begin(), activated.end());
    activated_offset_.push_back(activated_.size());
    delta_offset_.push_back(deltas_.size());
    perturbation_.push_back(perturbation ? 1 : 0);
  }

  /// Applies the deltas of actions [from, to) to cfg.
  void apply_range(Config<State>& cfg, std::size_t from, std::size_t to) const {
    for (std::size_t i = delta_offset_[from]; i < delta_offset_[to]; ++i) {
      cfg[static_cast<std::size_t>(deltas_[i].v)] = deltas_[i].after;
    }
  }

  bool started_ = false;
  Config<State> initial_;
  std::vector<Delta> deltas_;              // all records, concatenated
  std::vector<std::size_t> delta_offset_{0};
  std::vector<VertexId> activated_;        // all records, concatenated
  std::vector<std::size_t> activated_offset_{0};
  std::vector<std::uint8_t> perturbation_;  // one flag per record
};

/// How one action changed the enabled set: the vertices that entered it
/// and left it, and the post-action set, all sorted ascending.
struct EnabledDelta {
  std::span<const VertexId> added;
  std::span<const VertexId> removed;
  std::span<const VertexId> after;
};

/// Writes after \ before into `added` and before \ after into `removed`
/// (both sorted), merging the two sorted sets.
void diff_sorted(std::span<const VertexId> before,
                 std::span<const VertexId> after,
                 std::vector<VertexId>& added, std::vector<VertexId>& removed);

/// Incremental round counter fed once per action — with nothing but the
/// sizes for an action that activates the whole enabled set at a round
/// boundary (on_full_action()), with the action and the enabled set's
/// delta otherwise.
///
/// A round waits on the vertices enabled when it opens; a pending vertex
/// leaves it when activated, or when it is neutralised (absent from the
/// enabled set after an action).  Between actions every pending vertex is
/// enabled, so only the vertices that left the enabled set in an action
/// can be neutralised by it: an open round costs O(|activated| +
/// |removed|) per action, and opening one O(|after|).  A perturbation
/// edits the enabled set outside any action, so the first action after
/// one re-checks every pending vertex (O(n)).
class RoundCounter {
 public:
  explicit RoundCounter(VertexId n);

  /// Accounts one action for which counts_full_action() does not hold:
  /// `activated` (sorted) is the daemon's choice and `delta` the enabled
  /// set's change across the action.
  void on_action(std::span<const VertexId> activated,
                 const EnabledDelta& delta);

  /// Whether an action activating `activated` of the `enabled_before`
  /// vertices enabled before it is accounted by count alone: a full
  /// action at a round boundary opens and closes its round at once, so
  /// on_full_action() gives the same count as on_action() would.
  [[nodiscard]] bool counts_full_action(std::size_t enabled_before,
                                        std::size_t activated) const noexcept {
    return !round_open_ && activated == enabled_before;
  }

  /// Accounts an action for which counts_full_action() holds.
  void on_full_action() noexcept { ++rounds_; }

  /// Notes a perturbation of the configuration between actions: pending
  /// vertices it disabled are neutralised by the next action unless that
  /// action leaves them enabled.
  void on_perturbation() noexcept { resync_ = round_open_; }

  /// Number of completed rounds so far.
  [[nodiscard]] StepIndex completed_rounds() const noexcept { return rounds_; }

  /// True while a round is in progress.
  [[nodiscard]] bool round_open() const noexcept { return round_open_; }

  void reset();

 private:
  /// Clears v's pending flag if set.
  void settle(VertexId v) {
    char& flag = pending_[static_cast<std::size_t>(v)];
    pending_count_ -= flag;
    flag = 0;
  }

  VertexId n_;
  bool round_open_ = false;
  bool resync_ = false;        // a perturbation hit the open round
  std::vector<char> pending_;  // vertices the open round still waits on
  VertexId pending_count_ = 0;
  StepIndex rounds_ = 0;
};

}  // namespace specstab

#endif  // SPECSTAB_SIM_TRACE_HPP
