// Vectorized full-rescan step policy.
//
// Instead of propagating dirty balls it re-evaluates *all* n guards after
// every action — but as contiguous column scans: protocols that
// specialize SimdEval<P> (simd_eval.hpp) supply a branch-light kernel
// that writes one verdict byte per vertex straight off the ConfigStore
// columns, and the policy packs the bytes into 64-bit words and rebuilds
// the enabled set through EnabledSet::append_mask().  Legitimacy goes
// through the checker's from-scratch full() oracle once per
// configuration (bulk column scans in the LocalScoreChecker factories),
// unless the kernel and the checker share a ScoreKind tag: then the
// guard pass itself accumulates the violation total and hands it to
// checker.accept_total() — one fused scan per action instead of two.
// Protocols without a SimdEval specialization take a scalar rescan.
//
// The trade is deliberate: no expansion bookkeeping, no cached scores,
// no staged flips.  It wins where actions touch large fractions of the
// graph (synchronous and dense Bernoulli daemons over arithmetic-state
// protocols); under central daemons the incremental engine's O(ball)
// updates win, which is why the engine is selectable per run
// (RunOptions::engine, --engine vector).
#ifndef SPECSTAB_SIM_VECTOR_ENGINE_HPP
#define SPECSTAB_SIM_VECTOR_ENGINE_HPP

#include <cstdint>
#include <utility>
#include <vector>

#include "graph/graph.hpp"
#include "sim/daemon.hpp"
#include "sim/enabled_set.hpp"
#include "sim/protocol.hpp"
#include "sim/run_driver.hpp"
#include "sim/simd_eval.hpp"
#include "sim/trace.hpp"
#include "sim/types.hpp"

namespace specstab {

/// Rebuilds `enabled` from one guard pass over all n vertices: verdict
/// bytes through the protocol's SimdEval kernel (a scalar sweep
/// otherwise; `kernel` comes from make_enabled_kernel()), packed into
/// the set's mask words 64 at a time.  Returns the pass's fused
/// violation total when `Scored` (see fill_verdicts()), 0 otherwise.
template <bool Scored, class P, class Kernel>
std::int64_t rescan_enabled(EnabledSet& enabled, Kernel& kernel,
                            const Graph& g, const P& proto,
                            const ConfigView<typename P::State>& live) {
  const VertexId n = g.n();
  const std::int64_t total =
      fill_verdicts<Scored>(kernel, g, proto, live, 0, n);
  enabled.begin_rebuild();
  const std::uint8_t* verdicts = kernel.verdicts.data();
  for (VertexId base = 0; base < n; base += 64) {
    enabled.append_mask(base, pack_verdict_word(verdicts + base));
  }
  enabled.end_rebuild();
  return total;
}

/// The vector step policy: a full guard rescan per action as column
/// scans with word-mask enabled-set rebuilds.
template <ProtocolConcept P, class C>
  requires IncrementalLegitimacy<C, typename P::State>
class VectorPolicy {
  using State = typename P::State;
  // Whether the guard kernel hands its fused violation totals straight
  // to this run's checker (see kFusedScore in simd_eval.hpp).
  static constexpr bool kFused = kFusedScore<P, C>;

 public:
  VectorPolicy(const Graph& g, const P& proto, ConfigStore<State>& cfg,
               C& checker)
      : g_(g),
        proto_(proto),
        cfg_(cfg),
        live_(cfg.view()),
        checker_(checker),
        radius_(protocol_locality_radius(proto)),
        kernel_(make_enabled_kernel(g, proto)) {}

  bool init() {
    enabled_.reset(g_.n());
    return fused_init_verdict<kFused>(checker_, g_, live_, rescan());
  }
  [[nodiscard]] std::size_t enabled_count() const { return enabled_.size(); }

  // One full rescan repairs a perturbation: no stale cache to chase.
  bool repair(const std::vector<VertexId>&) { return rescan_verdict(); }

  template <class Select>
  StepOutcome step(Select&& select, bool, DeltaTrace<State>* trace) {
    const std::vector<VertexId>& activated = select(enabled_.view());
    const bool dense = is_dense_update(
        static_cast<std::int64_t>(activated.size()), radius_, g_);
    install_action(g_, proto_, cfg_, activated, dense, staged_, trace);
    return {activated.size(), rescan_verdict()};
  }

  EnabledDelta enabled_delta() { return enabled_.delta(); }

 private:
  // Returns the fused violation total (0 and unused unless kFused).
  std::int64_t rescan() {
    return rescan_enabled<kFused>(enabled_, kernel_, g_, proto_, live_);
  }

  bool rescan_verdict() {
    return fused_verdict<kFused>(checker_, rescan(),
                                 [&] { return checker_.full(g_, live_); });
  }

  const Graph& g_;
  const P& proto_;
  ConfigStore<State>& cfg_;
  const ConfigView<State> live_;
  C& checker_;
  const VertexId radius_;
  // Guard kernel state (shared with the parallel engine's dense path):
  // the kernel context plus the padded verdict-byte buffer — see
  // make_enabled_kernel() in simd_eval.hpp.
  decltype(make_enabled_kernel(std::declval<const Graph&>(),
                               std::declval<const P&>())) kernel_;
  EnabledSet enabled_;
  std::vector<State> staged_;
};

}  // namespace specstab

#endif  // SPECSTAB_SIM_VECTOR_ENGINE_HPP
