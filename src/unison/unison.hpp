// Self-stabilizing asynchronous unison of Boulinier, Petit & Villain
// (PODC 2004) — the substrate the paper's SSME protocol reduces to
// (Section 4.1, Algorithm 1 minus the privileged predicate).
//
// Each vertex holds a register r_v over a cherry clock X.  Rules:
//   NA :: normalStep_v   -> r_v := phi(r_v)   (locally minimal, all correct)
//   CA :: convergeStep_v -> r_v := phi(r_v)   (climbing the init tail)
//   RA :: resetInit_v    -> r_v := -alpha     (local inconsistency detected)
// The guards are pairwise exclusive, so the protocol is deterministic.
//
// With alpha >= hole(g) - 2 and K > cyclo(g) the protocol self-stabilizes
// to spec_AU under the unfair distributed daemon [2]; SSME instantiates
// alpha = n, K = (2n-1)(diam(g)+1)+2, which always satisfy both bounds.
#ifndef SPECSTAB_UNISON_UNISON_HPP
#define SPECSTAB_UNISON_UNISON_HPP

#include <cstdint>
#include <string_view>

#include "clock/cherry_clock.hpp"
#include "graph/graph.hpp"
#include "sim/config_store.hpp"
#include "sim/simd_eval.hpp"
#include "sim/types.hpp"

namespace specstab {

class UnisonProtocol {
 public:
  using State = ClockValue;

  explicit UnisonProtocol(CherryClock clock) : clock_(clock) {}

  [[nodiscard]] const CherryClock& clock() const noexcept { return clock_; }

  // --- Algorithm 1 predicates (public: tests exercise them directly) ---

  /// correct_v(u): both registers in stab and within ring distance 1.
  [[nodiscard]] bool correct(const ConfigView<State>& cfg, VertexId v,
                             VertexId u) const;

  /// allCorrect_v: correct_v(u) for every neighbour u.
  [[nodiscard]] bool all_correct(const Graph& g, const ConfigView<State>& cfg,
                                 VertexId v) const;

  /// normalStep_v: allCorrect and r_v <=_l r_u for every neighbour.
  [[nodiscard]] bool normal_step(const Graph& g, const ConfigView<State>& cfg,
                                 VertexId v) const;

  /// convergeStep_v: r_v in init* and every neighbour in init with
  /// r_v <=_init r_u.
  [[nodiscard]] bool converge_step(const Graph& g, const ConfigView<State>& cfg,
                                   VertexId v) const;

  /// resetInit_v: not allCorrect and r_v not in init.
  [[nodiscard]] bool reset_init(const Graph& g, const ConfigView<State>& cfg,
                                VertexId v) const;

  // --- ProtocolConcept interface ---

  [[nodiscard]] bool enabled(const Graph& g, const ConfigView<State>& cfg,
                             VertexId v) const;
  [[nodiscard]] State apply(const Graph& g, const ConfigView<State>& cfg,
                            VertexId v) const;
  [[nodiscard]] std::string_view rule_name(const Graph& g,
                                           const ConfigView<State>& cfg,
                                           VertexId v) const;

  // --- Legitimacy (Gamma_1) ---

  /// Vertex-local slice of Gamma_1: r_v in stab and within drift 1 of
  /// every neighbour.
  [[nodiscard]] bool locally_legitimate(const Graph& g,
                                        const ConfigView<State>& cfg,
                                        VertexId v) const;

  /// Gamma_1 membership: every register correct, neighbour drift <= 1.
  [[nodiscard]] bool legitimate(const Graph& g,
                                const ConfigView<State>& cfg) const;

  /// True iff every register is a value of cherry(alpha, K) — a
  /// well-formedness check on arbitrary (corrupted) configurations.
  [[nodiscard]] bool well_formed(const Graph& g,
                                 const ConfigView<State>& cfg) const;

 private:
  CherryClock clock_;
};

/// Vectorized guard kernel (dense-rescan opt-in, the guard analogue of
/// a SoaFields split): NA / CA / RA evaluated in one branch-light int32
/// pass over the clock column and the graph's CSR arrays, writing the
/// rule code that fires (1 = NA or CA, 2 = RA), so the dense path
/// applies from it through successor() without re-deriving the guards.
/// The pass also yields the Gamma_1 violation count for free — the
/// allCorrect fold is exactly local legitimacy — so the scored variant
/// fuses the guard and legitimacy scans into one (see simd_eval.hpp).
template <>
struct SimdEval<UnisonProtocol> {
  using ScoreKind = Gamma1ScoreKind;
  struct Context {
    CsrView adj;
  };
  static Context make_context(const Graph& g, const UnisonProtocol&);
  static void enabled_bytes(const Context& ctx, const UnisonProtocol& proto,
                            const ConfigView<ClockValue>& cfg,
                            std::uint8_t* out, VertexId begin, VertexId end);
  static std::int64_t enabled_bytes_scored(const Context& ctx,
                                           const UnisonProtocol& proto,
                                           const ConfigView<ClockValue>& cfg,
                                           std::uint8_t* out, VertexId begin,
                                           VertexId end);
  /// apply() from the rule code: -alpha for RA, phi(own) for NA / CA
  /// (own is in init* or stab there, so phi is +1 except at K - 1; own
  /// is only incremented on that branch, so no register overflows).
  static ClockValue successor(const UnisonProtocol& proto, ClockValue own,
                              std::uint8_t code) {
    if (code == 2) return proto.clock().reset_value();
    return own == proto.clock().k() - 1 ? 0 : own + 1;
  }
};

}  // namespace specstab

#endif  // SPECSTAB_UNISON_UNISON_HPP
