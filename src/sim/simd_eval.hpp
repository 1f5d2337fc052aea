// SimdEval — the per-protocol guard-kernel trait shared by the rescan
// engines.
//
// The vector engine (vector_engine.hpp) is a full-rescan engine: after
// every action it re-evaluates all n guards.  The parallel engine
// (parallel_engine.hpp) runs the same rescan on dense steps, but sharded:
// each worker evaluates one contiguous vertex range.  A protocol opts
// into the vectorized rescan by specializing SimdEval<P> — the guard
// analogue of declaring a SoaFields split next to the state
// (config_store.hpp):
//
//   template <>
//   struct SimdEval<MyProtocol> {
//     struct Context { CsrView adj; };
//     static Context make_context(const Graph& g, const MyProtocol&);
//     static void enabled_bytes(const Context&, const MyProtocol&,
//                               const ConfigView<MyProtocol::State>& cfg,
//                               std::uint8_t* out,
//                               VertexId begin, VertexId end);
//   };
//
// make_context() runs once per execution and precomputes whatever the
// kernel streams — typically just the graph's read-only CSR arrays
// (Graph::csr(), two pointers; nothing is copied).  enabled_bytes() must
// write out[v] != 0 iff proto.enabled(g, cfg, v) for every vertex in
// [begin, end), bit-exactly — the differential harness holds the rescan
// engines to byte-identical RunResults against the other engines.  The
// range parameters exist for the parallel engine's shard fan-out
// (disjoint ranges touch disjoint out bytes, so shards write
// concurrently without synchronization); the vector engine always
// passes [0, n).  Kernels are written as branch-light per-column loops
// over the ConfigStore columns (the AoS vector *is* the column for
// arithmetic states); the engines pack the verdict bytes into 64-bit
// words (pack_verdict_word(): nonzero = enabled) and feed them to
// EnabledSet::append_mask() / EnabledSet::fill_words().
//
// Rule codes.  A specialization may additionally declare
//
//     static State successor(const P&, State own, std::uint8_t code);
//
// and so promise that its verdict byte names the rule that fires, not
// just whether one does: successor(proto, cfg[v], out[v]) must equal
// proto.apply(g, cfg, v) for every enabled v.  (The unison kernel writes
// 1 = increment, NA or CA; 2 = reset, RA; 0 = disabled.)  The parallel
// engine's dense install then computes each activated vertex's next
// state from its own register and its code instead of re-deriving the
// guards through apply().  That is valid only while the verdict buffer
// describes the live configuration — after the initial sharded scan and
// after a dense rescan (dense fault epochs included).  A sparse step or a
// sparse fault epoch re-tests only a ball through proto.enabled() and
// leaves the buffer stale, so the next dense install falls back to
// proto.apply(); protocols without successor() always take that path.
//
// A specialization may also fuse the legitimacy scan into the guard
// pass: declare a ScoreKind tag plus enabled_bytes_scored(), which
// writes the same guard bytes AND returns the total violation score the
// tag's LocalScoreChecker would compute from scratch over [begin, end)
// (exactly the checker's bulk/score sum — same int64, no early exit;
// per-shard partial totals summed in shard order reproduce the full-scan
// total bit-exactly because the accumulation is int64 addition).  When
// the run's checker advertises the matching ScoreKind, the rescan
// engines call the scored kernel once per action and hand the total
// straight to the checker (LocalScoreChecker::accept_total), skipping
// the separate full() column scan — one pass over the columns instead
// of two.  The initial scan feeds gamma_0's total to
// LocalScoreChecker::init_from_total the same way.  With any other
// checker the engines use enabled_bytes() plus the checker's own scan,
// so the fusion is pay-as-you-match.
//
// Protocols without a specialization run on the engines' scalar rescan
// fallback (fill_verdicts() below), so the rescan engines stay
// registry-complete.
#ifndef SPECSTAB_SIM_SIMD_EVAL_HPP
#define SPECSTAB_SIM_SIMD_EVAL_HPP

#include <concepts>
#include <cstdint>
#include <type_traits>
#include <vector>

#if defined(__SSE2__) || defined(_M_X64)
#include <emmintrin.h>
#define SPECSTAB_SIMD_SSE2 1
#endif

#include "graph/graph.hpp"
#include "sim/config_store.hpp"
#include "sim/types.hpp"

namespace specstab {

/// 64 verdict bytes -> one bitmask word, bit b = (bytes[b] != 0).  The
/// caller guarantees 64 readable bytes (the engines pad their verdict
/// buffers to a 64-byte multiple, zeroed past the last vertex so
/// trailing bits fold to zero as EnabledSet requires).
[[nodiscard]] inline std::uint64_t pack_verdict_word(
    const std::uint8_t* bytes) {
#ifdef SPECSTAB_SIMD_SSE2
  // Byte-compare against zero + movemask: four 16-lane strides per word.
  std::uint64_t mask = 0;
  const __m128i zero = _mm_setzero_si128();
  for (int q = 0; q < 4; ++q) {
    const __m128i lanes = _mm_loadu_si128(
        reinterpret_cast<const __m128i*>(bytes + 16 * q));
    const auto z = static_cast<unsigned>(
        _mm_movemask_epi8(_mm_cmpeq_epi8(lanes, zero)));
    mask |= static_cast<std::uint64_t>(~z & 0xFFFFu) << (16 * q);
  }
  return mask;
#else
  std::uint64_t mask = 0;
  for (int b = 0; b < 64; ++b) {
    mask |= static_cast<std::uint64_t>(bytes[b] != 0) << b;
  }
  return mask;
#endif
}

/// Primary template: no vectorized kernels declared; the rescan engines
/// fall back to the scalar per-vertex sweep for such protocols.
template <class P>
struct SimdEval {};

/// Protocol opts into the vectorized rescan: SimdEval<P> declares a
/// Context, a once-per-run make_context() and the ranged enabled_bytes()
/// guard kernel.
template <class P>
concept HasSimdEval =
    requires(const Graph& g, const P& p,
             const ConfigView<typename P::State>& cfg,
             const typename SimdEval<P>::Context& ctx, std::uint8_t* out,
             VertexId begin, VertexId end) {
      { SimdEval<P>::make_context(g, p) }
          -> std::same_as<typename SimdEval<P>::Context>;
      { SimdEval<P>::enabled_bytes(ctx, p, cfg, out, begin, end) }
          -> std::same_as<void>;
    };

/// Kernel whose verdict bytes are rule codes: successor() turns a
/// vertex's own state and its code into the state apply() would compute.
template <class P>
concept HasRuleCodeSimdEval =
    HasSimdEval<P> &&
    requires(const P& p, const typename P::State& own, std::uint8_t code) {
      { SimdEval<P>::successor(p, own, code) }
          -> std::same_as<typename P::State>;
    };

// --- Score-fused kernels -------------------------------------------------
//
// Score kinds name a violation-score definition shared between a
// protocol's fused kernel and the LocalScoreChecker factory that counts
// the same scores (core/incremental_legitimacy.hpp).  The rescan engines
// fuse the two scans only when the tags are identical types, so e.g. an
// SSME run under the mutex-safety checker never consumes a Gamma_1 total.

/// Gamma_1 violation count: vertices not locally legitimate (register in
/// stab, drift <= 1 to every neighbour).
struct Gamma1ScoreKind {};

/// The score kind a checker advertises, or void when it has none.  Lets
/// generic code (the rescan engines, checker wrappers) read C::ScoreKind
/// without requiring it.
template <class C>
struct ScoreKindOf {
  using type = void;
};
template <class C>
  requires requires { typename C::ScoreKind; }
struct ScoreKindOf<C> {
  using type = typename C::ScoreKind;
};

/// Kernel with a fused legitimacy scan: enabled_bytes_scored() writes the
/// guard bytes and returns the ScoreKind violation total of [begin, end)
/// in one pass.
template <class P>
concept HasScoredSimdEval =
    HasSimdEval<P> &&
    requires(const P& p, const ConfigView<typename P::State>& cfg,
             const typename SimdEval<P>::Context& ctx, std::uint8_t* out,
             VertexId begin, VertexId end) {
      typename SimdEval<P>::ScoreKind;
      { SimdEval<P>::enabled_bytes_scored(ctx, p, cfg, out, begin, end) }
          -> std::same_as<std::int64_t>;
    };

/// Whether a rescan engine running protocol P under checker C hands the
/// guard kernel's fused violation total straight to the checker: kernel
/// and checker must name the same (non-void) score definition, and the
/// checker must take totals both for gamma_0 (init_from_total) and for
/// every later configuration (accept_total).
template <class P, class C>
inline constexpr bool kFusedScore = [] {
  if constexpr (HasScoredSimdEval<P>) {
    using KernelKind = typename SimdEval<P>::ScoreKind;
    return !std::is_void_v<KernelKind> &&
           std::is_same_v<KernelKind, typename ScoreKindOf<C>::type> &&
           requires(C& c, const Graph& g) {
             { c.accept_total(std::int64_t{}) } -> std::same_as<bool>;
             { c.init_from_total(g, std::int64_t{}) } -> std::same_as<bool>;
           };
  } else {
    return false;
  }
}();

// --- Shared kernel state -------------------------------------------------

namespace simd_detail {

template <class P>
struct KernelState {
  typename SimdEval<P>::Context ctx;
  std::vector<std::uint8_t> verdicts;
};

struct ScalarKernelState {
  std::vector<std::uint8_t> verdicts;
};

}  // namespace simd_detail

/// Once-per-run kernel state shared by the vector and parallel engines:
/// the protocol's kernel Context (when SimdEval<P> is specialized) plus
/// the verdict-byte buffer, padded to a full 64-byte word and zeroed so
/// bits past the last vertex pack to zero.  The rescan loops run
/// allocation-free against this.
template <class P>
[[nodiscard]] auto make_enabled_kernel(const Graph& g, const P& proto) {
  const auto padded = (static_cast<std::size_t>(g.n()) + 63) / 64 * 64;
  if constexpr (HasSimdEval<P>) {
    return simd_detail::KernelState<P>{SimdEval<P>::make_context(g, proto),
                                       std::vector<std::uint8_t>(padded, 0)};
  } else {
    (void)proto;
    return simd_detail::ScalarKernelState{
        std::vector<std::uint8_t>(padded, 0)};
  }
}

/// Fills kernel.verdicts[begin..end) with fresh guard verdicts — through
/// the protocol's SimdEval kernel when one is declared, a scalar
/// proto.enabled() sweep otherwise — and returns the fused ScoreKind
/// violation total of the range when `Scored` (which requires a scored
/// kernel), 0 otherwise.  Disjoint ranges touch disjoint verdict bytes,
/// so the parallel engine's shards call this concurrently on one shared
/// kernel state.
template <bool Scored, class P, class Kernel>
std::int64_t fill_verdicts(Kernel& kernel, const Graph& g, const P& proto,
                           const ConfigView<typename P::State>& cfg,
                           VertexId begin, VertexId end) {
  if constexpr (HasSimdEval<P>) {
    if constexpr (Scored) {
      static_assert(HasScoredSimdEval<P>);
      return SimdEval<P>::enabled_bytes_scored(
          kernel.ctx, proto, cfg, kernel.verdicts.data(), begin, end);
    } else {
      SimdEval<P>::enabled_bytes(kernel.ctx, proto, cfg,
                                 kernel.verdicts.data(), begin, end);
      return 0;
    }
  } else {
    static_assert(!Scored, "scored fill requires a scored kernel");
    for (VertexId v = begin; v < end; ++v) {
      kernel.verdicts[static_cast<std::size_t>(v)] =
          proto.enabled(g, cfg, v) ? 1 : 0;
    }
    return 0;
  }
}

}  // namespace specstab

#endif  // SPECSTAB_SIM_SIMD_EVAL_HPP
