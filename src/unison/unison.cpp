#include "unison/unison.hpp"

#include <stdexcept>

#include "sim/protocol.hpp"

namespace specstab {

static_assert(ProtocolConcept<UnisonProtocol>,
              "UnisonProtocol must satisfy ProtocolConcept");

bool UnisonProtocol::correct(const ConfigView<State>& cfg, VertexId v,
                             VertexId u) const {
  const State rv = cfg[static_cast<std::size_t>(v)];
  const State ru = cfg[static_cast<std::size_t>(u)];
  return clock_.in_stab(rv) && clock_.in_stab(ru) &&
         clock_.ring_distance(rv, ru) <= 1;
}

bool UnisonProtocol::all_correct(const Graph& g, const ConfigView<State>& cfg,
                                 VertexId v) const {
  for (VertexId u : g.neighbors(v)) {
    if (!correct(cfg, v, u)) return false;
  }
  return true;
}

bool UnisonProtocol::normal_step(const Graph& g, const ConfigView<State>& cfg,
                                 VertexId v) const {
  // NA guard: r_v in stab and, for every neighbour u, correct_v(u) and
  // r_v <=_l r_u.  Since bar(r_u - r_v) <= 1 already implies
  // d_K(r_v, r_u) <= 1, the two neighbour conditions collapse to one
  // projection per neighbour (single pass; the dominant guard on the
  // dense synchronous path).
  const State rv = cfg[static_cast<std::size_t>(v)];
  if (!clock_.in_stab(rv)) return false;
  for (VertexId u : g.neighbors(v)) {
    const State ru = cfg[static_cast<std::size_t>(u)];
    if (!clock_.in_stab(ru)) return false;
    if (clock_.ring_projection(static_cast<std::int64_t>(ru) - rv) > 1) {
      return false;
    }
  }
  return true;
}

bool UnisonProtocol::converge_step(const Graph& g, const ConfigView<State>& cfg,
                                   VertexId v) const {
  const State rv = cfg[static_cast<std::size_t>(v)];
  if (!clock_.in_init_star(rv)) return false;
  for (VertexId u : g.neighbors(v)) {
    const State ru = cfg[static_cast<std::size_t>(u)];
    if (!clock_.in_init(ru)) return false;
    if (!clock_.le_init(rv, ru)) return false;
  }
  return true;
}

bool UnisonProtocol::reset_init(const Graph& g, const ConfigView<State>& cfg,
                                VertexId v) const {
  return !all_correct(g, cfg, v) &&
         !clock_.in_init(cfg[static_cast<std::size_t>(v)]);
}

bool UnisonProtocol::enabled(const Graph& g, const ConfigView<State>& cfg,
                             VertexId v) const {
  return normal_step(g, cfg, v) || converge_step(g, cfg, v) ||
         reset_init(g, cfg, v);
}

UnisonProtocol::State UnisonProtocol::apply(const Graph& g,
                                            const ConfigView<State>& cfg,
                                            VertexId v) const {
  const State rv = cfg[static_cast<std::size_t>(v)];
  if (normal_step(g, cfg, v) || converge_step(g, cfg, v)) {
    return clock_.increment(rv);
  }
  if (reset_init(g, cfg, v)) return clock_.reset_value();
  throw std::logic_error("UnisonProtocol::apply on a disabled vertex");
}

std::string_view UnisonProtocol::rule_name(const Graph& g,
                                           const ConfigView<State>& cfg,
                                           VertexId v) const {
  if (normal_step(g, cfg, v)) return "NA";
  if (converge_step(g, cfg, v)) return "CA";
  if (reset_init(g, cfg, v)) return "RA";
  return "";
}

bool UnisonProtocol::locally_legitimate(const Graph& g,
                                        const ConfigView<State>& cfg,
                                        VertexId v) const {
  const State rv = cfg[static_cast<std::size_t>(v)];
  if (!clock_.in_stab(rv)) return false;
  for (VertexId u : g.neighbors(v)) {
    const State ru = cfg[static_cast<std::size_t>(u)];
    if (!clock_.in_stab(ru) || clock_.ring_distance(rv, ru) > 1) return false;
  }
  return true;
}

bool UnisonProtocol::legitimate(const Graph& g,
                                const ConfigView<State>& cfg) const {
  for (VertexId v = 0; v < g.n(); ++v) {
    if (!locally_legitimate(g, cfg, v)) return false;
  }
  return true;
}

bool UnisonProtocol::well_formed(const Graph& g,
                                 const ConfigView<State>& cfg) const {
  if (static_cast<VertexId>(cfg.size()) != g.n()) return false;
  for (std::size_t i = 0; i < cfg.size(); ++i) {
    if (!clock_.contains(cfg[i])) return false;
  }
  return true;
}

SimdEval<UnisonProtocol>::Context SimdEval<UnisonProtocol>::make_context(
    const Graph& g, const UnisonProtocol&) {
  return {g.csr()};
}

void SimdEval<UnisonProtocol>::enabled_bytes(const Context& ctx,
                                             const UnisonProtocol& proto,
                                             const ConfigView<ClockValue>& cfg,
                                             std::uint8_t* out, VertexId begin,
                                             VertexId end) {
  (void)enabled_bytes_scored(ctx, proto, cfg, out, begin, end);
}

std::int64_t SimdEval<UnisonProtocol>::enabled_bytes_scored(
    const Context& ctx, const UnisonProtocol& proto,
    const ConfigView<ClockValue>& cfg, std::uint8_t* out, VertexId begin,
    VertexId end) {
  // Bit-exact restatement of NA / CA / RA with the guard relations inlined
  // branch-free, writing the rule code (1 = NA or CA, 2 = RA, 0 =
  // disabled; the guards are pairwise exclusive).  All arithmetic is
  // uint32 with wrap-around, so every int32 register — corrupted ones
  // included — folds exactly as the scalar guards do, with no overflow:
  //
  //   - x in init* = [-alpha, 0) iff x + alpha < alpha, unsigned.
  //   - r_v in init*: only CA can fire (NA needs r_v in stab, RA needs
  //     r_v outside init), and the vertex violates Gamma_1.  CA needs
  //     every r_u in init with r_v <= r_u, i.e. r_u in [r_v, 0], i.e.
  //     r_u - r_v <= -r_v as an unsigned compare (r_u below r_v or above
  //     0 wraps the difference past -r_v <= alpha).  This branch is the
  //     whole guard pass while a run climbs the init tail after resets.
  //   - Otherwise NA and allCorrect both require r_v and r_u in
  //     stab = [0, K).  The difference of two stab values lies in
  //     (-K, K), and since K < 2^31 the wrap-around difference
  //     d = r_u - r_v is exact there, so
  //       bar(r_u - r_v) <= 1  iff  d in {0, 1, 1 - K}            (fwd)
  //       d_K(r_v, r_u) <= 1   iff  fwd or d in {-1, K - 1}       (near)
  //     For registers outside stab, d is garbage but masked by the stab
  //     bits.  r_v = 0 is the one init value on this side, and RA
  //     excludes it.
  //
  // The allCorrect fold doubles as the Gamma_1 vertex slice: ac below
  // carries stab_v, and an isolated vertex is locally legitimate iff
  // stab_v — so ac ^ 1 is exactly the violation score
  // make_gamma1_checker() counts, accumulated here for free.
  const ClockValue* c = cfg.column();
  const auto k = static_cast<std::uint32_t>(proto.clock().k());
  const auto alpha = static_cast<std::uint32_t>(proto.clock().alpha());
  const std::uint32_t one_minus_k = 1u - k;
  const std::uint32_t k_minus_one = k - 1u;
  const std::int64_t* off = ctx.adj.offsets;
  const VertexId* tg = ctx.adj.targets;
  std::int64_t total = 0;
  for (VertexId v = begin; v < end; ++v) {
    const auto rv = static_cast<std::uint32_t>(c[static_cast<std::size_t>(v)]);
    const std::int64_t lo = off[v];
    const std::int64_t hi = off[v + 1];
    if (rv + alpha < alpha) {
      const std::uint32_t neg_rv = 0u - rv;
      unsigned ca = 1;  // CA
      for (std::int64_t j = lo; j < hi; ++j) {
        const auto ru = static_cast<std::uint32_t>(c[tg[j]]);
        ca &= static_cast<unsigned>(ru - rv <= neg_rv);
      }
      out[v] = static_cast<std::uint8_t>(ca);
      ++total;
      continue;
    }
    const unsigned stab_v = static_cast<unsigned>(rv < k);
    unsigned na = stab_v;  // NA
    unsigned ac = stab_v;  // allCorrect_v & stab_v
    for (std::int64_t j = lo; j < hi; ++j) {
      const auto ru = static_cast<std::uint32_t>(c[tg[j]]);
      const unsigned stab_u = static_cast<unsigned>(ru < k);
      const std::uint32_t d = ru - rv;
      const unsigned fwd = static_cast<unsigned>(d <= 1u) |
                           static_cast<unsigned>(d == one_minus_k);
      const unsigned near = fwd | static_cast<unsigned>(d + 1u == 0u) |
                            static_cast<unsigned>(d == k_minus_one);
      na &= stab_u & fwd;
      ac &= stab_u & near;
    }
    // allCorrect_v alone is vacuously true at degree 0.
    const unsigned all_correct = ac | static_cast<unsigned>(lo == hi);
    const unsigned ra =
        (all_correct ^ 1u) & static_cast<unsigned>(rv != 0u);  // RA
    out[v] = static_cast<std::uint8_t>(na | (ra << 1));
    total += ac ^ 1u;
  }
  return total;
}

}  // namespace specstab
