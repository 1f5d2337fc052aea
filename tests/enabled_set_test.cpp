// EnabledSet word-level bulk writes — the path the vector engine uses to
// publish 64 guard verdicts per append_mask() call.
//
// The contract under test: a rebuild performed with append_mask() over
// packed verdict words produces exactly the same set (membership words
// and sorted vector) as the per-vertex append() path and as the
// incremental begin_update()/note()/commit() flip path, including at
// word boundaries and for the partial trailing word of a
// non-multiple-of-64 vertex count.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <vector>

#include "sim/enabled_set.hpp"
#include "sim/types.hpp"

namespace specstab {
namespace {

/// Packs a byte-per-vertex verdict array into words and rebuilds `set`
/// through append_mask — the vector engine's publication loop.
void rebuild_from_bytes(EnabledSet& set, const std::vector<std::uint8_t>& on) {
  const auto n = static_cast<VertexId>(on.size());
  set.begin_rebuild();
  for (VertexId base = 0; base < n; base += 64) {
    const VertexId hi = std::min<VertexId>(64, n - base);
    std::uint64_t mask = 0;
    for (VertexId b = 0; b < hi; ++b) {
      mask |= static_cast<std::uint64_t>(
                  on[static_cast<std::size_t>(base + b)] != 0)
              << b;
    }
    set.append_mask(base, mask);
  }
  set.end_rebuild();
}

TEST(EnabledSetTest, AppendMaskMatchesScalarAppend) {
  // Sizes straddling word boundaries: below one word, exact words, and
  // partial trailing words on either side of the boundary.
  for (const VertexId n : {1, 7, 63, 64, 65, 127, 128, 129, 200}) {
    std::mt19937_64 rng(static_cast<std::uint64_t>(n) * 977u);
    std::vector<std::uint8_t> on(static_cast<std::size_t>(n));
    for (auto& b : on) b = static_cast<std::uint8_t>(rng() % 2);

    EnabledSet scalar;
    scalar.reset(n);
    scalar.begin_rebuild();
    for (VertexId v = 0; v < n; ++v) {
      if (on[static_cast<std::size_t>(v)] != 0) scalar.append(v);
    }
    scalar.end_rebuild();

    EnabledSet masked;
    masked.reset(n);
    rebuild_from_bytes(masked, on);

    EXPECT_EQ(masked.vertices(), scalar.vertices()) << "n=" << n;
    // The membership bitmap must agree too (the daemon view's contains()).
    for (VertexId v = 0; v < n; ++v) {
      EXPECT_EQ(masked.view().contains(v), scalar.view().contains(v))
          << "n=" << n << " v=" << v;
    }
  }
}

TEST(EnabledSetTest, ShardedRebuildMatchesScalarAppend) {
  // The parallel engine's three-phase rebuild (per-shard fill_words,
  // prefix-sum prepare_scatter, per-shard scatter_words) must reproduce
  // the ordered append() sweep exactly, for shard partitions whose
  // word-aligned boundaries leave unequal and empty shards, and sizes
  // with partial trailing words.
  for (const VertexId n : {1, 7, 63, 64, 65, 97, 129, 200, 513}) {
    std::mt19937_64 rng(static_cast<std::uint64_t>(n) * 1337u);
    // Byte-per-vertex verdicts, zero-padded to a whole word as the
    // fused kernels guarantee.
    std::vector<std::uint8_t> verdicts(
        (static_cast<std::size_t>(n) + 63) / 64 * 64, 0);
    for (VertexId v = 0; v < n; ++v) {
      verdicts[static_cast<std::size_t>(v)] =
          static_cast<std::uint8_t>(rng() % 2);
    }

    EnabledSet scalar;
    scalar.reset(n);
    scalar.begin_rebuild();
    for (VertexId v = 0; v < n; ++v) {
      if (verdicts[static_cast<std::size_t>(v)] != 0) scalar.append(v);
    }
    scalar.end_rebuild();

    for (const std::size_t shards : {std::size_t{1}, std::size_t{2},
                                     std::size_t{3}, std::size_t{8},
                                     std::size_t{16}}) {
      // The engine's word-aligned bounds: empty trailing shards allowed.
      std::vector<VertexId> bounds(shards + 1, 0);
      for (std::size_t k = 1; k < shards; ++k) {
        const auto raw = static_cast<VertexId>(
            (static_cast<std::size_t>(n) * k) / shards);
        bounds[k] = std::min<VertexId>(n, (raw + 63) / 64 * 64);
      }
      bounds[shards] = n;

      EnabledSet sharded;
      sharded.reset(n);
      std::vector<std::size_t> counts(shards, 0);
      for (std::size_t k = 0; k < shards; ++k) {
        counts[k] =
            sharded.fill_words(bounds[k], bounds[k + 1], verdicts.data());
      }
      std::vector<std::size_t> offsets;
      sharded.prepare_scatter(counts, offsets);
      for (std::size_t k = 0; k < shards; ++k) {
        sharded.scatter_words(bounds[k], bounds[k + 1], offsets[k]);
      }

      EXPECT_EQ(sharded.vertices(), scalar.vertices())
          << "n=" << n << " shards=" << shards;
      for (VertexId v = 0; v < n; ++v) {
        ASSERT_EQ(sharded.view().contains(v), scalar.view().contains(v))
            << "n=" << n << " shards=" << shards << " v=" << v;
      }
    }
  }
}

TEST(EnabledSetTest, AppendMaskWordBoundaryPatterns) {
  constexpr VertexId kN = 192;  // three exact words
  const std::uint64_t patterns[] = {
      0u,
      ~0ull,                  // full word
      1u,                     // lowest bit only
      0x8000000000000000ull,  // highest bit only (word-boundary vertex)
      0x8000000000000001ull,  // both boundary bits
      0xAAAAAAAAAAAAAAAAull,  // alternating
  };
  for (const std::uint64_t p0 : patterns) {
    for (const std::uint64_t p1 : patterns) {
      EnabledSet set;
      set.reset(kN);
      set.begin_rebuild();
      set.append_mask(0, p0);
      set.append_mask(64, p1);
      set.append_mask(128, 0x3ull);  // vertices 128, 129
      set.end_rebuild();

      std::vector<VertexId> expected;
      for (VertexId b = 0; b < 64; ++b) {
        if ((p0 >> b) & 1u) expected.push_back(b);
      }
      for (VertexId b = 0; b < 64; ++b) {
        if ((p1 >> b) & 1u) expected.push_back(64 + b);
      }
      expected.push_back(128);
      expected.push_back(129);
      EXPECT_EQ(set.vertices(), expected) << "p0=" << p0 << " p1=" << p1;
    }
  }
}

TEST(EnabledSetTest, PartialTrailingWordIgnoresPaddingBits) {
  // 70 vertices: the second word covers bits 64..69 only.  The packing
  // loop never sets padding bits, and membership stays within range.
  constexpr VertexId kN = 70;
  std::vector<std::uint8_t> on(static_cast<std::size_t>(kN), 0);
  on[63] = 1;
  on[64] = 1;
  on[69] = 1;
  EnabledSet set;
  set.reset(kN);
  rebuild_from_bytes(set, on);
  EXPECT_EQ(set.vertices(), (std::vector<VertexId>{63, 64, 69}));
}

TEST(EnabledSetTest, RebuildAgreesWithIncrementalFlips) {
  // A masked rebuild from the current verdict bytes must land on the same
  // set as the incremental note() flips that produced those verdicts —
  // the invariant the differential suite checks end-to-end through the
  // engines, here isolated to the set structure.
  constexpr VertexId kN = 150;
  std::mt19937_64 rng(42);
  std::vector<std::uint8_t> on(static_cast<std::size_t>(kN), 0);

  EnabledSet flipped;
  flipped.reset(kN);

  for (int round = 0; round < 50; ++round) {
    std::vector<VertexId> dirty;
    for (int k = 0; k < 12; ++k) {
      const auto v = static_cast<VertexId>(rng() % kN);
      on[static_cast<std::size_t>(v)] ^= 1u;
      dirty.push_back(v);
    }
    std::sort(dirty.begin(), dirty.end());
    dirty.erase(std::unique(dirty.begin(), dirty.end()), dirty.end());
    flipped.begin_update();
    for (const VertexId v : dirty) {
      flipped.note(v, on[static_cast<std::size_t>(v)] != 0);
    }
    flipped.commit();

    EnabledSet rebuilt;
    rebuilt.reset(kN);
    rebuild_from_bytes(rebuilt, on);
    ASSERT_EQ(rebuilt.vertices(), flipped.vertices()) << "round " << round;
  }
}

// --- apply_delta: the parallel engine's one-shot merged-delta path ---

TEST(EnabledSetTest, ApplyDeltaMatchesNoteCommit) {
  // apply_delta(added, removed) must be observably identical to staging
  // the same flips through begin_update()/note()/commit() — across both
  // commit paths (<= 8 flips: binary-search erase/insert; > 8: linear
  // merge) and including the returned changed flag.
  constexpr VertexId kN = 120;
  std::mt19937_64 rng(7);
  for (int round = 0; round < 200; ++round) {
    std::vector<std::uint8_t> on(static_cast<std::size_t>(kN), 0);
    for (auto& b : on) b = static_cast<std::uint8_t>(rng() % 2);
    std::vector<VertexId> base;
    for (VertexId v = 0; v < kN; ++v) {
      if (on[static_cast<std::size_t>(v)] != 0) base.push_back(v);
    }

    // Flip count straddles the small-flip threshold (8) from both sides.
    const int flips = 1 + static_cast<int>(rng() % 16);
    std::vector<VertexId> dirty;
    for (int k = 0; k < flips; ++k) {
      dirty.push_back(static_cast<VertexId>(rng() % kN));
    }
    std::sort(dirty.begin(), dirty.end());
    dirty.erase(std::unique(dirty.begin(), dirty.end()), dirty.end());
    std::vector<VertexId> added, removed;
    for (const VertexId v : dirty) {
      (on[static_cast<std::size_t>(v)] != 0 ? removed : added).push_back(v);
    }

    EnabledSet staged;
    staged.reset(kN);
    staged.assign(base);
    staged.begin_update();
    for (const VertexId v : dirty) {
      staged.note(v, on[static_cast<std::size_t>(v)] == 0);
    }
    const bool staged_changed = staged.commit();

    EnabledSet delta;
    delta.reset(kN);
    delta.assign(base);
    const bool delta_changed = delta.apply_delta(added, removed);

    ASSERT_EQ(delta.vertices(), staged.vertices()) << "round " << round;
    EXPECT_EQ(delta_changed, staged_changed) << "round " << round;
    // The bitmap stays in lockstep with the vector (daemon-facing view).
    for (VertexId v = 0; v < kN; ++v) {
      ASSERT_EQ(delta.view().contains(v), staged.view().contains(v))
          << "round " << round << " v=" << v;
    }
  }
}

TEST(EnabledSetTest, ApplyDeltaEmptyDeltasReportNoChange) {
  EnabledSet set;
  set.reset(10);
  set.assign({2, 5, 7});
  EXPECT_FALSE(set.apply_delta({}, {}));
  EXPECT_EQ(set.vertices(), (std::vector<VertexId>{2, 5, 7}));
}

// --- Sharded fill + scatter: the parallel engine's dense rebuild ---

TEST(EnabledSetTest, ShardedFillAndScatterMatchEagerSweep) {
  // A sharded fill published with end_fill() keeps only the words and
  // the count current; the sharded scatter then decodes the sorted
  // vector.  The result — straight after the scatter, and after a sparse
  // apply_delta() on top of it — must equal an eager append_mask() sweep
  // of the same verdicts.  150 vertices: the last word covers 128..149
  // only.
  constexpr VertexId kN = 150;
  const std::vector<VertexId> bounds = {0, 64, 128, kN};
  const std::size_t shards = bounds.size() - 1;
  std::mt19937_64 rng(2024);
  for (int round = 0; round < 60; ++round) {
    std::vector<std::uint8_t> on(192, 0);  // padded to whole words
    for (VertexId v = 0; v < kN; ++v) {
      on[static_cast<std::size_t>(v)] = static_cast<std::uint8_t>(rng() % 2);
    }

    EnabledSet set;
    set.reset(kN);
    std::vector<std::size_t> counts(shards), offsets;
    std::size_t count = 0;
    for (std::size_t k = 0; k < shards; ++k) {
      counts[k] = set.fill_words(bounds[k], bounds[k + 1], on.data());
      count += counts[k];
    }
    set.end_fill(count);
    ASSERT_FALSE(set.sorted_current());
    // Membership and size answer from the words alone.
    for (VertexId v = 0; v < kN; ++v) {
      ASSERT_EQ(set.contains(v), on[static_cast<std::size_t>(v)] != 0);
    }

    // Shards decode independently: scatter them in reverse order.
    set.prepare_scatter(counts, offsets);
    for (std::size_t k = shards; k-- > 0;) {
      set.scatter_words(bounds[k], bounds[k + 1], offsets[k]);
    }
    ASSERT_TRUE(set.sorted_current());

    const std::vector<std::uint8_t> filled(on.begin(), on.begin() + kN);
    EnabledSet eager;
    eager.reset(kN);
    rebuild_from_bytes(eager, filled);
    EXPECT_EQ(set.size(), eager.vertices().size()) << "round " << round;
    EXPECT_EQ(set.vertices(), eager.vertices()) << "round " << round;

    // A sparse delta on the scattered set, then the same comparison.
    std::vector<VertexId> dirty;
    for (int k = 0; k < 1 + static_cast<int>(rng() % 12); ++k) {
      dirty.push_back(static_cast<VertexId>(rng() % kN));
    }
    std::sort(dirty.begin(), dirty.end());
    dirty.erase(std::unique(dirty.begin(), dirty.end()), dirty.end());
    std::vector<VertexId> added, removed;
    for (const VertexId v : dirty) {
      auto& bit = on[static_cast<std::size_t>(v)];
      (bit != 0 ? removed : added).push_back(v);
      bit ^= 1u;
    }
    set.apply_delta(added, removed);
    const std::vector<std::uint8_t> flipped(on.begin(), on.begin() + kN);
    rebuild_from_bytes(eager, flipped);
    EXPECT_EQ(set.size(), eager.vertices().size()) << "round " << round;
    EXPECT_EQ(set.vertices(), eager.vertices()) << "round " << round;
    for (VertexId v = 0; v < kN; ++v) {
      ASSERT_EQ(set.contains(v), eager.contains(v))
          << "round " << round << " v=" << v;
    }
  }
}

// --- commit() contract asserts (regression for the small-flip UB) ---
//
// The small-flip path formerly erased at lower_bound() without checking
// it hit the vertex: a removed_ entry absent from vertices_ (a desynced
// bitmap, e.g. from a buggy caller) erased the *next* vertex — or
// dereferenced end() — silently corrupting the set.  The asserts turn
// that breach into a loud failure in debug builds; these death tests pin
// them down.  NDEBUG builds compile the asserts out, so the tests only
// exist in debug (the CI debug-sanitize matrix leg runs them).
#if !defined(NDEBUG) && defined(GTEST_HAS_DEATH_TEST)

TEST(EnabledSetDeathTest, CommitAssertsOnRemovingAbsentVertex) {
  EnabledSet set;
  set.reset(10);
  set.assign({2, 5, 7});
  // Desync the bitmap from the vector the way a buggy caller would:
  // note(v, false) on a vertex whose bit is set but which is missing
  // from the sorted vector is impossible through the public API, so
  // stage the breach via apply_delta's trusting fast path.
  EXPECT_DEATH((void)set.apply_delta({}, {3}),
               "removed vertex not in the set");
}

TEST(EnabledSetDeathTest, CommitAssertsOnAddingPresentVertex) {
  EnabledSet set;
  set.reset(10);
  set.assign({2, 5, 7});
  EXPECT_DEATH((void)set.apply_delta({5}, {}),
               "added vertex already in the set");
}

#endif  // !NDEBUG && GTEST_HAS_DEATH_TEST

}  // namespace
}  // namespace specstab
