// ConfigStore::dense_map_range — the per-index sharded install the
// parallel engine's full-set steps use — in every layout a state type can
// take: a struct split with a residual full-struct array, a struct split
// that covers the whole state, and an arithmetic state (its own column).
// Filled shard by shard over word-aligned ranges, then committed, the
// store must hold exactly next(i) everywhere and keep the pre-action
// configuration readable through prev_view(), like dense_apply().
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <tuple>
#include <vector>

#include "sim/config_store.hpp"
#include "sim/types.hpp"

namespace specstab {

struct ResidualState {
  std::int32_t hot = 0;
  std::int64_t payload = 0;
  friend bool operator==(const ResidualState&, const ResidualState&) = default;
};

template <>
struct SoaFields<ResidualState> {
  static constexpr auto members = std::make_tuple(&ResidualState::hot);
  static constexpr bool covers_state = false;
};

struct CoveredState {
  std::int32_t x = 0;
  std::int32_t y = 0;
  friend bool operator==(const CoveredState&, const CoveredState&) = default;
};

template <>
struct SoaFields<CoveredState> {
  static constexpr auto members =
      std::make_tuple(&CoveredState::x, &CoveredState::y);
  static constexpr bool covers_state = true;
};

namespace {

ResidualState make_state(std::mt19937_64& rng, ResidualState) {
  return {static_cast<std::int32_t>(rng() % 100),
          static_cast<std::int64_t>(rng() % 1000)};
}
CoveredState make_state(std::mt19937_64& rng, CoveredState) {
  return {static_cast<std::int32_t>(rng() % 100),
          static_cast<std::int32_t>(rng() % 100)};
}
std::int64_t make_state(std::mt19937_64& rng, std::int64_t) {
  return static_cast<std::int64_t>(rng() % 100);
}

template <class State>
void expect_map_range_matches(std::uint64_t seed) {
  constexpr std::size_t kN = 150;  // partial last word
  const std::vector<std::size_t> bounds = {0, 64, 128, kN};
  std::mt19937_64 rng(seed);
  Config<State> init(kN), next(kN);
  for (std::size_t i = 0; i < kN; ++i) {
    init[i] = make_state(rng, State{});
    next[i] = rng() % 3 == 0 ? init[i] : make_state(rng, State{});
  }
  for (const ConfigLayout layout : {ConfigLayout::kAoS, ConfigLayout::kSoA}) {
    ConfigStore<State> store(init, layout);
    const ConfigView<State> live = store.view();
    // Two actions, so the second reuses the swapped-out buffers.
    for (int action = 0; action < 2; ++action) {
      const Config<State> before = store.materialize();
      store.dense_begin();
      for (std::size_t k = 0; k + 1 < bounds.size(); ++k) {
        store.dense_map_range(bounds[k], bounds[k + 1], [&](std::size_t i) {
          return action == 0 ? next[i] : live.get(kN - 1 - i);
        });
      }
      store.dense_commit();
      Config<State> expected(kN);
      for (std::size_t i = 0; i < kN; ++i) {
        expected[i] = action == 0 ? next[i] : before[kN - 1 - i];
      }
      EXPECT_TRUE(store.materialize() == expected)
          << "layout=" << config_layout_name(layout) << " action=" << action;
      EXPECT_TRUE(store.prev_view().materialize() == before)
          << "layout=" << config_layout_name(layout) << " action=" << action;
    }
  }
}

TEST(ConfigStoreMapRange, ResidualStructSplit) {
  expect_map_range_matches<ResidualState>(1);
}

TEST(ConfigStoreMapRange, CoveringStructSplit) {
  expect_map_range_matches<CoveredState>(2);
}

TEST(ConfigStoreMapRange, ArithmeticColumn) {
  expect_map_range_matches<std::int64_t>(3);
}

}  // namespace
}  // namespace specstab
