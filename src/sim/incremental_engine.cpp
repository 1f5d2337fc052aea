#include "sim/incremental_engine.hpp"

#include <stdexcept>
#include <utility>

namespace specstab {

namespace {

constexpr std::pair<EngineKind, std::string_view> kEngineNames[] = {
    {EngineKind::kIncremental, "incremental"},
    {EngineKind::kReference, "reference"},
    {EngineKind::kVector, "vector"},
    {EngineKind::kParallel, "parallel"},
};

}  // namespace

std::string_view engine_name(EngineKind kind) {
  for (const auto& [k, name] : kEngineNames) {
    if (k == kind) return name;
  }
  throw std::invalid_argument("unknown EngineKind");
}

EngineKind engine_by_name(const std::string& name) {
  for (const auto& [kind, known] : kEngineNames) {
    if (known == name) return kind;
  }
  throw std::invalid_argument(
      "unknown engine '" + name +
      "' (incremental | reference | vector | parallel)");
}

}  // namespace specstab
