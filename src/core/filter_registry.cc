#include "core/filter_registry.h"

#include <type_traits>
#include <utility>

#include "bloom/bloom_range.h"
#include "core/filter_builder.h"
#include "core/one_pbf.h"
#include "core/proteus.h"
#include "core/proteus_str.h"
#include "core/two_pbf.h"
#include "rosetta/rosetta.h"
#include "surf/surf.h"

namespace proteus {
namespace {

void SetError(std::string* error, std::string message) {
  if (error != nullptr) *error = std::move(message);
}

// One catalogue row for filter class T: its wire id, its key kind (from
// its base, RangeFilter or StrRangeFilter), and hooks forwarding to its
// static BuildFromSpec and DeserializePayload.
template <typename T>
constexpr FilterFamily Row(std::string_view name, std::string_view alias = {}) {
  constexpr bool kInt = std::is_base_of_v<RangeFilter, T>;
  static_assert(kInt != std::is_base_of_v<StrRangeFilter, T>);
  FilterFamily row{
      .name = name,
      .alias = alias,
      .id = T::kFamilyId,
      .kind = kInt ? Filter::KeyKind::kInt : Filter::KeyKind::kStr,
      .build_int = nullptr,
      .build_str = nullptr,
      .deserialize = [](std::string_view* in) -> std::unique_ptr<Filter> {
        return T::DeserializePayload(in);
      }};
  if constexpr (kInt) {
    row.build_int = [](const FilterSpec& spec, FilterBuilder& builder,
                       std::string* error) -> std::unique_ptr<RangeFilter> {
      return T::BuildFromSpec(spec, builder, error);
    };
  } else {
    row.build_str = [](const FilterSpec& spec, StrFilterBuilder& builder,
                       std::string* error) -> std::unique_ptr<StrRangeFilter> {
      return T::BuildFromSpec(spec, builder, error);
    };
  }
  return row;
}

constexpr FilterFamily kFamilies[] = {
    Row<ProteusFilter>("proteus"),
    Row<OnePbfFilter>("onepbf", "1pbf"),
    Row<TwoPbfFilter>("twopbf", "2pbf"),
    Row<RosettaFilter>("rosetta"),
    Row<SurfIntFilter>("surf"),
    Row<SurfStrFilter>("surf-str"),
    Row<ProteusStrFilter>("proteus-str"),
    Row<BloomIntFilter>("bloom"),
    Row<BloomStrFilter>("bloom-str"),
};

}  // namespace

const FilterFamily* FindFilterFamily(std::string_view name) {
  for (const FilterFamily& f : kFamilies) {
    if (f.name == name || (!f.alias.empty() && f.alias == name)) return &f;
  }
  return nullptr;
}

const FilterFamily* FindFilterFamily(uint32_t id) {
  for (const FilterFamily& f : kFamilies) {
    if (f.id == id) return &f;
  }
  return nullptr;
}

std::span<const FilterFamily> FilterFamilies() { return kFamilies; }

std::unique_ptr<Filter> Filter::Deserialize(std::string_view in,
                                            std::string* error) {
  uint32_t magic, version, family_id;
  if (!GetFixed32(&in, &magic) || !GetFixed32(&in, &version) ||
      !GetFixed32(&in, &family_id)) {
    SetError(error, "filter blob too short for header");
    return nullptr;
  }
  if (magic != kMagic) {
    SetError(error, "bad filter blob magic");
    return nullptr;
  }
  if (version != kVersion) {
    SetError(error, "unsupported filter blob version " +
                        std::to_string(version));
    return nullptr;
  }
  const FilterFamily* family = FindFilterFamily(family_id);
  if (family == nullptr) {
    SetError(error, "unknown filter family id " + std::to_string(family_id));
    return nullptr;
  }
  auto filter = family->deserialize(&in);
  if (filter == nullptr) {
    SetError(error, "corrupt \"" + std::string(family->name) +
                        "\" filter payload");
    return nullptr;
  }
  return filter;
}

}  // namespace proteus
