#include "core/filter_registry.h"

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

// Captureless lambdas convert to the plain function pointers FilterFamily
// stores; each just narrows unique_ptr<Family> to the interface type.
template <typename T>
std::unique_ptr<RangeFilter> AsInt(std::unique_ptr<T> f) {
  return f;
}
template <typename T>
std::unique_ptr<StrRangeFilter> AsStr(std::unique_ptr<T> f) {
  return f;
}

}  // namespace

FilterRegistry& FilterRegistry::Global() {
  static FilterRegistry* registry = new FilterRegistry();
  return *registry;
}

FilterRegistry::FilterRegistry() {
  FilterFamily proteus;
  proteus.name = "proteus";
  proteus.family_id = ProteusFilter::kFamilyId;
  proteus.build_int = [](const FilterSpec& spec, FilterBuilder& builder,
                         std::string* error) {
    return AsInt(ProteusFilter::BuildFromSpec(spec, builder, error));
  };
  proteus.deserialize = [](std::string_view* in) {
    return std::unique_ptr<Filter>(ProteusFilter::DeserializePayload(in));
  };
  Register(std::move(proteus));

  FilterFamily one_pbf;
  one_pbf.name = "onepbf";
  one_pbf.aliases = {"1pbf"};
  one_pbf.family_id = OnePbfFilter::kFamilyId;
  one_pbf.build_int = [](const FilterSpec& spec, FilterBuilder& builder,
                         std::string* error) {
    return AsInt(OnePbfFilter::BuildFromSpec(spec, builder, error));
  };
  one_pbf.deserialize = [](std::string_view* in) {
    return std::unique_ptr<Filter>(OnePbfFilter::DeserializePayload(in));
  };
  Register(std::move(one_pbf));

  FilterFamily two_pbf;
  two_pbf.name = "twopbf";
  two_pbf.aliases = {"2pbf"};
  two_pbf.family_id = TwoPbfFilter::kFamilyId;
  two_pbf.build_int = [](const FilterSpec& spec, FilterBuilder& builder,
                         std::string* error) {
    return AsInt(TwoPbfFilter::BuildFromSpec(spec, builder, error));
  };
  two_pbf.deserialize = [](std::string_view* in) {
    return std::unique_ptr<Filter>(TwoPbfFilter::DeserializePayload(in));
  };
  Register(std::move(two_pbf));

  FilterFamily rosetta;
  rosetta.name = "rosetta";
  rosetta.family_id = RosettaFilter::kFamilyId;
  rosetta.build_int = [](const FilterSpec& spec, FilterBuilder& builder,
                         std::string* error) {
    return AsInt(RosettaFilter::BuildFromSpec(spec, builder, error));
  };
  rosetta.deserialize = [](std::string_view* in) {
    return std::unique_ptr<Filter>(RosettaFilter::DeserializePayload(in));
  };
  Register(std::move(rosetta));

  FilterFamily surf;
  surf.name = "surf";
  surf.family_id = SurfIntFilter::kFamilyId;
  surf.build_int = [](const FilterSpec& spec, FilterBuilder& builder,
                      std::string* error) {
    return AsInt(SurfIntFilter::BuildFromSpec(spec, builder, error));
  };
  surf.deserialize = [](std::string_view* in) {
    return std::unique_ptr<Filter>(SurfIntFilter::DeserializePayload(in));
  };
  Register(std::move(surf));

  FilterFamily surf_str;
  surf_str.name = "surf-str";
  surf_str.family_id = SurfStrFilter::kFamilyId;
  surf_str.build_str = [](const FilterSpec& spec, StrFilterBuilder& builder,
                          std::string* error) {
    return AsStr(SurfStrFilter::BuildFromSpec(spec, builder, error));
  };
  surf_str.deserialize = [](std::string_view* in) {
    return std::unique_ptr<Filter>(SurfStrFilter::DeserializePayload(in));
  };
  Register(std::move(surf_str));

  FilterFamily proteus_str;
  proteus_str.name = "proteus-str";
  proteus_str.family_id = ProteusStrFilter::kFamilyId;
  proteus_str.build_str = [](const FilterSpec& spec, StrFilterBuilder& builder,
                             std::string* error) {
    return AsStr(ProteusStrFilter::BuildFromSpec(spec, builder, error));
  };
  proteus_str.deserialize = [](std::string_view* in) {
    return std::unique_ptr<Filter>(ProteusStrFilter::DeserializePayload(in));
  };
  Register(std::move(proteus_str));

  FilterFamily bloom;
  bloom.name = "bloom";
  bloom.family_id = BloomIntFilter::kFamilyId;
  bloom.build_int = [](const FilterSpec& spec, FilterBuilder& builder,
                       std::string* error) {
    return AsInt(BloomIntFilter::BuildFromSpec(spec, builder, error));
  };
  bloom.deserialize = [](std::string_view* in) {
    return std::unique_ptr<Filter>(BloomIntFilter::DeserializePayload(in));
  };
  Register(std::move(bloom));

  FilterFamily bloom_str;
  bloom_str.name = "bloom-str";
  bloom_str.family_id = BloomStrFilter::kFamilyId;
  bloom_str.build_str = [](const FilterSpec& spec, StrFilterBuilder& builder,
                           std::string* error) {
    return AsStr(BloomStrFilter::BuildFromSpec(spec, builder, error));
  };
  bloom_str.deserialize = [](std::string_view* in) {
    return std::unique_ptr<Filter>(BloomStrFilter::DeserializePayload(in));
  };
  Register(std::move(bloom_str));
}

bool FilterRegistry::Register(FilterFamily family) {
  if (family.name.empty()) return false;
  if (Find(family.name) != nullptr) return false;
  for (const std::string& alias : family.aliases) {
    if (Find(alias) != nullptr) return false;
  }
  if (family.family_id != 0 && FindById(family.family_id) != nullptr) {
    return false;
  }
  families_.push_back(std::move(family));
  return true;
}

const FilterFamily* FilterRegistry::Find(std::string_view name) const {
  for (const FilterFamily& f : families_) {
    if (f.name == name) return &f;
    for (const std::string& alias : f.aliases) {
      if (alias == name) return &f;
    }
  }
  return nullptr;
}

const FilterFamily* FilterRegistry::FindById(uint32_t family_id) const {
  if (family_id == 0) return nullptr;
  for (const FilterFamily& f : families_) {
    if (f.family_id == family_id) return &f;
  }
  return nullptr;
}

std::vector<std::string> FilterRegistry::FamilyNames() const {
  std::vector<std::string> names;
  names.reserve(families_.size());
  for (const FilterFamily& f : families_) names.push_back(f.name);
  return names;
}

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
  const FilterFamily* family = FilterRegistry::Global().FindById(family_id);
  if (family == nullptr || family->deserialize == nullptr) {
    SetError(error, "unknown filter family id " + std::to_string(family_id));
    return nullptr;
  }
  auto filter = family->deserialize(&in);
  if (filter == nullptr) {
    SetError(error, "corrupt \"" + family->name + "\" filter payload");
    return nullptr;
  }
  return filter;
}

}  // namespace proteus
