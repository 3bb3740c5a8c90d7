// The filter catalogue: one fixed table of the nine filter families this
// library builds — Proteus, 1PBF, 2PBF and the SuRF, Rosetta and Bloom
// baselines they are measured against, in their integer and string forms.
//
// Each row holds a spec name, an optional alias, the stable wire id a
// serialized blob names its family by, the key kind, and the build and
// deserialize hooks. Every consumer (the LSM filter policy, the benchmark
// harnesses, the examples, Filter::Deserialize) selects filters through
// spec strings resolved against this table, so adding a family is one row
// of the table:
//
//   auto f = FilterBuilder(keys).Sample(samples).Build("proteus:bpk=12");
//   auto g = StrFilterBuilder(str_keys).Build("surf-str:mode=real,suffix=8");
//   const FilterFamily* family = FindFilterFamily("surf");
//
// Families (each family's BuildFromSpec parses its parameters):
//   proteus, onepbf (1pbf), twopbf (2pbf), rosetta, surf, bloom   — integer
//   proteus-str, surf-str, bloom-str                              — string

#ifndef PROTEUS_CORE_FILTER_REGISTRY_H_
#define PROTEUS_CORE_FILTER_REGISTRY_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>

#include "core/filter_spec.h"
#include "core/range_filter.h"

namespace proteus {

class FilterBuilder;
class StrFilterBuilder;

/// One row of the catalogue. Build hooks receive the parsed spec and a
/// builder holding the keys, the sampled queries, and the (lazily
/// computed, shared) CPFPR model; they return null and fill `error` on bad
/// parameters. Exactly one build hook is set: `build_int` for kInt
/// families, `build_str` for kStr ones.
struct FilterFamily {
  using IntBuildFn = std::unique_ptr<RangeFilter> (*)(const FilterSpec& spec,
                                                      FilterBuilder& builder,
                                                      std::string* error);
  using StrBuildFn = std::unique_ptr<StrRangeFilter> (*)(
      const FilterSpec& spec, StrFilterBuilder& builder, std::string* error);
  /// Parses a Serialize() payload (header already consumed); null on
  /// corruption.
  using DeserializeFn = std::unique_ptr<Filter> (*)(std::string_view* in);

  std::string_view name;   // canonical spec name
  std::string_view alias;  // extra spec name; empty when none
  uint32_t id;             // stable wire id
  Filter::KeyKind kind;
  IntBuildFn build_int;
  StrBuildFn build_str;
  DeserializeFn deserialize;
};

/// The row whose name or alias is `name`; null when none is.
const FilterFamily* FindFilterFamily(std::string_view name);
/// The row whose wire id is `id`; null when none is.
const FilterFamily* FindFilterFamily(uint32_t id);
/// All nine rows, in wire-id order.
std::span<const FilterFamily> FilterFamilies();

}  // namespace proteus

#endif  // PROTEUS_CORE_FILTER_REGISTRY_H_
