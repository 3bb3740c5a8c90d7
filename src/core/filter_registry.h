// FilterRegistry: the single catalogue of filter families.
//
// Each family registers once — a spec name, a stable serialization id, and
// build/deserialize hooks — and every consumer (the LSM filter policies,
// the benchmark harnesses, the examples, Filter::Deserialize) selects
// filters through spec strings, so adding a filter family needs zero
// bench/LSM plumbing:
//
//   auto f = FilterBuilder(keys).Sample(samples).Build("proteus:bpk=12");
//   auto g = StrFilterBuilder(str_keys).Build("surf-str:mode=real,suffix=8");
//   const FilterFamily* family = FilterRegistry::Global().Find("surf");
//
// Built-in families (each family's BuildFromSpec parses its parameters):
//   proteus, onepbf (1pbf), twopbf (2pbf), rosetta, surf, bloom   — integer
//   proteus-str, surf-str, bloom-str                              — string

#ifndef PROTEUS_CORE_FILTER_REGISTRY_H_
#define PROTEUS_CORE_FILTER_REGISTRY_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/filter_spec.h"
#include "core/range_filter.h"

namespace proteus {

class FilterBuilder;
class StrFilterBuilder;

/// One registered filter family. Build hooks receive the parsed spec and a
/// FilterBuilder holding the keys, the sampled queries, and the (lazily
/// computed, shared) CPFPR model; they return null and fill `error` on bad
/// parameters.
struct FilterFamily {
  using IntBuildFn = std::unique_ptr<RangeFilter> (*)(const FilterSpec& spec,
                                                      FilterBuilder& builder,
                                                      std::string* error);
  using StrBuildFn = std::unique_ptr<StrRangeFilter> (*)(
      const FilterSpec& spec, StrFilterBuilder& builder, std::string* error);
  /// Parses a Serialize() payload (header already consumed); null on
  /// corruption.
  using DeserializeFn = std::unique_ptr<Filter> (*)(std::string_view* in);

  std::string name;                  // canonical spec name
  std::vector<std::string> aliases;  // extra spec names
  uint32_t family_id = 0;            // stable wire id; 0 = not serializable
  IntBuildFn build_int = nullptr;
  StrBuildFn build_str = nullptr;
  DeserializeFn deserialize = nullptr;
};

class FilterRegistry {
 public:
  /// The process-wide registry, with all built-in families registered.
  static FilterRegistry& Global();

  /// Registers a family. Returns false (family not added) if its name, an
  /// alias, or a nonzero family id is already taken. Not thread-safe;
  /// register custom families during startup.
  bool Register(FilterFamily family);

  const FilterFamily* Find(std::string_view name) const;
  const FilterFamily* FindById(uint32_t family_id) const;

  /// Canonical names of all registered families.
  std::vector<std::string> FamilyNames() const;

 private:
  FilterRegistry();  // registers the built-in families

  std::vector<FilterFamily> families_;
};

}  // namespace proteus

#endif  // PROTEUS_CORE_FILTER_REGISTRY_H_
