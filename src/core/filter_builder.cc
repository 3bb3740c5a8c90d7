#include "core/filter_builder.h"

#include "core/filter_registry.h"
#include "model/cpfpr.h"
#include "model/cpfpr_str.h"

namespace proteus {
namespace {

void SetError(std::string* error, std::string message) {
  if (error != nullptr) *error = std::move(message);
}

// The row for the spec's family, when it builds filters of `kind`.
const FilterFamily* Resolve(const FilterSpec& spec, Filter::KeyKind kind,
                            std::string* error) {
  const FilterFamily* family = FindFilterFamily(spec.family());
  if (family == nullptr) {
    std::string known;
    for (const FilterFamily& f : FilterFamilies()) {
      known += known.empty() ? "" : ", ";
      known += f.name;
    }
    SetError(error, "unknown filter family \"" + spec.family() +
                        "\" (families: " + known + ")");
    return nullptr;
  }
  if (family->kind != kind) {
    SetError(error, "filter family \"" + spec.family() + "\" has no " +
                        (kind == Filter::KeyKind::kInt ? "integer" : "string") +
                        "-key builder");
    return nullptr;
  }
  return family;
}

}  // namespace

FilterBuilder::FilterBuilder(const std::vector<uint64_t>& sorted_keys)
    : keys_(sorted_keys) {}

FilterBuilder::~FilterBuilder() = default;

FilterBuilder& FilterBuilder::Sample(const std::vector<RangeQuery>& queries) {
  samples_.insert(samples_.end(), queries.begin(), queries.end());
  model_.reset();
  return *this;
}

const CpfprModel& FilterBuilder::Design() {
  if (model_ == nullptr) {
    model_ = std::make_unique<CpfprModel>(keys_, samples_);
  }
  return *model_;
}

const CpfprModel* FilterBuilder::DesignOrNull() {
  if (samples_.empty()) return nullptr;
  return &Design();
}

std::unique_ptr<RangeFilter> FilterBuilder::Build(std::string_view spec,
                                                  std::string* error) {
  FilterSpec parsed;
  if (!FilterSpec::Parse(spec, &parsed, error)) return nullptr;
  return Build(parsed, error);
}

std::unique_ptr<RangeFilter> FilterBuilder::Build(const FilterSpec& spec,
                                                  std::string* error) {
  const FilterFamily* family = Resolve(spec, Filter::KeyKind::kInt, error);
  return family == nullptr ? nullptr : family->build_int(spec, *this, error);
}

StrFilterBuilder::StrFilterBuilder(const std::vector<std::string>& sorted_keys)
    : keys_(sorted_keys) {}

StrFilterBuilder::~StrFilterBuilder() = default;

StrFilterBuilder& StrFilterBuilder::Sample(
    const std::vector<StrRangeQuery>& queries) {
  samples_.insert(samples_.end(), queries.begin(), queries.end());
  model_.reset();
  return *this;
}

const StrCpfprModel& StrFilterBuilder::Design(uint32_t max_bits,
                                              const StrCpfprOptions& options) {
  if (model_ == nullptr || model_max_bits_ != max_bits ||
      model_bloom_grid_ != options.bloom_grid ||
      model_trie_grid_ != options.trie_grid) {
    model_ = std::make_unique<StrCpfprModel>(keys_, samples_, max_bits,
                                             options);
    model_max_bits_ = max_bits;
    model_bloom_grid_ = options.bloom_grid;
    model_trie_grid_ = options.trie_grid;
  }
  return *model_;
}

std::unique_ptr<StrRangeFilter> StrFilterBuilder::Build(std::string_view spec,
                                                        std::string* error) {
  FilterSpec parsed;
  if (!FilterSpec::Parse(spec, &parsed, error)) return nullptr;
  return Build(parsed, error);
}

std::unique_ptr<StrRangeFilter> StrFilterBuilder::Build(const FilterSpec& spec,
                                                        std::string* error) {
  const FilterFamily* family = Resolve(spec, Filter::KeyKind::kStr, error);
  return family == nullptr ? nullptr : family->build_str(spec, *this, error);
}

}  // namespace proteus
