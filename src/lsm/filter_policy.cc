#include "lsm/filter_policy.h"

#include <algorithm>

#include "core/filter_builder.h"
#include "core/filter_registry.h"
#include "core/query.h"

namespace proteus {
namespace {

void SetStatus(Status* status, Status value) {
  if (status != nullptr) *status = std::move(value);
}

// ---------------------------------------------------------------------------
// Helpers: decode integer-mode inputs.
// ---------------------------------------------------------------------------

std::vector<uint64_t> DecodeKeys(const std::vector<std::string>& keys) {
  std::vector<uint64_t> out;
  out.reserve(keys.size());
  for (const auto& k : keys) out.push_back(DecodeKeyBE(k));
  return out;
}

// Clips sample queries to [smallest, largest] of the SST and drops those
// falling entirely outside (per-SST filters only see their own range).
std::vector<RangeQuery> DecodeAndClipQueries(
    const std::vector<std::pair<std::string, std::string>>& qs, uint64_t lo,
    uint64_t hi) {
  std::vector<RangeQuery> out;
  out.reserve(qs.size());
  for (const auto& [qlo, qhi] : qs) {
    RangeQuery q{DecodeKeyBE(qlo), DecodeKeyBE(qhi)};
    if (q.hi < lo || q.lo > hi) continue;
    out.push_back(q);
  }
  return out;
}

std::vector<StrRangeQuery> ClipStrQueries(
    const std::vector<std::pair<std::string, std::string>>& qs,
    const std::string& lo, const std::string& hi) {
  std::vector<StrRangeQuery> out;
  out.reserve(qs.size());
  for (const auto& [qlo, qhi] : qs) {
    if (qhi < lo || qlo > hi) continue;
    out.push_back({qlo, qhi});
  }
  return out;
}

/// The one policy implementation: builds the spec's family at flush time
/// (integer families see 8-byte big-endian decoded keys, string families
/// see raw keys).
class SpecPolicy : public FilterPolicy {
 public:
  SpecPolicy(FilterSpec spec, Filter::KeyKind kind)
      : spec_(std::move(spec)), kind_(kind) {}

  std::unique_ptr<SstFilter> Build(
      const std::vector<std::string>& keys,
      const std::vector<std::pair<std::string, std::string>>& samples)
      const override {
    if (keys.empty()) return nullptr;
    std::unique_ptr<Filter> filter;
    if (kind_ == Filter::KeyKind::kStr) {
      StrFilterBuilder builder(keys);
      builder.Sample(ClipStrQueries(samples, keys.front(), keys.back()));
      filter = builder.Build(spec_);
    } else {
      std::vector<uint64_t> int_keys = DecodeKeys(keys);
      FilterBuilder builder(int_keys);
      builder.Sample(
          DecodeAndClipQueries(samples, int_keys.front(), int_keys.back()));
      filter = builder.Build(spec_);
    }
    if (filter == nullptr) return nullptr;
    return std::make_unique<SstFilter>(std::move(filter));
  }

 private:
  FilterSpec spec_;
  Filter::KeyKind kind_;
};

}  // namespace

SstFilter::SstFilter(std::unique_ptr<Filter> filter)
    : filter_(std::move(filter)) {
  if (filter_->kind() == Filter::KeyKind::kInt) {
    int_ = static_cast<const RangeFilter*>(filter_.get());
  } else {
    str_ = static_cast<const StrRangeFilter*>(filter_.get());
  }
}

void SstFilter::MultiMayContain(const std::string_view* lo,
                                const std::string_view* hi, size_t n,
                                uint8_t* out) const {
  if (int_ == nullptr) {
    str_->MultiMayContain(lo, hi, n, out);
    return;
  }
  // Decoded in fixed stack chunks: a batched probe allocates nothing.
  constexpr size_t kChunk = 64;
  uint64_t los[kChunk], his[kChunk];
  for (size_t start = 0; start < n; start += kChunk) {
    const size_t m = std::min(kChunk, n - start);
    for (size_t i = 0; i < m; ++i) {
      los[i] = DecodeKeyBE(lo[start + i]);
      his[i] = DecodeKeyBE(hi[start + i]);
    }
    int_->MultiMayContain(los, his, m, out + start);
  }
}

std::unique_ptr<FilterPolicy> MakeFilterPolicy(const std::string& spec,
                                               Status* status) {
  std::string error;
  FilterSpec parsed;
  if (!FilterSpec::Parse(spec, &parsed, &error)) {
    SetStatus(status, Status::InvalidArgument(error));
    return nullptr;
  }
  if (parsed.family() == "none") {
    SetStatus(status, parsed.params().empty()
                          ? Status::OK()
                          : Status::InvalidArgument(
                                "\"none\" filter policy takes no parameters"));
    return nullptr;
  }
  const FilterFamily* family = FindFilterFamily(parsed.family());
  if (family == nullptr) {
    SetStatus(status, Status::InvalidArgument("unknown filter family \"" +
                                              parsed.family() + "\""));
    return nullptr;
  }

  // Dry-run against a tiny key set so malformed parameter values fail at
  // policy creation instead of silently disabling filters at flush time.
  bool built;
  if (family->kind == Filter::KeyKind::kStr) {
    std::vector<std::string> dummy = {"a", "b"};
    built = StrFilterBuilder(dummy).Build(parsed, &error) != nullptr;
  } else {
    std::vector<uint64_t> dummy = {1, uint64_t{1} << 40};
    built = FilterBuilder(dummy).Build(parsed, &error) != nullptr;
  }
  if (!built) {
    SetStatus(status, Status::InvalidArgument(error));
    return nullptr;
  }
  return std::make_unique<SpecPolicy>(std::move(parsed), family->kind);
}

std::unique_ptr<SstFilter> DeserializeSstFilter(std::string_view blob,
                                                Status* status) {
  std::string error;
  std::unique_ptr<Filter> filter = Filter::Deserialize(blob, &error);
  if (filter == nullptr) {
    SetStatus(status, Status::Corruption(error));
    return nullptr;
  }
  return std::make_unique<SstFilter>(std::move(filter));
}

}  // namespace proteus
