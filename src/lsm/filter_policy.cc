#include "lsm/filter_policy.h"

#include <algorithm>
#include <cstdio>

#include "core/filter_builder.h"
#include "core/filter_registry.h"
#include "core/query.h"
#include "surf/surf.h"  // EncodeKeyBE / DecodeKeyBE

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

// ---------------------------------------------------------------------------
// Adapters: RangeFilter / StrRangeFilter -> SstFilter.
// ---------------------------------------------------------------------------

class IntFilterAdapter : public SstFilter {
 public:
  explicit IntFilterAdapter(std::unique_ptr<RangeFilter> filter)
      : filter_(std::move(filter)) {}
  bool MayContain(std::string_view lo, std::string_view hi) const override {
    return filter_->MayContain(DecodeKeyBE(lo), DecodeKeyBE(hi));
  }
  void MultiMayContain(const std::string_view* lo, const std::string_view* hi,
                       size_t n, uint8_t* out) const override {
    // Decoded in fixed stack chunks: a batched probe allocates nothing.
    constexpr size_t kChunk = 64;
    uint64_t los[kChunk], his[kChunk];
    for (size_t start = 0; start < n; start += kChunk) {
      const size_t m = std::min(kChunk, n - start);
      for (size_t i = 0; i < m; ++i) {
        los[i] = DecodeKeyBE(lo[start + i]);
        his[i] = DecodeKeyBE(hi[start + i]);
      }
      filter_->MultiMayContain(los, his, m, out + start);
    }
  }
  uint64_t SizeBits() const override { return filter_->SizeBits(); }
  std::optional<double> ModeledFpr() const override {
    return filter_->ModeledFpr();
  }
  bool Serialize(std::string* out) const override {
    filter_->Serialize(out);
    return true;
  }

 private:
  std::unique_ptr<RangeFilter> filter_;
};

class StrFilterAdapter : public SstFilter {
 public:
  explicit StrFilterAdapter(std::unique_ptr<StrRangeFilter> filter)
      : filter_(std::move(filter)) {}
  bool MayContain(std::string_view lo, std::string_view hi) const override {
    return filter_->MayContain(lo, hi);
  }
  void MultiMayContain(const std::string_view* lo, const std::string_view* hi,
                       size_t n, uint8_t* out) const override {
    filter_->MultiMayContain(lo, hi, n, out);
  }
  uint64_t SizeBits() const override { return filter_->SizeBits(); }
  std::optional<double> ModeledFpr() const override {
    return filter_->ModeledFpr();
  }
  bool Serialize(std::string* out) const override {
    filter_->Serialize(out);
    return true;
  }

 private:
  std::unique_ptr<StrRangeFilter> filter_;
};

// ---------------------------------------------------------------------------
// Policies
// ---------------------------------------------------------------------------

class NullPolicy : public FilterPolicy {
 public:
  std::unique_ptr<SstFilter> Build(
      const std::vector<std::string>&,
      const std::vector<std::pair<std::string, std::string>>&) const override {
    return nullptr;
  }
  std::string Name() const override { return "none"; }
};

/// The one policy implementation: resolves the spec through the
/// FilterRegistry at build time, so it works for every registered family
/// (integer families see 8-byte big-endian decoded keys, string families
/// see raw keys).
class RegistryPolicy : public FilterPolicy {
 public:
  RegistryPolicy(FilterSpec spec, bool str_mode)
      : spec_(std::move(spec)), str_mode_(str_mode) {}

  std::unique_ptr<SstFilter> Build(
      const std::vector<std::string>& keys,
      const std::vector<std::pair<std::string, std::string>>& samples)
      const override {
    if (keys.empty()) return nullptr;
    if (str_mode_) {
      StrFilterBuilder builder(keys);
      builder.Sample(ClipStrQueries(samples, keys.front(), keys.back()));
      auto filter = builder.Build(spec_);
      if (filter == nullptr) return nullptr;
      return std::make_unique<StrFilterAdapter>(std::move(filter));
    }
    std::vector<uint64_t> int_keys = DecodeKeys(keys);
    FilterBuilder builder(int_keys);
    builder.Sample(
        DecodeAndClipQueries(samples, int_keys.front(), int_keys.back()));
    auto filter = builder.Build(spec_);
    if (filter == nullptr) return nullptr;
    return std::make_unique<IntFilterAdapter>(std::move(filter));
  }

  std::string Name() const override { return spec_.ToString(); }

 private:
  FilterSpec spec_;
  bool str_mode_;
};

}  // namespace

std::unique_ptr<FilterPolicy> MakeFilterPolicy(const std::string& spec,
                                               Status* status) {
  std::string error;
  FilterSpec parsed;
  if (!FilterSpec::Parse(spec, &parsed, &error)) {
    SetStatus(status, Status::InvalidArgument(error));
    return nullptr;
  }
  if (parsed.family() == "none") {
    if (!parsed.params().empty()) {
      SetStatus(status, Status::InvalidArgument(
                            "\"none\" filter policy takes no parameters"));
      return nullptr;
    }
    return std::make_unique<NullPolicy>();
  }
  const FilterFamily* family = FilterRegistry::Global().Find(parsed.family());
  if (family == nullptr) {
    SetStatus(status, Status::InvalidArgument("unknown filter family \"" +
                                              parsed.family() + "\""));
    return nullptr;
  }
  bool str_mode = family->build_str != nullptr && family->build_int == nullptr;

  // Dry-run against a tiny key set so malformed parameter values fail at
  // policy creation instead of silently disabling filters at flush time.
  bool built;
  if (str_mode) {
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
  return std::make_unique<RegistryPolicy>(std::move(parsed), str_mode);
}

std::unique_ptr<SstFilter> DeserializeSstFilter(std::string_view blob,
                                                Status* status) {
  std::string error;
  std::unique_ptr<Filter> filter = Filter::Deserialize(blob, &error);
  if (filter == nullptr) {
    SetStatus(status, Status::Corruption(error));
    return nullptr;
  }
  if (filter->kind() == Filter::KeyKind::kInt) {
    return std::make_unique<IntFilterAdapter>(std::unique_ptr<RangeFilter>(
        static_cast<RangeFilter*>(filter.release())));
  }
  return std::make_unique<StrFilterAdapter>(std::unique_ptr<StrRangeFilter>(
      static_cast<StrRangeFilter*>(filter.release())));
}

}  // namespace proteus
