// Spec strings: the uniform way to name a filter family plus its
// parameters, RocksDB-option-string style.
//
//   "proteus:bpk=12"
//   "surf:mode=real,suffix=8"
//   "rosetta:bpk=22"
//   "proteus:trie=20,bloom=48,bpk=14"   (forced configuration)
//
// Grammar: <family>[:<key>=<value>{,<key>=<value>}]. Family and key names
// are non-empty and may not contain ':', ',', or '='; duplicate keys are
// rejected at parse time. Values are typed lazily: the typed getters
// report malformed values through their error out-param so a bad
// "bpk=fast" fails the build with a message instead of a silent default.

#ifndef PROTEUS_CORE_FILTER_SPEC_H_
#define PROTEUS_CORE_FILTER_SPEC_H_

#include <cstdint>
#include <initializer_list>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace proteus {

/// Formats a double for use as a spec parameter value ("%g": no trailing
/// zeros, round-trips typical bpk values).
std::string FormatSpecDouble(double v);

class FilterSpec {
 public:
  FilterSpec() = default;
  explicit FilterSpec(std::string family) : family_(std::move(family)) {}

  /// Parses a spec string. Returns false (and fills `error` when given)
  /// on an empty spec, empty family/key, a parameter without '=', or a
  /// duplicate key.
  static bool Parse(std::string_view spec, FilterSpec* out,
                    std::string* error = nullptr);

  const std::string& family() const { return family_; }
  const std::vector<std::pair<std::string, std::string>>& params() const {
    return params_;
  }

  bool Has(std::string_view key) const;
  void Set(std::string_view key, std::string_view value);

  /// Raw value lookup; returns `def` when the key is absent.
  std::string GetString(std::string_view key, std::string_view def) const;

  // Typed getters: *out receives the parsed value (or `def` when the key
  // is absent). Returns false and fills `error` when the value is present
  // but malformed.
  bool GetDouble(std::string_view key, double def, double* out,
                 std::string* error = nullptr) const;
  bool GetUint32(std::string_view key, uint32_t def, uint32_t* out,
                 std::string* error = nullptr) const;

  /// Rejects unknown parameter keys (typo guard). Returns false and fills
  /// `error` if a parameter is not in `allowed`.
  bool ExpectKeys(std::initializer_list<std::string_view> allowed,
                  std::string* error = nullptr) const;

 private:
  const std::string* FindValue(std::string_view key) const;

  std::string family_;
  std::vector<std::pair<std::string, std::string>> params_;
};

}  // namespace proteus

#endif  // PROTEUS_CORE_FILTER_SPEC_H_
