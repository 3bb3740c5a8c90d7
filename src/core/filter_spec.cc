#include "core/filter_spec.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>

namespace proteus {

std::string FormatSpecDouble(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%g", v);
  return buf;
}

namespace {

void SetError(std::string* error, std::string message) {
  if (error != nullptr) *error = std::move(message);
}

}  // namespace

bool FilterSpec::Parse(std::string_view spec, FilterSpec* out,
                       std::string* error) {
  *out = FilterSpec();
  if (spec.empty()) {
    SetError(error, "empty filter spec");
    return false;
  }
  size_t colon = spec.find(':');
  std::string_view family = spec.substr(0, colon);
  if (family.empty()) {
    SetError(error, "filter spec has an empty family name");
    return false;
  }
  if (family.find_first_of(",=") != std::string_view::npos) {
    SetError(error, "filter family name may not contain ',' or '=': \"" +
                        std::string(family) + "\"");
    return false;
  }
  out->family_.assign(family);
  if (colon == std::string_view::npos) return true;

  std::string_view rest = spec.substr(colon + 1);
  if (rest.empty()) {
    SetError(error, "filter spec ends with ':' but has no parameters");
    return false;
  }
  while (!rest.empty()) {
    size_t comma = rest.find(',');
    std::string_view item = rest.substr(0, comma);
    rest = comma == std::string_view::npos ? std::string_view()
                                           : rest.substr(comma + 1);
    size_t eq = item.find('=');
    if (eq == std::string_view::npos) {
      SetError(error, "filter spec parameter \"" + std::string(item) +
                          "\" is missing '='");
      return false;
    }
    std::string_view key = item.substr(0, eq);
    std::string_view value = item.substr(eq + 1);
    if (key.empty()) {
      SetError(error, "filter spec has a parameter with an empty key");
      return false;
    }
    if (out->Has(key)) {
      SetError(error,
               "duplicate filter spec parameter \"" + std::string(key) + "\"");
      return false;
    }
    out->params_.emplace_back(std::string(key), std::string(value));
  }
  return true;
}

const std::string* FilterSpec::FindValue(std::string_view key) const {
  for (const auto& [k, v] : params_) {
    if (k == key) return &v;
  }
  return nullptr;
}

bool FilterSpec::Has(std::string_view key) const {
  return FindValue(key) != nullptr;
}

void FilterSpec::Set(std::string_view key, std::string_view value) {
  for (auto& [k, v] : params_) {
    if (k == key) {
      v.assign(value);
      return;
    }
  }
  params_.emplace_back(std::string(key), std::string(value));
}

std::string FilterSpec::GetString(std::string_view key,
                                  std::string_view def) const {
  const std::string* v = FindValue(key);
  return v != nullptr ? *v : std::string(def);
}

bool FilterSpec::GetDouble(std::string_view key, double def, double* out,
                           std::string* error) const {
  const std::string* v = FindValue(key);
  if (v == nullptr) {
    *out = def;
    return true;
  }
  errno = 0;
  char* end = nullptr;
  double parsed = std::strtod(v->c_str(), &end);
  if (v->empty() || end != v->c_str() + v->size() || errno == ERANGE) {
    SetError(error, "filter spec parameter \"" + std::string(key) + "=" + *v +
                        "\" is not a number");
    return false;
  }
  *out = parsed;
  return true;
}

bool FilterSpec::GetUint32(std::string_view key, uint32_t def, uint32_t* out,
                           std::string* error) const {
  const std::string* v = FindValue(key);
  if (v == nullptr) {
    *out = def;
    return true;
  }
  errno = 0;
  char* end = nullptr;
  unsigned long long parsed = std::strtoull(v->c_str(), &end, 10);
  if (v->empty() || v->front() == '-' || end != v->c_str() + v->size() ||
      errno == ERANGE || parsed > UINT32_MAX) {
    SetError(error, "filter spec parameter \"" + std::string(key) + "=" + *v +
                        "\" is not an unsigned integer");
    return false;
  }
  *out = static_cast<uint32_t>(parsed);
  return true;
}

bool FilterSpec::ExpectKeys(std::initializer_list<std::string_view> allowed,
                            std::string* error) const {
  for (const auto& [k, v] : params_) {
    (void)v;
    bool known = false;
    for (std::string_view a : allowed) {
      if (k == a) {
        known = true;
        break;
      }
    }
    if (!known) {
      std::string message = "unknown parameter \"" + k + "\" for filter \"" +
                            family_ + "\" (expected one of:";
      for (std::string_view a : allowed) {
        message += ' ';
        message += a;
      }
      message += ')';
      SetError(error, std::move(message));
      return false;
    }
  }
  return true;
}

}  // namespace proteus
