#include "rosetta/rosetta.h"

#include <algorithm>
#include <cmath>

#include "core/filter_builder.h"
#include "model/cpfpr.h"
#include "util/bits.h"
#include "util/serial.h"

namespace proteus {
namespace {

// Allocation profiles: weight of level (64 - d) is proportional to
// decay^d. decay = 1 is uniform; small decay concentrates memory at the
// leaf level, the regime the original paper found optimal.
constexpr double kDecays[] = {1.0, 0.5, 0.25, 0.1, 0.02};

std::vector<double> ProfileWeights(uint32_t min_level, double decay) {
  std::vector<double> w(64 - min_level + 1);
  for (uint32_t l = min_level; l <= 64; ++l) {
    w[l - min_level] = std::pow(decay, static_cast<double>(64 - l));
  }
  return w;
}

// f[l] = probability that an *empty* node at level l leads the doubting
// descent to a leaf-level positive.
std::vector<double> EmptyNodeFp(uint32_t min_level,
                                const std::vector<double>& level_fpr) {
  std::vector<double> f(65, 0.0);
  f[64] = level_fpr[64 - min_level];
  for (int l = 63; l >= static_cast<int>(min_level); --l) {
    double child = f[l + 1];
    double reach = 1.0 - (1.0 - child) * (1.0 - child);
    f[l] = level_fpr[l - min_level] * reach;
  }
  return f;
}

}  // namespace

std::unique_ptr<RosettaFilter> RosettaFilter::BuildFromSpec(
    const FilterSpec& spec, FilterBuilder& builder, std::string* error) {
  if (!spec.ExpectKeys({"bpk"}, error)) return nullptr;
  double bpk;
  if (!spec.GetDouble("bpk", 12.0, &bpk, error)) return nullptr;
  if (bpk <= 0.0) {
    if (error != nullptr) *error = "rosetta bpk must be positive";
    return nullptr;
  }
  if (builder.samples().empty()) {
    // No workload signal: configure for point queries on the key set.
    std::vector<RangeQuery> point = {
        {builder.keys().empty() ? 0 : builder.keys().front(),
         builder.keys().empty() ? 0 : builder.keys().front()}};
    return BuildSelfConfigured(builder.keys(), point, bpk);
  }
  return BuildSelfConfigured(builder.keys(), builder.samples(), bpk);
}

std::unique_ptr<RosettaFilter> RosettaFilter::BuildSelfConfigured(
    const std::vector<uint64_t>& sorted_keys,
    const std::vector<RangeQuery>& sample_queries, double bits_per_key) {
  // Deepest level needed: ranges up to R require levels from
  // 64 - ceil(log2(R)).
  uint64_t max_range = 1;
  for (const RangeQuery& q : sample_queries) {
    max_range = std::max(max_range, q.hi - q.lo + 1);
  }
  uint32_t range_bits = 0;
  while ((uint64_t{1} << range_bits) < max_range && range_bits < 63) {
    ++range_bits;
  }
  uint32_t min_level = 64 - range_bits;

  // Per-query stats for the profile estimator.
  struct Rec {
    uint64_t lo, hi;
    uint32_t lcp_left, lcp_right;
  };
  std::vector<Rec> recs;
  recs.reserve(sample_queries.size());
  for (const RangeQuery& q : sample_queries) {
    auto succ = std::lower_bound(sorted_keys.begin(), sorted_keys.end(), q.lo);
    Rec r{q.lo, q.hi, 0, 0};
    if (succ != sorted_keys.begin()) r.lcp_left = LcpBits64(*(succ - 1), q.lo);
    if (succ != sorted_keys.end()) r.lcp_right = LcpBits64(*succ, q.hi);
    recs.push_back(r);
  }
  std::vector<uint64_t> k_counts = CountUniquePrefixesAll(sorted_keys);
  const uint64_t budget = static_cast<uint64_t>(
      bits_per_key * static_cast<double>(sorted_keys.size()));

  double best_fpr = 2.0;
  std::vector<double> best_weights;
  for (double decay : kDecays) {
    std::vector<double> weights = ProfileWeights(min_level, decay);
    double total_w = 0;
    for (double w : weights) total_w += w;
    std::vector<double> level_fpr(weights.size());
    for (uint32_t l = min_level; l <= 64; ++l) {
      uint64_t m = static_cast<uint64_t>(static_cast<double>(budget) *
                                         weights[l - min_level] / total_w);
      level_fpr[l - min_level] = CpfprModel::BloomFpr(m, k_counts[l]);
    }
    std::vector<double> f = EmptyNodeFp(min_level, level_fpr);

    double fp_sum = 0;
    for (const Rec& r : recs) {
      uint32_t lcp = std::max(r.lcp_left, r.lcp_right);
      if (lcp >= 64) {
        fp_sum += 1.0;
        continue;
      }
      double p_neg = 1.0;
      uint64_t n_top = PrefixCountInRange64(r.lo, r.hi, min_level);
      // Interior top-level nodes are empty.
      double interior = static_cast<double>(n_top >= 2 ? n_top - 2 : 0);
      p_neg *= std::exp(interior * std::log1p(-f[min_level]));
      // End chains: anchored while the end shares a prefix with the key
      // set; each anchored level spills at most one empty sibling child.
      auto chain = [&](uint32_t end_lcp) {
        if (end_lcp < min_level) {
          p_neg *= 1.0 - f[min_level];
          return;
        }
        for (uint32_t l = min_level; l <= std::min(end_lcp, 63u); ++l) {
          p_neg *= 1.0 - f[l + 1];
        }
      };
      chain(r.lcp_left);
      if (n_top >= 2) chain(r.lcp_right);
      fp_sum += 1.0 - p_neg;
    }
    double fpr = recs.empty() ? 0.0 : fp_sum / static_cast<double>(recs.size());
    if (fpr < best_fpr) {
      best_fpr = fpr;
      best_weights = std::move(weights);
    }
  }

  Config config;
  config.min_level = min_level;
  config.level_weights = std::move(best_weights);
  return BuildWithConfig(sorted_keys, config, bits_per_key);
}

std::unique_ptr<RosettaFilter> RosettaFilter::BuildWithConfig(
    const std::vector<uint64_t>& sorted_keys, const Config& config,
    double bits_per_key) {
  auto filter = std::unique_ptr<RosettaFilter>(new RosettaFilter());
  filter->min_level_ = config.min_level;
  const uint64_t budget = static_cast<uint64_t>(
      bits_per_key * static_cast<double>(sorted_keys.size()));
  double total_w = 0;
  for (double w : config.level_weights) total_w += w;
  filter->filters_.resize(65 - config.min_level);
  for (uint32_t l = config.min_level; l <= 64; ++l) {
    double w = config.level_weights[l - config.min_level];
    uint64_t m =
        static_cast<uint64_t>(static_cast<double>(budget) * w / total_w);
    if (m < 64) continue;  // level left unfiltered
    filter->filters_[l - config.min_level] = PrefixBloom(sorted_keys, m, l);
  }
  return filter;
}

bool RosettaFilter::ProbeLevel(uint32_t level, uint64_t prefix) const {
  const PrefixBloom& pb = filters_[level - min_level_];
  if (pb.SizeBits() == 0) return true;  // unfiltered level: keep doubting
  ++probes_;
  return pb.ProbePrefix(prefix);
}

bool RosettaFilter::CheckNode(uint32_t level, uint64_t prefix, uint64_t lo,
                              uint64_t hi) const {
  if (probes_ > kProbeLimit) return true;  // conservative budget stop
  if (!ProbeLevel(level, prefix)) return false;
  if (level == 64) return true;  // leaf-level positive confirms
  // Descend into the children intersecting [lo, hi].
  uint64_t child0 = prefix << 1;
  for (uint64_t child : {child0, child0 | 1}) {
    uint64_t clo = PrefixRangeLo64(child, level + 1);
    uint64_t chi = PrefixRangeHi64(child, level + 1);
    if (chi < lo || clo > hi) continue;
    if (CheckNode(level + 1, child, lo, hi)) return true;
  }
  return false;
}

bool RosettaFilter::MayContainBfs(uint64_t first, uint64_t last, uint64_t lo,
                                  uint64_t hi) const {
  std::vector<uint64_t> frontier;
  frontier.reserve(static_cast<size_t>(last - first) + 1);
  for (uint64_t p = first;; ++p) {
    frontier.push_back(p);
    if (p == last) break;
  }
  std::vector<uint64_t> next;
  std::vector<uint8_t> res;
  for (uint32_t level = min_level_;; ++level) {
    const PrefixBloom& pb = filters_[level - min_level_];
    if (pb.SizeBits() != 0) {
      probes_ += frontier.size();
      if (probes_ > kProbeLimit) return true;  // conservative budget stop
      res.resize(frontier.size());
      pb.MultiProbePrefix(frontier.data(), frontier.size(), res.data());
      size_t kept = 0;
      for (size_t i = 0; i < frontier.size(); ++i) {
        if (res[i] != 0) frontier[kept++] = frontier[i];
      }
      frontier.resize(kept);
    }  // unfiltered level: every node survives, no probes
    if (level == 64) return !frontier.empty();  // leaf positives confirm
    next.clear();
    for (uint64_t prefix : frontier) {
      const uint64_t child0 = prefix << 1;
      for (uint64_t child : {child0, child0 | 1}) {
        const uint64_t clo = PrefixRangeLo64(child, level + 1);
        const uint64_t chi = PrefixRangeHi64(child, level + 1);
        if (chi < lo || clo > hi) continue;
        next.push_back(child);
      }
    }
    if (next.empty()) return false;
    if (next.size() > kMaxFrontier) {
      // Pathological survivor growth: finish the live subtrees with the
      // recursive descent instead of materializing an ever-wider level.
      for (uint64_t child : next) {
        if (CheckNode(level + 1, child, lo, hi)) return true;
      }
      return false;
    }
    frontier.swap(next);
  }
}

bool RosettaFilter::MayContain(uint64_t lo, uint64_t hi) const {
  probes_ = 0;
  uint64_t first = PrefixBits64(lo, min_level_);
  uint64_t last = PrefixBits64(hi, min_level_);
  if (last - first + 1 > kProbeLimit) return true;
  // Dense top spans (the expensive queries) batch each level's probes
  // through the multi-query kernel; sparse spans keep the depth-first
  // doubting descent, which short-circuits on the first confirmed leaf.
  if (last - first >= kBatchSpanMin - 1 &&
      last - first < static_cast<uint64_t>(kMaxFrontier)) {
    return MayContainBfs(first, last, lo, hi);
  }
  for (uint64_t p = first;; ++p) {
    if (CheckNode(min_level_, p, lo, hi)) return true;
    if (p == last) break;
  }
  return false;
}

uint64_t RosettaFilter::SizeBits() const {
  uint64_t total = 0;
  for (const PrefixBloom& pb : filters_) total += pb.SizeBits();
  return total;
}

void RosettaFilter::SerializePayload(std::string* out) const {
  PutFixed32(out, min_level_);
  PutFixed32(out, static_cast<uint32_t>(filters_.size()));
  for (const PrefixBloom& pb : filters_) pb.AppendTo(out);
}

std::unique_ptr<RosettaFilter> RosettaFilter::DeserializePayload(
    std::string_view* in) {
  auto filter = std::unique_ptr<RosettaFilter>(new RosettaFilter());
  uint32_t n_filters;
  if (!GetFixed32(in, &filter->min_level_) || !GetFixed32(in, &n_filters)) {
    return nullptr;
  }
  if (filter->min_level_ > 64 || n_filters != 65 - filter->min_level_) {
    return nullptr;
  }
  filter->filters_.resize(n_filters);
  for (PrefixBloom& pb : filter->filters_) {
    if (!PrefixBloom::ParseFrom(in, &pb)) return nullptr;
  }
  return filter;
}

}  // namespace proteus
