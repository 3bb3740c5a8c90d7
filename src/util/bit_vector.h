// A growable, packed bit vector with LSB-first addressing inside words.
//
// This is the raw storage backing the rank/select structures and the LOUDS
// encodings. Unlike bits.h (which uses MSB-first key semantics), BitVector
// uses the conventional LSB-first layout: bit i lives in word i/64 at
// position i%64. Rank/select results are unaffected by the choice as long
// as it is consistent, and LSB-first keeps the hot paths branch-free.

#ifndef PROTEUS_UTIL_BIT_VECTOR_H_
#define PROTEUS_UTIL_BIT_VECTOR_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

namespace proteus {

class BitVector {
 public:
  BitVector() = default;
  explicit BitVector(uint64_t n_bits, bool value = false)
      : n_bits_(n_bits),
        words_((n_bits + 63) / 64, value ? ~uint64_t{0} : uint64_t{0}) {
    TrimLastWord();
  }

  uint64_t size() const { return n_bits_; }
  bool empty() const { return n_bits_ == 0; }

  bool Get(uint64_t i) const { return (words_[i >> 6] >> (i & 63)) & 1; }

  void Set(uint64_t i, bool v = true) {
    uint64_t mask = uint64_t{1} << (i & 63);
    if (v) {
      words_[i >> 6] |= mask;
    } else {
      words_[i >> 6] &= ~mask;
    }
  }

  /// Appends one bit at the end.
  void PushBack(bool v) {
    if ((n_bits_ & 63) == 0) words_.push_back(0);
    if (v) words_.back() |= uint64_t{1} << (n_bits_ & 63);
    ++n_bits_;
  }

  /// Appends the low `len` bits of `bits`, lowest bit first.
  void PushBits(uint64_t bits, int len) {
    for (int i = 0; i < len; ++i) PushBack((bits >> i) & 1);
  }

  /// Total set bits; O(words).
  uint64_t CountOnes() const {
    uint64_t c = 0;
    for (uint64_t w : words_) c += static_cast<uint64_t>(__builtin_popcountll(w));
    return c;
  }

  /// First set bit in [from, limit), or `limit` if none. O(words scanned).
  uint64_t NextSetBit(uint64_t from, uint64_t limit) const {
    if (from >= limit) return limit;
    uint64_t w = from >> 6;
    uint64_t word = words_[w] & (~uint64_t{0} << (from & 63));
    for (;;) {
      if (word != 0) {
        uint64_t pos = w * 64 +
                       static_cast<uint64_t>(__builtin_ctzll(word));
        return pos < limit ? pos : limit;
      }
      if (++w >= words_.size() || w * 64 >= limit) return limit;
      word = words_[w];
    }
  }

  /// Bits [pos, pos + len) as one word, LSB-first (bit `pos` at bit 0).
  /// len <= 64 and pos + len <= size(). At most two word reads.
  uint64_t GetBits(uint64_t pos, uint32_t len) const {
    const uint64_t w = pos >> 6;
    const uint32_t off = static_cast<uint32_t>(pos & 63);
    uint64_t out = words_[w] >> off;
    if (off + len > 64) out |= words_[w + 1] << (64 - off);
    if (len < 64) out &= (uint64_t{1} << len) - 1;
    return out;
  }

  const uint64_t* words() const { return words_.data(); }
  uint64_t num_words() const { return words_.size(); }

  /// Word i, with bits past size() guaranteed zero.
  uint64_t word(uint64_t i) const { return words_[i]; }

  /// Memory footprint of the raw bits, in bits (excludes rank/select).
  uint64_t SizeBits() const { return words_.size() * 64; }

  bool operator==(const BitVector& o) const {
    return n_bits_ == o.n_bits_ && words_ == o.words_;
  }

  /// Serialization: u64 bit count followed by the raw words.
  void AppendTo(std::string* out) const {
    char buf[8];
    std::memcpy(buf, &n_bits_, 8);
    out->append(buf, 8);
    out->append(reinterpret_cast<const char*>(words_.data()),
                words_.size() * sizeof(uint64_t));
  }

  static bool ParseFrom(std::string_view* in, BitVector* out) {
    if (in->size() < 8) return false;
    uint64_t n_bits;
    std::memcpy(&n_bits, in->data(), 8);
    // Guard against corrupt bit counts before sizing anything: the words
    // must fit in the remaining input (this also prevents the
    // (n_bits + 63) overflow wrapping n_words to 0).
    if (n_bits > (in->size() - 8) * 8) return false;
    uint64_t n_words = (n_bits + 63) / 64;
    if (in->size() < 8 + n_words * 8) return false;
    out->n_bits_ = n_bits;
    out->words_.resize(n_words);
    if (n_words > 0) {
      std::memcpy(out->words_.data(), in->data() + 8, n_words * 8);
    }
    // Re-establish the word() invariant (bits past size() are zero) even
    // for corrupt input — the rank index popcounts raw words and would
    // otherwise absorb phantom ones into its directory.
    out->TrimLastWord();
    in->remove_prefix(8 + n_words * 8);
    return true;
  }

 private:
  void TrimLastWord() {
    if (n_bits_ & 63) {
      words_.back() &= (uint64_t{1} << (n_bits_ & 63)) - 1;
    }
  }

  uint64_t n_bits_ = 0;
  std::vector<uint64_t> words_;
};

}  // namespace proteus

#endif  // PROTEUS_UTIL_BIT_VECTOR_H_
