// Dynamic bitset sized at runtime.
//
// Used for Alg. 1's open-vertex mask and IOS down-set states where graphs
// have a few hundred vertices — std::bitset is fixed-size,
// std::vector<bool> is slow for word-wise set algebra.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "util/error.h"

namespace hios {

/// Fixed-capacity (set at construction) bitset with word-level set algebra.
class DynBitset {
 public:
  DynBitset() = default;
  explicit DynBitset(std::size_t bits)
      : bits_(bits), words_((bits + 63) / 64, 0) {}

  std::size_t size() const { return bits_; }

  bool test(std::size_t i) const {
    HIOS_ASSERT(i < bits_, "DynBitset::test out of range: " << i << "/" << bits_);
    return (words_[i >> 6] >> (i & 63)) & 1ULL;
  }

  void set(std::size_t i, bool value = true) {
    HIOS_ASSERT(i < bits_, "DynBitset::set out of range: " << i << "/" << bits_);
    if (value) {
      words_[i >> 6] |= 1ULL << (i & 63);
    } else {
      words_[i >> 6] &= ~(1ULL << (i & 63));
    }
  }

  void reset() { std::fill(words_.begin(), words_.end(), 0); }

  std::size_t count() const {
    std::size_t total = 0;
    for (uint64_t w : words_) total += static_cast<std::size_t>(__builtin_popcountll(w));
    return total;
  }

  bool any() const {
    for (uint64_t w : words_)
      if (w) return true;
    return false;
  }

  bool none() const { return !any(); }

  DynBitset& operator|=(const DynBitset& other) {
    HIOS_ASSERT(bits_ == other.bits_, "DynBitset size mismatch");
    for (std::size_t i = 0; i < words_.size(); ++i) words_[i] |= other.words_[i];
    return *this;
  }

  DynBitset& operator&=(const DynBitset& other) {
    HIOS_ASSERT(bits_ == other.bits_, "DynBitset size mismatch");
    for (std::size_t i = 0; i < words_.size(); ++i) words_[i] &= other.words_[i];
    return *this;
  }

  DynBitset& operator-=(const DynBitset& other) {  // set difference
    HIOS_ASSERT(bits_ == other.bits_, "DynBitset size mismatch");
    for (std::size_t i = 0; i < words_.size(); ++i) words_[i] &= ~other.words_[i];
    return *this;
  }

  friend DynBitset operator|(DynBitset a, const DynBitset& b) { return a |= b; }
  friend DynBitset operator&(DynBitset a, const DynBitset& b) { return a &= b; }

  bool intersects(const DynBitset& other) const {
    HIOS_ASSERT(bits_ == other.bits_, "DynBitset size mismatch");
    for (std::size_t i = 0; i < words_.size(); ++i)
      if (words_[i] & other.words_[i]) return true;
    return false;
  }

  /// True when every bit of `other` is also set in *this.
  bool contains_all(const DynBitset& other) const {
    HIOS_ASSERT(bits_ == other.bits_, "DynBitset size mismatch");
    for (std::size_t i = 0; i < words_.size(); ++i)
      if ((other.words_[i] & ~words_[i]) != 0) return false;
    return true;
  }

  bool operator==(const DynBitset& other) const {
    return bits_ == other.bits_ && words_ == other.words_;
  }

  /// Calls fn(index) for every set bit, ascending.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for_each_from(0, std::forward<Fn>(fn));
  }

  /// Calls fn(index) for every set bit at or above `from`, ascending.
  template <typename Fn>
  void for_each_from(std::size_t from, Fn&& fn) const {
    for (std::size_t w = from >> 6; w < words_.size(); ++w) {
      uint64_t word = words_[w];
      if (w == from >> 6) word &= ~uint64_t{0} << (from & 63);
      while (word) {
        const int bit = __builtin_ctzll(word);
        fn(w * 64 + static_cast<std::size_t>(bit));
        word &= word - 1;
      }
    }
  }

  /// The 64-bit words, bit i of the set at bit i % 64 of word i / 64, for
  /// a loop that keeps a large body in the caller (for_each_from's callback
  /// may not be inlined).
  std::size_t num_words() const { return words_.size(); }
  uint64_t word(std::size_t w) const { return words_[w]; }

  /// Highest set bit below `before`, or size() when there is none.
  std::size_t find_prev(std::size_t before) const {
    const std::size_t b = std::min(before, bits_);
    std::size_t w = b >> 6;
    uint64_t word = w < words_.size() ? words_[w] & ((uint64_t{1} << (b & 63)) - 1) : 0;
    while (true) {
      if (word) return w * 64 + 63 - static_cast<std::size_t>(__builtin_clzll(word));
      if (w == 0) return bits_;
      word = words_[--w];
    }
  }

  /// FNV-1a hash of the words, for unordered_map keys.
  std::size_t hash() const {
    std::size_t h = 1469598103934665603ULL;
    for (uint64_t w : words_) {
      h ^= w;
      h *= 1099511628211ULL;
    }
    return h;
  }

 private:
  std::size_t bits_ = 0;
  std::vector<uint64_t> words_;
};

struct DynBitsetHash {
  std::size_t operator()(const DynBitset& b) const { return b.hash(); }
};

}  // namespace hios
