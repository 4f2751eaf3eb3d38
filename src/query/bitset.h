#pragma once

/// \file bitset.h
/// \brief 64-bit word-packed selection bitset for predicate masks.
///
/// The candidate-evaluation hot loop ANDs WHERE-predicate selection masks and
/// then streams the selected rows into per-group accumulators. A byte-per-row
/// mask pays one load + branch per row for both steps; packing 64 rows per
/// word turns the AND into a trivially auto-vectorized word loop, selectivity
/// counting into per-word popcount, and selected-row iteration into a word
/// scan that skips 64 non-matching rows per load (`countr_zero` + clear
/// lowest set bit).
///
/// Invariant: bits at positions >= size() (the tail of the last word) are
/// always zero, so Count() and ForEachSetBit() never need tail masking.

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace featlib {

class Bitset {
 public:
  Bitset() = default;

  /// All-zero bitset over `n_bits` rows.
  explicit Bitset(size_t n_bits)
      : n_bits_(n_bits), words_((n_bits + 63) / 64, 0) {}

  /// Packs a byte-per-row mask (bit set iff the byte is non-zero).
  static Bitset FromBytes(const uint8_t* bytes, size_t n);

  /// Number of rows covered (bits, not words).
  size_t size() const { return n_bits_; }
  size_t num_words() const { return words_.size(); }
  /// Heap footprint of the packed words (cache byte accounting).
  size_t SizeBytes() const { return words_.size() * sizeof(uint64_t); }
  const uint64_t* words() const { return words_.data(); }

  /// Mutable word access for bulk writers (the vectorized predicate-mask
  /// builder fills whole words via compare+movemask). Writers must preserve
  /// the tail-zero invariant — call ClearTail() after writing the last word.
  uint64_t* mutable_words() { return words_.data(); }
  /// Zeroes the bits at positions >= size() in the last word, restoring the
  /// tail invariant after bulk word writes.
  void ClearTail() {
    if (!words_.empty() && (n_bits_ & 63) != 0) {
      words_.back() &= (uint64_t{1} << (n_bits_ & 63)) - 1;
    }
  }

  void Set(size_t i) { words_[i >> 6] |= uint64_t{1} << (i & 63); }
  bool Test(size_t i) const {
    return (words_[i >> 6] >> (i & 63)) & uint64_t{1};
  }

  /// this &= other. Sizes must match; the tail-zero invariant is preserved
  /// (AND can only clear bits).
  void AndWith(const Bitset& other);

  /// Number of set bits (per-word popcount).
  size_t Count() const;

  /// Invokes `fn(row)` for every set bit in ascending row order — the same
  /// order a byte-per-row scan visits, which the bit-identity guarantee of
  /// the executor depends on.
  template <typename Fn>
  void ForEachSetBit(Fn&& fn) const {
    ForEachSetBitIn(0, n_bits_, fn);
  }

  /// ForEachSetBit restricted to rows [begin, end): the edge words are
  /// masked, so a range may start and end anywhere inside a word.
  template <typename Fn>
  void ForEachSetBitIn(size_t begin, size_t end, Fn&& fn) const {
    if (begin >= end) return;
    const size_t w_begin = begin >> 6;
    const size_t w_end = (end + 63) >> 6;
    for (size_t w = w_begin; w < w_end; ++w) {
      uint64_t bits = words_[w];
      if (w == w_begin) bits &= ~uint64_t{0} << (begin & 63);
      if (w + 1 == w_end && (end & 63) != 0) {
        bits &= (uint64_t{1} << (end & 63)) - 1;
      }
      const size_t base = w << 6;
      while (bits != 0) {
        fn(base + static_cast<size_t>(std::countr_zero(bits)));
        bits &= bits - 1;  // clear lowest set bit
      }
    }
  }

 private:
  size_t n_bits_ = 0;
  std::vector<uint64_t> words_;
};

}  // namespace featlib
