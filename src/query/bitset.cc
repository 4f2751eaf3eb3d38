#include "query/bitset.h"

namespace featlib {

Bitset Bitset::FromBytes(const uint8_t* bytes, size_t n) {
  Bitset out(n);
  for (size_t i = 0; i < n; ++i) {
    if (bytes[i] != 0) out.Set(i);
  }
  return out;
}

void Bitset::AndWith(const Bitset& other) {
  const size_t n_words = words_.size();
  const uint64_t* rhs = other.words_.data();
  uint64_t* lhs = words_.data();
  for (size_t w = 0; w < n_words; ++w) {
    lhs[w] &= rhs[w];
  }
}

size_t Bitset::Count() const {
  size_t count = 0;
  for (uint64_t w : words_) {
    count += static_cast<size_t>(std::popcount(w));
  }
  return count;
}

}  // namespace featlib
