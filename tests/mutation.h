#pragma once

/// \file mutation.h
/// \brief The seeded mutation loop of the parser sweeps: random edits of
/// corpus text, reproducible from one seed.
///
/// A sweep draws an input from its corpus and applies 1-4 edits, each an
/// insert, delete or replace at a random position. Inserts and replaces
/// write a token drawn from the sweep's alphabet: single characters for the
/// CSV sweep, characters and whole keywords for the SQL sweep. One
/// `std::mt19937_64` drives every choice, so a failing input reproduces
/// from the seed the sweep prints.
///
/// scripts/ci.sh drives every sweep with the same two variables:
///   FEATLIB_FUZZ_SEED  — sweep seed (default 1)
///   FEATLIB_FUZZ_ITERS — mutated inputs per sweep (default 4000)

#include <cstdint>
#include <cstdlib>
#include <random>
#include <string>
#include <string_view>
#include <vector>

namespace featlib::mutation {

/// The unsigned integer in environment variable `name`, or `fallback` when
/// it is unset.
inline uint64_t EnvU64(const char* name, uint64_t fallback) {
  const char* v = std::getenv(name);
  return v != nullptr ? std::strtoull(v, nullptr, 10) : fallback;
}

inline uint64_t SweepSeed() { return EnvU64("FEATLIB_FUZZ_SEED", 1); }
inline uint64_t SweepIters() { return EnvU64("FEATLIB_FUZZ_ITERS", 4000); }

/// One token per character of `chars`.
inline std::vector<std::string> CharTokens(std::string_view chars) {
  std::vector<std::string> out;
  for (char ch : chars) out.emplace_back(1, ch);
  return out;
}

/// Applies 1-4 random edits to `text`: insert a token at a position, delete
/// one byte, or replace one byte with a token (an insert when `text` is
/// empty).
inline void Mutate(std::string* text, const std::vector<std::string>& tokens,
                   std::mt19937_64& rng) {
  const size_t edits = 1 + rng() % 4;
  for (size_t e = 0; e < edits; ++e) {
    const std::string& token = tokens[rng() % tokens.size()];
    const size_t op = rng() % 3;
    if (op == 0 || text->empty()) {
      text->insert(rng() % (text->size() + 1), token);
    } else if (op == 1) {
      text->erase(rng() % text->size(), 1);
    } else {
      text->replace(rng() % text->size(), 1, token);
    }
  }
}

}  // namespace featlib::mutation
