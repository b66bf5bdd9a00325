// Hashing utilities: combinators and hashing of value projections.
#ifndef SKYCUBE_COMMON_HASH_H_
#define SKYCUBE_COMMON_HASH_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <string_view>
#include <vector>

namespace skycube {

/// FNV-1a 64-bit over a byte range. Not cryptographic, but every operation
/// (xor byte, multiply by an odd prime) is a bijection of the state, so any
/// single corrupted byte — truncation aside — is guaranteed to change the
/// digest; truncation changes the byte count and is caught just as
/// reliably. Used by the cube file format (v2), the WAL record format and
/// the checkpoint format. Passing the digest of a prefix as `hash`
/// continues the stream: Fnv1a64(b, Fnv1a64(a)) == Fnv1a64(a + b).
inline uint64_t Fnv1a64(std::string_view bytes,
                        uint64_t hash = 1469598103934665603ull) {
  for (unsigned char c : bytes) {
    hash ^= c;
    hash *= 1099511628211ull;
  }
  return hash;
}

/// Mixes `value` into `seed` (boost::hash_combine-style with a 64-bit
/// multiplier).
inline uint64_t HashCombine(uint64_t seed, uint64_t value) {
  // Multiplier from splitmix64's finalizer.
  value *= 0xBF58476D1CE4E5B9ULL;
  value ^= value >> 31;
  seed ^= value + 0x9E3779B97F4A7C15ULL + (seed << 6) + (seed >> 2);
  return seed;
}

/// Hashes a double by its bit pattern. Canonicalizes -0.0 to +0.0 so that
/// values comparing equal hash equal.
inline uint64_t HashDouble(double d) {
  if (d == 0.0) d = 0.0;  // normalizes -0.0
  uint64_t bits;
  std::memcpy(&bits, &d, sizeof(bits));
  return bits;
}

/// Hash functor for std::vector<double> keys (value projections).
struct VectorDoubleHash {
  size_t operator()(const std::vector<double>& values) const {
    uint64_t h = 0x9E3779B97F4A7C15ULL ^ values.size();
    for (double value : values) h = HashCombine(h, HashDouble(value));
    return static_cast<size_t>(h);
  }
};

/// Hash functor for std::vector<uint32_t> keys (object-id sets).
struct VectorU32Hash {
  size_t operator()(const std::vector<uint32_t>& ids) const {
    uint64_t h = 0xA24BAED4963EE407ULL ^ ids.size();
    for (uint32_t id : ids) h = HashCombine(h, id);
    return static_cast<size_t>(h);
  }
};

}  // namespace skycube

#endif  // SKYCUBE_COMMON_HASH_H_
