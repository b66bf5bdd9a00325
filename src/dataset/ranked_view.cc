#include "dataset/ranked_view.h"

#include <algorithm>
#include <bit>
#include <cstring>

namespace skycube {

namespace {

// -0.0 and 0.0 compare equal but hash differently; fold them together so
// the hash-based rank assignment matches value comparison exactly.
inline double CanonicalValue(double v) { return v == 0.0 ? 0.0 : v; }

// splitmix64 finalizer — a fast, well-mixing hash for 64-bit keys.
inline uint64_t MixBits(uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

// A flat linear-probing map from a double's bit pattern to a provisional
// distinct-value id. Allocation-free per element (unlike unordered_map,
// which allocates a node per distinct value), which makes the RankedView
// build cheap enough to sit on the hot path of every Stellar/Skyey call.
// Canonicalized values can never be -0.0, so its bit pattern marks empty
// slots.
class FlatValueMap {
 public:
  // Sized by the number of *distinct* values, growing on demand: repeated
  // values are the common case (the generators truncate decimals), and a
  // small table keeps probes in L1/L2 instead of missing to L3.
  void Clear() {
    if (slots_.size() != kInitialSlots) {
      slots_.assign(kInitialSlots, Slot{kEmpty, 0});
    } else {
      std::fill(slots_.begin(), slots_.end(), Slot{kEmpty, 0});
    }
    mask_ = kInitialSlots - 1;
    count_ = 0;
  }

  /// Returns the id stored for `bits`, inserting `next_id` if absent.
  uint32_t FindOrInsert(uint64_t bits, uint32_t next_id) {
    for (size_t h = MixBits(bits) & mask_;; h = (h + 1) & mask_) {
      if (slots_[h].key == bits) return slots_[h].id;
      if (slots_[h].key == kEmpty) {
        if (2 * (count_ + 1) > slots_.size()) {
          Grow();
          h = MixBits(bits) & mask_;
          while (slots_[h].key != kEmpty) h = (h + 1) & mask_;
        }
        slots_[h] = Slot{bits, next_id};
        ++count_;
        return next_id;
      }
    }
  }

 private:
  static constexpr size_t kInitialSlots = 1024;
  static constexpr uint64_t kEmpty = 0x8000000000000000ULL;  // bits of -0.0
  struct Slot {
    uint64_t key;
    uint32_t id;
  };

  void Grow() {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(old.size() * 2, Slot{kEmpty, 0});
    mask_ = slots_.size() - 1;
    for (const Slot& s : old) {
      if (s.key == kEmpty) continue;
      size_t h = MixBits(s.key) & mask_;
      while (slots_[h].key != kEmpty) h = (h + 1) & mask_;
      slots_[h] = s;
    }
  }

  std::vector<Slot> slots_;
  size_t mask_ = 0;
  size_t count_ = 0;
};

}  // namespace

RankedView::RankedView(const Dataset& data)
    : data_(&data),
      num_dims_(data.num_dims()),
      num_objects_(data.num_objects()),
      ranks_(static_cast<size_t>(num_dims_) * num_objects_),
      num_distinct_(num_dims_, 0) {
  // Per-dimension ranking via hash-distinct + sort-distinct: O(n + k log k)
  // per dimension for k distinct values, far cheaper than argsorting all n
  // rows when values repeat — the paper's synthetic workloads truncate to a
  // few decimals, capping k well below n.
  FlatValueMap id_of;
  std::vector<double> distinct;
  std::vector<uint32_t> perm;       // argsort of `distinct`
  std::vector<uint32_t> rank_of;    // provisional id -> dense rank
  for (int dim = 0; dim < num_dims_; ++dim) {
    id_of.Clear();
    distinct.clear();
    // Pass 1: provisional ids in first-seen order, stored as ranks.
    uint32_t* ranks = ranks_.data() + static_cast<size_t>(dim) * num_objects_;
    for (size_t i = 0; i < num_objects_; ++i) {
      const double v = CanonicalValue(data.Value(i, dim));
      const uint32_t next = static_cast<uint32_t>(distinct.size());
      const uint32_t id = id_of.FindOrInsert(std::bit_cast<uint64_t>(v), next);
      if (id == next) distinct.push_back(v);
      ranks[i] = id;
    }
    // Dense ranks from sorted distinct values: equal values (ties) share a
    // rank, preserving <, ==, > between any two objects exactly.
    const uint32_t k = static_cast<uint32_t>(distinct.size());
    perm.resize(k);
    for (uint32_t r = 0; r < k; ++r) perm[r] = r;
    std::sort(perm.begin(), perm.end(), [&](uint32_t a, uint32_t b) {
      return distinct[a] < distinct[b];
    });
    rank_of.resize(k);
    for (uint32_t r = 0; r < k; ++r) rank_of[perm[r]] = r;
    for (size_t i = 0; i < num_objects_; ++i) ranks[i] = rank_of[ranks[i]];
    num_distinct_[dim] = k;
  }
}

}  // namespace skycube
