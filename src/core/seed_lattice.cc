#include "core/seed_lattice.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "common/macros.h"
#include "core/cgroup_miner.h"
#include "core/transversals.h"

namespace skycube {
namespace {

// One c-group's Corollary-1 edges, one copy of each. The scan yields one
// edge per other seed, but an edge is a non-empty mask, so at most
// min(|F(S)| − 1, 2^d − 1) of them are distinct, and ReduceEdges sorts only
// those. Open addressing with linear probing, never more than half full. A
// zero slot is free, which is safe because an empty edge kills its group
// before it would be inserted. Clear() frees only the slots in use.
class EdgeSet {
 public:
  // Room for `max_size` distinct edges.
  explicit EdgeSet(uint64_t max_size) {
    while ((uint64_t{1} << bits_) < 2 * max_size) ++bits_;
    slots_.assign(size_t{1} << bits_, 0);
  }

  void Insert(DimMask edge) {
    SKYCUBE_DCHECK(edge != 0);
    // Fibonacci hashing: the top bits of the product depend on every bit.
    size_t slot =
        static_cast<size_t>((edge * 0x9E3779B97F4A7C15ULL) >> (64 - bits_));
    while (slots_[slot] != 0) {
      if (slots_[slot] == edge) return;
      slot = (slot + 1) & (slots_.size() - 1);
    }
    slots_[slot] = edge;
    used_.push_back(slot);
    edges_.push_back(edge);
  }

  // The distinct edges, in insertion order.
  const std::vector<DimMask>& edges() const { return edges_; }

  void Clear() {
    for (size_t slot : used_) slots_[slot] = 0;
    used_.clear();
    edges_.clear();
  }

 private:
  int bits_ = 1;
  std::vector<DimMask> slots_;
  std::vector<size_t> used_;
  std::vector<DimMask> edges_;
};

}  // namespace

SeedRows::SeedRows(const Dataset& data, const std::vector<ObjectId>& seeds)
    : num_dims_(data.num_dims()),
      num_seeds_(seeds.size()),
      values_(static_cast<size_t>(num_dims_) * num_seeds_) {
  for (size_t j = 0; j < num_seeds_; ++j) {
    const double* row = data.Row(seeds[j]);
    for (int dim = 0; dim < num_dims_; ++dim) {
      values_[static_cast<size_t>(dim) * num_seeds_ + j] = row[dim];
    }
  }
}

void SeedRows::Fill(uint32_t root, std::vector<DimMask>* co,
                    std::vector<DimMask>* dom) const {
  co->assign(num_seeds_, 0);
  dom->assign(num_seeds_, 0);
  DimMask* co_row = co->data();
  DimMask* dom_row = dom->data();
  for (int dim = 0; dim < num_dims_; ++dim) {
    const double* column =
        values_.data() + static_cast<size_t>(dim) * num_seeds_;
    const double value = column[root];
    const DimMask bit = DimBit(dim);
    // Double comparisons, as in Dataset's masks: -0.0 == 0.0 coincide.
    for (size_t j = 0; j < num_seeds_; ++j) {
      co_row[j] |= bit & (DimMask{0} - DimMask{column[j] == value});
      dom_row[j] |= bit & (DimMask{0} - DimMask{value < column[j]});
    }
  }
}

std::vector<DimMask> DecisiveFromEdges(std::vector<DimMask> edges, DimMask b) {
  if (edges.empty()) {
    // No opposing objects: every single dimension of b is decisive.
    std::vector<DimMask> singles;
    ForEachDim(b, [&](int dim) { singles.push_back(DimBit(dim)); });
    return singles;
  }
  return MinimalTransversals(std::move(edges), b);
}

std::vector<SeedSkylineGroup> BuildSeedSkylineGroups(const SeedRows& rows,
                                                     SeedLatticeStats* stats) {
  const size_t n = rows.size();
  std::vector<SeedSkylineGroup> groups;
  uint64_t num_cgroups = 0;
  std::vector<DimMask> co;
  std::vector<DimMask> dom;
  std::vector<char> in_group(n, 0);
  std::vector<MaximalCGroup> cgroups;
  // universe() = 2^d − 1 is also the number of non-empty masks.
  EdgeSet edges(std::min<uint64_t>(n, rows.universe()));
  for (size_t root = 0; root < n; ++root) {
    rows.Fill(static_cast<uint32_t>(root), &co, &dom);
    cgroups.clear();
    MineBranch(static_cast<uint32_t>(root), co, rows.universe(), &cgroups);
    num_cgroups += cgroups.size();
    for (MaximalCGroup& cgroup : cgroups) {
      // Corollary 1 on the root's dominance row: the root is a member (its
      // smallest), and any member can stand for the group because members
      // coincide on B.
      for (uint32_t member : cgroup.member_indices) in_group[member] = 1;
      edges.Clear();
      bool dead = false;
      for (uint32_t w = 0; w < n; ++w) {
        if (in_group[w]) continue;
        const DimMask edge = dom[w] & cgroup.subspace;
        if (edge == 0) {
          // Seed w dominates-or-ties the group's projection in B: G_B is
          // not in the skyline of B, so (G, B) is not a skyline group.
          dead = true;
          break;
        }
        edges.Insert(edge);
      }
      for (uint32_t member : cgroup.member_indices) in_group[member] = 0;
      if (dead) continue;
      SeedSkylineGroup group;
      group.seed_indices = std::move(cgroup.member_indices);
      group.max_subspace = cgroup.subspace;
      group.reduced_edges = ReduceEdges(edges.edges());
      // reduced_edges is non-empty unless the group faces no other seed; in
      // both cases DecisiveFromEdges yields a non-empty decisive list.
      group.decisive =
          DecisiveFromEdges(group.reduced_edges, group.max_subspace);
      groups.push_back(std::move(group));
    }
  }
  if (stats != nullptr) {
    stats->num_maximal_cgroups = num_cgroups;
    stats->num_seed_skyline_groups = groups.size();
  }
  return groups;
}

}  // namespace skycube
