#include "core/seed_lattice.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "common/parallel.h"
#include "core/cgroup_miner.h"
#include "core/transversals.h"

namespace skycube {

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
                                                     SeedLatticeStats* stats,
                                                     int num_threads) {
  const size_t n = rows.size();
  // Contiguous root ranges per chunk, concatenated in chunk order: the
  // groups come out in root order whatever the thread count.
  const int threads = EffectiveThreads(num_threads, n);
  std::vector<std::vector<SeedSkylineGroup>> chunk_groups(threads);
  std::vector<uint64_t> chunk_cgroups(threads, 0);
  ParallelChunks(n, threads, [&](int chunk, size_t begin, size_t end) {
    std::vector<DimMask> co;
    std::vector<DimMask> dom;
    std::vector<char> in_group(n, 0);
    std::vector<MaximalCGroup> cgroups;
    std::vector<DimMask> edges;
    for (size_t root = begin; root < end; ++root) {
      rows.Fill(static_cast<uint32_t>(root), &co, &dom);
      cgroups.clear();
      MineBranch(static_cast<uint32_t>(root), co, rows.universe(), &cgroups);
      chunk_cgroups[chunk] += cgroups.size();
      for (MaximalCGroup& cgroup : cgroups) {
        // Corollary 1 on the root's dominance row: the root is a member
        // (its smallest), and any member can stand for the group because
        // members coincide on B.
        for (uint32_t member : cgroup.member_indices) in_group[member] = 1;
        edges.clear();
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
          edges.push_back(edge);
        }
        for (uint32_t member : cgroup.member_indices) in_group[member] = 0;
        if (dead) continue;
        SeedSkylineGroup group;
        group.seed_indices = std::move(cgroup.member_indices);
        group.max_subspace = cgroup.subspace;
        group.reduced_edges = ReduceEdges(edges);
        // reduced_edges is non-empty unless the group faces no other seed;
        // in both cases DecisiveFromEdges yields a non-empty decisive list.
        group.decisive =
            DecisiveFromEdges(group.reduced_edges, group.max_subspace);
        chunk_groups[chunk].push_back(std::move(group));
      }
    }
  });
  std::vector<SeedSkylineGroup> groups;
  uint64_t num_cgroups = 0;
  for (int chunk = 0; chunk < threads; ++chunk) {
    num_cgroups += chunk_cgroups[chunk];
    for (SeedSkylineGroup& group : chunk_groups[chunk]) {
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
