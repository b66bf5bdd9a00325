#include "core/cgroup_miner.h"

#include <algorithm>
#include <map>
#include <utility>
#include <vector>

#include "common/macros.h"

namespace skycube {

namespace {

// State of one set-enumeration node. `pool` holds every object (any order
// position) still coinciding with the branch root on part of B — the set the
// closure test must scan; `candidates` ⊆ pool holds the objects allowed as
// future extensions (ordered after every chosen object).
struct Frame {
  std::vector<uint32_t> group;       // ascending
  std::vector<uint32_t> pool;        // ascending
  std::vector<uint32_t> candidates;  // ascending
  DimMask subspace = 0;
};

class Miner {
 public:
  Miner(uint32_t root, const std::vector<DimMask>& coincidence,
        std::vector<MaximalCGroup>* out)
      : root_(root), co_(coincidence), out_(out) {}

  void Run(DimMask universe) {
    const size_t n = co_.size();
    Frame frame;
    frame.group = {root_};
    frame.subspace = universe;
    frame.pool.reserve(n - 1);
    frame.candidates.reserve(n - root_ - 1);
    for (uint32_t o = 0; o < n; ++o) {
      if (o == root_) continue;
      if ((co_[o] & frame.subspace) != 0) {
        frame.pool.push_back(o);
        if (o > root_) frame.candidates.push_back(o);
      }
    }
    Search(std::move(frame));
  }

 private:
  void Search(Frame frame) {
    // Closure: absorb every pool object sharing the whole of B.
    std::vector<uint32_t> closure;
    for (uint32_t o : frame.pool) {
      if (IsSubsetOf(frame.subspace, co_[o])) closure.push_back(o);
    }
    // Prune if the closure reaches outside the candidate set: the closed
    // group's smallest generating path runs through another branch.
    if (!std::includes(frame.candidates.begin(), frame.candidates.end(),
                       closure.begin(), closure.end())) {
      return;
    }
    if (!closure.empty()) {
      std::vector<uint32_t> merged;
      merged.reserve(frame.group.size() + closure.size());
      std::merge(frame.group.begin(), frame.group.end(), closure.begin(),
                 closure.end(), std::back_inserter(merged));
      frame.group = std::move(merged);
      EraseSorted(&frame.pool, closure);
      EraseSorted(&frame.candidates, closure);
    }
    out_->push_back({frame.group, frame.subspace});

    for (size_t j = 0; j < frame.candidates.size(); ++j) {
      const uint32_t added = frame.candidates[j];
      const DimMask child_subspace = co_[added] & frame.subspace;
      if (child_subspace == 0) continue;
      Frame child;
      child.subspace = child_subspace;
      child.group.reserve(frame.group.size() + 1);
      child.group = frame.group;
      child.group.insert(
          std::upper_bound(child.group.begin(), child.group.end(), added),
          added);
      for (uint32_t o : frame.pool) {
        if (o == added) continue;
        if ((co_[o] & child_subspace) != 0) child.pool.push_back(o);
      }
      for (size_t k = j + 1; k < frame.candidates.size(); ++k) {
        const uint32_t o = frame.candidates[k];
        if ((co_[o] & child_subspace) != 0) child.candidates.push_back(o);
      }
      Search(std::move(child));
    }
  }

  static void EraseSorted(std::vector<uint32_t>* from,
                          const std::vector<uint32_t>& remove) {
    std::vector<uint32_t> kept;
    kept.reserve(from->size());
    std::set_difference(from->begin(), from->end(), remove.begin(),
                        remove.end(), std::back_inserter(kept));
    *from = std::move(kept);
  }

  const uint32_t root_;
  const std::vector<DimMask>& co_;  // co(root_, ·)
  std::vector<MaximalCGroup>* out_;
};

}  // namespace

void MineBranch(uint32_t root, const std::vector<DimMask>& coincidence,
                DimMask universe, std::vector<MaximalCGroup>* out) {
  Miner(root, coincidence, out).Run(universe);
}

std::vector<MaximalCGroup> MineMaximalCGroupsBruteForce(
    const Dataset& data, const std::vector<ObjectId>& seeds) {
  const size_t n = seeds.size();
  SKYCUBE_CHECK_MSG(n <= 20, "brute-force miner is exponential; n ≤ 20 only");
  const DimMask universe = data.full_mask();
  auto co = [&](uint32_t a, uint32_t b) {
    return data.CoincidenceMask(seeds[a], seeds[b], universe);
  };
  // For every non-empty subset, compute its shared mask; a subset is a
  // maximal c-group iff its shared mask is non-empty and both closure
  // directions are fixed points. Deduplicate via (closure of the subset).
  std::map<std::vector<uint32_t>, DimMask> closed;
  for (uint64_t bits = 1; bits < (uint64_t{1} << n); ++bits) {
    std::vector<uint32_t> subset;
    for (uint32_t i = 0; i < n; ++i) {
      if ((bits >> i) & 1) subset.push_back(i);
    }
    // Shared mask of the subset (pairwise coincidence against the first).
    DimMask shared = universe;
    for (uint32_t member : subset) shared &= co(subset.front(), member);
    if (shared == 0) continue;
    // Object closure: everything coinciding on the whole shared mask.
    std::vector<uint32_t> closure;
    for (uint32_t o = 0; o < n; ++o) {
      if (IsSubsetOf(shared, co(subset.front(), o))) closure.push_back(o);
    }
    // Recompute the shared mask of the closure (it can only stay equal:
    // absorbed objects contain `shared`, but be defensive).
    DimMask closed_mask = universe;
    for (uint32_t member : closure) closed_mask &= co(closure.front(), member);
    closed.emplace(std::move(closure), closed_mask);
  }
  std::vector<MaximalCGroup> out;
  out.reserve(closed.size());
  for (auto& [members, mask] : closed) {
    out.push_back({members, mask});
  }
  return out;
}

}  // namespace skycube
