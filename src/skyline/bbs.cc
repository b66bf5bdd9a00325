// BBS — branch-and-bound skyline (Papadias, Tao, Fu, Seeger, "An optimal
// and progressive algorithm for skyline queries", SIGMOD 2003) — the
// paper's reference [7], itself an improvement of the nearest-neighbor
// method of Kossmann et al. [6].
//
// The algorithm searches an R-tree best-first by *mindist* (the coordinate
// sum of a node's lower corner / a point): a priority queue pops entries
// in ascending mindist (ties: nodes first, then points lexicographically);
// an entry strictly dominated (at its lower corner) by an already-found
// skyline point is discarded — every point inside such a node is strictly
// dominated too; surviving leaf points are skyline.
// I/O-optimality is the original's claim; in this in-memory setting BBS's
// value is touching only the dominance-relevant corner of the tree.
//
// The R-tree is built per call over the candidate projections with
// Sort-Tile-Recursive (STR) bulk loading, cycling the tiling dimension
// through the queried subspace.
//
// Tie handling: dominance is strict, so a node whose lower corner merely
// *equals* a skyline point is not pruned (it may hold equal — hence
// skyline — points); if a point s strictly beats the lower corner
// somewhere and is ≤ elsewhere, then s strictly dominates every point in
// the box.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <queue>
#include <vector>

#include "common/macros.h"
#include "skyline/algorithms.h"
#include "skyline/dominance.h"

namespace skycube {

namespace {

constexpr size_t kLeafCapacity = 32;
constexpr size_t kFanout = 16;

// Node of the bulk-loaded tree over projected points. Children are index
// ranges into the node array; leaves hold ranges of point indices.
struct Node {
  std::vector<double> lower;  // per subspace-dimension minimum
  double mindist = 0;
  uint32_t first = 0;  // first child node / first point index
  uint32_t count = 0;  // number of children / points
  bool leaf = false;
};

struct Entry {
  double mindist;
  uint32_t index;  // node index, or point index when is_point
  bool is_point;
};

class BbsTree {
 public:
  BbsTree(const Dataset& data, DimMask subspace,
          const std::vector<ObjectId>& candidates)
      : dims_(MaskDims(subspace)) {
    const size_t n = candidates.size();
    points_.resize(n);
    ids_.resize(n);
    std::vector<uint32_t> order(n);
    for (size_t i = 0; i < n; ++i) {
      order[i] = static_cast<uint32_t>(i);
      ids_[i] = candidates[i];
      const double* row = data.Row(candidates[i]);
      points_[i].reserve(dims_.size());
      for (int dim : dims_) points_[i].push_back(row[dim]);
    }
    // STR tiling permutes `order`; leaves then take consecutive runs.
    Tile(order.data(), n, /*dim_index=*/0);
    permuted_ids_.reserve(n);
    permuted_points_.reserve(n);
    for (uint32_t index : order) {
      permuted_ids_.push_back(ids_[index]);
      permuted_points_.push_back(std::move(points_[index]));
    }
    BuildNodes();
  }

  /// Runs the best-first search; returns skyline ids (unsorted).
  std::vector<ObjectId> Run() {
    std::vector<ObjectId> skyline;
    if (nodes_.empty()) return skyline;
    std::vector<const double*> skyline_points;
    const auto pops_after = [this](const Entry& a, const Entry& b) {
      return PopsAfter(a, b);
    };
    std::priority_queue<Entry, std::vector<Entry>, decltype(pops_after)> heap(
        pops_after);
    heap.push({nodes_.back().mindist,
               static_cast<uint32_t>(nodes_.size() - 1), false});
    while (!heap.empty()) {
      const Entry entry = heap.top();
      heap.pop();
      if (entry.is_point) {
        // A point pops only after all of its potential dominators and the
        // nodes that hold them (PopsAfter).
        const double* point = permuted_points_[entry.index].data();
        if (!DominatedBySkyline(skyline_points, point)) {
          skyline.push_back(permuted_ids_[entry.index]);
          skyline_points.push_back(point);
        }
        continue;
      }
      const Node& node = nodes_[entry.index];
      if (DominatedBySkyline(skyline_points, node.lower.data())) continue;
      if (node.leaf) {
        // Expand leaf points back into the queue (emitting them here would
        // be wrong: a dominator can live in a node whose corner mindist
        // exceeds this leaf's).
        for (uint32_t p = node.first; p < node.first + node.count; ++p) {
          heap.push({Sum(permuted_points_[p]), p, true});
        }
      } else {
        for (uint32_t c = 0; c < node.count; ++c) {
          heap.push({nodes_[node.first + c].mindist, node.first + c, false});
        }
      }
    }
    return skyline;
  }

 private:
  // Sort-tile-recursive: orders point indices so that consecutive runs of
  // kLeafCapacity form spatially coherent leaves.
  void Tile(uint32_t* order, size_t n, size_t dim_index) {
    if (n <= kLeafCapacity || dim_index + 1 >= dims_.size()) {
      std::sort(order, order + n, [&](uint32_t a, uint32_t b) {
        return points_[a][dim_index % dims_.size()] <
               points_[b][dim_index % dims_.size()];
      });
      return;
    }
    std::sort(order, order + n, [&](uint32_t a, uint32_t b) {
      return points_[a][dim_index] < points_[b][dim_index];
    });
    // Slab size: points per slab so that each slab recursively tiles the
    // remaining dimensions.
    const size_t leaves = (n + kLeafCapacity - 1) / kLeafCapacity;
    const size_t slabs = std::max<size_t>(
        1, static_cast<size_t>(std::ceil(
               std::pow(static_cast<double>(leaves),
                        1.0 / static_cast<double>(dims_.size() - dim_index)))));
    const size_t per_slab = (n + slabs - 1) / slabs;
    for (size_t begin = 0; begin < n; begin += per_slab) {
      const size_t len = std::min(per_slab, n - begin);
      Tile(order + begin, len, dim_index + 1);
    }
  }

  void BuildNodes() {
    const size_t n = permuted_points_.size();
    if (n == 0) return;
    // Level 0: leaves over consecutive point runs.
    std::vector<uint32_t> level;
    for (size_t begin = 0; begin < n; begin += kLeafCapacity) {
      const size_t len = std::min(kLeafCapacity, n - begin);
      Node leaf;
      leaf.leaf = true;
      leaf.first = static_cast<uint32_t>(begin);
      leaf.count = static_cast<uint32_t>(len);
      leaf.lower.assign(dims_.size(),
                        std::numeric_limits<double>::infinity());
      for (size_t p = begin; p < begin + len; ++p) {
        for (size_t k = 0; k < dims_.size(); ++k) {
          leaf.lower[k] = std::min(leaf.lower[k], permuted_points_[p][k]);
        }
      }
      leaf.mindist = Sum(leaf.lower);
      level.push_back(static_cast<uint32_t>(nodes_.size()));
      nodes_.push_back(std::move(leaf));
    }
    // Upper levels: group kFanout consecutive children.
    while (level.size() > 1) {
      std::vector<uint32_t> next;
      for (size_t begin = 0; begin < level.size(); begin += kFanout) {
        const size_t len = std::min(kFanout, level.size() - begin);
        Node inner;
        inner.leaf = false;
        inner.first = level[begin];  // children are contiguous node ids
        inner.count = static_cast<uint32_t>(len);
        inner.lower.assign(dims_.size(),
                           std::numeric_limits<double>::infinity());
        for (size_t c = begin; c < begin + len; ++c) {
          SKYCUBE_DCHECK(level[c] == level[begin] + (c - begin));
          const Node& child = nodes_[level[c]];
          for (size_t k = 0; k < dims_.size(); ++k) {
            inner.lower[k] = std::min(inner.lower[k], child.lower[k]);
          }
        }
        inner.mindist = Sum(inner.lower);
        next.push_back(static_cast<uint32_t>(nodes_.size()));
        nodes_.push_back(std::move(inner));
      }
      level = std::move(next);
    }
  }

  // Heap order: ascending mindist; at equal mindist nodes before points,
  // and points in lexicographic order. A dominator's coordinate sum, and
  // the corner sums of the nodes holding it, are never larger than its
  // victim's, but rounding can make them equal; the tie rules still pop
  // the dominator first.
  bool PopsAfter(const Entry& a, const Entry& b) const {
    if (a.mindist != b.mindist) return a.mindist > b.mindist;
    if (a.is_point != b.is_point) return a.is_point;
    if (!a.is_point) return false;
    return permuted_points_[b.index] < permuted_points_[a.index];
  }

  static double Sum(const std::vector<double>& values) {
    double total = 0;
    for (double v : values) total += v;
    return total;
  }

  // True iff some skyline point strictly dominates `corner` (≤ everywhere,
  // < at least once) in the projected space.
  bool DominatedBySkyline(const std::vector<const double*>& skyline_points,
                          const double* corner) const {
    const size_t width = dims_.size();
    for (const double* s : skyline_points) {
      bool leq = true;
      bool strict = false;
      for (size_t k = 0; k < width; ++k) {
        if (s[k] > corner[k]) {
          leq = false;
          break;
        }
        strict |= (s[k] < corner[k]);
      }
      if (leq && strict) return true;
    }
    return false;
  }

  std::vector<int> dims_;
  std::vector<std::vector<double>> points_;          // pre-permutation
  std::vector<ObjectId> ids_;                        // pre-permutation
  std::vector<std::vector<double>> permuted_points_;  // leaf order
  std::vector<ObjectId> permuted_ids_;
  std::vector<Node> nodes_;  // children contiguous; root is nodes_.back()
};

}  // namespace

std::vector<ObjectId> SkylineBbs(const Dataset& data, DimMask subspace,
                                 const std::vector<ObjectId>& candidates) {
  if (candidates.empty()) return {};
  BbsTree tree(data, subspace, candidates);
  std::vector<ObjectId> skyline = tree.Run();
  std::sort(skyline.begin(), skyline.end());
  return skyline;
}

}  // namespace skycube
