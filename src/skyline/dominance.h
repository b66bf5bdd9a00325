// Dominance kernels: pairwise comparison of objects within a subspace.
// These are the innermost loops of every algorithm in the library.
#ifndef SKYCUBE_SKYLINE_DOMINANCE_H_
#define SKYCUBE_SKYLINE_DOMINANCE_H_

#include "common/subspace.h"
#include "dataset/dataset.h"

namespace skycube {

/// Outcome of comparing two projections u_B vs v_B under the dominance
/// partial order (smaller is better).
enum class DomOrder {
  kEqual,            // u_B == v_B
  kFirstDominates,   // u dominates v in B
  kSecondDominates,  // v dominates u in B
  kIncomparable,     // neither dominates
};

/// Compares rows `a` and `b` on the dimensions of `subspace`.
inline DomOrder CompareRows(const double* a, const double* b,
                            DimMask subspace) {
  bool a_better = false;
  bool b_better = false;
  while (subspace != 0) {
    const int dim = LowestDim(subspace);
    subspace &= subspace - 1;
    const double va = a[dim];
    const double vb = b[dim];
    if (va < vb) {
      if (b_better) return DomOrder::kIncomparable;
      a_better = true;
    } else if (vb < va) {
      if (a_better) return DomOrder::kIncomparable;
      b_better = true;
    }
  }
  if (a_better) return DomOrder::kFirstDominates;
  if (b_better) return DomOrder::kSecondDominates;
  return DomOrder::kEqual;
}

/// True iff row `a` dominates row `b` in `subspace` (≤ everywhere, < at
/// least once).
inline bool RowDominates(const double* a, const double* b, DimMask subspace) {
  bool strict = false;
  while (subspace != 0) {
    const int dim = LowestDim(subspace);
    subspace &= subspace - 1;
    if (a[dim] > b[dim]) return false;
    strict |= (a[dim] < b[dim]);
  }
  return strict;
}

/// True iff row `a` dominates or equals row `b` in `subspace`.
inline bool RowDominatesOrEqual(const double* a, const double* b,
                                DimMask subspace) {
  while (subspace != 0) {
    const int dim = LowestDim(subspace);
    subspace &= subspace - 1;
    if (a[dim] > b[dim]) return false;
  }
  return true;
}

/// Object-id convenience wrappers.
inline DomOrder CompareObjects(const Dataset& data, ObjectId a, ObjectId b,
                               DimMask subspace) {
  return CompareRows(data.Row(a), data.Row(b), subspace);
}
inline bool Dominates(const Dataset& data, ObjectId a, ObjectId b,
                      DimMask subspace) {
  return RowDominates(data.Row(a), data.Row(b), subspace);
}

/// Monotone scoring function for SFS/LESS presorting: the sum of the
/// projection's coordinates. If u dominates v in `subspace` then
/// SortScore(u) <= SortScore(v). The exact sums differ strictly, but
/// rounding, or overflow to infinity, can make the computed ones equal, so
/// a dominator may sort after an object it dominates when their scores tie
/// (SFS handles that case, skyline/sfs.cc).
inline double SortScore(const double* row, DimMask subspace) {
  double sum = 0;
  while (subspace != 0) {
    const int dim = LowestDim(subspace);
    subspace &= subspace - 1;
    sum += row[dim];
  }
  return sum;
}

}  // namespace skycube

#endif  // SKYCUBE_SKYLINE_DOMINANCE_H_
