// Fused per-block accumulators for the exact operators: the BlockKernels
// the ExactEngine drives through SpatialIndex::BlockVisit[Partition].
//
// Each kernel consumes a filtered BlockSpan's selected lanes in one tight
// loop — no per-row virtual or std::function dispatch — and keeps the
// MADlib-style transition state (sum / moments / Gram matrix / id list)
// that partitioned scans later merge in plan order. The sum, moments and
// Gram kernels also opt in to subtree sums: a k-d subtree inside the ball
// is merged from its precomputed moments in O(d²) instead of row by row.
// The id collector needs the rows themselves and does not opt in.
//
// Scalar accumulators are Kahan-compensated. Compensation is an accuracy
// measure, not the determinism mechanism: bit-for-bit reproducibility
// across thread counts comes from the fixed partition plan and the fixed
// plan-order merge (each partition's kernel sees exactly the same rows in
// the same order regardless of which worker runs it). Compensation keeps
// those per-partition partials (and the serial whole-scan stream) accurate
// enough that plan-shape changes stay within ~1 ulp of each other. A
// subtree's sums are plain leaf-order sums merged pairwise up the tree, and
// enter a compensated stream as one add: absorbing them reassociates the
// stream (still a fixed function of the data and the partition plan) but
// never changes the selected rows.

#ifndef QREG_QUERY_SCAN_KERNELS_H_
#define QREG_QUERY_SCAN_KERNELS_H_

#include <cstdint>
#include <vector>

#include "linalg/ols.h"
#include "storage/spatial_index.h"

namespace qreg {
namespace query {

/// \brief Kahan-compensated running sum: adds carry the rounding residue of
/// the previous add, so a long stream loses O(1) ulps instead of O(n).
struct KahanSum {
  double sum = 0.0;
  double carry = 0.0;

  void Add(double v) {
    const double y = v - carry;
    const double t = sum + y;
    carry = (t - sum) - y;
    sum = t;
  }

  double value() const { return sum; }
};

/// \brief Q1 transition state: compensated Σu and the subspace cardinality.
class SumBlockKernel : public storage::BlockKernel {
 public:
  void OnBlock(const storage::BlockSpan& span) override {
    for (int32_t k = 0; k < span.count; ++k) sum_.Add(span.UAt(k));
    count_ += span.count;
  }

  bool wants_subtree_sums() const override { return true; }
  void OnSubtree(const storage::SubtreeSums& s) override {
    sum_.Add(s.sum_u());
    count_ += s.count;
  }

  double sum() const { return sum_.value(); }
  int64_t count() const { return count_; }

 private:
  KahanSum sum_;
  int64_t count_ = 0;
};

/// \brief Q1 moment-extension transition state: compensated Σu and Σu².
class MomentsBlockKernel : public storage::BlockKernel {
 public:
  void OnBlock(const storage::BlockSpan& span) override {
    for (int32_t k = 0; k < span.count; ++k) {
      const double u = span.UAt(k);
      sum_.Add(u);
      sum_sq_.Add(u * u);
    }
    count_ += span.count;
  }

  bool wants_subtree_sums() const override { return true; }
  void OnSubtree(const storage::SubtreeSums& s) override {
    sum_.Add(s.sum_u());
    sum_sq_.Add(s.sum_uu());
    count_ += s.count;
  }

  double sum() const { return sum_.value(); }
  double sum_sq() const { return sum_sq_.value(); }
  int64_t count() const { return count_; }

 private:
  KahanSum sum_;
  KahanSum sum_sq_;
  int64_t count_ = 0;
};

/// \brief Q2 transition state: fused Gram-matrix/moment-vector update over
/// the selected lanes of each block (OlsAccumulator::AddBlock), and whole
/// in-ball subtrees merged from their moments (OlsAccumulator::AddMoments).
class GramBlockKernel : public storage::BlockKernel {
 public:
  explicit GramBlockKernel(linalg::OlsAccumulator* acc) : acc_(acc) {}

  void OnBlock(const storage::BlockSpan& span) override {
    acc_->AddBlock(span.xs, span.us, span.sel, span.count);
  }

  bool wants_subtree_sums() const override { return true; }
  void OnSubtree(const storage::SubtreeSums& s) override {
    acc_->AddMoments(s.count, s.sum_u(), s.sum_uu(), s.sum_x(), s.sum_xx(),
                     s.sum_xu());
  }

 private:
  linalg::OlsAccumulator* acc_;
};

/// \brief Select transition state: the matched row ids in scan order.
class CollectIdsBlockKernel : public storage::BlockKernel {
 public:
  explicit CollectIdsBlockKernel(std::vector<int64_t>* ids) : ids_(ids) {}

  void OnBlock(const storage::BlockSpan& span) override {
    for (int32_t k = 0; k < span.count; ++k) ids_->push_back(span.IdAt(k));
  }

 private:
  std::vector<int64_t>* ids_;
};

}  // namespace query
}  // namespace qreg

#endif  // QREG_QUERY_SCAN_KERNELS_H_
