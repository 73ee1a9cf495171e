// Selection-operator interface: visit every row of a Table whose feature
// vector lies within an Lp ball (Definition 3's data subspace D(x, θ)).
//
// Two call styles share one contract:
//   - BlockVisit (the native hot path, implemented by every index): the
//     index streams contiguous candidate blocks of its row storage through
//     a branch-free Lp filter (storage/block_filter.h) and hands each
//     block's selected lanes to a BlockKernel — one virtual call per ~256
//     rows instead of one type-erased std::function call per matching row.
//     A kernel that opts in to subtree sums may instead receive a whole
//     subtree's precomputed moments when the subtree lies entirely inside
//     the ball (storage/kdtree.h).
//   - RadiusVisit (the classic row-at-a-time API): a non-virtual adapter
//     over BlockVisit, so both styles always select identical rows in
//     identical order with identical SelectionStats.

#ifndef QREG_STORAGE_SPATIAL_INDEX_H_
#define QREG_STORAGE_SPATIAL_INDEX_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "storage/lp_norm.h"
#include "storage/table.h"

namespace qreg {
namespace storage {

/// \brief Callback receiving (row id, features pointer, output value).
using RowVisitor = std::function<void(int64_t id, const double* x, double u)>;

/// \brief Statistics of one selection execution.
///
/// Rows a kernel absorbed as part of a subtree's precomputed sums count as
/// matched but not as examined: no distance was evaluated for them. So
/// tuples_matched can exceed tuples_examined, and a ball covering a whole
/// k-d tree examines nothing.
struct SelectionStats {
  int64_t tuples_examined = 0;  ///< Rows whose distance was evaluated.
  int64_t tuples_matched = 0;   ///< Rows inside the ball.
};

/// \brief One filtered candidate block: `rows` contiguous row-major feature
/// rows with `count` selected (in-ball) lanes. Lane k of the selection has
/// features at xs + sel[k]*d, output us[sel[k]], and row id
/// ids[sel[k]] (or id_base + sel[k] when ids is null — scan paths, whose
/// ids are consecutive). sel is ascending, so iterating the selection
/// preserves the index's row visit order.
struct BlockSpan {
  const double* xs = nullptr;    ///< Candidate rows, row-major, stride d.
  const double* us = nullptr;    ///< Candidate outputs, one per row.
  const int64_t* ids = nullptr;  ///< Per-row ids; null => id_base + lane.
  int64_t id_base = 0;
  const int32_t* sel = nullptr;  ///< Ascending selected lane offsets.
  int32_t count = 0;             ///< Selected lanes.
  int32_t rows = 0;              ///< Candidate rows in this block.
  size_t d = 0;

  int64_t IdAt(int32_t k) const {
    const int32_t lane = sel[k];
    return ids != nullptr ? ids[lane] : id_base + lane;
  }
  const double* XAt(int32_t k) const {
    return xs + static_cast<size_t>(sel[k]) * d;
  }
  double UAt(int32_t k) const { return us[sel[k]]; }
};

/// \brief Precomputed moments of every row of one index subtree: Σu, Σu²,
/// Σx, the upper triangle of Σxxᵀ (row-major, i <= j) and Σx·u. A view into
/// the index's flat per-node array; valid only during the OnSubtree call.
struct SubtreeSums {
  int64_t count = 0;             ///< Rows in the subtree.
  const double* sums = nullptr;  ///< Layout: see the accessors below.
  size_t d = 0;

  /// Doubles per node in the flat layout.
  static size_t Stride(size_t d) { return 2 + d + d * (d + 1) / 2 + d; }

  double sum_u() const { return sums[0]; }
  double sum_uu() const { return sums[1]; }
  const double* sum_x() const { return sums + 2; }
  const double* sum_xx() const { return sums + 2 + d; }
  const double* sum_xu() const { return sums + 2 + d + d * (d + 1) / 2; }
};

/// \brief Fused filter+accumulate consumer of a block scan. One OnBlock call
/// per candidate block that has at least one selected lane.
///
/// A kernel whose state depends only on the moments of the selected rows
/// (not on their ids or order) may opt in to subtree sums: the index asks
/// wants_subtree_sums() once per scan and then passes every subtree lying
/// entirely inside the ball to OnSubtree instead of streaming its rows.
/// Kernels that do not opt in see exactly the rows, order and stats of a
/// row-by-row scan.
class BlockKernel {
 public:
  virtual ~BlockKernel() = default;
  virtual void OnBlock(const BlockSpan& span) = 0;

  virtual bool wants_subtree_sums() const { return false; }
  virtual void OnSubtree(const SubtreeSums& /*sums*/) {}
};

/// \brief The RowVisitor compatibility shim: replays a block's selected
/// lanes through a per-row callback in scan order.
class RowVisitorBlockKernel : public BlockKernel {
 public:
  explicit RowVisitorBlockKernel(const RowVisitor& visit) : visit_(visit) {}

  void OnBlock(const BlockSpan& span) override {
    for (int32_t k = 0; k < span.count; ++k) {
      visit_(span.IdAt(k), span.XAt(k), span.UAt(k));
    }
  }

 private:
  const RowVisitor& visit_;
};

/// \brief One disjoint unit of parallel selection work, produced by
/// MakePartitions and only meaningful to the index that produced it.
///
/// Scan-style access paths use [begin, end) row ranges; tree-style paths
/// use a subtree root. Visiting every partition of a plan is equivalent to
/// one RadiusVisit: partitions are disjoint and jointly exhaustive, and the
/// partition plan depends only on the indexed data — never on thread
/// counts — so a partitioned reduction is deterministic across pool sizes.
struct ScanPartition {
  int64_t begin = 0;  ///< First row of a range partition (scan paths).
  int64_t end = 0;    ///< One past the last row of a range partition.
  int32_t node = -1;  ///< Subtree root of a tree partition (tree paths).
};

/// \brief Abstract radius-selection access path over a Table.
class SpatialIndex {
 public:
  virtual ~SpatialIndex() = default;

  /// Streams every in-ball row to `kernel` block-at-a-time (or, for kernels
  /// that opt in, whole in-ball subtrees as precomputed sums). `stats` may
  /// be null.
  virtual void BlockVisit(const double* center, double radius, const LpNorm& norm,
                          BlockKernel* kernel, SelectionStats* stats) const = 0;

  /// Invokes `visit` for every row within `radius` of `center` under `norm`,
  /// in BlockVisit's order and with its stats. `stats` may be null.
  void RadiusVisit(const double* center, double radius, const LpNorm& norm,
                   const RowVisitor& visit, SelectionStats* stats) const {
    RowVisitorBlockKernel adapter(visit);
    BlockVisit(center, radius, norm, &adapter, stats);
  }

  /// Collects matching row ids (convenience wrapper over BlockVisit).
  std::vector<int64_t> RadiusSearch(const double* center, double radius,
                                    const LpNorm& norm,
                                    SelectionStats* stats = nullptr) const;

  /// Splits the indexed data into roughly `target` disjoint partitions whose
  /// union is the whole table. Implementations may return fewer (never more
  /// than max(1, rows)) — notably a single partition when the data is too
  /// small to be worth splitting. The plan is a pure function of the indexed
  /// data, so repeated calls with the same `target` return the same plan.
  virtual std::vector<ScanPartition> MakePartitions(size_t target) const = 0;

  /// BlockVisit restricted to one partition of a plan produced by *this*
  /// index's MakePartitions. Visiting all partitions of a plan hands the
  /// kernel exactly the rows one BlockVisit would, in the same order, with
  /// identical aggregate SelectionStats (a kernel taking subtree sums may
  /// receive the same rows grouped into smaller subtrees).
  virtual void BlockVisitPartition(const ScanPartition& part, const double* center,
                                   double radius, const LpNorm& norm,
                                   BlockKernel* kernel,
                                   SelectionStats* stats) const = 0;

  /// RadiusVisit restricted to one partition: the row-callback adapter over
  /// BlockVisitPartition.
  void RadiusVisitPartition(const ScanPartition& part, const double* center,
                            double radius, const LpNorm& norm,
                            const RowVisitor& visit, SelectionStats* stats) const {
    RowVisitorBlockKernel adapter(visit);
    BlockVisitPartition(part, center, radius, norm, &adapter, stats);
  }

  /// Access-path name for logs and bench tables ("kdtree", "scan").
  virtual std::string name() const = 0;
};

}  // namespace storage
}  // namespace qreg

#endif  // QREG_STORAGE_SPATIAL_INDEX_H_
