// Bulk-loaded k-d tree over a Table's feature vectors.
//
// Supports radius (dNN) selection under any Lp norm — the paper's selection
// operator — plus k-nearest-neighbour search used by tests and examples.
// Nodes own contiguous index ranges; leaves hold up to `leaf_size` rows and
// every node keeps its bounding box for Lp pruning.
//
// Storage is leaf-blocked: after the build permutes the row order, the
// feature rows and outputs are re-laid out into contiguous permuted arrays,
// so every leaf (and every subtree-frontier partition) owns a contiguous
// span of row-major storage. Radius selection streams those spans through
// the branch-free block filter instead of pointer-chasing per-row ids.
//
// Subtree sums: every node also carries the moments of its rows (Σu, Σu²,
// Σx, Σxxᵀ, Σx·u; see SubtreeSums), filled once at build. When a kernel
// opts in and a node's box lies provably inside the ball
// (LpNorm::BoxInsideBall), the kernel absorbs the node's sums in O(d²)
// instead of streaming its rows; only the leaves that straddle the ball's
// boundary are filtered row by row. Absorbed rows count as matched, not as
// examined: SelectionStats::tuples_examined is the number of rows whose
// distance was evaluated.

#ifndef QREG_STORAGE_KDTREE_H_
#define QREG_STORAGE_KDTREE_H_

#include <cstdint>
#include <vector>

#include "storage/block_filter.h"
#include "storage/spatial_index.h"
#include "util/status.h"

namespace qreg {
namespace storage {

/// \brief One (distance, row id) hit of a k-NN query, sorted ascending.
struct Neighbor {
  double distance = 0.0;
  int64_t id = -1;
};

/// \brief k-d tree access path (median splits on the widest dimension).
class KdTree : public SpatialIndex {
 public:
  /// Builds over all current rows of `table` (which must outlive the tree).
  /// leaf_size trades pruning power for per-leaf scan cost; 32 is a good
  /// default for d <= 8.
  explicit KdTree(const Table& table, int leaf_size = 32);

  void BlockVisit(const double* center, double radius, const LpNorm& norm,
                  BlockKernel* kernel, SelectionStats* stats) const override;

  /// A frontier of disjoint subtree roots covering every row, built by
  /// repeatedly splitting the largest frontier node until `target` subtrees
  /// exist (or only leaves remain), then ordered left-to-right so that
  /// visiting partitions in plan order enumerates rows in the same order as
  /// a sequential BlockVisit. Containment is hereditary, so a partitioned
  /// scan absorbs exactly the rows a sequential one does.
  std::vector<ScanPartition> MakePartitions(size_t target) const override;

  void BlockVisitPartition(const ScanPartition& part, const double* center,
                           double radius, const LpNorm& norm,
                           BlockKernel* kernel,
                           SelectionStats* stats) const override;

  /// The k nearest rows to `center` under `norm`, ascending by distance.
  /// Returns fewer than k if the table is smaller.
  std::vector<Neighbor> NearestNeighbors(const double* center, int k,
                                         const LpNorm& norm = LpNorm::L2()) const;

  std::string name() const override { return "kdtree"; }

  int64_t num_nodes() const { return static_cast<int64_t>(nodes_.size()); }
  int64_t num_rows() const { return static_cast<int64_t>(row_ids_.size()); }

 private:
  struct Node {
    int32_t left = -1;    // child node index, -1 for leaf
    int32_t right = -1;
    int32_t begin = 0;    // range in the permuted row storage
    int32_t end = 0;
  };

  // Per-scan traversal state shared by BlockVisit and BlockVisitPartition.
  struct Visit {
    const double* center;
    double radius;
    const LpNorm* norm;
    BlockFilter filter;
    BlockKernel* kernel;
    bool absorb;  // The kernel takes subtree sums.
    int64_t examined = 0;
    int64_t matched = 0;
  };

  int32_t Build(int32_t begin, int32_t end);
  void ComputeBox(int32_t node_idx);
  void ComputeSums();

  void BlockVisitNode(int32_t node_idx, Visit* v) const;
  void RunVisit(int32_t node_idx, const double* center, double radius,
                const LpNorm& norm, BlockKernel* kernel,
                SelectionStats* stats) const;

  /// Bounding box of node i: lo at BoxLo(i), hi at BoxLo(i) + d.
  const double* BoxLo(int32_t i) const {
    return &boxes_[static_cast<size_t>(i) * 2 * table_.dimension()];
  }
  const double* BoxHi(int32_t i) const { return BoxLo(i) + table_.dimension(); }

  SubtreeSums SumsOf(int32_t i) const {
    const Node& node = nodes_[static_cast<size_t>(i)];
    SubtreeSums s;
    s.count = node.end - node.begin;
    s.d = table_.dimension();
    s.sums = &sums_[static_cast<size_t>(i) * SubtreeSums::Stride(s.d)];
    return s;
  }

  /// Features of permuted position i (valid after the build re-layout).
  const double* PermRow(int32_t i) const {
    return &xs_perm_[static_cast<size_t>(i) * table_.dimension()];
  }

  const Table& table_;
  int leaf_size_;
  std::vector<int32_t> ids_;      // permutation of row ids (build order)
  std::vector<Node> nodes_;       // preorder: children after their parent
  std::vector<double> boxes_;     // per node: lo[d] then hi[d]
  std::vector<double> sums_;      // per node: SubtreeSums::Stride(d) doubles
  int32_t root_ = -1;
  // Leaf-blocked re-layout of the table in ids_ order: position i holds the
  // features/output/original id of row ids_[i], so node [begin, end) ranges
  // are contiguous row-major spans.
  std::vector<double> xs_perm_;   // n * d
  std::vector<double> us_perm_;   // n
  std::vector<int64_t> row_ids_;  // n
};

}  // namespace storage
}  // namespace qreg

#endif  // QREG_STORAGE_KDTREE_H_
