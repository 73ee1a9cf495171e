#include "storage/kdtree.h"

#include <algorithm>
#include <cmath>
#include <queue>

namespace qreg {
namespace storage {

namespace {

// Nodes a median-split build over `rows` rows creates when every split
// happens: the shape depends on the row count alone.
size_t NodeCountBound(int32_t rows, int leaf_size) {
  if (rows <= leaf_size) return 1;
  const int32_t half = rows / 2;
  return 1 + NodeCountBound(half, leaf_size) + NodeCountBound(rows - half, leaf_size);
}

}  // namespace

KdTree::KdTree(const Table& table, int leaf_size)
    : table_(table), leaf_size_(std::max(1, leaf_size)) {
  const int64_t n = table_.num_rows();
  ids_.resize(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) ids_[static_cast<size_t>(i)] = static_cast<int32_t>(i);
  if (n > 0) {
    // Reserve the exact node count (a bound only when duplicate points stop
    // a split early), so neither array over-allocates by regrowth.
    const size_t max_nodes = NodeCountBound(static_cast<int32_t>(n), leaf_size_);
    nodes_.reserve(max_nodes);
    boxes_.reserve(max_nodes * 2 * table_.dimension());
    root_ = Build(0, static_cast<int32_t>(n));
    // Leaf-blocked re-layout: copy rows into permuted contiguous storage so
    // every subtree's [begin, end) range is one row-major span.
    const size_t d = table_.dimension();
    xs_perm_.resize(static_cast<size_t>(n) * d);
    us_perm_.resize(static_cast<size_t>(n));
    row_ids_.resize(static_cast<size_t>(n));
    for (int64_t i = 0; i < n; ++i) {
      const int32_t id = ids_[static_cast<size_t>(i)];
      const double* src = table_.x(id);
      std::copy(src, src + d, &xs_perm_[static_cast<size_t>(i) * d]);
      us_perm_[static_cast<size_t>(i)] = table_.u(id);
      row_ids_[static_cast<size_t>(i)] = id;
    }
    // The build permutation is fully captured by row_ids_ now; release the
    // int32 scratch instead of carrying n dead entries for the tree's life.
    std::vector<int32_t>().swap(ids_);
    ComputeSums();
  }
}

void KdTree::ComputeSums() {
  // Nodes are numbered in preorder, so a reverse sweep meets both children
  // before their parent: leaves sum their rows in row order, parents add
  // their children's sums. One pass over the table, no per-node allocation.
  const size_t d = table_.dimension();
  const size_t stride = SubtreeSums::Stride(d);
  sums_.assign(nodes_.size() * stride, 0.0);
  for (size_t i = nodes_.size(); i-- > 0;) {
    const Node& node = nodes_[i];
    double* s = &sums_[i * stride];
    if (node.left >= 0) {
      const double* l = &sums_[static_cast<size_t>(node.left) * stride];
      const double* r = &sums_[static_cast<size_t>(node.right) * stride];
      for (size_t k = 0; k < stride; ++k) s[k] = l[k] + r[k];
      continue;
    }
    double* sx = s + 2;
    double* sxx = sx + d;
    double* sxu = sxx + d * (d + 1) / 2;
    for (int32_t row = node.begin; row < node.end; ++row) {
      const double* x = PermRow(row);
      const double u = us_perm_[static_cast<size_t>(row)];
      s[0] += u;
      s[1] += u * u;
      size_t k = 0;
      for (size_t a = 0; a < d; ++a) {
        sx[a] += x[a];
        sxu[a] += x[a] * u;
        for (size_t b = a; b < d; ++b) sxx[k++] += x[a] * x[b];
      }
    }
  }
}

void KdTree::ComputeBox(int32_t node_idx) {
  const Node& node = nodes_[static_cast<size_t>(node_idx)];
  const size_t d = table_.dimension();
  double* lo = &boxes_[static_cast<size_t>(node_idx) * 2 * d];
  double* hi = lo + d;
  const double* first = table_.x(ids_[static_cast<size_t>(node.begin)]);
  std::copy(first, first + d, lo);
  std::copy(first, first + d, hi);
  for (int32_t i = node.begin + 1; i < node.end; ++i) {
    const double* row = table_.x(ids_[static_cast<size_t>(i)]);
    for (size_t j = 0; j < d; ++j) {
      if (row[j] < lo[j]) lo[j] = row[j];
      if (row[j] > hi[j]) hi[j] = row[j];
    }
  }
}

int32_t KdTree::Build(int32_t begin, int32_t end) {
  const int32_t node_idx = static_cast<int32_t>(nodes_.size());
  nodes_.emplace_back();
  nodes_.back().begin = begin;
  nodes_.back().end = end;
  const size_t d = table_.dimension();
  boxes_.resize(boxes_.size() + 2 * d);
  ComputeBox(node_idx);

  if (end - begin <= leaf_size_) return node_idx;

  // Split on the widest box dimension at the median.
  const double* lo = BoxLo(node_idx);
  const double* hi = BoxHi(node_idx);
  size_t split_dim = 0;
  double widest = -1.0;
  for (size_t j = 0; j < d; ++j) {
    const double w = hi[j] - lo[j];
    if (w > widest) {
      widest = w;
      split_dim = j;
    }
  }
  if (widest <= 0.0) return node_idx;  // All points identical: stay a leaf.

  const int32_t mid = begin + (end - begin) / 2;
  std::nth_element(ids_.begin() + begin, ids_.begin() + mid, ids_.begin() + end,
                   [this, split_dim](int32_t a, int32_t b) {
                     return table_.x(a)[split_dim] < table_.x(b)[split_dim];
                   });

  const int32_t left = Build(begin, mid);
  const int32_t right = Build(mid, end);
  nodes_[static_cast<size_t>(node_idx)].left = left;
  nodes_[static_cast<size_t>(node_idx)].right = right;
  return node_idx;
}

void KdTree::BlockVisitNode(int32_t node_idx, Visit* v) const {
  const Node& node = nodes_[static_cast<size_t>(node_idx)];
  const size_t d = table_.dimension();
  const double* lo = BoxLo(node_idx);
  const double* hi = BoxHi(node_idx);
  if (v->norm->MinDistanceToBox(v->center, lo, hi, d) > v->radius) {
    return;  // Ball cannot intersect this subtree.
  }
  if (v->absorb && v->norm->BoxInsideBall(v->center, lo, hi, d, v->radius)) {
    // Every row passes the filter: hand over the precomputed moments.
    v->matched += node.end - node.begin;
    v->kernel->OnSubtree(SumsOf(node_idx));
    return;
  }
  if (node.left < 0) {  // Leaf: stream its contiguous span block-at-a-time.
    double scratch[kScanBlockRows];
    int32_t sel[kScanBlockRows];
    for (int32_t b = node.begin; b < node.end; b += kScanBlockRows) {
      const int32_t rows = std::min<int32_t>(kScanBlockRows, node.end - b);
      const double* xs = PermRow(b);
      const int32_t count =
          v->filter.Run(xs, rows, d, v->center, v->radius, sel, scratch);
      v->examined += rows;
      v->matched += count;
      if (count > 0) {
        BlockSpan span;
        span.xs = xs;
        span.us = &us_perm_[static_cast<size_t>(b)];
        span.ids = &row_ids_[static_cast<size_t>(b)];
        span.sel = sel;
        span.count = count;
        span.rows = rows;
        span.d = d;
        v->kernel->OnBlock(span);
      }
    }
    return;
  }
  BlockVisitNode(node.left, v);
  BlockVisitNode(node.right, v);
}

void KdTree::RunVisit(int32_t node_idx, const double* center, double radius,
                      const LpNorm& norm, BlockKernel* kernel,
                      SelectionStats* stats) const {
  Visit v{center, radius, &norm, SelectBlockFilter(norm, table_.dimension()),
          kernel, kernel->wants_subtree_sums()};
  BlockVisitNode(node_idx, &v);
  if (stats != nullptr) {
    stats->tuples_examined += v.examined;
    stats->tuples_matched += v.matched;
  }
}

void KdTree::BlockVisit(const double* center, double radius, const LpNorm& norm,
                        BlockKernel* kernel, SelectionStats* stats) const {
  if (root_ < 0) return;
  RunVisit(root_, center, radius, norm, kernel, stats);
}

void KdTree::BlockVisitPartition(const ScanPartition& part, const double* center,
                                 double radius, const LpNorm& norm,
                                 BlockKernel* kernel,
                                 SelectionStats* stats) const {
  if (part.node < 0 || part.node >= static_cast<int32_t>(nodes_.size())) return;
  RunVisit(part.node, center, radius, norm, kernel, stats);
}

std::vector<ScanPartition> KdTree::MakePartitions(size_t target) const {
  std::vector<ScanPartition> plan;
  if (root_ < 0) return plan;

  // Grow a frontier of subtree roots: always split the widest (most rows)
  // splittable node next, so partition sizes stay balanced.
  auto rows_of = [this](int32_t idx) {
    const Node& n = nodes_[static_cast<size_t>(idx)];
    return n.end - n.begin;
  };
  auto cmp = [&rows_of](int32_t a, int32_t b) { return rows_of(a) < rows_of(b); };
  std::priority_queue<int32_t, std::vector<int32_t>, decltype(cmp)> frontier(cmp);
  frontier.push(root_);
  std::vector<int32_t> done;  // Leaves reached before `target` subtrees exist.
  while (frontier.size() + done.size() < std::max<size_t>(target, 1) &&
         !frontier.empty()) {
    const int32_t idx = frontier.top();
    frontier.pop();
    const Node& n = nodes_[static_cast<size_t>(idx)];
    if (n.left < 0) {
      done.push_back(idx);
      continue;
    }
    frontier.push(n.left);
    frontier.push(n.right);
  }
  while (!frontier.empty()) {
    done.push_back(frontier.top());
    frontier.pop();
  }
  // Left-to-right (permuted ranges are disjoint and ordered by construction).
  std::sort(done.begin(), done.end(), [this](int32_t a, int32_t b) {
    return nodes_[static_cast<size_t>(a)].begin < nodes_[static_cast<size_t>(b)].begin;
  });
  plan.reserve(done.size());
  for (int32_t idx : done) {
    ScanPartition p;
    const Node& n = nodes_[static_cast<size_t>(idx)];
    p.begin = n.begin;
    p.end = n.end;
    p.node = idx;
    plan.push_back(p);
  }
  return plan;
}

std::vector<Neighbor> KdTree::NearestNeighbors(const double* center, int k,
                                               const LpNorm& norm) const {
  std::vector<Neighbor> result;
  if (root_ < 0 || k <= 0) return result;

  // Max-heap of the best k found so far.
  auto cmp = [](const Neighbor& a, const Neighbor& b) { return a.distance < b.distance; };
  std::priority_queue<Neighbor, std::vector<Neighbor>, decltype(cmp)> heap(cmp);
  const size_t d = table_.dimension();

  // Depth-first with box pruning against the current kth distance.
  std::vector<int32_t> stack;
  stack.push_back(root_);
  while (!stack.empty()) {
    const int32_t node_idx = stack.back();
    stack.pop_back();
    const Node& node = nodes_[static_cast<size_t>(node_idx)];
    const double bound =
        (heap.size() == static_cast<size_t>(k)) ? heap.top().distance
                                                : LpNorm::kInf;
    if (norm.MinDistanceToBox(center, BoxLo(node_idx), BoxHi(node_idx), d) >
        bound) {
      continue;
    }
    if (node.left < 0) {
      // Leaf: permuted storage keeps the candidate rows contiguous.
      for (int32_t i = node.begin; i < node.end; ++i) {
        const double dist = norm.Distance(PermRow(i), center, d);
        if (heap.size() < static_cast<size_t>(k)) {
          heap.push({dist, row_ids_[static_cast<size_t>(i)]});
        } else if (dist < heap.top().distance) {
          heap.pop();
          heap.push({dist, row_ids_[static_cast<size_t>(i)]});
        }
      }
      continue;
    }
    // Descend nearer child first so the bound shrinks early.
    const double dl =
        norm.MinDistanceToBox(center, BoxLo(node.left), BoxHi(node.left), d);
    const double dr =
        norm.MinDistanceToBox(center, BoxLo(node.right), BoxHi(node.right), d);
    if (dl <= dr) {
      stack.push_back(node.right);
      stack.push_back(node.left);
    } else {
      stack.push_back(node.left);
      stack.push_back(node.right);
    }
  }

  result.resize(heap.size());
  for (size_t i = heap.size(); i-- > 0;) {
    result[i] = heap.top();
    heap.pop();
  }
  return result;
}

}  // namespace storage
}  // namespace qreg
