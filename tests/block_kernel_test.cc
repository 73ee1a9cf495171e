// Tests for the block-at-a-time scan pipeline (ISSUE-5 tentpole):
//   - BlockVisit selects bit-for-bit the same (id, x, u) sequence as the
//     RowVisitor API, for all norms × both access paths × whole/partitioned
//     execution, with identical SelectionStats;
//   - the engine's block-kernel answers stay bit-for-bit identical across
//     thread counts and survive a mid-scan ExecControl trip with consistent
//     partial-work accounting;
//   - KahanSum compensates where a naive stream loses precision;
//   - the branch-free filters agree with LpNorm::Within row-by-row;
//   - k-d subtree-sum absorption: kernels that opt in receive exactly the
//     moments of the in-ball rows (vs ScanIndex, all norms, adversarial
//     radii), kernels that decline see the row-by-row scan, and boundary
//     leaves inside the containment margin are filtered, not absorbed.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "query/exact_engine.h"
#include "query/scan_kernels.h"
#include "storage/block_filter.h"
#include "storage/kdtree.h"
#include "storage/scan_index.h"
#include "storage/table.h"
#include "util/cancellation.h"
#include "util/rng.h"

namespace qreg {
namespace query {
namespace {

storage::Table MakeTable(size_t d, int64_t n, uint64_t seed) {
  util::Rng rng(seed);
  storage::Table t(d);
  t.Reserve(n);
  std::vector<double> x(d);
  for (int64_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < d; ++j) x[j] = rng.Uniform(0, 1);
    t.AppendUnchecked(x.data(), rng.Uniform(-2, 2));
  }
  return t;
}

// One visited row, captured exactly.
struct Row {
  int64_t id;
  std::vector<double> x;
  double u;

  bool operator==(const Row& o) const {
    return id == o.id && u == o.u && x == o.x;
  }
};

class CollectRowsKernel : public storage::BlockKernel {
 public:
  CollectRowsKernel(std::vector<Row>* out, size_t d) : out_(out), d_(d) {}
  void OnBlock(const storage::BlockSpan& span) override {
    for (int32_t k = 0; k < span.count; ++k) {
      const double* x = span.XAt(k);
      out_->push_back({span.IdAt(k), std::vector<double>(x, x + d_), span.UAt(k)});
    }
  }

 private:
  std::vector<Row>* out_;
  size_t d_;
};

// ---------- BlockVisit ≡ RowVisit, all norms × paths × whole/partitioned ----

class BlockRowEquivalenceTest
    : public ::testing::TestWithParam<std::tuple<int, double>> {};

TEST_P(BlockRowEquivalenceTest, SameRowsSameOrderSameStats) {
  const size_t d = static_cast<size_t>(std::get<0>(GetParam()));
  const storage::LpNorm norm(std::get<1>(GetParam()));
  storage::Table table = MakeTable(d, 5000, 91 + d);
  storage::ScanIndex scan(table);
  storage::KdTree tree(table, 16);

  util::Rng rng(7 * d + 1);
  for (const storage::SpatialIndex* index :
       {static_cast<const storage::SpatialIndex*>(&scan),
        static_cast<const storage::SpatialIndex*>(&tree)}) {
    for (int trial = 0; trial < 10; ++trial) {
      std::vector<double> c(d);
      for (auto& v : c) v = rng.Uniform(-0.1, 1.1);
      const double radius = rng.Uniform(0.05, 0.6);

      // Row path (the adapter).
      std::vector<Row> row_rows;
      storage::SelectionStats row_stats;
      index->RadiusVisit(
          c.data(), radius, norm,
          [&row_rows, d](int64_t id, const double* x, double u) {
            row_rows.push_back({id, std::vector<double>(x, x + d), u});
          },
          &row_stats);

      // Block path, whole scan.
      std::vector<Row> block_rows;
      storage::SelectionStats block_stats;
      CollectRowsKernel kernel(&block_rows, d);
      index->BlockVisit(c.data(), radius, norm, &kernel, &block_stats);

      EXPECT_EQ(block_rows, row_rows) << index->name() << " p=" << norm.p();
      EXPECT_EQ(block_stats.tuples_examined, row_stats.tuples_examined);
      EXPECT_EQ(block_stats.tuples_matched, row_stats.tuples_matched);

      // Block path, partitioned: plan order reproduces the whole-scan order.
      std::vector<Row> part_rows;
      storage::SelectionStats part_stats;
      CollectRowsKernel part_kernel(&part_rows, d);
      for (const auto& part : index->MakePartitions(7)) {
        index->BlockVisitPartition(part, c.data(), radius, norm, &part_kernel,
                                   &part_stats);
      }
      EXPECT_EQ(part_rows, row_rows) << index->name() << " p=" << norm.p();
      EXPECT_EQ(part_stats.tuples_examined, row_stats.tuples_examined);
      EXPECT_EQ(part_stats.tuples_matched, row_stats.tuples_matched);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BlockRowEquivalenceTest,
    ::testing::Combine(::testing::Values(1, 2, 6, 12),
                       ::testing::Values(1.0, 2.0, 3.0, storage::LpNorm::kInf)));

// ---------- Branch-free filter agrees with Within, row by row ----------

TEST(BlockFilterTest, MatchesWithinPerRow) {
  util::Rng rng(133);
  for (size_t d : {1u, 2u, 5u, 9u, 13u}) {
    storage::Table table = MakeTable(d, 700, 17 * d);
    for (double p : {1.0, 2.0, 2.5, storage::LpNorm::kInf}) {
      const storage::LpNorm norm(p);
      const storage::BlockFilter filter = storage::SelectBlockFilter(norm, d);
      std::vector<double> c(d);
      for (auto& v : c) v = rng.Uniform(0, 1);
      const double radius = rng.Uniform(0.1, 0.8);

      double scratch[storage::kScanBlockRows];
      int32_t sel[storage::kScanBlockRows];
      const int64_t n = table.num_rows();
      for (int64_t b = 0; b < n; b += storage::kScanBlockRows) {
        const int32_t rows = static_cast<int32_t>(
            std::min<int64_t>(storage::kScanBlockRows, n - b));
        const int32_t count =
            filter.Run(table.x(b), rows, d, c.data(), radius, sel, scratch);
        std::vector<bool> selected(static_cast<size_t>(rows), false);
        for (int32_t k = 0; k < count; ++k) {
          ASSERT_GE(sel[k], 0);
          ASSERT_LT(sel[k], rows);
          if (k > 0) EXPECT_LT(sel[k - 1], sel[k]);  // Ascending lanes.
          selected[static_cast<size_t>(sel[k])] = true;
        }
        for (int32_t lane = 0; lane < rows; ++lane) {
          EXPECT_EQ(selected[static_cast<size_t>(lane)],
                    norm.Within(table.x(b + lane), c.data(), d, radius))
              << "d=" << d << " p=" << p << " row=" << b + lane;
        }
      }
    }
  }
}

// ---------- Engine block kernels: determinism across thread counts ----------

TEST(BlockKernelEngineTest, BitForBitAcrossThreadCountsAndSerial) {
  storage::Table table = MakeTable(3, 12000, 5);
  storage::ScanIndex scan(table);
  storage::KdTree tree(table, 32);

  for (const storage::SpatialIndex* index :
       {static_cast<const storage::SpatialIndex*>(&scan),
        static_cast<const storage::SpatialIndex*>(&tree)}) {
    ExactEngine inline_engine(table, *index);
    ParallelOptions inline_par;
    inline_par.target_partitions = 12;
    inline_engine.set_parallel(inline_par);

    const Query q({0.4, 0.6, 0.5}, 0.35);
    const auto want_mean = inline_engine.MeanValue(q);
    const auto want_mom = inline_engine.Moments(q);
    const auto want_fit = inline_engine.Regression(q);
    const auto want_ids = inline_engine.Select(q).value();
    ASSERT_TRUE(want_mean.ok());

    for (size_t threads : {1u, 2u, 8u}) {
      util::ThreadPool pool(threads);
      ExactEngine engine(table, *index);
      ParallelOptions par;
      par.pool = &pool;
      par.target_partitions = 12;
      engine.set_parallel(par);

      EXPECT_EQ(engine.MeanValue(q)->mean, want_mean->mean) << index->name();
      EXPECT_EQ(engine.MeanValue(q)->count, want_mean->count);
      EXPECT_EQ(engine.Moments(q)->second_moment, want_mom->second_moment);
      EXPECT_EQ(engine.Moments(q)->variance, want_mom->variance);
      EXPECT_EQ(engine.Regression(q)->intercept, want_fit->intercept);
      EXPECT_EQ(engine.Regression(q)->slope, want_fit->slope);
      EXPECT_EQ(engine.Select(q).value(), want_ids);
    }

    // The serial whole-scan path (no parallel options) runs one continuous
    // compensated stream instead of the partitioned merge: equal within
    // reassociation tolerance, with exact integer counts.
    ExactEngine serial(table, *index);
    const auto serial_mean = serial.MeanValue(q);
    ASSERT_TRUE(serial_mean.ok());
    EXPECT_EQ(serial_mean->count, want_mean->count);
    EXPECT_NEAR(serial_mean->mean, want_mean->mean,
                1e-12 * std::max(1.0, std::fabs(want_mean->mean)));
    EXPECT_EQ(serial.Select(q).value(), want_ids);
  }
}

// ---------- Mid-scan ExecControl trip over block kernels ----------

TEST(BlockKernelEngineTest, MidScanTripLeavesConsistentChunkAccounting) {
  storage::Table table = MakeTable(2, 8000, 29);
  storage::ScanIndex scan(table);
  ExactEngine engine(table, scan);
  ParallelOptions par;
  par.target_partitions = 8;
  engine.set_parallel(par);

  const Query q({0.5, 0.5}, 10.0);  // All-covering: every chunk has work.

  util::CancellationToken token = util::CancellationToken::Cancellable();
  util::ExecControl control;
  control.cancel = token;
  control.on_chunk_for_testing = [&token](size_t chunk) {
    if (chunk == 3) token.Cancel();
  };

  ExecStats stats;
  const auto r = engine.MeanValue(q, &stats, &control);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), util::StatusCode::kCancelled);
  EXPECT_EQ(stats.chunks_total, 8);
  EXPECT_LT(stats.chunks_completed, stats.chunks_total);
  EXPECT_EQ(stats.chunks_completed, 3);  // Chunks 0..2 ran; 3 tripped.
  // Partial tuple counters reflect exactly the completed chunks' blocks.
  EXPECT_GT(stats.tuples_examined, 0);
  EXPECT_EQ(stats.tuples_examined, stats.tuples_matched);  // θ covers all.

  // Same trip through Select: partial ids are discarded, stats consistent.
  util::CancellationToken token2 = util::CancellationToken::Cancellable();
  util::ExecControl control2;
  control2.cancel = token2;
  control2.on_chunk_for_testing = [&token2](size_t chunk) {
    if (chunk == 2) token2.Cancel();
  };
  ExecStats sel_stats;
  const auto ids = engine.Select(q, &sel_stats, &control2);
  ASSERT_FALSE(ids.ok());
  EXPECT_EQ(ids.status().code(), util::StatusCode::kCancelled);
  EXPECT_EQ(sel_stats.chunks_completed, 2);
  EXPECT_EQ(sel_stats.chunks_total, 8);
}

// ---------- Subtree-sum absorption ----------

// Long-double moments of a row stream: Σu, Σu², Σx, Σxxᵀ (upper), Σx·u in
// SubtreeSums layout, plus Σ|term| per slot as the rounding scale.
struct Moments {
  explicit Moments(size_t d)
      : d(d), sum(storage::SubtreeSums::Stride(d), 0.0L),
        abs(storage::SubtreeSums::Stride(d), 0.0L) {}

  void AddSlot(size_t k, long double v) {
    sum[k] += v;
    abs[k] += std::fabs(v);
  }
  void AddRow(const double* x, double u) {
    const long double lu = u;
    ++count;
    AddSlot(0, lu);
    AddSlot(1, lu * lu);
    size_t k = 2 + d;
    for (size_t a = 0; a < d; ++a) {
      const long double xa = x[a];
      AddSlot(2 + a, xa);
      AddSlot(2 + d + d * (d + 1) / 2 + a, xa * lu);
      for (size_t b = a; b < d; ++b) AddSlot(k++, xa * x[b]);
    }
  }

  size_t d;
  int64_t count = 0;
  std::vector<long double> sum;
  std::vector<long double> abs;
};

// An opting-in kernel that records the moments it is handed, row by row
// and subtree by subtree.
class MomentsProbeKernel : public storage::BlockKernel {
 public:
  explicit MomentsProbeKernel(size_t d) : m(d) {}
  void OnBlock(const storage::BlockSpan& span) override {
    for (int32_t k = 0; k < span.count; ++k) m.AddRow(span.XAt(k), span.UAt(k));
  }
  bool wants_subtree_sums() const override { return true; }
  void OnSubtree(const storage::SubtreeSums& s) override {
    ++subtrees;
    m.count += s.count;
    for (size_t k = 0; k < m.sum.size(); ++k) m.sum[k] += s.sums[k];
  }

  Moments m;
  int64_t subtrees = 0;
};

void ExpectMomentsNear(const Moments& got, const Moments& want,
                       const std::string& where) {
  ASSERT_EQ(got.count, want.count) << where;
  for (size_t k = 0; k < want.sum.size(); ++k) {
    EXPECT_NEAR(static_cast<double>(got.sum[k]), static_cast<double>(want.sum[k]),
                1e-12 * static_cast<double>(want.abs[k]) + 1e-300)
        << where << " slot " << k;
  }
}

// The tree's leaves in visit order (a plan with more partitions than leaves
// stops only at leaves) and each leaf's rows, for reference computations.
struct Leaf {
  storage::ScanPartition part;
  std::vector<Row> rows;
  std::vector<double> lo, hi;  // Tight bounding box of the rows.
};

std::vector<Leaf> LeavesOf(const storage::KdTree& tree, size_t d) {
  std::vector<Leaf> leaves;
  const std::vector<double> origin(d, 0.0);
  for (const auto& part : tree.MakePartitions(size_t{1} << 30)) {
    Leaf leaf;
    leaf.part = part;
    CollectRowsKernel kernel(&leaf.rows, d);
    tree.BlockVisitPartition(part, origin.data(), storage::LpNorm::kInf,
                             storage::LpNorm::LInf(), &kernel, nullptr);
    leaf.lo = leaf.rows.front().x;
    leaf.hi = leaf.rows.front().x;
    for (const Row& r : leaf.rows) {
      for (size_t j = 0; j < d; ++j) {
        leaf.lo[j] = std::min(leaf.lo[j], r.x[j]);
        leaf.hi[j] = std::max(leaf.hi[j], r.x[j]);
      }
    }
    leaves.push_back(std::move(leaf));
  }
  return leaves;
}

// ||corner - c|| for the box corner farthest from c, as a radius.
double FarCornerRadius(const Leaf& leaf, const std::vector<double>& c,
                       const storage::LpNorm& norm) {
  std::vector<double> corner(c.size());
  for (size_t j = 0; j < c.size(); ++j) {
    corner[j] = std::fabs(leaf.lo[j] - c[j]) > std::fabs(leaf.hi[j] - c[j])
                    ? leaf.lo[j]
                    : leaf.hi[j];
  }
  return norm.Distance(corner.data(), c.data(), c.size());
}

class SubtreeSumsTest
    : public ::testing::TestWithParam<std::tuple<int, double>> {};

TEST_P(SubtreeSumsTest, AbsorbingKernelsMatchScan) {
  const size_t d = static_cast<size_t>(std::get<0>(GetParam()));
  const storage::LpNorm norm(std::get<1>(GetParam()));
  storage::Table table = MakeTable(d, 4000, 300 + d);
  storage::ScanIndex scan(table);
  storage::KdTree tree(table, 16);
  const std::vector<Leaf> leaves = LeavesOf(tree, d);
  ExactEngine scan_engine(table, scan);
  ExactEngine tree_engine(table, tree);
  ExactEngine parted_engine(table, tree);
  ParallelOptions par;
  par.target_partitions = 9;
  parted_engine.set_parallel(par);

  // Distances in the unit cube scale like d^(1/p).
  const double scale = std::isinf(norm.p()) ? 1.0 : std::pow(d, 1.0 / norm.p());
  util::Rng rng(11 * d + static_cast<uint64_t>(norm.p()));
  int64_t absorbed_queries = 0;
  for (int trial = 0; trial < 12; ++trial) {
    std::vector<double> c(d);
    for (auto& v : c) v = rng.Uniform(-0.1, 1.1);
    // Random radii, then the adversarial ones: exactly the distance to an
    // existing row, exactly a leaf's far-corner distance, each ± 1 ulp.
    std::vector<double> radii = {rng.Uniform(0.02, 0.8) * scale};
    const int64_t row = static_cast<int64_t>(rng.Uniform(0, 3999.0));
    const Leaf& leaf = leaves[static_cast<size_t>(
        rng.Uniform(0, static_cast<double>(leaves.size()) - 0.5))];
    for (double r : {norm.Distance(table.x(row), c.data(), d),
                     FarCornerRadius(leaf, c, norm)}) {
      radii.push_back(r);
      radii.push_back(std::nextafter(r, 0.0));
      radii.push_back(std::nextafter(r, 1e300));
    }
    for (double radius : radii) {
      const std::string where = "d=" + std::to_string(d) + " p=" +
                                std::to_string(norm.p()) +
                                " r=" + std::to_string(radius);
      MomentsProbeKernel want(d), got(d), parted(d);
      storage::SelectionStats want_stats, got_stats, parted_stats;
      scan.BlockVisit(c.data(), radius, norm, &want, &want_stats);
      tree.BlockVisit(c.data(), radius, norm, &got, &got_stats);
      for (const auto& part : tree.MakePartitions(9)) {
        tree.BlockVisitPartition(part, c.data(), radius, norm, &parted,
                                 &parted_stats);
      }
      EXPECT_EQ(want.subtrees, 0) << "a scan has no subtrees";
      ExpectMomentsNear(got.m, want.m, where);
      ExpectMomentsNear(parted.m, want.m, where + " partitioned");
      EXPECT_EQ(got_stats.tuples_matched, want_stats.tuples_matched) << where;
      EXPECT_EQ(parted_stats.tuples_matched, got_stats.tuples_matched) << where;
      EXPECT_EQ(parted_stats.tuples_examined, got_stats.tuples_examined) << where;
      if (got.subtrees > 0) ++absorbed_queries;

      // The engine's answers: exact counts, values within the
      // serial-vs-partitioned tolerances.
      const Query q(c, radius);
      for (const ExactEngine* engine : {&tree_engine, &parted_engine}) {
        const auto q1 = engine->MeanValue(q);
        const auto q1_want = scan_engine.MeanValue(q);
        ASSERT_EQ(q1.ok(), q1_want.ok()) << where;
        const auto mom = engine->Moments(q);
        const auto q2 = engine->Regression(q);
        ASSERT_EQ(q2.ok(), q1_want.ok()) << where;
        if (!q1_want.ok()) continue;
        EXPECT_EQ(q1->count, q1_want->count) << where;
        EXPECT_NEAR(q1->mean, q1_want->mean,
                    1e-9 * std::max(1.0, std::fabs(q1_want->mean)))
            << where;
        const auto mom_want = scan_engine.Moments(q);
        EXPECT_EQ(mom->count, mom_want->count) << where;
        EXPECT_NEAR(mom->second_moment, mom_want->second_moment,
                    1e-9 * std::max(1.0, mom_want->second_moment))
            << where;
        const auto q2_want = scan_engine.Regression(q);
        EXPECT_EQ(q2->n, q2_want->n) << where;
        // Slopes of a near-singular fit amplify reassociation; compare the
        // fit only where the ball holds a well-posed regression.
        if (q2_want->n < 8 * static_cast<int64_t>(d + 1)) continue;
        EXPECT_NEAR(q2->intercept, q2_want->intercept,
                    1e-8 * std::max(1.0, std::fabs(q2_want->intercept)))
            << where;
        for (size_t j = 0; j < d; ++j) {
          EXPECT_NEAR(q2->slope[j], q2_want->slope[j],
                      1e-8 * std::max(1.0, std::fabs(q2_want->slope[j])))
              << where;
        }
      }
      auto ids = tree_engine.Select(q).value();
      auto ids_want = scan_engine.Select(q).value();
      std::sort(ids.begin(), ids.end());
      EXPECT_EQ(ids, ids_want) << where;
    }
  }
  EXPECT_GT(absorbed_queries, 0) << "no query exercised absorption";
}

TEST_P(SubtreeSumsTest, DecliningKernelSeesRowByRowScan) {
  const size_t d = static_cast<size_t>(std::get<0>(GetParam()));
  const storage::LpNorm norm(std::get<1>(GetParam()));
  storage::Table table = MakeTable(d, 3000, 500 + d);
  storage::KdTree tree(table, 16);
  const std::vector<Leaf> leaves = LeavesOf(tree, d);
  const double scale = std::isinf(norm.p()) ? 1.0 : std::pow(d, 1.0 / norm.p());

  util::Rng rng(13 * d + static_cast<uint64_t>(norm.p()));
  for (int trial = 0; trial < 8; ++trial) {
    std::vector<double> c(d);
    for (auto& v : c) v = rng.Uniform(-0.1, 1.1);
    const double radius = rng.Uniform(0.05, 1.5) * scale;

    // Reference: every leaf the ball reaches is filtered row by row, in
    // leaf order.
    std::vector<Row> want;
    int64_t want_examined = 0;
    for (const Leaf& leaf : leaves) {
      if (norm.MinDistanceToBox(c.data(), leaf.lo.data(), leaf.hi.data(), d) >
          radius) {
        continue;
      }
      want_examined += static_cast<int64_t>(leaf.rows.size());
      for (const Row& r : leaf.rows) {
        if (norm.Within(r.x.data(), c.data(), d, radius)) want.push_back(r);
      }
    }

    std::vector<Row> got;
    storage::SelectionStats stats;
    CollectRowsKernel kernel(&got, d);
    tree.BlockVisit(c.data(), radius, norm, &kernel, &stats);
    EXPECT_EQ(got, want) << "d=" << d << " p=" << norm.p();
    EXPECT_EQ(stats.tuples_examined, want_examined);
    EXPECT_EQ(stats.tuples_matched, static_cast<int64_t>(want.size()));

    // The same ball through an absorbing kernel matches as many rows while
    // evaluating at most as many distances.
    SumBlockKernel sum;
    storage::SelectionStats sum_stats;
    tree.BlockVisit(c.data(), radius, norm, &sum, &sum_stats);
    EXPECT_EQ(sum_stats.tuples_matched, stats.tuples_matched);
    EXPECT_LE(sum_stats.tuples_examined, stats.tuples_examined);
  }
}

TEST_P(SubtreeSumsTest, BoundaryLeafIsScannedUnlessClearlyInside) {
  // A radius exactly at (or 1 ulp around) a leaf's far-corner distance lies
  // within the containment margin: the leaf is filtered row by row. Well
  // beyond the margin the leaf is absorbed whole.
  const size_t d = static_cast<size_t>(std::get<0>(GetParam()));
  const storage::LpNorm norm(std::get<1>(GetParam()));
  storage::Table table = MakeTable(d, 2000, 700 + d);
  storage::KdTree tree(table, 16);
  const std::vector<Leaf> leaves = LeavesOf(tree, d);
  util::Rng rng(17 * d + static_cast<uint64_t>(norm.p()));
  for (int trial = 0; trial < 10; ++trial) {
    const Leaf& leaf = leaves[static_cast<size_t>(
        rng.Uniform(0, static_cast<double>(leaves.size()) - 0.5))];
    std::vector<double> c(d);
    for (auto& v : c) v = rng.Uniform(0, 1);
    const double corner = FarCornerRadius(leaf, c, norm);
    const int64_t rows = static_cast<int64_t>(leaf.rows.size());
    for (double radius : {corner, std::nextafter(corner, 0.0),
                          std::nextafter(corner, 1e300)}) {
      SumBlockKernel kernel;
      storage::SelectionStats stats;
      tree.BlockVisitPartition(leaf.part, c.data(), radius, norm, &kernel,
                               &stats);
      EXPECT_EQ(stats.tuples_examined, rows) << "p=" << norm.p();
    }
    SumBlockKernel kernel;
    storage::SelectionStats stats;
    tree.BlockVisitPartition(leaf.part, c.data(), corner * (1 + 1e-9), norm,
                             &kernel, &stats);
    EXPECT_EQ(stats.tuples_examined, 0) << "p=" << norm.p();
    EXPECT_EQ(stats.tuples_matched, rows);
    EXPECT_EQ(kernel.count(), rows);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SubtreeSumsTest,
    ::testing::Combine(::testing::Values(1, 2, 3, 5, 8),
                       ::testing::Values(1.0, 2.0, 3.0, storage::LpNorm::kInf)));

TEST(SubtreeSumsWholeTableTest, RootSumsEqualFullTableMoments) {
  // A ball covering the whole tree hands over exactly one subtree: the root.
  for (size_t d : {1u, 2u, 5u}) {
    storage::Table table = MakeTable(d, 7001, 900 + d);
    storage::KdTree tree(table);
    const std::vector<double> c(d, 0.5);
    MomentsProbeKernel got(d);
    tree.BlockVisit(c.data(), 100.0, storage::LpNorm::L2(), &got, nullptr);
    ASSERT_EQ(got.subtrees, 1);
    ASSERT_EQ(got.m.count, table.num_rows());
    Moments want(d);
    for (int64_t i = 0; i < table.num_rows(); ++i) want.AddRow(table.x(i), table.u(i));
    ExpectMomentsNear(got.m, want, "d=" + std::to_string(d));

    // The same moments through OlsAccumulator: row by row vs the root merge.
    linalg::OlsAccumulator rows(d), merged(d);
    for (int64_t i = 0; i < table.num_rows(); ++i) rows.Add(table.x(i), table.u(i));
    GramBlockKernel gram(&merged);
    tree.BlockVisit(c.data(), 100.0, storage::LpNorm::L2(), &gram, nullptr);
    ASSERT_EQ(merged.count(), rows.count());
    const auto a = rows.Solve();
    const auto b = merged.Solve();
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_NEAR(b->intercept, a->intercept, 1e-12 * std::max(1.0, std::fabs(a->intercept)));
    for (size_t j = 0; j < d; ++j) {
      EXPECT_NEAR(b->slope[j], a->slope[j], 1e-12 * std::max(1.0, std::fabs(a->slope[j])));
    }
    EXPECT_NEAR(b->tss, a->tss, 1e-12 * a->tss);
    EXPECT_NEAR(b->ssr, a->ssr, 1e-12 * a->ssr);
  }
}

TEST(SubtreeSumsWholeTableTest, CoveringBallExaminesNothing) {
  storage::Table table = MakeTable(3, 6000, 41);
  storage::KdTree tree(table);
  const Query q({0.5, 0.5, 0.5}, 10.0);
  ExactEngine serial(table, tree);
  ExactEngine parted(table, tree);
  ParallelOptions par;
  par.target_partitions = 6;
  parted.set_parallel(par);
  for (const ExactEngine* engine : {&serial, &parted}) {
    ExecStats q1, mom, q2, sel;
    ASSERT_TRUE(engine->MeanValue(q, &q1).ok());
    ASSERT_TRUE(engine->Moments(q, &mom).ok());
    ASSERT_TRUE(engine->Regression(q, &q2).ok());
    ASSERT_TRUE(engine->Select(q, &sel).ok());
    for (const ExecStats* s : {&q1, &mom, &q2}) {
      EXPECT_EQ(s->tuples_examined, 0);
      EXPECT_EQ(s->tuples_matched, 6000);
    }
    // Select needs the ids, so it still scans every row.
    EXPECT_EQ(sel.tuples_examined, 6000);
    EXPECT_EQ(sel.tuples_matched, 6000);
  }
}

// ---------- KahanSum ----------

TEST(KahanSumTest, CompensatesWhereNaiveSumLoses) {
  // 1e16 + 1.0 is absorbed by a naive double sum; Kahan carries it.
  KahanSum kahan;
  double naive = 0.0;
  kahan.Add(1e16);
  naive += 1e16;
  for (int i = 0; i < 10; ++i) {
    kahan.Add(1.0);
    naive += 1.0;
  }
  kahan.Add(-1e16);
  naive += -1e16;
  EXPECT_EQ(kahan.value(), 10.0);
  EXPECT_NE(naive, 10.0);  // The naive stream lost the units.
}

}  // namespace
}  // namespace query
}  // namespace qreg
