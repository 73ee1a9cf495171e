// Regression gate on the paper's accuracy curves, run through the very
// helpers the figure benches use (bench/bench_common.h), at a size small
// enough for every tier-1 run:
//   - Figure 7: Q1 RMSE falls as the vigilance coefficient a falls (finer
//     quantization, more local models);
//   - Figure 9: at small a the LLM's piecewise Q2 answer explains more
//     variance (lower FVU) than one global REG plane over the same ball.
// Training consumes exact Q1 answers, so this also pins that the exact
// engine's reassociated sums keep the model as accurate as before.

#include <gtest/gtest.h>

#include "bench/bench_common.h"

namespace qreg {
namespace bench {
namespace {

// bench_fig07/fig09 run R2 at 200k rows and 15k training pairs; a fifth of
// the data and training budget keeps both curves' shape with a wide margin.
constexpr int64_t kRows = 40000;
constexpr int64_t kTrainCap = 4000;
constexpr uint64_t kSeed = 42;  // The benches' default QREG_SEED.
constexpr size_t kDim = 2;

DataBundle& R2() {
  static DataBundle* bundle = new DataBundle(MakeR2Bundle(kDim, kRows, kSeed + kDim));
  return *bundle;
}

TEST(AccuracyShapeTest, Q1RmseFallsWithVigilance) {
  // bench_fig07_q1_rmse_vs_a's recipe and seeds: γ = 0.01; a = 0.1 and 0.6
  // are entries 1 and 5 of its a-series.
  struct Point {
    double a;
    uint64_t index;
  };
  double rmse[2];
  int k[2];
  const Point points[2] = {{0.1, 1}, {0.6, 5}};
  for (int i = 0; i < 2; ++i) {
    TrainedModel tm = TrainLlm(R2(), points[i].a, 0.01, kTrainCap,
                               kSeed + 100 * kDim + points[i].index);
    rmse[i] = EvalQ1Rmse(*tm.model, R2(), 400, kSeed + points[i].index);
    k[i] = tm.model->num_prototypes();
  }
  EXPECT_LT(rmse[0], rmse[1]) << "K=" << k[0] << " vs K=" << k[1];
}

TEST(AccuracyShapeTest, PiecewiseFvuBeatsGlobalRegAtSmallA) {
  // bench_fig09_q2_fvu's recipe and seeds for d = 2: 12 evaluation balls at
  // 3x the training radius, so answers span several local models; REG is
  // one exact OLS plane over the same ball.
  for (double a : {0.05, 0.1}) {
    TrainedModel tm =
        TrainLlm(R2(), a, 0.01, kTrainCap, kSeed + static_cast<uint64_t>(a * 100));
    const Q2Eval q2 = EvalQ2(*tm.model, R2(), 12, kSeed + 7, /*eval_plr=*/false,
                             /*plr_max_terms=*/0, /*theta_scale=*/3.0);
    ASSERT_EQ(q2.queries, 12);
    EXPECT_LT(q2.llm_fvu, q2.reg_fvu)
        << "a=" << a << " K=" << tm.model->num_prototypes();
  }
}

}  // namespace
}  // namespace bench
}  // namespace qreg
