// Lp distance (Definition 2 in the paper) with fast paths for p=1,2,inf.
//
// The selection operator D(x, θ) admits any p >= 1; the query-space
// similarity measure is always L2 (Definition 5).
//
// The p-dispatch is resolved once at construction into an LpKind enum, so
// Distance/Within switch on an integer instead of re-comparing the double p
// on every call, and scan loops can hoist the dispatch entirely by selecting
// a per-kind kernel up front (see storage/block_filter.h).

#ifndef QREG_STORAGE_LP_NORM_H_
#define QREG_STORAGE_LP_NORM_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>

namespace qreg {
namespace storage {

/// \brief The four evaluation kernels an Lp norm can resolve to.
enum class LpKind { kL1, kL2, kLInf, kGeneric };

/// \brief p-norm selector; kInf encodes the Chebyshev norm.
class LpNorm {
 public:
  static constexpr double kInf = std::numeric_limits<double>::infinity();

  /// p must be >= 1 (or kInf); p defaults to Euclidean.
  explicit LpNorm(double p = 2.0) : p_(p), kind_(KindOf(p)) {}

  static LpNorm L1() { return LpNorm(1.0); }
  static LpNorm L2() { return LpNorm(2.0); }
  static LpNorm LInf() { return LpNorm(kInf); }

  double p() const { return p_; }

  /// The kernel this norm dispatches to, resolved once at construction.
  LpKind kind() const { return kind_; }

  /// ||a - b||_p over d coordinates.
  double Distance(const double* a, const double* b, size_t d) const {
    switch (kind_) {
      case LpKind::kL2:
        return std::sqrt(Distance2(a, b, d));
      case LpKind::kL1: {
        double s = 0.0;
        for (size_t i = 0; i < d; ++i) s += std::fabs(a[i] - b[i]);
        return s;
      }
      case LpKind::kLInf: {
        double s = 0.0;
        for (size_t i = 0; i < d; ++i) s = std::max(s, std::fabs(a[i] - b[i]));
        return s;
      }
      case LpKind::kGeneric:
        break;
    }
    double s = 0.0;
    for (size_t i = 0; i < d; ++i) s += std::pow(std::fabs(a[i] - b[i]), p_);
    return std::pow(s, 1.0 / p_);
  }

  /// Squared Euclidean distance ||a - b||_2², independent of p. Callers that
  /// only compare an L2 distance against a radius should test
  /// Distance2() <= radius * radius and skip the sqrt entirely.
  double Distance2(const double* a, const double* b, size_t d) const {
    double s = 0.0;
    for (size_t i = 0; i < d; ++i) {
      const double t = a[i] - b[i];
      s += t * t;
    }
    return s;
  }

  /// True iff ||a - b||_p <= radius; avoids the final root where possible.
  bool Within(const double* a, const double* b, size_t d, double radius) const {
    switch (kind_) {
      case LpKind::kL2: {
        double s = 0.0;
        const double r2 = radius * radius;
        for (size_t i = 0; i < d; ++i) {
          const double t = a[i] - b[i];
          s += t * t;
          if (s > r2) return false;
        }
        return true;
      }
      case LpKind::kLInf: {
        for (size_t i = 0; i < d; ++i) {
          if (std::fabs(a[i] - b[i]) > radius) return false;
        }
        return true;
      }
      case LpKind::kL1:
      case LpKind::kGeneric:
        break;
    }
    return Distance(a, b, d) <= radius;
  }

  /// Minimum ||q - y||_p over points y inside the axis-aligned box
  /// [lo, hi]^d. Used by the k-d tree to prune subtrees.
  double MinDistanceToBox(const double* q, const double* lo, const double* hi,
                          size_t d) const {
    if (kind_ == LpKind::kLInf) {
      double m = 0.0;
      for (size_t i = 0; i < d; ++i) {
        double gap = 0.0;
        if (q[i] < lo[i]) gap = lo[i] - q[i];
        else if (q[i] > hi[i]) gap = q[i] - hi[i];
        m = std::max(m, gap);
      }
      return m;
    }
    double s = 0.0;
    for (size_t i = 0; i < d; ++i) {
      double gap = 0.0;
      if (q[i] < lo[i]) gap = lo[i] - q[i];
      else if (q[i] > hi[i]) gap = q[i] - hi[i];
      s += (kind_ == LpKind::kL2) ? gap * gap
                                  : ((kind_ == LpKind::kL1) ? gap
                                                            : std::pow(gap, p_));
    }
    if (kind_ == LpKind::kL2) return std::sqrt(s);
    if (kind_ == LpKind::kL1) return s;
    return std::pow(s, 1.0 / p_);
  }

  /// Relative margin of BoxInsideBall. Two evaluations of one distance
  /// measure (say the block filter's and this test's, possibly contracted
  /// to FMAs differently) differ by at most a few·d ulps; 1e-12 is far above
  /// that for any d this code handles, and far below any radius difference
  /// a query could care about.
  static constexpr double kContainmentMargin = 1e-12;

  /// Conservative containment: true only if every point of the box
  /// [lo, hi]^d provably passes the block filter's `<= radius` test
  /// (storage/block_filter.h). Evaluates the box's farthest corner — per
  /// coordinate the endpoint farther from q — with the filter's own
  /// arithmetic (squared sum against radius² for L2) and accepts only with
  /// the relative kContainmentMargin to spare. Every rounding step is
  /// monotone, so a row's computed measure never exceeds its box's corner
  /// measure by more than the reassociation gap the margin covers. The test
  /// is hereditary: a box inside an accepted box is accepted too.
  bool BoxInsideBall(const double* q, const double* lo, const double* hi,
                     size_t d, double radius) const {
    if (!(radius >= 0.0)) return false;
    const double keep = 1.0 - kContainmentMargin;
    double s = 0.0;
    for (size_t i = 0; i < d; ++i) {
      const double t = std::max(std::fabs(lo[i] - q[i]), std::fabs(hi[i] - q[i]));
      switch (kind_) {
        case LpKind::kL2: s += t * t; break;
        case LpKind::kL1: s += t; break;
        case LpKind::kLInf: s = std::max(s, t); break;
        case LpKind::kGeneric: s += std::pow(t, p_); break;
      }
    }
    switch (kind_) {
      case LpKind::kL2: return s <= radius * radius * keep;
      case LpKind::kGeneric: return std::pow(s, 1.0 / p_) <= radius * keep;
      case LpKind::kL1:
      case LpKind::kLInf: break;
    }
    return s <= radius * keep;
  }

 private:
  static LpKind KindOf(double p) {
    if (p == 2.0) return LpKind::kL2;
    if (p == 1.0) return LpKind::kL1;
    if (p == kInf) return LpKind::kLInf;
    return LpKind::kGeneric;
  }

  double p_;
  LpKind kind_;
};

}  // namespace storage
}  // namespace qreg

#endif  // QREG_STORAGE_LP_NORM_H_
