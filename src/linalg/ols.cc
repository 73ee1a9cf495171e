#include "linalg/ols.h"

#include <cassert>
#include <cmath>
#include <limits>

#include "linalg/cholesky.h"
#include "linalg/qr.h"

namespace qreg {
namespace linalg {

double OlsFit::FVU() const {
  if (tss > 0.0) return ssr / tss;
  return ssr > 0.0 ? std::numeric_limits<double>::infinity() : 0.0;
}

double OlsFit::CoD() const { return 1.0 - FVU(); }

double OlsFit::Predict(const std::vector<double>& x) const {
  assert(x.size() == slope.size());
  double s = intercept;
  for (size_t i = 0; i < slope.size(); ++i) s += slope[i] * x[i];
  return s;
}

OlsAccumulator::OlsAccumulator(size_t d)
    : d_(d), xtx_(d + 1, d + 1), xtu_(d + 1, 0.0) {}

void OlsAccumulator::Add(const std::vector<double>& x, double u) {
  assert(x.size() == d_);
  Add(x.data(), u);
}

void OlsAccumulator::Add(const double* x, double u) {
  // Augmented feature vector z = [1, x_0, ..., x_{d-1}] accumulated into the
  // upper triangle; the lower triangle is mirrored in Solve().
  ++n_;
  xtx_(0, 0) += 1.0;
  xtu_[0] += u;
  for (size_t i = 0; i < d_; ++i) {
    xtx_(0, i + 1) += x[i];
    xtu_[i + 1] += x[i] * u;
    for (size_t j = i; j < d_; ++j) {
      xtx_(i + 1, j + 1) += x[i] * x[j];
    }
  }
  utu_ += u * u;
  usum_ += u;
}

void OlsAccumulator::AddBlock(const double* xs, const double* us,
                              const int32_t* sel, int32_t count) {
  for (int32_t k = 0; k < count; ++k) {
    const size_t lane = static_cast<size_t>(sel[k]);
    Add(xs + lane * d_, us[lane]);
  }
}

void OlsAccumulator::AddMoments(int64_t n, double sum_u, double sum_uu,
                                const double* sum_x, const double* sum_xx,
                                const double* sum_xu) {
  n_ += n;
  xtx_(0, 0) += static_cast<double>(n);
  xtu_[0] += sum_u;
  size_t k = 0;
  for (size_t i = 0; i < d_; ++i) {
    xtx_(0, i + 1) += sum_x[i];
    xtu_[i + 1] += sum_xu[i];
    for (size_t j = i; j < d_; ++j) xtx_(i + 1, j + 1) += sum_xx[k++];
  }
  utu_ += sum_uu;
  usum_ += sum_u;
}

util::Status OlsAccumulator::Merge(const OlsAccumulator& other) {
  if (other.d_ != d_) {
    return util::Status::InvalidArgument("OlsAccumulator dimension mismatch");
  }
  n_ += other.n_;
  utu_ += other.utu_;
  usum_ += other.usum_;
  for (size_t i = 0; i <= d_; ++i) {
    xtu_[i] += other.xtu_[i];
    for (size_t j = i; j <= d_; ++j) {
      xtx_(i, j) += other.xtx_(i, j);
    }
  }
  return util::Status::OK();
}

util::Result<OlsFit> OlsAccumulator::Solve() const {
  if (n_ < 1) {
    return util::Status::FailedPrecondition("OLS over an empty subspace");
  }
  // Mirror the accumulated upper triangle.
  Matrix a(d_ + 1, d_ + 1);
  for (size_t i = 0; i <= d_; ++i) {
    for (size_t j = i; j <= d_; ++j) {
      a(i, j) = xtx_(i, j);
      a(j, i) = xtx_(i, j);
    }
  }
  QREG_ASSIGN_OR_RETURN(std::vector<double> beta,
                        CholeskySolveRegularized(a, xtu_));

  OlsFit fit;
  fit.n = n_;
  fit.intercept = beta[0];
  fit.slope.assign(beta.begin() + 1, beta.end());
  fit.u_mean = usum_ / static_cast<double>(n_);

  // SSR = u'u - 2 b'X'u + b'X'X b, computed from the accumulated moments.
  double bxtxb = 0.0;
  for (size_t i = 0; i <= d_; ++i) {
    for (size_t j = 0; j <= d_; ++j) {
      bxtxb += beta[i] * a(i, j) * beta[j];
    }
  }
  double bxtu = 0.0;
  for (size_t i = 0; i <= d_; ++i) bxtu += beta[i] * xtu_[i];
  fit.ssr = std::max(0.0, utu_ - 2.0 * bxtu + bxtxb);
  fit.tss = std::max(0.0, utu_ - static_cast<double>(n_) * fit.u_mean * fit.u_mean);
  return fit;
}

void OlsAccumulator::Reset() {
  n_ = 0;
  utu_ = 0.0;
  usum_ = 0.0;
  xtx_ = Matrix(d_ + 1, d_ + 1);
  xtu_.assign(d_ + 1, 0.0);
}

util::Result<OlsFit> FitOls(const Matrix& x, const std::vector<double>& u) {
  const size_t n = x.rows();
  const size_t d = x.cols();
  if (u.size() != n) {
    return util::Status::InvalidArgument("FitOls: |u| != rows(x)");
  }
  if (n == 0) {
    return util::Status::FailedPrecondition("FitOls over an empty design");
  }
  if (n < d + 1) {
    // Fall back to the streaming path, whose regularized normal equations
    // tolerate underdetermined systems.
    OlsAccumulator acc(d);
    for (size_t i = 0; i < n; ++i) acc.Add(x.RowPtr(i), u[i]);
    return acc.Solve();
  }

  Matrix design(n, d + 1);
  for (size_t i = 0; i < n; ++i) {
    design(i, 0) = 1.0;
    const double* row = x.RowPtr(i);
    for (size_t j = 0; j < d; ++j) design(i, j + 1) = row[j];
  }
  QREG_ASSIGN_OR_RETURN(std::vector<double> beta, QrLeastSquares(design, u));

  OlsFit fit;
  fit.n = static_cast<int64_t>(n);
  fit.intercept = beta[0];
  fit.slope.assign(beta.begin() + 1, beta.end());

  double mean = 0.0;
  for (double v : u) mean += v;
  mean /= static_cast<double>(n);
  fit.u_mean = mean;

  double ssr = 0.0;
  double tss = 0.0;
  for (size_t i = 0; i < n; ++i) {
    double pred = beta[0];
    const double* row = x.RowPtr(i);
    for (size_t j = 0; j < d; ++j) pred += beta[j + 1] * row[j];
    ssr += (u[i] - pred) * (u[i] - pred);
    tss += (u[i] - mean) * (u[i] - mean);
  }
  fit.ssr = ssr;
  fit.tss = tss;
  return fit;
}

}  // namespace linalg
}  // namespace qreg
