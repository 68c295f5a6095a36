#include "ml/linear_model.hpp"

#include <cmath>
#include <sstream>
#include <stdexcept>

#include "util/table.hpp"

namespace wavetune::ml {

LinearModel::LinearModel(std::vector<double> weights, double intercept)
    : weights_(std::move(weights)), intercept_(intercept) {}

std::vector<double> solve_linear_system(std::vector<std::vector<double>> a,
                                        std::vector<double> b) {
  const std::size_t n = b.size();
  if (a.size() != n) throw std::invalid_argument("solve_linear_system: shape mismatch");
  for (const auto& row : a) {
    if (row.size() != n) throw std::invalid_argument("solve_linear_system: non-square");
  }

  // Try Cholesky first (A = L L^T); bail out to Gaussian elimination on a
  // non-positive pivot. L is a flat row-major n x n lower triangle.
  std::vector<double> l(n * n, 0.0);
  bool spd = true;
  for (std::size_t i = 0; i < n && spd; ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      double sum = a[i][j];
      for (std::size_t k = 0; k < j; ++k) sum -= l[i * n + k] * l[j * n + k];
      if (i == j) {
        if (sum <= 1e-14) {
          spd = false;
          break;
        }
        l[i * n + j] = std::sqrt(sum);
      } else {
        l[i * n + j] = sum / l[j * n + j];
      }
    }
  }
  if (spd) {
    // Forward then backward substitution.
    std::vector<double> y(n);
    for (std::size_t i = 0; i < n; ++i) {
      double sum = b[i];
      for (std::size_t k = 0; k < i; ++k) sum -= l[i * n + k] * y[k];
      y[i] = sum / l[i * n + i];
    }
    std::vector<double> x(n);
    for (std::size_t ii = n; ii-- > 0;) {
      double sum = y[ii];
      for (std::size_t k = ii + 1; k < n; ++k) sum -= l[k * n + ii] * x[k];
      x[ii] = sum / l[ii * n + ii];
    }
    return x;
  }

  // Gaussian elimination with partial pivoting.
  for (std::size_t col = 0; col < n; ++col) {
    std::size_t pivot = col;
    for (std::size_t r = col + 1; r < n; ++r) {
      if (std::abs(a[r][col]) > std::abs(a[pivot][col])) pivot = r;
    }
    if (std::abs(a[pivot][col]) < 1e-14) {
      throw std::runtime_error("solve_linear_system: singular matrix");
    }
    std::swap(a[col], a[pivot]);
    std::swap(b[col], b[pivot]);
    for (std::size_t r = col + 1; r < n; ++r) {
      const double f = a[r][col] / a[col][col];
      for (std::size_t c = col; c < n; ++c) a[r][c] -= f * a[col][c];
      b[r] -= f * b[col];
    }
  }
  std::vector<double> x(n);
  for (std::size_t ii = n; ii-- > 0;) {
    double sum = b[ii];
    for (std::size_t c = ii + 1; c < n; ++c) sum -= a[ii][c] * x[c];
    x[ii] = sum / a[ii][ii];
  }
  return x;
}

LinearModel LinearModel::fit(const Dataset& data, double lambda,
                             const std::vector<bool>* feature_mask) {
  if (data.empty()) throw std::invalid_argument("LinearModel::fit: empty dataset");
  const std::size_t k = data.num_features();
  if (feature_mask && feature_mask->size() != k) {
    throw std::invalid_argument("LinearModel::fit: bad mask size");
  }

  // Active feature indices (masked model keeps zero weights elsewhere).
  std::vector<std::size_t> active;
  for (std::size_t c = 0; c < k; ++c) {
    if (!feature_mask || (*feature_mask)[c]) active.push_back(c);
  }

  // Augmented design: [active features, 1]; normal equations
  // (X^T X + lambda I) w = X^T y (no penalty on the intercept).
  const std::size_t m = active.size() + 1;
  std::vector<std::vector<double>> xtx(m, std::vector<double>(m, 0.0));
  std::vector<double> xty(m, 0.0);
  std::vector<double> xi(m, 1.0);
  for (std::size_t i = 0; i < data.size(); ++i) {
    const auto r = data.row(i);
    for (std::size_t c = 0; c < active.size(); ++c) xi[c] = r[active[c]];
    xi[m - 1] = 1.0;
    for (std::size_t p = 0; p < m; ++p) {
      for (std::size_t q = 0; q < m; ++q) xtx[p][q] += xi[p] * xi[q];
      xty[p] += xi[p] * data.target(i);
    }
  }
  for (std::size_t p = 0; p + 1 < m; ++p) xtx[p][p] += lambda;

  const std::vector<double> w = solve_linear_system(std::move(xtx), std::move(xty));

  LinearModel model;
  model.weights_.assign(k, 0.0);
  for (std::size_t c = 0; c < active.size(); ++c) model.weights_[active[c]] = w[c];
  model.intercept_ = w[m - 1];
  return model;
}

double LinearModel::predict(std::span<const double> x) const {
  if (x.size() != weights_.size()) {
    throw std::invalid_argument("LinearModel::predict: arity mismatch");
  }
  double y = intercept_;
  for (std::size_t c = 0; c < x.size(); ++c) y += weights_[c] * x[c];
  return y;
}

std::string LinearModel::describe(const std::vector<std::string>& feature_names) const {
  std::ostringstream ss;
  ss << "y = ";
  bool first = true;
  for (std::size_t c = 0; c < weights_.size(); ++c) {
    if (weights_[c] == 0.0) continue;
    const std::string name = feature_label(feature_names, c);
    if (!first) ss << (weights_[c] >= 0 ? " + " : " - ");
    else if (weights_[c] < 0) ss << "-";
    ss << util::format_double(std::abs(weights_[c]), 4) << "*" << name;
    first = false;
  }
  if (!first) ss << (intercept_ >= 0 ? " + " : " - ");
  else if (intercept_ < 0) ss << "-";
  ss << util::format_double(std::abs(intercept_), 4);
  return ss.str();
}

util::Json LinearModel::to_json() const {
  util::Json j = util::Json::object();
  j["kind"] = util::Json("linear");
  util::Json w = util::Json::array();
  for (double v : weights_) w.push_back(util::Json(v));
  j["weights"] = std::move(w);
  j["intercept"] = util::Json(intercept_);
  return j;
}

LinearModel LinearModel::from_json(const util::Json& j) {
  LinearModel m;
  for (const auto& v : j.at("weights").as_array()) m.weights_.push_back(v.as_number());
  m.intercept_ = j.at("intercept").as_number();
  return m;
}

}  // namespace wavetune::ml
