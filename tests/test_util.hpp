#pragma once
// Shared helpers for hylo tests: random matrix generation, tolerances,
// bitwise comparison, and the environment guard.
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>

#include "hylo/common/rng.hpp"
#include "hylo/tensor/matrix.hpp"
#include "hylo/tensor/ops.hpp"

namespace hylo::testutil {

inline Matrix random_matrix(Rng& rng, index_t rows, index_t cols,
                            real_t scale = 1.0) {
  Matrix m(rows, cols);
  for (index_t i = 0; i < m.size(); ++i) m[i] = scale * rng.normal();
  return m;
}

inline Matrix random_spd(Rng& rng, index_t n, real_t shift = 0.5) {
  const Matrix b = random_matrix(rng, n, n);
  Matrix s = gram_nt(b);
  add_diagonal(s, shift * static_cast<real_t>(n));
  return s;
}

inline Matrix random_symmetric(Rng& rng, index_t n) {
  Matrix m = random_matrix(rng, n, n);
  for (index_t i = 0; i < n; ++i)
    for (index_t j = 0; j < i; ++j) {
      const real_t v = 0.5 * (m(i, j) + m(j, i));
      m(i, j) = v;
      m(j, i) = v;
    }
  return m;
}

/// Rank-deficient matrix: product of (rows x r) and (r x cols).
inline Matrix random_low_rank(Rng& rng, index_t rows, index_t cols, index_t r) {
  return matmul(random_matrix(rng, rows, r), random_matrix(rng, r, cols));
}

/// Same shape and the same bits in every entry.
inline bool bitwise_equal(const Matrix& x, const Matrix& y) {
  return x.rows() == y.rows() && x.cols() == y.cols() &&
         std::memcmp(x.data(), y.data(),
                     sizeof(real_t) * static_cast<std::size_t>(x.size())) == 0;
}

/// Holds one environment variable at `value` (nullptr: unset) until it goes
/// out of scope, then restores the prior value, or unsets it if it was
/// unset. Every test that changes the environment does so through this, so
/// a ctest lane that runs a whole binary under an ambient HYLO_* setting
/// keeps that setting for the tests that follow.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    if (const char* prior = std::getenv(name)) prior_ = prior;
    set(value);
  }
  ~ScopedEnv() { set(prior_.has_value() ? prior_->c_str() : nullptr); }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

  /// Change the held value (nullptr: unset).
  void set(const char* value) {
    if (value == nullptr) {
      ::unsetenv(name_.c_str());
    } else {
      ::setenv(name_.c_str(), value, 1);
    }
  }

 private:
  std::string name_;
  std::optional<std::string> prior_;
};

}  // namespace hylo::testutil
