// Dense row-major float matrix — the numeric workhorse of the neural
// substrate. Sized for the paper's regime (hidden dimensions of tens to a
// few hundred). The mat-mat products dispatch to the register-blocked SIMD
// kernels in nn/gemm.h; mat-vec keeps a dedicated row-dot path sharing the
// same canonical reduction order.

#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "util/logging.h"
#include "util/random.h"

namespace ncl::nn {

/// \brief Dense matrix of floats, row-major. A column vector is (n, 1).
class Matrix {
 public:
  Matrix() = default;
  Matrix(size_t rows, size_t cols) : rows_(rows), cols_(cols), data_(rows * cols) {}
  Matrix(size_t rows, size_t cols, float fill)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  /// Build from an explicit initialiser (row-major order).
  static Matrix FromValues(size_t rows, size_t cols, std::vector<float> values);

  /// Uniform random entries in [-scale, scale].
  static Matrix RandomUniform(size_t rows, size_t cols, float scale, Rng& rng);

  /// Xavier/Glorot uniform initialisation for a (fan_out, fan_in) weight.
  static Matrix Xavier(size_t rows, size_t cols, Rng& rng);

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  float& operator()(size_t r, size_t c) {
    NCL_DCHECK(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }
  float operator()(size_t r, size_t c) const {
    NCL_DCHECK(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }

  /// Flat element access (row-major).
  float& operator[](size_t i) {
    NCL_DCHECK(i < data_.size());
    return data_[i];
  }
  float operator[](size_t i) const {
    NCL_DCHECK(i < data_.size());
    return data_[i];
  }

  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }

  float* row_data(size_t r) { return data_.data() + r * cols_; }
  const float* row_data(size_t r) const { return data_.data() + r * cols_; }

  void SetZero();
  void Fill(float value);

  /// this += other (same shape).
  void AddInPlace(const Matrix& other);
  /// this += alpha * other (same shape).
  void Axpy(float alpha, const Matrix& other);
  /// this *= alpha.
  void Scale(float alpha);

  /// Sum of squares of all entries.
  double SquaredNorm() const;
  /// Euclidean norm.
  double Norm() const;
  /// Sum of all entries.
  double Sum() const;

  /// Matrix product: returns this(m,k) * other(k,n). Column-vector operands
  /// (n == 1) dispatch to the dedicated matvec path; larger right-hand
  /// sides run the blocked GemmNN kernel.
  Matrix MatMul(const Matrix& other) const;

  /// Matrix-vector product into a caller buffer: y = this(m,k) * x, where x
  /// has k entries and y has m. Used by tape-free concept encoding and the
  /// per-lane attention scores (hidden dims 32-256); blocked accumulation,
  /// branch-free inner loop so the compiler can vectorise.
  void MatVecInto(const float* x, float* y) const;

  /// Accumulating matrix-vector product: y += this(m,k) * x.
  void MatVecAccumInto(const float* x, float* y) const;
  /// Transposed product: returns this^T(k,m)^T... i.e. (this^T) * other,
  /// with this(k,m), other(k,n) -> (m,n). Avoids materialising transposes.
  Matrix TransposedMatMul(const Matrix& other) const;
  /// Product with the other side transposed: this(m,k) * other(n,k)^T -> (m,n).
  Matrix MatMulTransposed(const Matrix& other) const;

  /// Dot product of two matrices viewed as flat vectors (same shape).
  double Dot(const Matrix& other) const;

  bool SameShape(const Matrix& other) const {
    return rows_ == other.rows_ && cols_ == other.cols_;
  }

  /// Shape as "(r x c)" for diagnostics.
  std::string ShapeString() const;

 private:
  size_t rows_ = 0;
  size_t cols_ = 0;
  std::vector<float> data_;
};

}  // namespace ncl::nn
