#include "la/sparse.h"

#include "la/blas.h"

namespace m3::la {

double SparseDot(const SparseRowView& x, ConstVectorView w) {
  // Dot's fixed blocks: the stored entries of each block are summed from
  // +0.0, and a block's sum joins the total when the row leaves the block,
  // so block sums are added in block order. A skipped empty block would add
  // +0.0 to a total that is never -0.0, an identity. For w of at most one
  // block this is the plain serial loop.
  constexpr size_t kBlock = kParallelKernelMinLength;
  double total = 0.0;
  double sum = 0.0;
  size_t block = 0;
  for (size_t k = 0; k < x.nnz; ++k) {
    const size_t b = x.cols[k] / kBlock;
    if (b != block) {
      total += sum;
      sum = 0.0;
      block = b;
    }
    sum += x.values[k] * w[x.cols[k]];
  }
  return total + sum;
}

void SparseAxpy(double alpha, const SparseRowView& x, VectorView y) {
  for (size_t k = 0; k < x.nnz; ++k) {
    y[x.cols[k]] += alpha * x.values[k];
  }
}

void DensifyRow(const SparseRowView& x, VectorView out) {
  out.SetZero();
  for (size_t k = 0; k < x.nnz; ++k) {
    M3_CHECK(x.cols[k] < out.size(), "column %u out of %zu",
             static_cast<unsigned>(x.cols[k]), out.size());
    out[x.cols[k]] = x.values[k];
  }
}

Matrix Densify(const CsrView& x) {
  Matrix dense(x.rows(), x.cols());
  for (size_t r = 0; r < x.rows(); ++r) {
    DensifyRow(x.Row(r), dense.Row(r));
  }
  return dense;
}

}  // namespace m3::la
