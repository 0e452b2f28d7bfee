#ifndef M3_LA_BLAS_H_
#define M3_LA_BLAS_H_

#include <cstddef>
#include <vector>

#include "la/matrix.h"
#include "util/thread_pool.h"

namespace m3::la {

/// \defgroup blas BLAS-style kernels over views
///
/// Hand-rolled level-1/2/3 kernels sufficient for the paper's workloads
/// (logistic regression gradients, k-means distance passes). All kernels
/// accept views, so they run unchanged on heap memory and mmap'd files.

/// \brief Length from which the elementwise kernels (Axpy, Scal, Copy,
/// Subtract, AccumulateAndClear) split a vector into contiguous blocks run
/// across `pool` (the global pool by default). Shorter vectors, one-thread
/// pools and calls made on a pool worker run inline. Each element sees the
/// serial loop's operations, so every partition gives the same bits.
///
/// It is also the block of the reductions (Dot, AxpyDot, Nrm2, Sum, AbsMax,
/// SquaredDistance): a vector is cut into fixed blocks of this length, so
/// the cuts depend on its length only. Each block is reduced by the serial
/// single-accumulator loop starting at +0.0, the blocks fan out like the
/// elementwise kernels, and the calling thread adds the block results in
/// block order. A vector of at most this length is one block, reduced
/// exactly as the plain serial loop; any vector gets the same bits at any
/// pool size.
inline constexpr size_t kParallelKernelMinLength = size_t{1} << 16;

/// \brief Returns x . y, reduced in fixed blocks (see
/// kParallelKernelMinLength). \pre x.size() == y.size().
double Dot(ConstVectorView x, ConstVectorView y,
           util::ThreadPool* pool = nullptr);

/// \brief y += alpha * x. \pre x.size() == y.size().
void Axpy(double alpha, ConstVectorView x, VectorView y,
          util::ThreadPool* pool = nullptr);

/// \brief y += alpha * x, then returns z . y (the updated y), in one pass
/// per block: the bits of Axpy(alpha, x, y) followed by Dot(z, y), without
/// a second trip over y. \pre all three sizes agree.
double AxpyDot(double alpha, ConstVectorView x, VectorView y,
               ConstVectorView z, util::ThreadPool* pool = nullptr);

/// \brief x *= alpha.
void Scal(double alpha, VectorView x, util::ThreadPool* pool = nullptr);

/// \brief Euclidean norm of x: sqrt(Dot(x, x)).
double Nrm2(ConstVectorView x, util::ThreadPool* pool = nullptr);

/// \brief Sum of elements of x, reduced in fixed blocks like Dot.
double Sum(ConstVectorView x, util::ThreadPool* pool = nullptr);

/// \brief Largest absolute element of x (0 for empty). Exact in any order;
/// pooled in the same fixed blocks as Dot.
double AbsMax(ConstVectorView x, util::ThreadPool* pool = nullptr);

/// \brief || x - y ||^2 without forming the difference, reduced in fixed
/// blocks like Dot.
double SquaredDistance(ConstVectorView x, ConstVectorView y,
                       util::ThreadPool* pool = nullptr);

/// \brief out = x (element copy). \pre same size.
void Copy(ConstVectorView x, VectorView out, util::ThreadPool* pool = nullptr);

/// \brief out = x - y in one pass; per element the same bits as
/// Copy(x, out) followed by Axpy(-1.0, y, out). \pre same sizes.
void Subtract(ConstVectorView x, ConstVectorView y, VectorView out,
              util::ThreadPool* pool = nullptr);

/// \brief out += parts[0] + ... elementwise, adding the parts in order (the
/// bits of one Axpy(1.0, part, out) per part), and zeroes every part for
/// reuse. \pre every part has out's size and none aliases out.
void AccumulateAndClear(const std::vector<VectorView>& parts, VectorView out,
                        util::ThreadPool* pool = nullptr);

/// \brief y = alpha * A * x + beta * y (row-major GEMV).
/// \pre A.cols() == x.size() and A.rows() == y.size().
void Gemv(double alpha, ConstMatrixView a, ConstVectorView x, double beta,
          VectorView y);

/// \brief y = alpha * A^T * x + beta * y.
/// \pre A.rows() == x.size() and A.cols() == y.size().
void GemvT(double alpha, ConstMatrixView a, ConstVectorView x, double beta,
           VectorView y);

/// \brief C = alpha * A * B + beta * C (blocked row-major GEMM).
/// \pre shapes conform: A(m,k), B(k,n), C(m,n).
void Gemm(double alpha, ConstMatrixView a, ConstMatrixView b, double beta,
          MatrixView c);

/// \brief Gemv partitioned by rows across the thread pool.
///
/// Equivalent to Gemv; worthwhile for tall matrices (the dataset pass).
void ParallelGemv(double alpha, ConstMatrixView a, ConstVectorView x,
                  double beta, VectorView y,
                  util::ThreadPool* pool = nullptr);

/// \brief GemvT with per-worker partials reduced at the end.
void ParallelGemvT(double alpha, ConstMatrixView a, ConstVectorView x,
                   double beta, VectorView y,
                   util::ThreadPool* pool = nullptr);

}  // namespace m3::la

#endif  // M3_LA_BLAS_H_
