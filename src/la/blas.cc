#include "la/blas.h"

#include <algorithm>
#include <cmath>
#include <mutex>
#include <vector>

namespace m3::la {

namespace {

/// Runs fn(lo, hi) over [0, n): inline for short vectors and on pool
/// workers, else in contiguous blocks across the pool.
template <typename Fn>
void ForEachBlock(size_t n, util::ThreadPool* pool, const Fn& fn) {
  if (n < kParallelKernelMinLength || util::ThreadPool::InWorkerThread()) {
    fn(0, n);
    return;
  }
  util::ParallelFor(0, n, kParallelKernelMinLength, fn, pool);
}

/// Fixed-block reduction: block b covers [b * K, min(n, (b + 1) * K)) with
/// K = kParallelKernelMinLength, so the blocks depend on n only.
/// block_fn(lo, hi) reduces one block serially; the blocks fan out across
/// the pool like ForEachBlock, and their results are folded with `combine`
/// in block order on the calling thread. Every pool size gives the same
/// bits, and n <= K is one block: the serial loop itself.
template <typename BlockFn, typename Combine>
double ReduceBlocks(size_t n, util::ThreadPool* pool, const BlockFn& block_fn,
                    const Combine& combine) {
  constexpr size_t kBlock = kParallelKernelMinLength;
  if (n <= kBlock) {
    return block_fn(0, n);
  }
  const size_t num_blocks = (n + kBlock - 1) / kBlock;
  std::vector<double> results(num_blocks);
  const auto run = [&](size_t b_lo, size_t b_hi) {
    for (size_t b = b_lo; b < b_hi; ++b) {
      results[b] = block_fn(b * kBlock, std::min(n, (b + 1) * kBlock));
    }
  };
  if (util::ThreadPool::InWorkerThread()) {
    run(0, num_blocks);
  } else {
    util::ParallelFor(0, num_blocks, /*grain=*/1, run, pool);
  }
  double acc = results[0];
  for (size_t b = 1; b < num_blocks; ++b) {
    acc = combine(acc, results[b]);
  }
  return acc;
}

/// ReduceBlocks adding the block sums. Each block sum starts at +0.0 and so
/// is never -0.0: adding it to an empty total is exact.
template <typename BlockFn>
double SumBlocks(size_t n, util::ThreadPool* pool, const BlockFn& block_fn) {
  return ReduceBlocks(n, pool, block_fn,
                      [](double a, double b) { return a + b; });
}

}  // namespace

double Dot(ConstVectorView x, ConstVectorView y, util::ThreadPool* pool) {
  M3_CHECK(x.size() == y.size(), "Dot size mismatch %zu vs %zu", x.size(),
           y.size());
  const double* px = x.data();
  const double* py = y.data();
  return SumBlocks(x.size(), pool, [=](size_t lo, size_t hi) {
    double acc = 0.0;
    for (size_t i = lo; i < hi; ++i) {
      acc += px[i] * py[i];
    }
    return acc;
  });
}

void Axpy(double alpha, ConstVectorView x, VectorView y,
          util::ThreadPool* pool) {
  M3_CHECK(x.size() == y.size(), "Axpy size mismatch %zu vs %zu", x.size(),
           y.size());
  const double* px = x.data();
  double* py = y.data();
  ForEachBlock(x.size(), pool, [=](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) {
      py[i] += alpha * px[i];
    }
  });
}

double AxpyDot(double alpha, ConstVectorView x, VectorView y,
               ConstVectorView z, util::ThreadPool* pool) {
  M3_CHECK(x.size() == y.size() && z.size() == y.size(),
           "AxpyDot size mismatch");
  const double* px = x.data();
  double* py = y.data();
  const double* pz = z.data();
  return SumBlocks(x.size(), pool, [=](size_t lo, size_t hi) {
    double acc = 0.0;
    for (size_t i = lo; i < hi; ++i) {
      py[i] += alpha * px[i];
      acc += pz[i] * py[i];
    }
    return acc;
  });
}

void Scal(double alpha, VectorView x, util::ThreadPool* pool) {
  double* px = x.data();
  ForEachBlock(x.size(), pool, [=](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) {
      px[i] *= alpha;
    }
  });
}

double Nrm2(ConstVectorView x, util::ThreadPool* pool) {
  return std::sqrt(Dot(x, x, pool));
}

double Sum(ConstVectorView x, util::ThreadPool* pool) {
  const double* px = x.data();
  return SumBlocks(x.size(), pool, [=](size_t lo, size_t hi) {
    double acc = 0.0;
    for (size_t i = lo; i < hi; ++i) {
      acc += px[i];
    }
    return acc;
  });
}

double AbsMax(ConstVectorView x, util::ThreadPool* pool) {
  const double* px = x.data();
  return ReduceBlocks(
      x.size(), pool,
      [=](size_t lo, size_t hi) {
        double best = 0.0;
        for (size_t i = lo; i < hi; ++i) {
          best = std::max(best, std::fabs(px[i]));
        }
        return best;
      },
      [](double a, double b) { return std::max(a, b); });
}

double SquaredDistance(ConstVectorView x, ConstVectorView y,
                       util::ThreadPool* pool) {
  M3_CHECK(x.size() == y.size(), "SquaredDistance size mismatch");
  const double* px = x.data();
  const double* py = y.data();
  return SumBlocks(x.size(), pool, [=](size_t lo, size_t hi) {
    double acc = 0.0;
    for (size_t i = lo; i < hi; ++i) {
      const double d = px[i] - py[i];
      acc += d * d;
    }
    return acc;
  });
}

void Copy(ConstVectorView x, VectorView out, util::ThreadPool* pool) {
  M3_CHECK(x.size() == out.size(), "Copy size mismatch");
  const double* px = x.data();
  double* po = out.data();
  ForEachBlock(x.size(), pool, [=](size_t lo, size_t hi) {
    std::copy(px + lo, px + hi, po + lo);
  });
}

void Subtract(ConstVectorView x, ConstVectorView y, VectorView out,
              util::ThreadPool* pool) {
  M3_CHECK(x.size() == y.size() && x.size() == out.size(),
           "Subtract size mismatch");
  const double* px = x.data();
  const double* py = y.data();
  double* po = out.data();
  ForEachBlock(x.size(), pool, [=](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) {
      po[i] = px[i] - py[i];
    }
  });
}

void AccumulateAndClear(const std::vector<VectorView>& parts, VectorView out,
                        util::ThreadPool* pool) {
  for (const VectorView& part : parts) {
    M3_CHECK(part.size() == out.size(), "AccumulateAndClear size mismatch");
  }
  // Tiles small enough that out's tile stays in L1 across the parts.
  constexpr size_t kTile = 2048;
  double* po = out.data();
  ForEachBlock(out.size(), pool, [&parts, po](size_t lo, size_t hi) {
    for (size_t t = lo; t < hi; t += kTile) {
      const size_t t_end = std::min(hi, t + kTile);
      for (const VectorView& part : parts) {
        double* pp = part.data();
        for (size_t i = t; i < t_end; ++i) {
          po[i] += pp[i];
          pp[i] = 0.0;
        }
      }
    }
  });
}

void Gemv(double alpha, ConstMatrixView a, ConstVectorView x, double beta,
          VectorView y) {
  M3_CHECK(a.cols() == x.size(), "Gemv: A.cols %zu != x.size %zu", a.cols(),
           x.size());
  M3_CHECK(a.rows() == y.size(), "Gemv: A.rows %zu != y.size %zu", a.rows(),
           y.size());
  for (size_t r = 0; r < a.rows(); ++r) {
    y[r] = alpha * Dot(a.Row(r), x) + beta * y[r];
  }
}

void GemvT(double alpha, ConstMatrixView a, ConstVectorView x, double beta,
           VectorView y) {
  M3_CHECK(a.rows() == x.size(), "GemvT: A.rows %zu != x.size %zu", a.rows(),
           x.size());
  M3_CHECK(a.cols() == y.size(), "GemvT: A.cols %zu != y.size %zu", a.cols(),
           y.size());
  if (beta != 1.0) {
    Scal(beta, y);
  }
  // Row-major traversal: accumulate alpha * x[r] * A[r, :] into y.
  for (size_t r = 0; r < a.rows(); ++r) {
    Axpy(alpha * x[r], a.Row(r), y);
  }
}

void Gemm(double alpha, ConstMatrixView a, ConstMatrixView b, double beta,
          MatrixView c) {
  M3_CHECK(a.cols() == b.rows(), "Gemm: inner dims %zu vs %zu", a.cols(),
           b.rows());
  M3_CHECK(c.rows() == a.rows() && c.cols() == b.cols(),
           "Gemm: C shape mismatch");
  const size_t m = a.rows();
  const size_t k = a.cols();
  const size_t n = b.cols();
  if (beta != 1.0) {
    for (size_t r = 0; r < m; ++r) {
      Scal(beta, c.Row(r));
    }
  }
  // ikj loop order with cache blocking on k: streams B rows, accumulates C
  // rows; good locality for row-major operands.
  constexpr size_t kBlock = 64;
  for (size_t k0 = 0; k0 < k; k0 += kBlock) {
    const size_t k1 = std::min(k, k0 + kBlock);
    for (size_t i = 0; i < m; ++i) {
      double* crow = c.Row(i).data();
      for (size_t kk = k0; kk < k1; ++kk) {
        const double aik = alpha * a(i, kk);
        if (aik == 0.0) {
          continue;
        }
        const double* brow = b.Row(kk).data();
        for (size_t j = 0; j < n; ++j) {
          crow[j] += aik * brow[j];
        }
      }
    }
  }
}

void ParallelGemv(double alpha, ConstMatrixView a, ConstVectorView x,
                  double beta, VectorView y, util::ThreadPool* pool) {
  M3_CHECK(a.cols() == x.size() && a.rows() == y.size(),
           "ParallelGemv shape mismatch");
  // Partition output rows; each worker owns a disjoint slice of y.
  util::ParallelFor(
      0, a.rows(), /*grain=*/256,
      [&](size_t lo, size_t hi) {
        Gemv(alpha, a.RowRange(lo, hi - lo), x, beta,
             y.Slice(lo, hi - lo));
      },
      pool);
}

void ParallelGemvT(double alpha, ConstMatrixView a, ConstVectorView x,
                   double beta, VectorView y, util::ThreadPool* pool) {
  M3_CHECK(a.rows() == x.size() && a.cols() == y.size(),
           "ParallelGemvT shape mismatch");
  if (beta != 1.0) {
    Scal(beta, y);
  }
  // Per-chunk partials merged in chunk order: the reduction is bitwise
  // deterministic for a fixed pool size.
  if (pool == nullptr) {
    pool = &util::GlobalThreadPool();
  }
  const auto ranges =
      util::PartitionRange(0, a.rows(), /*grain=*/256, pool->num_threads());
  std::vector<std::vector<double>> partials(ranges.size(),
                                            std::vector<double>(a.cols()));
  util::ParallelForIndexed(
      0, a.rows(), /*grain=*/256,
      [&](size_t chunk, size_t lo, size_t hi) {
        VectorView pview(partials[chunk].data(), partials[chunk].size());
        GemvT(alpha, a.RowRange(lo, hi - lo), x.Slice(lo, hi - lo), 1.0,
              pview);
      },
      pool);
  for (const auto& partial : partials) {
    Axpy(1.0, ConstVectorView(partial.data(), partial.size()), y);
  }
}

}  // namespace m3::la
