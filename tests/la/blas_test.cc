#include "la/blas.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "util/random.h"
#include "util/thread_pool.h"

namespace m3::la {
namespace {

Matrix RandomMatrix(size_t rows, size_t cols, util::Rng* rng) {
  Matrix m(rows, cols);
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < cols; ++c) {
      m(r, c) = rng->Uniform(-1.0, 1.0);
    }
  }
  return m;
}

Vector RandomVector(size_t n, util::Rng* rng) {
  Vector v(n);
  for (size_t i = 0; i < n; ++i) {
    v[i] = rng->Uniform(-1.0, 1.0);
  }
  return v;
}

TEST(BlasTest, DotBasic) {
  Vector x(std::vector<double>{1, 2, 3});
  Vector y(std::vector<double>{4, 5, 6});
  EXPECT_DOUBLE_EQ(Dot(x, y), 32.0);
  EXPECT_DOUBLE_EQ(Dot(x, x), 14.0);
}

TEST(BlasTest, DotEmptyIsZero) {
  Vector empty;
  EXPECT_DOUBLE_EQ(Dot(empty, empty), 0.0);
}

TEST(BlasTest, AxpyAccumulates) {
  Vector x(std::vector<double>{1, 2, 3});
  Vector y(std::vector<double>{10, 20, 30});
  Axpy(2.0, x, y);
  EXPECT_DOUBLE_EQ(y[0], 12.0);
  EXPECT_DOUBLE_EQ(y[1], 24.0);
  EXPECT_DOUBLE_EQ(y[2], 36.0);
}

TEST(BlasTest, ScalScales) {
  Vector x(std::vector<double>{1, -2, 3});
  Scal(-2.0, x);
  EXPECT_DOUBLE_EQ(x[0], -2.0);
  EXPECT_DOUBLE_EQ(x[1], 4.0);
  EXPECT_DOUBLE_EQ(x[2], -6.0);
}

TEST(BlasTest, Nrm2AndSumAndAbsMax) {
  Vector x(std::vector<double>{3, -4});
  EXPECT_DOUBLE_EQ(Nrm2(x), 5.0);
  EXPECT_DOUBLE_EQ(Sum(x), -1.0);
  EXPECT_DOUBLE_EQ(AbsMax(x), 4.0);
  Vector empty;
  EXPECT_DOUBLE_EQ(AbsMax(empty), 0.0);
}

TEST(BlasTest, SquaredDistanceMatchesDefinition) {
  Vector x(std::vector<double>{1, 2, 3});
  Vector y(std::vector<double>{2, 0, 3});
  EXPECT_DOUBLE_EQ(SquaredDistance(x, y), 1.0 + 4.0 + 0.0);
}

TEST(BlasTest, CopyCopies) {
  Vector x(std::vector<double>{1, 2});
  Vector y(2);
  Copy(x, y);
  EXPECT_DOUBLE_EQ(y[0], 1.0);
  EXPECT_DOUBLE_EQ(y[1], 2.0);
}

TEST(BlasTest, GemvMatchesManual) {
  Matrix a(2, 3, std::vector<double>{1, 2, 3, 4, 5, 6});
  Vector x(std::vector<double>{1, 0, -1});
  Vector y(std::vector<double>{10, 10});
  Gemv(2.0, a, x, 0.5, y);
  // A*x = {1-3, 4-6} = {-2, -2}; y = 2*(-2) + 0.5*10 = 1
  EXPECT_DOUBLE_EQ(y[0], 1.0);
  EXPECT_DOUBLE_EQ(y[1], 1.0);
}

TEST(BlasTest, GemvTMatchesManual) {
  Matrix a(2, 3, std::vector<double>{1, 2, 3, 4, 5, 6});
  Vector x(std::vector<double>{1, -1});
  Vector y(3);
  GemvT(1.0, a, x, 0.0, y);
  // A^T x = {1-4, 2-5, 3-6}
  EXPECT_DOUBLE_EQ(y[0], -3.0);
  EXPECT_DOUBLE_EQ(y[1], -3.0);
  EXPECT_DOUBLE_EQ(y[2], -3.0);
}

TEST(BlasTest, GemvTransposeConsistency) {
  // Property: x^T (A y) == (A^T x)^T y for random A, x, y.
  util::Rng rng(21);
  for (int trial = 0; trial < 10; ++trial) {
    Matrix a = RandomMatrix(17, 9, &rng);
    Vector x = RandomVector(17, &rng);
    Vector y = RandomVector(9, &rng);
    Vector ay(17);
    Gemv(1.0, a, y, 0.0, ay);
    Vector atx(9);
    GemvT(1.0, a, x, 0.0, atx);
    EXPECT_NEAR(Dot(x, ay), Dot(atx, y), 1e-10);
  }
}

TEST(BlasTest, GemmMatchesNaive) {
  util::Rng rng(31);
  Matrix a = RandomMatrix(7, 5, &rng);
  Matrix b = RandomMatrix(5, 9, &rng);
  Matrix c(7, 9);
  Gemm(1.0, a, b, 0.0, c);
  for (size_t i = 0; i < 7; ++i) {
    for (size_t j = 0; j < 9; ++j) {
      double expected = 0;
      for (size_t k = 0; k < 5; ++k) {
        expected += a(i, k) * b(k, j);
      }
      ASSERT_NEAR(c(i, j), expected, 1e-12);
    }
  }
}

TEST(BlasTest, GemmAlphaBetaComposition) {
  util::Rng rng(41);
  Matrix a = RandomMatrix(4, 4, &rng);
  Matrix b = RandomMatrix(4, 4, &rng);
  Matrix c = RandomMatrix(4, 4, &rng);
  Matrix expected = c;
  // expected = 2*A*B + 3*C computed naively.
  for (size_t i = 0; i < 4; ++i) {
    for (size_t j = 0; j < 4; ++j) {
      double acc = 0;
      for (size_t k = 0; k < 4; ++k) {
        acc += a(i, k) * b(k, j);
      }
      expected(i, j) = 2.0 * acc + 3.0 * c(i, j);
    }
  }
  Gemm(2.0, a, b, 3.0, c);
  for (size_t i = 0; i < 4; ++i) {
    for (size_t j = 0; j < 4; ++j) {
      ASSERT_NEAR(c(i, j), expected(i, j), 1e-12);
    }
  }
}

TEST(BlasTest, GemmBlockingCrossesBlockBoundary) {
  // k = 130 exceeds the 64-wide block: checks block loop seams.
  util::Rng rng(51);
  Matrix a = RandomMatrix(3, 130, &rng);
  Matrix b = RandomMatrix(130, 2, &rng);
  Matrix c(3, 2);
  Gemm(1.0, a, b, 0.0, c);
  for (size_t i = 0; i < 3; ++i) {
    for (size_t j = 0; j < 2; ++j) {
      double expected = 0;
      for (size_t k = 0; k < 130; ++k) {
        expected += a(i, k) * b(k, j);
      }
      ASSERT_NEAR(c(i, j), expected, 1e-10);
    }
  }
}

// ---------------------------------------------------------------------------
// Parameterized property sweep: parallel kernels must agree with their
// sequential counterparts for a range of shapes that straddle the grain.
// ---------------------------------------------------------------------------

struct ShapeParam {
  size_t rows;
  size_t cols;
};

class ParallelKernelTest : public ::testing::TestWithParam<ShapeParam> {};

TEST_P(ParallelKernelTest, ParallelGemvMatchesSequential) {
  const ShapeParam p = GetParam();
  util::Rng rng(61 + p.rows);
  Matrix a = RandomMatrix(p.rows, p.cols, &rng);
  Vector x = RandomVector(p.cols, &rng);
  Vector y_seq = RandomVector(p.rows, &rng);
  Vector y_par = y_seq;
  Gemv(1.7, a, x, 0.3, y_seq);
  ParallelGemv(1.7, a, x, 0.3, y_par);
  for (size_t i = 0; i < p.rows; ++i) {
    ASSERT_NEAR(y_seq[i], y_par[i], 1e-10) << "row " << i;
  }
}

TEST_P(ParallelKernelTest, ParallelGemvTMatchesSequential) {
  const ShapeParam p = GetParam();
  util::Rng rng(71 + p.cols);
  Matrix a = RandomMatrix(p.rows, p.cols, &rng);
  Vector x = RandomVector(p.rows, &rng);
  Vector y_seq = RandomVector(p.cols, &rng);
  Vector y_par = y_seq;
  GemvT(0.9, a, x, 1.1, y_seq);
  ParallelGemvT(0.9, a, x, 1.1, y_par);
  for (size_t i = 0; i < p.cols; ++i) {
    ASSERT_NEAR(y_seq[i], y_par[i], 1e-9) << "col " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ParallelKernelTest,
    ::testing::Values(ShapeParam{1, 1}, ShapeParam{3, 7}, ShapeParam{255, 16},
                      ShapeParam{256, 16}, ShapeParam{257, 16},
                      ShapeParam{1024, 8}, ShapeParam{2000, 3}),
    [](const ::testing::TestParamInfo<ShapeParam>& info) {
      return std::to_string(info.param.rows) + "x" +
             std::to_string(info.param.cols);
    });

// ---------------------------------------------------------------------------
// Pooled elementwise kernels: the serial loops' bits under any partition
// ---------------------------------------------------------------------------

bool SameBits(ConstVectorView a, ConstVectorView b) {
  return a.size() == b.size() &&
         (a.size() == 0 ||  // an empty view's data() may be null
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

/// Lengths around the fan-out threshold, plus ones that split unevenly.
std::vector<size_t> LengthsAroundThreshold() {
  const size_t t = kParallelKernelMinLength;
  return {1, t - 1, t, t + 1, 2 * t + 3, 4 * t + 5};
}

class PooledKernelTest : public ::testing::TestWithParam<size_t> {
 protected:
  PooledKernelTest() : pool_(GetParam()) {}
  util::ThreadPool pool_;
};

TEST_P(PooledKernelTest, ElementwiseKernelsMatchSerialLoopsBitwise) {
  for (const size_t n : LengthsAroundThreshold()) {
    SCOPED_TRACE("n=" + std::to_string(n));
    util::Rng rng(90 + n);
    const Vector x = RandomVector(n, &rng);
    const Vector y0 = RandomVector(n, &rng);
    const double alpha = rng.Uniform(-3.0, 3.0);

    Vector expected = y0;
    for (size_t i = 0; i < n; ++i) {
      expected[i] += alpha * x[i];
    }
    Vector y = y0;
    Axpy(alpha, x, y, &pool_);
    EXPECT_TRUE(SameBits(y, expected)) << "Axpy";

    expected = x;
    for (size_t i = 0; i < n; ++i) {
      expected[i] *= alpha;
    }
    Vector scaled = x;
    Scal(alpha, scaled, &pool_);
    EXPECT_TRUE(SameBits(scaled, expected)) << "Scal";

    Vector copied(n);
    Copy(x, copied, &pool_);
    EXPECT_TRUE(SameBits(copied, x)) << "Copy";

    // Subtract is one pass with the bits of Copy then Axpy(-1).
    expected = x;
    for (size_t i = 0; i < n; ++i) {
      expected[i] += -1.0 * y0[i];
    }
    Vector diff(n);
    Subtract(x, y0, diff, &pool_);
    EXPECT_TRUE(SameBits(diff, expected)) << "Subtract";

    // AccumulateAndClear: one Axpy(1.0, part) per part, in part order.
    std::vector<Vector> parts = {RandomVector(n, &rng), RandomVector(n, &rng),
                                 RandomVector(n, &rng)};
    expected = y0;
    for (const Vector& part : parts) {
      for (size_t i = 0; i < n; ++i) {
        expected[i] += 1.0 * part[i];
      }
    }
    std::vector<VectorView> views;
    for (Vector& part : parts) {
      views.push_back(part.View());
    }
    Vector sum = y0;
    AccumulateAndClear(views, sum, &pool_);
    EXPECT_TRUE(SameBits(sum, expected)) << "AccumulateAndClear";
    const Vector zeros(n);
    for (const Vector& part : parts) {
      EXPECT_TRUE(SameBits(part, zeros)) << "part not cleared";
    }
  }
}

TEST(FusedKernelTest, AxpyDotMatchesAxpyThenDotBitwise) {
  for (const size_t n : LengthsAroundThreshold()) {
    util::Rng rng(120 + n);
    const Vector x = RandomVector(n, &rng);
    const Vector z = RandomVector(n, &rng);
    Vector y_fused = RandomVector(n, &rng);
    Vector y_split = y_fused;
    const double fused = AxpyDot(-0.75, x, y_fused, z);
    Axpy(-0.75, x, y_split);
    const double split = Dot(z, y_split);
    EXPECT_EQ(std::memcmp(&fused, &split, sizeof(double)), 0) << "n=" << n;
    EXPECT_TRUE(SameBits(y_fused, y_split)) << "n=" << n;
  }
}

TEST_P(PooledKernelTest, NestedCallsFromPoolTasksRunInline) {
  // Every worker of the pool is busy in a task that calls a pooled kernel
  // on that same pool. Fanning out would wait on a queue no free worker can
  // drain; the kernels must run inline there instead.
  const size_t n = 2 * kParallelKernelMinLength + 1;
  const size_t tasks = pool_.num_threads();
  std::vector<Vector> ys(tasks, Vector(n, 1.0));
  std::vector<Vector> copies(tasks, Vector(n));
  const Vector x(n, 2.0);
  util::ParallelForIndexed(
      0, tasks, 1,
      [&](size_t task, size_t, size_t) {
        EXPECT_EQ(util::ThreadPool::InWorkerThread(), tasks > 1);
        Axpy(0.5, x, ys[task], &pool_);
        Scal(2.0, ys[task], &pool_);
        Copy(ys[task], copies[task], &pool_);
      },
      &pool_);
  for (const Vector& copy : copies) {
    EXPECT_TRUE(SameBits(copy, Vector(n, 4.0)));
  }
}

// ---------------------------------------------------------------------------
// Reductions: fixed blocks of kParallelKernelMinLength, summed in block order
// ---------------------------------------------------------------------------

/// Hand-written fixed-block reference: each block of kParallelKernelMinLength
/// terms summed from +0.0 by one accumulator, the block sums added in order.
template <typename Term>
double FixedBlockSum(size_t n, const Term& term) {
  const size_t block = kParallelKernelMinLength;
  double total = 0.0;
  for (size_t lo = 0; lo < n; lo += block) {
    double sum = 0.0;
    for (size_t i = lo; i < std::min(n, lo + block); ++i) {
      sum += term(i);
    }
    total += sum;
  }
  return total;
}

/// The single-accumulator loop the reductions ran before they were blocked.
template <typename Term>
double SerialSum(size_t n, const Term& term) {
  double acc = 0.0;
  for (size_t i = 0; i < n; ++i) {
    acc += term(i);
  }
  return acc;
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// Operands of one reduction check, with the expected results built by
/// `sum` (FixedBlockSum or SerialSum) from plain loops.
struct ReductionCase {
  Vector x, y, z;
  double alpha = 0;
  Vector axpy_y;  // y + alpha * x, the y AxpyDot leaves behind
  double dot = 0, axpy_dot = 0, nrm2 = 0, sum = 0, sqdist = 0, absmax = 0;

  template <typename SumFn>
  ReductionCase(size_t n, uint64_t seed, const SumFn& reduce) {
    util::Rng rng(seed);
    x = RandomVector(n, &rng);
    y = RandomVector(n, &rng);
    z = RandomVector(n, &rng);
    alpha = rng.Uniform(-3.0, 3.0);
    if (n > 0) {
      x[n - 1] = -7.5;  // the largest magnitude, negative, in the last block
    }
    axpy_y = y;
    for (size_t i = 0; i < n; ++i) {
      axpy_y[i] += alpha * x[i];
    }
    dot = reduce(n, [&](size_t i) { return x[i] * y[i]; });
    axpy_dot = reduce(n, [&](size_t i) { return z[i] * axpy_y[i]; });
    nrm2 = std::sqrt(reduce(n, [&](size_t i) { return x[i] * x[i]; }));
    sum = reduce(n, [&](size_t i) { return x[i]; });
    sqdist = reduce(n, [&](size_t i) {
      const double d = x[i] - y[i];
      return d * d;
    });
    for (size_t i = 0; i < n; ++i) {
      absmax = std::max(absmax, std::fabs(x[i]));
    }
  }

  /// Runs every reduction on `pool` and reports the first mismatch.
  std::string Check(util::ThreadPool* pool) const {
    Vector fused_y = y;
    const double got_axpy_dot = AxpyDot(alpha, x, fused_y, z, pool);
    std::string bad;
    if (!SameBits(Dot(x, y, pool), dot)) bad += " Dot";
    if (!SameBits(got_axpy_dot, axpy_dot)) bad += " AxpyDot";
    if (!SameBits(fused_y, axpy_y)) bad += " AxpyDot(y)";
    if (!SameBits(Nrm2(x, pool), nrm2)) bad += " Nrm2";
    if (!SameBits(Sum(x, pool), sum)) bad += " Sum";
    if (!SameBits(SquaredDistance(x, y, pool), sqdist)) bad += " SqDist";
    if (!SameBits(AbsMax(x, pool), absmax)) bad += " AbsMax";
    return bad;
  }
};

std::vector<size_t> ReductionLengths() {
  const size_t t = kParallelKernelMinLength;
  return {t - 1, t, t + 1, 5 * t + 3};
}

TEST_P(PooledKernelTest, ReductionsMatchFixedBlockReferenceBitwise) {
  for (const size_t n : ReductionLengths()) {
    SCOPED_TRACE("n=" + std::to_string(n));
    const ReductionCase c(n, 150 + n, [](size_t len, const auto& term) {
      return FixedBlockSum(len, term);
    });
    EXPECT_EQ(c.Check(&pool_), "");
    EXPECT_EQ(c.Check(nullptr), "") << "global pool";
  }
}

TEST_P(PooledKernelTest, ReductionsInsidePoolTasksMatchFixedBlockReference) {
  // Every worker is busy in a task that calls the reductions on the same
  // pool: they run inline there, with the same blocks and the same bits.
  const size_t n = 5 * kParallelKernelMinLength + 3;
  const ReductionCase c(n, 170, [](size_t len, const auto& term) {
    return FixedBlockSum(len, term);
  });
  const size_t tasks = pool_.num_threads();
  std::vector<std::string> bad(tasks);
  util::ParallelForIndexed(
      0, tasks, 1,
      [&](size_t task, size_t, size_t) { bad[task] = c.Check(&pool_); },
      &pool_);
  for (const std::string& b : bad) {
    EXPECT_EQ(b, "");
  }
}

TEST(ReductionTest, OneBlockIsTheSerialLoopBitwise) {
  for (const size_t n : {size_t{0}, size_t{1}, size_t{784}, size_t{1} << 14,
                         kParallelKernelMinLength - 1,
                         kParallelKernelMinLength}) {
    SCOPED_TRACE("n=" + std::to_string(n));
    const ReductionCase c(n, 190 + n, [](size_t len, const auto& term) {
      return SerialSum(len, term);
    });
    EXPECT_EQ(c.Check(nullptr), "");
  }
}

TEST(ReductionTest, ManyBlocksDifferFromTheSerialLoop) {
  // The fixed-block checks above have teeth: past one block the blocked
  // sums of this data are not the serial loop's bits.
  const size_t n = 5 * kParallelKernelMinLength + 3;
  const ReductionCase blocked(n, 150 + n, [](size_t len, const auto& term) {
    return FixedBlockSum(len, term);
  });
  const ReductionCase serial(n, 150 + n, [](size_t len, const auto& term) {
    return SerialSum(len, term);
  });
  EXPECT_FALSE(SameBits(blocked.dot, serial.dot));
  EXPECT_FALSE(SameBits(blocked.sum, serial.sum));
}

INSTANTIATE_TEST_SUITE_P(PoolSizes, PooledKernelTest,
                         ::testing::Values(size_t{1}, size_t{2}, size_t{4}),
                         [](const ::testing::TestParamInfo<size_t>& info) {
                           return "threads" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace m3::la
