#include "ml/lbfgs.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "la/blas.h"
#include "la/sparse.h"
#include "ml/gradient_descent.h"
#include "ml/logistic_regression.h"
#include "ml/sparse_logistic_regression.h"
#include "util/random.h"

namespace m3::ml {
namespace {

/// f(w) = 0.5 * sum_i c_i (w_i - t_i)^2 — convex quadratic with known
/// minimum at t.
class Quadratic final : public DifferentiableFunction {
 public:
  Quadratic(std::vector<double> curvature, std::vector<double> target)
      : curvature_(std::move(curvature)), target_(std::move(target)) {}

  size_t Dimension() const override { return curvature_.size(); }

  double EvaluateWithGradient(la::ConstVectorView w,
                              la::VectorView grad) override {
    double f = 0;
    for (size_t i = 0; i < curvature_.size(); ++i) {
      const double diff = w[i] - target_[i];
      f += 0.5 * curvature_[i] * diff * diff;
      grad[i] = curvature_[i] * diff;
    }
    return f;
  }

 private:
  std::vector<double> curvature_;
  std::vector<double> target_;
};

/// The 2-D Rosenbrock banana: nonconvex valley, minimum at (1, 1).
class Rosenbrock final : public DifferentiableFunction {
 public:
  size_t Dimension() const override { return 2; }

  double EvaluateWithGradient(la::ConstVectorView w,
                              la::VectorView grad) override {
    const double x = w[0], y = w[1];
    const double a = 1.0 - x;
    const double b = y - x * x;
    grad[0] = -2.0 * a - 400.0 * x * b;
    grad[1] = 200.0 * b;
    return a * a + 100.0 * b * b;
  }
};

TEST(LbfgsTest, MinimizesWellConditionedQuadratic) {
  Quadratic f({1, 1, 1}, {3, -2, 7});
  la::Vector w(3);
  Lbfgs optimizer;
  auto result = optimizer.Minimize(&f, w);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result.value().converged);
  EXPECT_NEAR(w[0], 3.0, 1e-5);
  EXPECT_NEAR(w[1], -2.0, 1e-5);
  EXPECT_NEAR(w[2], 7.0, 1e-5);
  EXPECT_NEAR(result.value().objective, 0.0, 1e-9);
}

TEST(LbfgsTest, MinimizesIllConditionedQuadratic) {
  // Condition number 1e4: gradient descent would crawl, L-BFGS should not.
  Quadratic f({1e-2, 1e2}, {1, 1});
  la::Vector w(2);
  LbfgsOptions options;
  options.max_iterations = 100;
  Lbfgs optimizer(options);
  auto result = optimizer.Minimize(&f, w);
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(w[0], 1.0, 1e-3);
  EXPECT_NEAR(w[1], 1.0, 1e-6);
}

TEST(LbfgsTest, SolvesRosenbrock) {
  Rosenbrock f;
  la::Vector w(2);
  w[0] = -1.2;
  w[1] = 1.0;  // classic hard start
  LbfgsOptions options;
  options.max_iterations = 200;
  Lbfgs optimizer(options);
  auto result = optimizer.Minimize(&f, w);
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(w[0], 1.0, 1e-4);
  EXPECT_NEAR(w[1], 1.0, 1e-4);
}

TEST(LbfgsTest, ObjectiveHistoryIsMonotoneNonIncreasing) {
  Rosenbrock f;
  la::Vector w(2);
  w[0] = -1.2;
  w[1] = 1.0;
  Lbfgs optimizer;
  auto result = optimizer.Minimize(&f, w).ValueOrDie();
  for (size_t i = 1; i < result.objective_history.size(); ++i) {
    // Wolfe line search guarantees decrease at every accepted step.
    EXPECT_LE(result.objective_history[i],
              result.objective_history[i - 1] + 1e-12)
        << "iteration " << i;
  }
}

TEST(LbfgsTest, RespectsMaxIterations) {
  Rosenbrock f;
  la::Vector w(2);
  w[0] = -1.2;
  w[1] = 1.0;
  LbfgsOptions options;
  options.max_iterations = 3;
  options.gradient_tolerance = 0;  // never converge on tolerance
  Lbfgs optimizer(options);
  auto result = optimizer.Minimize(&f, w).ValueOrDie();
  EXPECT_LE(result.iterations, 3u);
}

TEST(LbfgsTest, IterationCallbackFires) {
  Quadratic f({1, 1}, {1, 1});
  la::Vector w(2);
  size_t calls = 0;
  LbfgsOptions options;
  options.iteration_callback = [&calls](size_t, double, double) { ++calls; };
  Lbfgs optimizer(options);
  ASSERT_TRUE(optimizer.Minimize(&f, w).ok());
  EXPECT_GT(calls, 0u);
}

TEST(LbfgsTest, StartingAtOptimumConvergesImmediately) {
  Quadratic f({2, 2}, {0, 0});
  la::Vector w(2);  // exactly the optimum
  Lbfgs optimizer;
  auto result = optimizer.Minimize(&f, w).ValueOrDie();
  EXPECT_TRUE(result.converged);
  EXPECT_EQ(result.iterations, 0u);
}

TEST(LbfgsTest, NullFunctionRejected) {
  la::Vector w(2);
  Lbfgs optimizer;
  EXPECT_FALSE(optimizer.Minimize(nullptr, w).ok());
}

TEST(LbfgsTest, DimensionMismatchRejected) {
  Quadratic f({1}, {0});
  la::Vector w(3);
  Lbfgs optimizer;
  EXPECT_FALSE(optimizer.Minimize(&f, w).ok());
}

TEST(LbfgsTest, ZeroHistoryRejected) {
  Quadratic f({1}, {0});
  la::Vector w(1);
  LbfgsOptions options;
  options.history = 0;
  Lbfgs optimizer(options);
  EXPECT_FALSE(optimizer.Minimize(&f, w).ok());
}

TEST(LbfgsTest, FunctionEvaluationsCounted) {
  Rosenbrock f;
  la::Vector w(2);
  w[0] = -1.2;
  w[1] = 1.0;
  Lbfgs optimizer;
  auto result = optimizer.Minimize(&f, w).ValueOrDie();
  // At least one evaluation per iteration plus the initial one.
  EXPECT_GE(result.function_evaluations, result.iterations + 1);
}

TEST(GradientDescentTest, MinimizesQuadratic) {
  Quadratic f({1, 4}, {2, -1});
  la::Vector w(2);
  GradientDescentOptions options;
  options.max_iterations = 1000;
  GradientDescent optimizer(options);
  auto result = optimizer.Minimize(&f, w);
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(w[0], 2.0, 1e-4);
  EXPECT_NEAR(w[1], -1.0, 1e-4);
}

TEST(GradientDescentTest, BacktrackingHandlesHugeInitialStep) {
  Quadratic f({100, 100}, {0, 0});
  la::Vector w(2);
  w[0] = w[1] = 10;
  GradientDescentOptions options;
  options.initial_step = 1e6;  // would explode without backtracking
  options.max_iterations = 500;
  GradientDescent optimizer(options);
  auto result = optimizer.Minimize(&f, w);
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(w[0], 0.0, 1e-3);
}

TEST(GradientDescentTest, LbfgsNeedsFewerPassesOnIllConditioned) {
  // The ablation behind using L-BFGS in the paper: far fewer data passes
  // than first-order descent on an ill-conditioned objective.
  Quadratic f_gd({1e-2, 1e2}, {1, 1});
  Quadratic f_lb({1e-2, 1e2}, {1, 1});
  la::Vector w_gd(2), w_lb(2);
  GradientDescentOptions gd_options;
  gd_options.max_iterations = 100000;
  gd_options.gradient_tolerance = 1e-6;
  auto gd = GradientDescent(gd_options).Minimize(&f_gd, w_gd).ValueOrDie();
  LbfgsOptions lb_options;
  lb_options.gradient_tolerance = 1e-6;
  auto lb = Lbfgs(lb_options).Minimize(&f_lb, w_lb).ValueOrDie();
  EXPECT_TRUE(lb.converged);
  EXPECT_LT(lb.function_evaluations, gd.function_evaluations / 10);
}

// ---------------------------------------------------------------------------
// Data passes: one iteration costs its line-search probes and nothing more
// ---------------------------------------------------------------------------

/// Wraps a function and records every point it is evaluated at.
class CountingFunction final : public DifferentiableFunction {
 public:
  explicit CountingFunction(DifferentiableFunction* inner) : inner_(inner) {}

  size_t Dimension() const override { return inner_->Dimension(); }

  double EvaluateWithGradient(la::ConstVectorView w,
                              la::VectorView grad) override {
    points_.emplace_back(w.begin(), w.end());
    return inner_->EvaluateWithGradient(w, grad);
  }

  const std::vector<std::vector<double>>& points() const { return points_; }

 private:
  DifferentiableFunction* inner_;
  std::vector<std::vector<double>> points_;
};

bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

void ExpectNoRepeatedEvaluation(const CountingFunction& counted) {
  const auto& points = counted.points();
  for (size_t i = 1; i < points.size(); ++i) {
    EXPECT_FALSE(SameBits(points[i - 1], points[i]))
        << "evaluations " << i - 1 << " and " << i << " see the same w";
  }
}

TEST(LbfgsPassesTest, AcceptedProbeIsNotEvaluatedAgain) {
  // Unit curvature from ||t|| = 5: the opening probe alpha = 1/||g|| = 0.2
  // satisfies strong Wolfe (|phi'| = 0.8 ||g||^2 <= 0.9 ||g||^2), and the
  // second direction (gamma = 1, exact curvature pair) lands on t. So every
  // line search is one probe: 1 initial evaluation + 1 per iteration.
  Quadratic inner({1, 1, 1}, {3, 4, 0});
  CountingFunction f(&inner);
  la::Vector w(3);
  auto result = Lbfgs().Minimize(&f, w).ValueOrDie();
  EXPECT_TRUE(result.converged);
  EXPECT_EQ(result.iterations, 2u);
  EXPECT_EQ(result.function_evaluations, 1 + result.iterations);
  EXPECT_EQ(result.function_evaluations, f.points().size());
  ExpectNoRepeatedEvaluation(f);
}

TEST(LbfgsPassesTest, EvaluationsAreProbesOnRosenbrock) {
  Rosenbrock inner;
  CountingFunction f(&inner);
  la::Vector w(2);
  w[0] = -1.2;
  w[1] = 1.0;
  LbfgsOptions options;
  options.max_iterations = 200;
  auto result = Lbfgs(options).Minimize(&f, w).ValueOrDie();
  EXPECT_NEAR(w[0], 1.0, 1e-4);
  EXPECT_EQ(result.function_evaluations, f.points().size());
  ExpectNoRepeatedEvaluation(f);
  // The reported objective is f at the returned w, bit for bit.
  la::Vector grad(2);
  const double f_at_w = inner.EvaluateWithGradient(w, grad);
  EXPECT_EQ(std::memcmp(&f_at_w, &result.objective, sizeof(double)), 0);
}

/// f(x) = -x up to a wall at x = 1.1, then a steep C^1 parabola. From
/// x = 0 the opening probe (alpha = 1) passes Armijo but not curvature;
/// the doubled probe and both zoom probes (1.5, 1.25) hit the wall, so the
/// two-step search returns alpha_lo = 1, an earlier probe than the last.
class Cliff final : public DifferentiableFunction {
 public:
  size_t Dimension() const override { return 1; }

  double EvaluateWithGradient(la::ConstVectorView w,
                              la::VectorView grad) override {
    const double x = w[0];
    if (x <= 1.1) {
      grad[0] = -1.0;
      return -x;
    }
    const double over = x - 1.1;
    grad[0] = 200.0 * over - 1.0;
    return -1.1 + 100.0 * over * over - over;
  }
};

TEST(LbfgsPassesTest, FallbackStepIsEvaluatedAtTheAcceptedPoint) {
  Cliff inner;
  CountingFunction f(&inner);
  la::Vector w(1);
  LbfgsOptions options;
  options.max_line_search_steps = 2;
  auto result = Lbfgs(options).Minimize(&f, w).ValueOrDie();
  // Iteration 1 accepts x = 1 after probing 1, 2, 1.5 and 1.25; the
  // second search (from x = 1) finds no decrease and stops the run.
  EXPECT_EQ(result.iterations, 1u);
  EXPECT_EQ(w[0], 1.0);
  EXPECT_EQ(result.objective, -1.0);
  ASSERT_EQ(result.objective_history.size(), 1u);
  EXPECT_EQ(result.objective_history[0], -1.0);
  // 1 initial + 4 probes + 1 evaluation of the fallback step + 3 probes.
  EXPECT_EQ(result.function_evaluations, 9u);
  EXPECT_EQ(result.function_evaluations, f.points().size());
  ExpectNoRepeatedEvaluation(f);
}

// ---------------------------------------------------------------------------
// Trained-model goldens
// ---------------------------------------------------------------------------
//
// Logistic regression trained with the paper's 10 L-BFGS iterations, pinned
// bit for bit. The goldens come from an optimizer that evaluated every
// accepted point afresh with serial vector kernels: accepting the last probe
// and pooling the kernels must reproduce them exactly. Chunks of 256 rows
// stay below the 512-row range grain, so each chunk is one range at any
// core count and the goldens hold on every machine.

std::string Hex(double v) {
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%a", v);
  return buffer;
}

void ExpectBits(double actual, double golden, const std::string& what) {
  EXPECT_EQ(std::memcmp(&actual, &golden, sizeof(double)), 0)
      << what << ": " << Hex(actual) << " vs golden " << Hex(golden);
}

void ExpectBits(const std::vector<double>& actual,
                const std::vector<double>& golden, const std::string& what) {
  ASSERT_EQ(actual.size(), golden.size()) << what;
  for (size_t i = 0; i < actual.size(); ++i) {
    ExpectBits(actual[i], golden[i], what + "[" + std::to_string(i) + "]");
  }
}

LbfgsOptions PaperIterations() {
  LbfgsOptions options;
  options.max_iterations = 10;
  options.gradient_tolerance = 0;
  options.objective_tolerance = 0;
  return options;
}

constexpr size_t kGoldenRows = 1200;
constexpr size_t kGoldenChunkRows = 256;

struct TrainedGolden {
  std::vector<double> weights;
  double intercept = 0;
  double objective = 0;
  std::vector<double> history;
};

void ExpectGolden(const LogisticRegressionModel& model,
                  const OptimizationResult& stats,
                  const TrainedGolden& golden) {
  ExpectBits(model.weights.values(), golden.weights, "weights");
  ExpectBits(model.intercept, golden.intercept, "intercept");
  ExpectBits(stats.objective, golden.objective, "objective");
  ExpectBits(stats.objective_history, golden.history, "objective_history");
}

// clang-format off
const TrainedGolden kDenseGolden = {
    // weights
    {
        -0x1.b5b3f827540ap-2, 0x1.f97ea72980774p+0, -0x1.0088bbd5be5p+0,
        0x1.600fb907b9d9dp-1, 0x1.b7b7581915f31p-1,
        -0x1.36ed7902ee135p+1, -0x1.2532e2e943503p+1,
        -0x1.f41cf1a937405p+1,
    },
    -0x1.5ec266ac30cd8p-4,  // intercept
    0x1.c8279707d69e5p-3,  // objective
    // objective_history
    {
        0x1.2518a218c872p-1, 0x1.69e4f825c95bp-2, 0x1.2bc42d33de2e9p-2,
        0x1.007a95d269e22p-2, 0x1.e15e8b9142d5p-3, 0x1.ca401793234d3p-3,
        0x1.c88854e0f465cp-3, 0x1.c8603e230a927p-3,
        0x1.c828e63e8a8dep-3, 0x1.c8279707d69e5p-3,
    }};

const TrainedGolden kSparseGolden = {
    // weights
    {
        -0x1.2df11d0caeb43p+1, 0x1.4e52b6dbfd149p-1,
        -0x1.5158463a065bdp+0, 0x1.90b32138953f4p+2,
        -0x1.858022802ebabp+2, 0x1.9b1a5bcb2ead6p+1,
        -0x1.4be93c7d1fa9fp+2, -0x1.f59568b4981a1p+0,
        0x1.f8127add97347p+0, -0x1.2c34451fb628p+2,
        0x1.67bc66183e9aep+1, 0x1.3a7705227d415p+2,
        -0x1.4b2fd9589ac74p-1, 0x1.49e4ee4477868p+1,
        -0x1.78d76afd91932p-4, -0x1.42e1e3118f2a9p+2,
        0x1.b3202a14cad44p-1, -0x1.022a19266fa3p+1, 0x1.5ab0067f95f3p+1,
        -0x1.c4cfb572b2d1fp+1, -0x1.02c038dcb9fa7p+1,
        -0x1.b6d369b6a3ad7p+1, -0x1.238f26f716512p+2,
        0x1.23b4e2610d5bdp+1, 0x1.891bc90527a5bp-3,
        0x1.80a9c430b6164p-4, -0x1.ad791d9938a97p+0,
        -0x1.c1eee29da8fe8p+1, -0x1.05b1cc1237fc2p+1,
        0x1.a48622d026259p+1, 0x1.198fbd41ce33cp+2, -0x1.50a9ecbd182p+1,
        0x1.570bcd0b5da6dp+1, 0x1.8b1820b49c50ep+0,
        -0x1.58f16811e2ca8p+2, -0x1.b956ff0ef09ffp+0,
        0x1.c5121fd34d498p-1, 0x1.56652f580ecc5p+2,
        -0x1.f8b5b11c16397p+1, -0x1.f6c51a5bfb8a7p+2,
    },
    0x1.a0f85d328f731p-3,  // intercept
    0x1.0a3b4e080156ap-2,  // objective
    // objective_history
    {
        0x1.3bb5dce6ac99fp-1, 0x1.99fe25dfa0565p-2,
        0x1.8eb016a0e610bp-2, 0x1.57d9bdf6d93ffp-2,
        0x1.311d49e1dfd7ep-2, 0x1.1b6740047c33bp-2,
        0x1.106e8edfe1ab9p-2, 0x1.0d216c5825203p-2,
        0x1.0aa12547d6052p-2, 0x1.0a3b4e080156ap-2,
    }};
// clang-format on

TEST(LbfgsGoldenTest, DenseLogisticRegressionBitsUnchanged) {
  constexpr size_t kCols = 8;
  util::Rng rng(2024);
  std::vector<double> plane(kCols);
  for (double& p : plane) {
    p = rng.Gaussian();
  }
  la::Matrix x(kGoldenRows, kCols);
  la::Vector y(kGoldenRows);
  for (size_t r = 0; r < kGoldenRows; ++r) {
    double margin = 0;
    for (size_t c = 0; c < kCols; ++c) {
      x(r, c) = rng.Gaussian();
      margin += x(r, c) * plane[c];
    }
    y[r] = margin + rng.Gaussian() > 0 ? 1.0 : 0.0;
  }
  LogisticRegressionOptions options;
  options.chunk_rows = kGoldenChunkRows;
  options.lbfgs = PaperIterations();
  OptimizationResult stats;
  auto model = LogisticRegression(options).Train(x.View(), y, &stats);
  ASSERT_TRUE(model.ok()) << model.status().ToString();
  EXPECT_EQ(stats.iterations, 10u);
  ExpectGolden(model.value(), stats, kDenseGolden);
}

TEST(LbfgsGoldenTest, SparseLogisticRegressionBitsUnchanged) {
  constexpr size_t kCols = 40;
  constexpr size_t kMaxNnz = 6;
  util::Rng rng(4048);
  std::vector<double> plane(kCols);
  for (double& p : plane) {
    p = rng.Gaussian();
  }
  std::vector<uint64_t> row_ptr = {0};
  std::vector<uint32_t> col_idx;
  std::vector<double> values;
  la::Vector y(kGoldenRows);
  for (size_t r = 0; r < kGoldenRows; ++r) {
    // Ascending distinct columns: a random start and random gaps.
    const size_t nnz = 1 + rng.UniformInt(kMaxNnz);
    uint32_t c = static_cast<uint32_t>(rng.UniformInt(kCols));
    double margin = 0;
    for (size_t k = 0; k < nnz && c < kCols; ++k) {
      const double v = rng.Gaussian();
      col_idx.push_back(c);
      values.push_back(v);
      margin += v * plane[c];
      c += 1 + static_cast<uint32_t>(rng.UniformInt(4));
    }
    row_ptr.push_back(col_idx.size());
    y[r] = margin + 0.5 * rng.Gaussian() > 0 ? 1.0 : 0.0;
  }
  const la::CsrView csr(row_ptr.data(), col_idx.data(), values.data(),
                        kGoldenRows, kCols);
  SparseLogisticRegressionOptions options;
  options.chunk_rows = kGoldenChunkRows;
  options.lbfgs = PaperIterations();
  OptimizationResult stats;
  auto model = SparseLogisticRegression(options).Train(csr, y, &stats);
  ASSERT_TRUE(model.ok()) << model.status().ToString();
  EXPECT_EQ(stats.iterations, 10u);
  ExpectGolden(model.value(), stats, kSparseGolden);
}

TEST(LbfgsGoldenTest, RecycledHistoryBitsUnchanged) {
  // History 3 over 25 iterations: from the fourth accepted pair on, every
  // new pair is computed into the evicted pair's buffers.
  Rosenbrock f;
  la::Vector w(2);
  w[0] = -1.2;
  w[1] = 1.0;
  LbfgsOptions options = PaperIterations();
  options.max_iterations = 25;
  options.history = 3;
  auto result = Lbfgs(options).Minimize(&f, w).ValueOrDie();
  EXPECT_EQ(result.iterations, 25u);
  ExpectBits(w[0], 0x1.b93d522785ebcp-1, "w[0]");
  ExpectBits(w[1], 0x1.7a22c96bede4cp-1, "w[1]");
  ExpectBits(result.objective, 0x1.5519262e76586p-6, "objective");
}

}  // namespace
}  // namespace m3::ml
