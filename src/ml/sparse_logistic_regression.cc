#include "ml/sparse_logistic_regression.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "la/blas.h"

namespace m3::ml {

using util::Result;
using util::Status;

namespace {

// The stable formulas below are byte-for-byte the dense objective's
// (logistic_regression.cc): the ulp-conformance contract needs identical
// transcendental call sequences, not just mathematically equal ones.

/// Numerically stable log(1 + e^z).
double Log1pExp(double z) {
  if (z > 0) {
    return z + std::log1p(std::exp(-z));
  }
  return std::log1p(std::exp(z));
}

/// Numerically stable sigmoid.
double Sigmoid(double z) {
  if (z >= 0) {
    const double e = std::exp(-z);
    return 1.0 / (1.0 + e);
  }
  const double e = std::exp(z);
  return e / (1.0 + e);
}

}  // namespace

// ---------------------------------------------------------------------------
// Sparse binary logistic regression
// ---------------------------------------------------------------------------

SparseLogisticRegressionObjective::SparseLogisticRegressionObjective(
    la::CsrView x, la::ConstVectorView y, double l2, size_t chunk_rows,
    uint64_t chunk_nnz_bytes, ScanHooks hooks)
    : ChunkedObjective(chunk_rows, std::move(hooks)),
      x_(x),
      y_(y),
      l2_(l2),
      chunk_nnz_bytes_(chunk_nnz_bytes) {
  M3_CHECK(x_.rows() == y_.size(), "labels size %zu != rows %zu", y_.size(),
           x_.rows());
}

std::unique_ptr<la::Chunker> SparseLogisticRegressionObjective::MakeChunker()
    const {
  if (chunk_rows_ > 0) {
    // Uniform row chunks: boundaries (and therefore merge grouping and
    // bits) match a dense scan of the densified data.
    return std::make_unique<la::RowChunker>(NumRows(), chunk_rows_);
  }
  const uint64_t budget = chunk_nnz_bytes_ > 0 ? chunk_nnz_bytes_
                                               : la::kDefaultNnzBudgetBytes;
  return std::make_unique<la::SparseChunker>(x_.row_ptr(), x_.rows(), budget);
}

double SparseLogisticRegressionObjective::EvaluateChunk(size_t begin,
                                                        size_t end,
                                                        la::ConstVectorView w,
                                                        la::VectorView grad) {
  const size_t d = x_.cols();
  const double inv_n =
      1.0 / static_cast<double>(std::max<size_t>(1, NumRows()));
  la::ConstVectorView weights = w.Slice(0, d);
  const double intercept = w[d];

  // Same partition granularity and merge order as the dense objective:
  // per-range partials merged in range order (deterministic FP reduction,
  // and the same grouping as dense under the same chunk boundaries).
  const double loss =
      ReduceRanges(begin, end, 512, grad,
                   [&](size_t lo, size_t hi, la::VectorView partial) {
    double local_loss = 0;
    for (size_t r = lo; r < hi; ++r) {
      const la::SparseRowView xi = x_.Row(r);
      const double z = la::SparseDot(xi, weights) + intercept;
      const double yi = y_[r];
      local_loss += Log1pExp(z) - yi * z;
      const double residual = (Sigmoid(z) - yi) * inv_n;
      la::SparseAxpy(residual, xi, partial.Slice(0, d));
      partial[d] += residual;
    }
    return local_loss;
  });
  return loss * inv_n;
}

double SparseLogisticRegressionObjective::ApplyRegularization(
    la::ConstVectorView w, la::VectorView grad) {
  // Ridge penalty on the weights (not the intercept).
  const size_t d = x_.cols();
  if (l2_ <= 0) {
    return 0.0;
  }
  la::ConstVectorView weights = w.Slice(0, d);
  la::Axpy(l2_, weights, grad.Slice(0, d));
  return 0.5 * l2_ * la::Dot(weights, weights);
}

SparseLogisticRegression::SparseLogisticRegression(
    SparseLogisticRegressionOptions options)
    : options_(std::move(options)) {}

Result<LogisticRegressionModel> SparseLogisticRegression::Train(
    const la::CsrView& x, la::ConstVectorView y,
    OptimizationResult* stats) const {
  if (x.rows() == 0 || x.cols() == 0) {
    return Status::InvalidArgument("empty training data");
  }
  if (x.rows() != y.size()) {
    return Status::InvalidArgument("labels size does not match rows");
  }
  for (size_t i = 0; i < y.size(); ++i) {
    if (y[i] != 0.0 && y[i] != 1.0) {
      return Status::InvalidArgument(
          "binary logistic regression requires labels in {0, 1}");
    }
  }
  SparseLogisticRegressionObjective objective(
      x, y, options_.l2, options_.chunk_rows, options_.chunk_nnz_bytes,
      options_.hooks);
  objective.set_pipeline(options_.pipeline);
  la::Vector params(x.cols() + 1);  // zero init
  Lbfgs optimizer(options_.lbfgs);
  M3_ASSIGN_OR_RETURN(OptimizationResult result,
                      optimizer.Minimize(&objective, params));
  if (stats != nullptr) {
    *stats = result;
  }
  LogisticRegressionModel model;
  model.weights = la::Vector(x.cols());
  la::Copy(params.View().Slice(0, x.cols()), model.weights);
  model.intercept = params[x.cols()];
  return model;
}

// ---------------------------------------------------------------------------
// Sparse softmax regression
// ---------------------------------------------------------------------------

SparseSoftmaxRegressionObjective::SparseSoftmaxRegressionObjective(
    la::CsrView x, la::ConstVectorView y, size_t num_classes, double l2,
    size_t chunk_rows, uint64_t chunk_nnz_bytes, ScanHooks hooks)
    : ChunkedObjective(chunk_rows, std::move(hooks)),
      x_(x),
      y_(y),
      num_classes_(num_classes),
      l2_(l2),
      chunk_nnz_bytes_(chunk_nnz_bytes) {
  M3_CHECK(x_.rows() == y_.size(), "labels size mismatch");
  M3_CHECK(num_classes_ >= 2, "need at least 2 classes");
}

std::unique_ptr<la::Chunker> SparseSoftmaxRegressionObjective::MakeChunker()
    const {
  if (chunk_rows_ > 0) {
    return std::make_unique<la::RowChunker>(NumRows(), chunk_rows_);
  }
  const uint64_t budget = chunk_nnz_bytes_ > 0 ? chunk_nnz_bytes_
                                               : la::kDefaultNnzBudgetBytes;
  return std::make_unique<la::SparseChunker>(x_.row_ptr(), x_.rows(), budget);
}

double SparseSoftmaxRegressionObjective::EvaluateChunk(size_t begin,
                                                       size_t end,
                                                       la::ConstVectorView w,
                                                       la::VectorView grad) {
  const size_t d = x_.cols();
  const size_t k = num_classes_;
  const size_t stride = d + 1;  // per-class weights + bias
  const double inv_n =
      1.0 / static_cast<double>(std::max<size_t>(1, NumRows()));

  const double loss =
      ReduceRanges(begin, end, 256, grad,
                   [&](size_t lo, size_t hi, la::VectorView partial) {
    std::vector<double> scores(k);
    double local_loss = 0;
    for (size_t r = lo; r < hi; ++r) {
      const la::SparseRowView xi = x_.Row(r);
      double max_score = -1e300;
      for (size_t c = 0; c < k; ++c) {
        la::ConstVectorView wc = w.Slice(c * stride, d);
        scores[c] = la::SparseDot(xi, wc) + w[c * stride + d];
        max_score = std::max(max_score, scores[c]);
      }
      double sum_exp = 0;
      for (size_t c = 0; c < k; ++c) {
        scores[c] = std::exp(scores[c] - max_score);
        sum_exp += scores[c];
      }
      const size_t label = static_cast<size_t>(y_[r]);
      // loss_i = -log p_label = -(score_label - max - log sum_exp)
      local_loss += std::log(sum_exp) - std::log(scores[label]);
      for (size_t c = 0; c < k; ++c) {
        const double p = scores[c] / sum_exp;
        const double coeff = (p - (c == label ? 1.0 : 0.0)) * inv_n;
        la::SparseAxpy(coeff, xi, partial.Slice(c * stride, d));
        partial[c * stride + d] += coeff;
      }
    }
    return local_loss;
  });
  return loss * inv_n;
}

double SparseSoftmaxRegressionObjective::ApplyRegularization(
    la::ConstVectorView w, la::VectorView grad) {
  if (l2_ <= 0) {
    return 0.0;
  }
  double loss = 0;
  const size_t d = x_.cols();
  const size_t stride = d + 1;
  for (size_t c = 0; c < num_classes_; ++c) {
    la::ConstVectorView wc = w.Slice(c * stride, d);
    loss += 0.5 * l2_ * la::Dot(wc, wc);
    la::Axpy(l2_, wc, grad.Slice(c * stride, d));
  }
  return loss;
}

SparseSoftmaxRegression::SparseSoftmaxRegression(
    SparseSoftmaxRegressionOptions options)
    : options_(std::move(options)) {}

Result<SoftmaxRegressionModel> SparseSoftmaxRegression::Train(
    const la::CsrView& x, la::ConstVectorView y, size_t num_classes,
    OptimizationResult* stats) const {
  if (x.rows() == 0 || x.cols() == 0) {
    return Status::InvalidArgument("empty training data");
  }
  if (x.rows() != y.size()) {
    return Status::InvalidArgument("labels size does not match rows");
  }
  if (num_classes < 2) {
    return Status::InvalidArgument("need at least 2 classes");
  }
  for (size_t i = 0; i < y.size(); ++i) {
    if (y[i] < 0 || y[i] >= static_cast<double>(num_classes) ||
        y[i] != std::floor(y[i])) {
      return Status::InvalidArgument(
          "labels must be integers in [0, num_classes)");
    }
  }
  SparseSoftmaxRegressionObjective objective(
      x, y, num_classes, options_.l2, options_.chunk_rows,
      options_.chunk_nnz_bytes, options_.hooks);
  objective.set_pipeline(options_.pipeline);
  la::Vector params(objective.Dimension());
  Lbfgs optimizer(options_.lbfgs);
  M3_ASSIGN_OR_RETURN(OptimizationResult result,
                      optimizer.Minimize(&objective, params));
  if (stats != nullptr) {
    *stats = result;
  }
  const size_t d = x.cols();
  const size_t stride = d + 1;
  SoftmaxRegressionModel model;
  model.weights = la::Matrix(num_classes, d);
  model.biases = la::Vector(num_classes);
  for (size_t c = 0; c < num_classes; ++c) {
    la::Copy(params.View().Slice(c * stride, d), model.weights.Row(c));
    model.biases[c] = params[c * stride + d];
  }
  return model;
}

}  // namespace m3::ml
