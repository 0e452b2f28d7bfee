#include "ml/logistic_regression.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "la/blas.h"

namespace m3::ml {

using util::Result;
using util::Status;

namespace {

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
// Binary logistic regression
// ---------------------------------------------------------------------------

LogisticRegressionObjective::LogisticRegressionObjective(
    la::ConstMatrixView x, la::ConstVectorView y, double l2,
    size_t chunk_rows, ScanHooks hooks)
    : ChunkedObjective(la::AutoChunkRows(x.cols(), chunk_rows), std::move(hooks)),
      x_(x),
      y_(y),
      l2_(l2) {
  M3_CHECK(x_.rows() == y_.size(), "labels size %zu != rows %zu", y_.size(),
           x_.rows());
}

double LogisticRegressionObjective::EvaluateChunk(size_t begin, size_t end,
                                                  la::ConstVectorView w,
                                                  la::VectorView grad) {
  const size_t d = x_.cols();
  const double inv_n = 1.0 / static_cast<double>(std::max<size_t>(1, NumRows()));
  la::ConstVectorView weights = w.Slice(0, d);
  const double intercept = w[d];

  // Per-range partials merged in range order (deterministic FP reduction).
  const double loss =
      ReduceRanges(begin, end, 512, grad,
                   [&](size_t lo, size_t hi, la::VectorView partial) {
    double local_loss = 0;
    for (size_t r = lo; r < hi; ++r) {
      la::ConstVectorView xi = x_.Row(r);
      const double z = la::Dot(xi, weights) + intercept;
      const double yi = y_[r];
      local_loss += Log1pExp(z) - yi * z;
      const double residual = (Sigmoid(z) - yi) * inv_n;
      la::Axpy(residual, xi, partial.Slice(0, d));
      partial[d] += residual;
    }
    return local_loss;
  });
  return loss * inv_n;
}

double LogisticRegressionObjective::ApplyRegularization(la::ConstVectorView w,
                                                        la::VectorView grad) {
  // Ridge penalty on the weights (not the intercept).
  const size_t d = x_.cols();
  if (l2_ <= 0) {
    return 0.0;
  }
  la::ConstVectorView weights = w.Slice(0, d);
  la::Axpy(l2_, weights, grad.Slice(0, d));
  return 0.5 * l2_ * la::Dot(weights, weights);
}

double LogisticRegressionModel::PredictProbability(
    la::ConstVectorView x) const {
  return Sigmoid(la::Dot(x, weights) + intercept);
}

double LogisticRegressionModel::Predict(la::ConstVectorView x) const {
  return PredictProbability(x) >= 0.5 ? 1.0 : 0.0;
}

LogisticRegression::LogisticRegression(LogisticRegressionOptions options)
    : options_(std::move(options)) {}

Result<LogisticRegressionModel> LogisticRegression::Train(
    la::ConstMatrixView x, la::ConstVectorView y,
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
  LogisticRegressionObjective objective(x, y, options_.l2,
                                        options_.chunk_rows, options_.hooks);
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
// Softmax regression
// ---------------------------------------------------------------------------

SoftmaxRegressionObjective::SoftmaxRegressionObjective(
    la::ConstMatrixView x, la::ConstVectorView y, size_t num_classes,
    double l2, size_t chunk_rows, ScanHooks hooks)
    : ChunkedObjective(la::AutoChunkRows(x.cols(), chunk_rows), std::move(hooks)),
      x_(x),
      y_(y),
      num_classes_(num_classes),
      l2_(l2) {
  M3_CHECK(x_.rows() == y_.size(), "labels size mismatch");
  M3_CHECK(num_classes_ >= 2, "need at least 2 classes");
}

double SoftmaxRegressionObjective::EvaluateChunk(size_t begin, size_t end,
                                                 la::ConstVectorView w,
                                                 la::VectorView grad) {
  const size_t d = x_.cols();
  const size_t k = num_classes_;
  const size_t stride = d + 1;  // per-class weights + bias
  const double inv_n = 1.0 / static_cast<double>(std::max<size_t>(1, NumRows()));

  const double loss =
      ReduceRanges(begin, end, 256, grad,
                   [&](size_t lo, size_t hi, la::VectorView partial) {
    std::vector<double> scores(k);
    double local_loss = 0;
    for (size_t r = lo; r < hi; ++r) {
      la::ConstVectorView xi = x_.Row(r);
      double max_score = -1e300;
      for (size_t c = 0; c < k; ++c) {
        la::ConstVectorView wc = w.Slice(c * stride, d);
        scores[c] = la::Dot(xi, wc) + w[c * stride + d];
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
        la::Axpy(coeff, xi, partial.Slice(c * stride, d));
        partial[c * stride + d] += coeff;
      }
    }
    return local_loss;
  });
  return loss * inv_n;
}

double SoftmaxRegressionObjective::ApplyRegularization(la::ConstVectorView w,
                                                       la::VectorView grad) {
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

size_t SoftmaxRegressionModel::Predict(la::ConstVectorView x) const {
  size_t best = 0;
  double best_score = -1e300;
  for (size_t c = 0; c < weights.rows(); ++c) {
    const double score = la::Dot(x, weights.Row(c)) + biases[c];
    if (score > best_score) {
      best_score = score;
      best = c;
    }
  }
  return best;
}

SoftmaxRegression::SoftmaxRegression(SoftmaxRegressionOptions options)
    : options_(std::move(options)) {}

Result<SoftmaxRegressionModel> SoftmaxRegression::Train(
    la::ConstMatrixView x, la::ConstVectorView y, size_t num_classes,
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
  SoftmaxRegressionObjective objective(x, y, num_classes, options_.l2,
                                       options_.chunk_rows, options_.hooks);
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
