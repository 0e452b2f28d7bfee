#include "ml/lbfgs.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <limits>
#include <utility>

#include "la/blas.h"
#include "util/logging.h"

namespace m3::ml {

using util::Result;
using util::Status;

namespace {

/// State shared by the line-search helpers: evaluates
/// phi(alpha) = f(w + alpha * d) and phi'(alpha) = grad . d. The last
/// probe's point, gradient and value stay in the scratch fields, so the
/// optimizer can accept them without evaluating that point again.
struct LineProbe {
  DifferentiableFunction* function;
  la::ConstVectorView w0;
  la::ConstVectorView direction;
  la::VectorView w_trial;    // scratch: w0 + alpha d
  la::VectorView grad_trial; // scratch: gradient at w_trial
  size_t* evaluations;
  double last_alpha = std::numeric_limits<double>::quiet_NaN();
  double last_value = 0;     // f(w_trial)

  double Eval(double alpha, double* derivative) {
    la::Copy(w0, w_trial);
    la::Axpy(alpha, direction, w_trial);
    last_value = function->EvaluateWithGradient(w_trial, grad_trial);
    last_alpha = alpha;
    ++*evaluations;
    *derivative = la::Dot(grad_trial, direction);
    return last_value;
  }
};

/// Cubic/bisection interpolation inside [lo, hi].
double Interpolate(double lo, double hi) { return 0.5 * (lo + hi); }

/// Nocedal & Wright Algorithm 3.6 ("zoom").
/// Returns the accepted step, or 0 on failure.
double Zoom(LineProbe* probe, double alpha_lo, double alpha_hi, double f_lo,
            double f0, double df0, double armijo, double wolfe,
            size_t max_steps) {
  for (size_t i = 0; i < max_steps; ++i) {
    const double alpha = Interpolate(alpha_lo, alpha_hi);
    double df = 0;
    const double f = probe->Eval(alpha, &df);
    if (f > f0 + armijo * alpha * df0 || f >= f_lo) {
      alpha_hi = alpha;
    } else {
      if (std::fabs(df) <= -wolfe * df0) {
        return alpha;  // strong Wolfe satisfied
      }
      if (df * (alpha_hi - alpha_lo) >= 0) {
        alpha_hi = alpha_lo;
      }
      alpha_lo = alpha;
      f_lo = f;
    }
    if (std::fabs(alpha_hi - alpha_lo) < 1e-16) {
      break;
    }
  }
  return alpha_lo > 0 ? alpha_lo : 0.0;
}

/// Nocedal & Wright Algorithm 3.5 (line search for strong Wolfe).
double WolfeLineSearch(LineProbe* probe, double f0, double df0, double armijo,
                       double wolfe, size_t max_steps, double initial_alpha) {
  if (df0 >= 0) {
    return 0.0;  // not a descent direction
  }
  double alpha_prev = 0.0;
  double f_prev = f0;
  double alpha = initial_alpha;
  constexpr double kAlphaMax = 1e6;
  for (size_t i = 0; i < max_steps; ++i) {
    double df = 0;
    const double f = probe->Eval(alpha, &df);
    if (f > f0 + armijo * alpha * df0 || (i > 0 && f >= f_prev)) {
      return Zoom(probe, alpha_prev, alpha, f_prev, f0, df0, armijo, wolfe,
                  max_steps);
    }
    if (std::fabs(df) <= -wolfe * df0) {
      return alpha;
    }
    if (df >= 0) {
      return Zoom(probe, alpha, alpha_prev, f, f0, df0, armijo, wolfe,
                  max_steps);
    }
    alpha_prev = alpha;
    f_prev = f;
    alpha = std::min(2.0 * alpha, kAlphaMax);
  }
  return alpha_prev;
}

}  // namespace

Lbfgs::Lbfgs(LbfgsOptions options) : options_(std::move(options)) {}

Result<OptimizationResult> Lbfgs::Minimize(DifferentiableFunction* function,
                                           la::VectorView w) const {
  if (function == nullptr) {
    return Status::InvalidArgument("null objective");
  }
  const size_t n = function->Dimension();
  if (w.size() != n) {
    return Status::InvalidArgument("initial point has wrong dimension");
  }
  if (options_.history == 0) {
    return Status::InvalidArgument("history must be positive");
  }

  OptimizationResult result;
  la::Vector grad(n), direction(n), w_trial(n), grad_trial(n);

  const auto* chunked_before = dynamic_cast<ChunkedObjective*>(function);
  const size_t passes_before =
      chunked_before != nullptr ? chunked_before->passes() : 0;

  double f = function->EvaluateWithGradient(w, grad);
  ++result.function_evaluations;
  if (!std::isfinite(f)) {
    return Status::FailedPrecondition(
        "objective is not finite at the initial point");
  }

  // Correction-pair history (s = w_k+1 - w_k, y = g_k+1 - g_k). The next
  // pair is computed into s_next / y_next: a rejected pair leaves them for
  // the next iteration, and an accepted one hands them to the history and
  // takes over the evicted oldest pair's buffers (empty until it is full).
  std::deque<la::Vector> s_history, y_history;
  std::deque<double> rho_history;
  double sy_last = 0;  // s.y of the newest pair
  la::Vector s_next, y_next;

  for (size_t iter = 0; iter < options_.max_iterations; ++iter) {
    const double grad_inf = la::AbsMax(grad);
    if (options_.iteration_callback) {
      options_.iteration_callback(iter, f, grad_inf);
    }
    if (grad_inf <= options_.gradient_tolerance) {
      result.converged = true;
      break;
    }

    // Two-loop recursion: direction = -H grad. Each Axpy into `direction`
    // is fused with the dot product that reads the updated `direction`
    // next (la::AxpyDot: the same operations, one pass instead of two).
    const size_t m = s_history.size();
    la::Copy(grad, direction);
    std::vector<double> alpha(m);
    double dot = m > 0 ? la::Dot(s_history[m - 1], direction) : 0.0;
    for (size_t k = m; k-- > 0;) {
      alpha[k] = rho_history[k] * dot;
      if (k > 0) {
        dot = la::AxpyDot(-alpha[k], y_history[k], direction,
                          s_history[k - 1]);
      } else {
        la::Axpy(-alpha[k], y_history[k], direction);
      }
    }
    if (m > 0) {
      // Initial Hessian scaling gamma = s.y / y.y (Nocedal eq. 7.20), with
      // s.y of the newest pair kept from its curvature check.
      const la::Vector& y_last = y_history.back();
      const double yy = la::Dot(y_last, y_last);
      if (yy > 0) {
        la::Scal(sy_last / yy, direction);
      }
      dot = la::Dot(y_history[0], direction);
    }
    for (size_t k = 0; k < m; ++k) {
      const double beta = rho_history[k] * dot;
      if (k + 1 < m) {
        dot = la::AxpyDot(alpha[k] - beta, s_history[k], direction,
                          y_history[k + 1]);
      } else {
        la::Axpy(alpha[k] - beta, s_history[k], direction);
      }
    }
    la::Scal(-1.0, direction);

    // Strong-Wolfe line search along `direction`.
    const double df0 = la::Dot(grad, direction);
    LineProbe probe{function, w, direction, w_trial, grad_trial,
                    &result.function_evaluations};
    // After the first update the two-loop recursion scales the direction
    // properly, so a unit step is the right opening probe. On the very
    // first iteration the direction is the raw (unscaled) negative
    // gradient, whose magnitude is arbitrary — open with ~unit-length
    // movement instead (Nocedal & Wright §6.1; mlpack does the same).
    const double initial_alpha =
        s_history.empty()
            ? 1.0 / std::max(1.0, la::Nrm2(direction))
            : 1.0;
    const double step =
        WolfeLineSearch(&probe, f, df0, options_.armijo, options_.wolfe,
                        options_.max_line_search_steps, initial_alpha);
    if (step <= 0) {
      // Line search failed: either converged to numerical precision or the
      // direction was bad; stop with what we have.
      break;
    }

    // Accept w + step * direction. The search usually returns its last
    // probe, whose point, gradient and value are still in the scratch; only
    // the alpha_prev / alpha_lo fallbacks name an earlier probe and need a
    // fresh evaluation. Either way the point is built the way a probe
    // builds it, so its bits are those of evaluating it again.
    if (step != probe.last_alpha) {
      double unused_derivative = 0;
      probe.Eval(step, &unused_derivative);
    }
    const double f_new = probe.last_value;

    // Update history.
    if (s_next.size() != n) {
      s_next = la::Vector(n);
      y_next = la::Vector(n);
    }
    la::Subtract(w_trial, w, s_next);
    la::Subtract(grad_trial, grad, y_next);
    la::Copy(w_trial, w);
    std::swap(grad, grad_trial);
    const double sy = la::Dot(s_next, y_next);
    if (sy > 1e-12) {  // curvature condition; skip degenerate pairs
      la::Vector s_free, y_free;
      if (s_history.size() == options_.history) {
        s_free = std::move(s_history.front());
        y_free = std::move(y_history.front());
        s_history.pop_front();
        y_history.pop_front();
        rho_history.pop_front();
      }
      s_history.push_back(std::move(s_next));
      y_history.push_back(std::move(y_next));
      rho_history.push_back(1.0 / sy);
      sy_last = sy;
      s_next = std::move(s_free);
      y_next = std::move(y_free);
    }

    const double improvement =
        std::fabs(f - f_new) / std::max(1.0, std::fabs(f));
    f = f_new;
    ++result.iterations;
    result.objective_history.push_back(f);
    if (improvement < options_.objective_tolerance) {
      result.converged = true;
      break;
    }
  }

  result.objective = f;
  result.gradient_norm = la::AbsMax(grad);
  if (result.gradient_norm <= options_.gradient_tolerance) {
    result.converged = true;
  }
  // Every evaluation of a chunked objective is one engine-driven pass over
  // the data; report how many this run performed (the paper's I/O unit).
  if (auto* chunked = dynamic_cast<ChunkedObjective*>(function)) {
    result.data_passes = chunked->passes() - passes_before;
  }
  return result;
}

}  // namespace m3::ml
