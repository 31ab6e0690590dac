// Link functions shared by GBT training, the compiled ExecEngine and the
// test-only per-tree reference walk (tests/ml/reference_walk.h). The engine
// must match that reference bit for bit (the parity suite asserts exact
// equality), so the final logit->probability arithmetic lives in exactly one
// place.
#ifndef RC_SRC_ML_LINK_FUNCTIONS_H_
#define RC_SRC_ML_LINK_FUNCTIONS_H_

#include <cmath>
#include <span>

namespace rc::ml {

// Numerically stable softmax. `logits` and `out` may alias element-for-element
// (in-place use by the engine): each element is read exactly once before it is
// overwritten, and the operation order matches the out-of-place form.
inline void Softmax(std::span<const double> logits, std::span<double> out) {
  double m = logits[0];
  for (double v : logits) m = std::max(m, v);
  double sum = 0.0;
  for (size_t c = 0; c < logits.size(); ++c) {
    out[c] = std::exp(logits[c] - m);
    sum += out[c];
  }
  for (size_t c = 0; c < logits.size(); ++c) out[c] /= sum;
}

inline double Sigmoid(double z) { return 1.0 / (1.0 + std::exp(-z)); }

}  // namespace rc::ml

#endif  // RC_SRC_ML_LINK_FUNCTIONS_H_
