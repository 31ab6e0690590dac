// Test-only reference walk for the tree ensembles: each tree walked on its
// own through DecisionTree::PredictProba / PredictValue, combined in tree
// order. ExecEngine must match it bit for bit (the exec_engine parity suite
// asserts exact equality), so it is the oracle that lets the engine be the
// only production walk.
#ifndef RC_TESTS_ML_REFERENCE_WALK_H_
#define RC_TESTS_ML_REFERENCE_WALK_H_

#include <span>
#include <vector>

#include "src/ml/gbt.h"
#include "src/ml/link_functions.h"
#include "src/ml/random_forest.h"

namespace rc::ml::testing {

// Mean of the per-tree class distributions (0 for an empty forest).
inline std::vector<double> ReferenceProba(const RandomForest& forest,
                                          std::span<const double> x) {
  const size_t k = static_cast<size_t>(forest.num_classes());
  std::vector<double> acc(k, 0.0);
  std::vector<double> one(k);
  for (size_t t = 0; t < forest.tree_count(); ++t) {
    forest.tree(t).PredictProba(x, one);
    for (size_t c = 0; c < k; ++c) acc[c] += one[c];
  }
  const double inv = forest.tree_count() == 0
                         ? 0.0
                         : 1.0 / static_cast<double>(forest.tree_count());
  for (double& v : acc) v *= inv;
  return acc;
}

// Base score plus learning rate times each tree's value, then sigmoid
// (binary: one logit) or softmax (multiclass: tree t feeds class t % k).
inline std::vector<double> ReferenceProba(const GradientBoostedTrees& gbt,
                                          std::span<const double> x) {
  const size_t k = static_cast<size_t>(gbt.num_classes());
  if (k == 2) {
    double z = gbt.base_score()[0];
    for (size_t t = 0; t < gbt.tree_count(); ++t) {
      z += gbt.learning_rate() * gbt.tree(t).PredictValue(x);
    }
    const double p1 = Sigmoid(z);
    return {1.0 - p1, p1};
  }
  std::vector<double> logits(gbt.base_score());
  for (size_t t = 0; t < gbt.tree_count(); ++t) {
    logits[t % k] += gbt.learning_rate() * gbt.tree(t).PredictValue(x);
  }
  std::vector<double> probs(k);
  Softmax(logits, probs);
  return probs;
}

}  // namespace rc::ml::testing

#endif  // RC_TESTS_ML_REFERENCE_WALK_H_
