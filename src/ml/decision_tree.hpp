// CART regression tree: greedy variance-reduction splits on axis-aligned
// thresholds. Used standalone and as the base learner of the random forest
// (Chronus's "random-tree" / RandomForestRegressor optimizer).
#pragma once

#include <cstdint>
#include <vector>

#include "common/error.hpp"
#include "common/json.hpp"
#include "common/rng.hpp"
#include "ml/dataset.hpp"

namespace eco::ml {

struct TreeParams {
  int max_depth = 8;
  int min_samples_leaf = 1;
  int min_samples_split = 2;
  // Features considered per split; 0 = all (single trees), forests pass
  // ~sqrt(k) for decorrelation.
  int max_features = 0;
};

class RegressionTree {
 public:
  explicit RegressionTree(TreeParams params = {}) : params_(params) {}

  // `rng` drives the per-split feature subsampling (pass a forked stream
  // from the forest; a default-seeded one is fine for single trees).
  Status Fit(const Dataset& data, Rng* rng = nullptr);
  // Fits on a row subset (bootstrap indices from the forest).
  Status FitIndices(const Dataset& data, const std::vector<std::size_t>& idx,
                    Rng* rng);

  [[nodiscard]] double Predict(const std::vector<double>& features) const;
  [[nodiscard]] bool fitted() const { return !nodes_.empty(); }
  [[nodiscard]] std::size_t node_count() const { return nodes_.size(); }
  [[nodiscard]] int depth() const;

  [[nodiscard]] Json ToJson() const;
  static Result<RegressionTree> FromJson(const Json& json);

 private:
  // CompiledForest flattens nodes_ into its SoA arrays (ml/forest_inference);
  // RandomForest writes and reads them as a binary image.
  friend class CompiledForest;
  friend class RandomForest;

  struct Node {
    // Leaf iff feature < 0.
    int feature = -1;
    double threshold = 0.0;
    double value = 0.0;  // leaf prediction
    std::int32_t left = -1;
    std::int32_t right = -1;
  };

  // The checks every loaded tree passes (FromJson, the forest image): at
  // least one node, feature indices in [-1, int16 max], split children in
  // range, and every node reached exactly once from the root.
  [[nodiscard]] Status Validate() const;

  std::int32_t Build(const Dataset& data, std::vector<std::size_t>& idx,
                     std::size_t begin, std::size_t end, int depth, Rng* rng);

  TreeParams params_;
  std::vector<Node> nodes_;
};

}  // namespace eco::ml
