// Random forest regressor: bootstrap-aggregated CART trees with per-split
// feature subsampling — the sklearn RandomForestRegressor equivalent the
// paper lists as a Chronus Optimizer implementation.
//
// Fit can train trees concurrently on a ThreadPool: the bootstrap sample and
// the per-tree RNG stream are drawn serially from the master seed (the same
// draw order as the serial path), each tree then trains only from its own
// forked stream, and out-of-bag accumulators are merged in tree order — so
// the fitted forest and its OOB R² are bit-identical at any pool size.
#pragma once

#include <limits>
#include <vector>

#include "common/byte_image.hpp"
#include "common/error.hpp"
#include "common/json.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "ml/decision_tree.hpp"

namespace eco::ml {

struct ForestParams {
  int trees = 50;
  TreeParams tree;           // tree.max_features 0 => sqrt(k) chosen at fit
  double bootstrap_fraction = 1.0;
  std::uint64_t seed = 2023;
};

class RandomForest {
 public:
  explicit RandomForest(ForestParams params = {}) : params_(params) {}

  // Trains the forest; with a pool, trees fit concurrently with results
  // identical to the serial path.
  Status Fit(const Dataset& data, ThreadPool* pool = nullptr);
  [[nodiscard]] double Predict(const std::vector<double>& features) const;
  [[nodiscard]] bool fitted() const { return !trees_.empty(); }
  [[nodiscard]] std::size_t tree_count() const { return trees_.size(); }

  [[nodiscard]] const ForestParams& params() const { return params_; }

  // Out-of-bag R² estimate computed during Fit (NaN if unavailable).
  [[nodiscard]] double oob_r_squared() const { return oob_r2_; }

  [[nodiscard]] Json ToJson() const;
  static Result<RandomForest> FromJson(const Json& json);

  // Binary image of the fitted forest, appended to `out`: the fit params,
  // a per-tree table {tree params, root, node count} and one forest-wide
  // array per node field (layout table in DESIGN.md "Chronus local
  // storage"). FromImage reads one back, bit for bit what AppendImage was
  // given, and runs the same per-tree checks as FromJson; counts are
  // checked against the bytes left before anything is allocated.
  void AppendImage(std::string* out) const;
  static Result<RandomForest> FromImage(ImageReader& in);

 private:
  // CompiledForest flattens trees_ into its SoA arrays (ml/forest_inference).
  friend class CompiledForest;

  ForestParams params_;
  std::vector<RegressionTree> trees_;
  // NaN until Fit observes at least one out-of-bag row (header contract).
  double oob_r2_ = std::numeric_limits<double>::quiet_NaN();
};

}  // namespace eco::ml
