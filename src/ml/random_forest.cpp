#include "ml/random_forest.hpp"

#include <cmath>
#include <limits>

#include "ml/dataset.hpp"

namespace eco::ml {

Status RandomForest::Fit(const Dataset& data, ThreadPool* pool) {
  if (data.size() == 0) return Status::Error("forest: empty dataset");
  trees_.clear();

  Rng rng(params_.seed);
  TreeParams tree_params = params_.tree;
  if (tree_params.max_features <= 0) {
    tree_params.max_features = std::max(
        1, static_cast<int>(std::lround(std::sqrt(data.feature_count()))));
  }

  const std::size_t n = data.size();
  const auto samples = static_cast<std::size_t>(
      std::max<double>(1.0, params_.bootstrap_fraction * n));
  const auto n_trees = static_cast<std::size_t>(params_.trees);

  // Draw every tree's bootstrap sample and RNG stream serially from the
  // master generator — the exact draw order of the serial implementation —
  // so the training phase below is free to run in any order.
  std::vector<std::vector<std::size_t>> bootstrap(n_trees);
  std::vector<std::vector<bool>> in_bag(n_trees);
  std::vector<Rng> tree_rngs;
  tree_rngs.reserve(n_trees);
  for (std::size_t t = 0; t < n_trees; ++t) {
    bootstrap[t].resize(samples);
    in_bag[t].assign(n, false);
    for (auto& i : bootstrap[t]) {
      i = rng.NextBounded(n);
      in_bag[t][i] = true;
    }
    tree_rngs.push_back(rng.Fork());
  }

  // Train: each task touches only its own tree / RNG / status slot.
  trees_.assign(n_trees, RegressionTree(tree_params));
  std::vector<Status> statuses(n_trees, Status::Ok());
  const auto fit_tree = [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t t = lo; t < hi; ++t) {
      const auto u = static_cast<std::size_t>(t);
      statuses[u] = trees_[u].FitIndices(data, bootstrap[u], &tree_rngs[u]);
    }
  };
  if (pool == nullptr) {
    fit_tree(0, static_cast<std::int64_t>(n_trees));
  } else {
    pool->ParallelFor(0, static_cast<std::int64_t>(n_trees), /*grain=*/1,
                      fit_tree);
  }
  for (std::size_t t = 0; t < n_trees; ++t) {
    if (!statuses[t].ok()) {
      trees_.clear();
      return statuses[t];
    }
  }

  // Out-of-bag bookkeeping, merged in tree order: per row, the sum of
  // predictions from trees that did not train on it — the same accumulation
  // order as the serial loop, so oob_r2_ is bit-identical.
  std::vector<double> oob_sum(n, 0.0);
  std::vector<int> oob_count(n, 0);
  for (std::size_t t = 0; t < n_trees; ++t) {
    for (std::size_t i = 0; i < n; ++i) {
      if (!in_bag[t][i]) {
        oob_sum[i] += trees_[t].Predict(data.features[i]);
        ++oob_count[i];
      }
    }
  }

  std::vector<double> oob_pred;
  std::vector<double> oob_target;
  for (std::size_t i = 0; i < n; ++i) {
    if (oob_count[i] > 0) {
      oob_pred.push_back(oob_sum[i] / oob_count[i]);
      oob_target.push_back(data.targets[i]);
    }
  }
  // Header contract: NaN when no row was ever out of bag (e.g. a bootstrap
  // fraction that puts every row in every bag) — 0.0 would read as "fits no
  // better than the mean" when in truth there was nothing to score.
  oob_r2_ = oob_pred.empty() ? std::numeric_limits<double>::quiet_NaN()
                             : RSquared(oob_pred, oob_target);
  return Status::Ok();
}

double RandomForest::Predict(const std::vector<double>& features) const {
  if (trees_.empty()) return 0.0;
  double sum = 0.0;
  for (const auto& tree : trees_) sum += tree.Predict(features);
  return sum / static_cast<double>(trees_.size());
}

Json RandomForest::ToJson() const {
  JsonObject obj;
  obj["trees_requested"] = params_.trees;
  obj["seed"] = static_cast<long long>(params_.seed);
  obj["bootstrap_fraction"] = params_.bootstrap_fraction;
  // JSON has no NaN literal (the parser rejects non-finite numbers), so an
  // unavailable OOB score serializes as null and parses back to NaN below.
  obj["oob_r2"] = std::isfinite(oob_r2_) ? Json(oob_r2_) : Json();
  JsonArray trees;
  for (const auto& tree : trees_) trees.push_back(tree.ToJson());
  obj["trees"] = std::move(trees);
  return Json(std::move(obj));
}

Result<RandomForest> RandomForest::FromJson(const Json& json) {
  if (!json.is_object() || !json.at("trees").is_array()) {
    return Result<RandomForest>::Error("forest: expected {trees: [...]}");
  }
  RandomForest forest;
  forest.params_.trees = static_cast<int>(json.at("trees_requested").as_int(0));
  // Restore the fit parameters so a reloaded forest refits identically;
  // older blobs without these keys keep the defaults they were built with.
  forest.params_.seed =
      static_cast<std::uint64_t>(json.at("seed").as_int(2023));
  forest.params_.bootstrap_fraction =
      json.at("bootstrap_fraction").as_number(1.0);
  forest.oob_r2_ =
      json.at("oob_r2").as_number(std::numeric_limits<double>::quiet_NaN());
  for (const auto& t : json.at("trees").as_array()) {
    auto tree = RegressionTree::FromJson(t);
    if (!tree.ok()) return Result<RandomForest>::Error(tree.message());
    forest.trees_.push_back(std::move(tree.value()));
  }
  if (forest.trees_.empty()) {
    return Result<RandomForest>::Error("forest: no trees");
  }
  return forest;
}

void RandomForest::AppendImage(std::string* out) const {
  ImageWriter w(out);
  w.Put(static_cast<std::int32_t>(params_.trees));
  w.Put(static_cast<std::uint64_t>(params_.seed));
  w.Put(params_.bootstrap_fraction);
  w.Put(oob_r2_);
  w.Put(static_cast<std::uint32_t>(trees_.size()));
  std::uint32_t root = 0;
  for (const auto& tree : trees_) {
    w.Put(static_cast<std::int32_t>(tree.params_.max_depth));
    w.Put(static_cast<std::int32_t>(tree.params_.min_samples_leaf));
    w.Put(static_cast<std::int32_t>(tree.params_.min_samples_split));
    w.Put(static_cast<std::int32_t>(tree.params_.max_features));
    w.Put(root);
    w.Put(static_cast<std::uint32_t>(tree.nodes_.size()));
    root += static_cast<std::uint32_t>(tree.nodes_.size());
  }
  std::vector<std::int32_t> feature, left, right;
  std::vector<double> threshold, value;
  for (const auto& tree : trees_) {
    for (const auto& node : tree.nodes_) {
      feature.push_back(node.feature);
      threshold.push_back(node.threshold);
      value.push_back(node.value);
      left.push_back(node.left);
      right.push_back(node.right);
    }
  }
  w.Put(root);  // total nodes
  w.PutArray(feature);
  w.PutArray(threshold);
  w.PutArray(value);
  w.PutArray(left);
  w.PutArray(right);
}

Result<RandomForest> RandomForest::FromImage(ImageReader& in) {
  using R = Result<RandomForest>;
  RandomForest forest;
  std::int32_t trees_requested = 0;
  std::uint64_t seed = 0;
  std::uint32_t tree_count = 0;
  if (!in.Get(&trees_requested) || !in.Get(&seed) ||
      !in.Get(&forest.params_.bootstrap_fraction) ||
      !in.Get(&forest.oob_r2_) || !in.Get(&tree_count)) {
    return R::Error("forest image: truncated header");
  }
  forest.params_.trees = trees_requested;
  forest.params_.seed = seed;
  if (tree_count == 0) return R::Error("forest image: no trees");
  struct TreeEntry {
    std::int32_t params[4];
    std::uint32_t root;
    std::uint32_t nodes;
  };
  if (!in.Fits(tree_count, sizeof(TreeEntry))) {
    return R::Error("forest image: tree table larger than the image");
  }
  std::vector<TreeEntry> table(tree_count);
  for (TreeEntry& e : table) {
    for (std::int32_t& p : e.params) in.Get(&p);
    in.Get(&e.root);
    in.Get(&e.nodes);
  }
  std::uint32_t total = 0;
  constexpr std::size_t kNodeBytes = 2 * sizeof(double) + 3 * sizeof(std::int32_t);
  if (!in.Get(&total) || !in.Fits(total, kNodeBytes)) {
    return R::Error("forest image: node arrays larger than the image");
  }
  if (tree_count > total) return R::Error("forest image: a tree without nodes");
  std::vector<std::int32_t> feature, left, right;
  std::vector<double> threshold, value;
  in.GetArray(total, &feature);
  in.GetArray(total, &threshold);
  in.GetArray(total, &value);
  in.GetArray(total, &left);
  in.GetArray(total, &right);

  // Trees own consecutive node ranges: each root is where the previous tree
  // ended, and the ranges cover the arrays exactly.
  std::uint64_t next = 0;
  forest.trees_.reserve(tree_count);
  for (const TreeEntry& e : table) {
    if (e.root != next || e.nodes == 0 ||
        static_cast<std::uint64_t>(e.root) + e.nodes > total) {
      return R::Error("forest image: tree root or node range out of bounds");
    }
    TreeParams params;
    params.max_depth = e.params[0];
    params.min_samples_leaf = e.params[1];
    params.min_samples_split = e.params[2];
    params.max_features = e.params[3];
    RegressionTree tree(params);
    tree.nodes_.resize(e.nodes);
    for (std::uint32_t i = 0; i < e.nodes; ++i) {
      RegressionTree::Node& node = tree.nodes_[i];
      const std::size_t g = e.root + i;
      node.feature = feature[g];
      node.threshold = threshold[g];
      node.value = value[g];
      node.left = left[g];
      node.right = right[g];
    }
    const Status valid = tree.Validate();
    if (!valid.ok()) return R::Error("forest image: " + valid.message());
    forest.trees_.push_back(std::move(tree));
    next += e.nodes;
  }
  if (next != total) return R::Error("forest image: nodes outside every tree");
  return forest;
}

}  // namespace eco::ml
