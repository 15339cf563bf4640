#include "ml/decision_tree.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

namespace eco::ml {
namespace {

double MeanOf(const Dataset& data, const std::vector<std::size_t>& idx,
              std::size_t begin, std::size_t end) {
  double sum = 0.0;
  for (std::size_t i = begin; i < end; ++i) sum += data.targets[idx[i]];
  return sum / static_cast<double>(end - begin);
}

}  // namespace

Status RegressionTree::Fit(const Dataset& data, Rng* rng) {
  std::vector<std::size_t> idx(data.size());
  std::iota(idx.begin(), idx.end(), 0);
  return FitIndices(data, idx, rng);
}

Status RegressionTree::FitIndices(const Dataset& data,
                                  const std::vector<std::size_t>& idx,
                                  Rng* rng) {
  if (data.size() == 0 || idx.empty()) return Status::Error("tree: empty data");
  nodes_.clear();
  Rng local_rng(1234);
  if (rng == nullptr) rng = &local_rng;
  std::vector<std::size_t> work = idx;
  Build(data, work, 0, work.size(), 0, rng);
  return Status::Ok();
}

std::int32_t RegressionTree::Build(const Dataset& data,
                                   std::vector<std::size_t>& idx,
                                   std::size_t begin, std::size_t end,
                                   int depth, Rng* rng) {
  const std::int32_t node_id = static_cast<std::int32_t>(nodes_.size());
  nodes_.push_back(Node{});
  const std::size_t count = end - begin;
  nodes_[node_id].value = MeanOf(data, idx, begin, end);

  if (depth >= params_.max_depth ||
      count < static_cast<std::size_t>(params_.min_samples_split)) {
    return node_id;
  }

  // Pick the candidate feature subset for this split.
  const std::size_t k = data.feature_count();
  std::vector<int> candidates(k);
  std::iota(candidates.begin(), candidates.end(), 0);
  if (params_.max_features > 0 &&
      static_cast<std::size_t>(params_.max_features) < k) {
    // Partial Fisher–Yates for the first max_features entries.
    for (int i = 0; i < params_.max_features; ++i) {
      const int j = i + static_cast<int>(rng->NextBounded(k - i));
      std::swap(candidates[i], candidates[j]);
    }
    candidates.resize(static_cast<std::size_t>(params_.max_features));
  }

  // Greedy best split by weighted child SSE.
  int best_feature = -1;
  double best_threshold = 0.0;
  double best_score = std::numeric_limits<double>::infinity();

  std::vector<std::size_t> sorted(idx.begin() + static_cast<std::ptrdiff_t>(begin),
                                  idx.begin() + static_cast<std::ptrdiff_t>(end));
  for (const int feature : candidates) {
    std::sort(sorted.begin(), sorted.end(), [&](std::size_t a, std::size_t b) {
      return data.features[a][static_cast<std::size_t>(feature)] <
             data.features[b][static_cast<std::size_t>(feature)];
    });
    // Prefix sums over targets for O(1) split evaluation.
    double total_sum = 0.0;
    double total_sq = 0.0;
    for (const std::size_t i : sorted) {
      total_sum += data.targets[i];
      total_sq += data.targets[i] * data.targets[i];
    }
    double left_sum = 0.0;
    double left_sq = 0.0;
    for (std::size_t split = 1; split < count; ++split) {
      const std::size_t prev = sorted[split - 1];
      left_sum += data.targets[prev];
      left_sq += data.targets[prev] * data.targets[prev];
      const double lo = data.features[prev][static_cast<std::size_t>(feature)];
      const double hi =
          data.features[sorted[split]][static_cast<std::size_t>(feature)];
      if (hi <= lo) continue;  // can't separate equal feature values
      if (split < static_cast<std::size_t>(params_.min_samples_leaf) ||
          count - split < static_cast<std::size_t>(params_.min_samples_leaf)) {
        continue;
      }
      const double nl = static_cast<double>(split);
      const double nr = static_cast<double>(count - split);
      const double right_sum = total_sum - left_sum;
      const double right_sq = total_sq - left_sq;
      const double sse_left = left_sq - left_sum * left_sum / nl;
      const double sse_right = right_sq - right_sum * right_sum / nr;
      const double score = sse_left + sse_right;
      if (score < best_score - 1e-12) {
        best_score = score;
        best_feature = feature;
        best_threshold = 0.5 * (lo + hi);
      }
    }
  }

  if (best_feature < 0) return node_id;  // no useful split

  // Partition idx[begin,end) around the chosen split.
  const auto mid_it = std::partition(
      idx.begin() + static_cast<std::ptrdiff_t>(begin),
      idx.begin() + static_cast<std::ptrdiff_t>(end), [&](std::size_t i) {
        return data.features[i][static_cast<std::size_t>(best_feature)] <
               best_threshold;
      });
  const std::size_t mid = static_cast<std::size_t>(mid_it - idx.begin());
  if (mid == begin || mid == end) return node_id;  // degenerate partition

  nodes_[node_id].feature = best_feature;
  nodes_[node_id].threshold = best_threshold;
  const std::int32_t left = Build(data, idx, begin, mid, depth + 1, rng);
  nodes_[node_id].left = left;
  const std::int32_t right = Build(data, idx, mid, end, depth + 1, rng);
  nodes_[node_id].right = right;
  return node_id;
}

double RegressionTree::Predict(const std::vector<double>& features) const {
  if (nodes_.empty()) return 0.0;
  std::int32_t node = 0;
  while (nodes_[static_cast<std::size_t>(node)].feature >= 0) {
    const Node& n = nodes_[static_cast<std::size_t>(node)];
    const double v = features[static_cast<std::size_t>(n.feature)];
    node = v < n.threshold ? n.left : n.right;
  }
  return nodes_[static_cast<std::size_t>(node)].value;
}

int RegressionTree::depth() const {
  // Iterative depth computation over the implicit tree.
  int max_depth = 0;
  std::vector<std::pair<std::int32_t, int>> stack{{0, 1}};
  while (!stack.empty()) {
    const auto [id, d] = stack.back();
    stack.pop_back();
    if (id < 0 || nodes_.empty()) continue;
    max_depth = std::max(max_depth, d);
    const Node& n = nodes_[static_cast<std::size_t>(id)];
    if (n.feature >= 0) {
      stack.emplace_back(n.left, d + 1);
      stack.emplace_back(n.right, d + 1);
    }
  }
  return nodes_.empty() ? 0 : max_depth;
}

Json RegressionTree::ToJson() const {
  JsonArray nodes;
  for (const Node& n : nodes_) {
    JsonObject obj;
    obj["f"] = n.feature;
    obj["t"] = n.threshold;
    obj["v"] = n.value;
    obj["l"] = static_cast<int>(n.left);
    obj["r"] = static_cast<int>(n.right);
    nodes.push_back(Json(std::move(obj)));
  }
  JsonObject root;
  root["nodes"] = std::move(nodes);
  root["max_depth"] = params_.max_depth;
  root["min_samples_leaf"] = params_.min_samples_leaf;
  root["min_samples_split"] = params_.min_samples_split;
  root["max_features"] = params_.max_features;
  return Json(std::move(root));
}

Result<RegressionTree> RegressionTree::FromJson(const Json& json) {
  if (!json.is_object() || !json.at("nodes").is_array()) {
    return Result<RegressionTree>::Error("tree: expected {nodes: [...]}");
  }
  TreeParams params;
  params.max_depth = static_cast<int>(json.at("max_depth").as_int(8));
  // Older blobs carry only max_depth; fall back to the defaults they were
  // built with so round-tripping stays backward compatible.
  params.min_samples_leaf =
      static_cast<int>(json.at("min_samples_leaf").as_int(1));
  params.min_samples_split =
      static_cast<int>(json.at("min_samples_split").as_int(2));
  params.max_features = static_cast<int>(json.at("max_features").as_int(0));
  RegressionTree tree(params);
  const auto& nodes = json.at("nodes").as_array();
  tree.nodes_.reserve(nodes.size());
  for (const auto& n : nodes) {
    Node node;
    node.feature = static_cast<int>(n.at("f").as_int(-1));
    node.threshold = n.at("t").as_number();
    node.value = n.at("v").as_number();
    node.left = static_cast<std::int32_t>(n.at("l").as_int(-1));
    node.right = static_cast<std::int32_t>(n.at("r").as_int(-1));
    tree.nodes_.push_back(node);
  }
  const Status valid = tree.Validate();
  if (!valid.ok()) return Result<RegressionTree>::Error(valid.message());
  return tree;
}

Status RegressionTree::Validate() const {
  if (nodes_.empty()) return Status::Error("tree: no nodes");
  const auto limit = static_cast<std::int64_t>(nodes_.size());
  for (const Node& node : nodes_) {
    // -1 marks a leaf; anything else negative is corruption, and the upper
    // bound keeps every accepted model flattenable into the compiled
    // engine's int16 feature slot (ml/forest_inference).
    if (node.feature < -1 ||
        node.feature > std::numeric_limits<std::int16_t>::max()) {
      return Status::Error("tree: feature index out of range");
    }
    if (node.feature >= 0 &&
        (node.left < 0 || node.left >= limit || node.right < 0 ||
         node.right >= limit)) {
      return Status::Error("tree: corrupt child index");
    }
  }
  // Topology check, BFS from the root: a child reached twice means a cycle
  // or converging links (Predict could loop forever), and a node never
  // reached is dead weight no serializer of ours emits — both reject rather
  // than risk a malformed model artifact steering submit-time decisions.
  std::vector<char> seen(nodes_.size(), 0);
  seen[0] = 1;
  std::vector<std::int32_t> queue{0};
  queue.reserve(nodes_.size());
  for (std::size_t q = 0; q < queue.size(); ++q) {
    const Node& node = nodes_[static_cast<std::size_t>(queue[q])];
    if (node.feature < 0) continue;
    for (const std::int32_t child : {node.left, node.right}) {
      if (seen[static_cast<std::size_t>(child)] != 0) {
        return Status::Error("tree: cyclic or converging node links");
      }
      seen[static_cast<std::size_t>(child)] = 1;
      queue.push_back(child);
    }
  }
  if (queue.size() != nodes_.size()) {
    return Status::Error("tree: unreachable nodes");
  }
  return Status::Ok();
}

}  // namespace eco::ml
