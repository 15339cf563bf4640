#include "chronus/optimizers.hpp"

#include <algorithm>

#include "ml/dataset.hpp"

namespace eco::chronus {
namespace {

ml::Dataset BenchmarksToDataset(const std::vector<BenchmarkRecord>& benchmarks) {
  ml::Dataset data;
  for (const auto& b : benchmarks) {
    data.Add(ConfigurationFeatures(b.config), b.GflopsPerWatt());
  }
  return data;
}

// Flattens the candidates into one row-major feature matrix (the batched
// engines' input); returns the row width.
std::size_t BuildFeatureMatrix(const std::vector<Configuration>& candidates,
                               std::vector<double>* matrix) {
  matrix->clear();
  std::size_t width = 0;
  for (const auto& candidate : candidates) {
    const std::vector<double> row = ConfigurationFeatures(candidate);
    width = row.size();
    matrix->insert(matrix->end(), row.begin(), row.end());
  }
  return width;
}

}  // namespace

Result<Configuration> ArgmaxPrediction(
    const std::vector<Configuration>& candidates,
    const std::function<Result<double>(const Configuration&)>& predict) {
  bool found = false;
  Configuration best;
  double best_value = 0.0;
  for (const auto& candidate : candidates) {
    const Result<double> value = predict(candidate);
    if (!value.ok()) continue;  // e.g. brute force on an unmeasured config
    // Strict `>` keeps the FIRST candidate reaching the max (header
    // contract) — ArgmaxFromScores must mirror this exactly.
    if (!found || *value > best_value) {
      found = true;
      best_value = *value;
      best = candidate;
    }
  }
  if (!found) {
    return Result<Configuration>::Error(
        "optimizer: no candidate could be scored");
  }
  return best;
}

Result<Configuration> ArgmaxFromScores(
    const std::vector<Configuration>& candidates,
    const std::vector<double>& scores, const std::vector<bool>& scored) {
  if (scores.size() != candidates.size() ||
      scored.size() != candidates.size()) {
    return Result<Configuration>::Error(
        "optimizer: score vectors do not match candidates");
  }
  bool found = false;
  std::size_t best = 0;
  double best_value = 0.0;
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    if (!scored[i]) continue;
    if (!found || scores[i] > best_value) {  // same first-wins strict `>`
      found = true;
      best_value = scores[i];
      best = i;
    }
  }
  if (!found) {
    return Result<Configuration>::Error(
        "optimizer: no candidate could be scored");
  }
  return candidates[best];
}

std::vector<double> ConfigurationFeatures(const Configuration& config) {
  return {static_cast<double>(config.cores),
          static_cast<double>(config.threads_per_core),
          KiloHertzToGHz(config.frequency)};
}

// ------------------------------------------------------------- BruteForce

Status BruteForceOptimizer::Train(const std::vector<BenchmarkRecord>& benchmarks) {
  if (benchmarks.empty()) return Status::Error("brute-force: no benchmarks");
  table_.clear();
  std::map<Key, std::pair<double, int>> sums;
  for (const auto& b : benchmarks) {
    auto& [sum, count] = sums[MakeKey(b.config)];
    sum += b.GflopsPerWatt();
    ++count;
  }
  for (const auto& [key, sum_count] : sums) {
    table_[key] = sum_count.first / sum_count.second;
  }
  return Status::Ok();
}

Result<double> BruteForceOptimizer::Predict(const Configuration& config) const {
  const auto it = table_.find(MakeKey(config));
  if (it == table_.end()) {
    return Result<double>::Error("brute-force: configuration not measured: " +
                                 config.ToString());
  }
  return it->second;
}

Result<Configuration> BruteForceOptimizer::BestConfiguration(
    const std::vector<Configuration>& candidates) const {
  // Inherits the default per-candidate PredictBatch (table lookups — nothing
  // to vectorize); the argmax contract is shared with the batched path.
  std::vector<double> scores;
  std::vector<bool> scored;
  const Status status = PredictBatch(candidates, &scores, &scored);
  if (!status.ok()) return Result<Configuration>::Error(status.message());
  return ArgmaxFromScores(candidates, scores, scored);
}

Json BruteForceOptimizer::Serialize() const {
  JsonArray entries;
  for (const auto& [key, value] : table_) {
    JsonObject entry;
    entry["cores"] = std::get<0>(key);
    entry["threads_per_core"] = std::get<1>(key);
    entry["frequency"] = static_cast<long long>(std::get<2>(key));
    entry["gflops_per_watt"] = value;
    entries.push_back(Json(std::move(entry)));
  }
  JsonObject obj;
  obj["entries"] = std::move(entries);
  return Json(std::move(obj));
}

Status BruteForceOptimizer::Deserialize(const Json& json) {
  if (!json.at("entries").is_array()) {
    return Status::Error("brute-force: expected {entries: [...]}");
  }
  table_.clear();
  for (const auto& entry : json.at("entries").as_array()) {
    Configuration config;
    config.cores = static_cast<int>(entry.at("cores").as_int());
    config.threads_per_core =
        static_cast<int>(entry.at("threads_per_core").as_int(1));
    config.frequency =
        static_cast<KiloHertz>(entry.at("frequency").as_int());
    table_[MakeKey(config)] = entry.at("gflops_per_watt").as_number();
  }
  if (table_.empty()) return Status::Error("brute-force: no entries");
  return Status::Ok();
}

// ------------------------------------------------------- LinearRegression

LinearRegressionOptimizer::LinearRegressionOptimizer(
    ml::LinearRegressionParams params)
    : model_(params) {}

Status LinearRegressionOptimizer::Train(
    const std::vector<BenchmarkRecord>& benchmarks) {
  if (benchmarks.empty()) return Status::Error("linear-regression: no benchmarks");
  return model_.Fit(BenchmarksToDataset(benchmarks));
}

Result<double> LinearRegressionOptimizer::Predict(
    const Configuration& config) const {
  if (!model_.fitted()) {
    return Result<double>::Error("linear-regression: not trained");
  }
  return model_.Predict(ConfigurationFeatures(config));
}

Status LinearRegressionOptimizer::PredictBatch(
    const std::vector<Configuration>& candidates, std::vector<double>* out,
    std::vector<bool>* scored) const {
  if (!model_.fitted()) return Status::Error("linear-regression: not trained");
  out->assign(candidates.size(), 0.0);
  scored->assign(candidates.size(), true);
  if (candidates.empty()) return Status::Ok();
  std::vector<double> matrix;
  const std::size_t width = BuildFeatureMatrix(candidates, &matrix);
  return model_.PredictBatch(matrix.data(),
                             static_cast<std::int64_t>(candidates.size()),
                             static_cast<std::int32_t>(width), out->data());
}

Result<Configuration> LinearRegressionOptimizer::BestConfiguration(
    const std::vector<Configuration>& candidates) const {
  std::vector<double> scores;
  std::vector<bool> scored;
  const Status status = PredictBatch(candidates, &scores, &scored);
  if (!status.ok()) return Result<Configuration>::Error(status.message());
  return ArgmaxFromScores(candidates, scores, scored);
}

Json LinearRegressionOptimizer::Serialize() const { return model_.ToJson(); }

Status LinearRegressionOptimizer::Deserialize(const Json& json) {
  auto loaded = ml::LinearRegression::FromJson(json);
  if (!loaded.ok()) return loaded.status();
  model_ = std::move(loaded.value());
  return Status::Ok();
}

// ----------------------------------------------------------- RandomForest

RandomForestOptimizer::RandomForestOptimizer(ml::ForestParams params)
    : model_(params) {}

void RandomForestOptimizer::RecompileModel() {
  compiled_.reset();
  if (!model_.fitted()) return;
  auto compiled = ml::CompiledForest::Compile(model_);
  if (compiled.ok()) {
    compiled_ = std::make_shared<const ml::CompiledForest>(
        std::move(compiled.value()));
  }
}

Status RandomForestOptimizer::Train(
    const std::vector<BenchmarkRecord>& benchmarks) {
  if (benchmarks.empty()) return Status::Error("random-tree: no benchmarks");
  const Status fitted = model_.Fit(BenchmarksToDataset(benchmarks));
  if (!fitted.ok()) return fitted;
  RecompileModel();
  return Status::Ok();
}

Result<double> RandomForestOptimizer::Predict(const Configuration& config) const {
  if (!model_.fitted()) return Result<double>::Error("random-tree: not trained");
  const std::vector<double> features = ConfigurationFeatures(config);
  if (compiled_ != nullptr) {
    // Single-row batch: bitwise identical to the pointer walk below, minus
    // its per-node heap chasing.
    const Result<double> value = compiled_->PredictRow(
        features.data(), static_cast<std::int32_t>(features.size()));
    if (value.ok()) return value;
  }
  return model_.Predict(features);
}

Status RandomForestOptimizer::PredictBatch(
    const std::vector<Configuration>& candidates, std::vector<double>* out,
    std::vector<bool>* scored) const {
  if (!model_.fitted()) return Status::Error("random-tree: not trained");
  out->assign(candidates.size(), 0.0);
  scored->assign(candidates.size(), true);
  if (candidates.empty()) return Status::Ok();
  std::vector<double> matrix;
  const std::size_t width = BuildFeatureMatrix(candidates, &matrix);
  if (compiled_ != nullptr) {
    const Status batched = compiled_->BatchPredict(
        matrix.data(), static_cast<std::int64_t>(candidates.size()),
        static_cast<std::int32_t>(width), out->data());
    if (batched.ok()) return batched;
  }
  // Compile failed or widths mismatched: the pointer walk still answers.
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    (*out)[i] = model_.Predict(ConfigurationFeatures(candidates[i]));
  }
  return Status::Ok();
}

Result<Configuration> RandomForestOptimizer::BestConfiguration(
    const std::vector<Configuration>& candidates) const {
  std::vector<double> scores;
  std::vector<bool> scored;
  const Status status = PredictBatch(candidates, &scores, &scored);
  if (!status.ok()) return Result<Configuration>::Error(status.message());
  return ArgmaxFromScores(candidates, scores, scored);
}

Json RandomForestOptimizer::Serialize() const { return model_.ToJson(); }

Status RandomForestOptimizer::Deserialize(const Json& json) {
  auto loaded = ml::RandomForest::FromJson(json);
  if (!loaded.ok()) return loaded.status();
  Adopt(std::move(loaded.value()));
  return Status::Ok();
}

void RandomForestOptimizer::Adopt(ml::RandomForest forest) {
  model_ = std::move(forest);
  RecompileModel();
}

// ----------------------------------------------------------- ModelFactory

std::vector<std::string> ModelFactory::KnownTypes() {
  return {BruteForceOptimizer::Name(), LinearRegressionOptimizer::Name(),
          RandomForestOptimizer::Name()};
}

Result<OptimizerPtr> ModelFactory::Make(const std::string& type) {
  if (type == BruteForceOptimizer::Name()) {
    return OptimizerPtr(std::make_shared<BruteForceOptimizer>());
  }
  if (type == LinearRegressionOptimizer::Name()) {
    return OptimizerPtr(std::make_shared<LinearRegressionOptimizer>());
  }
  if (type == RandomForestOptimizer::Name()) {
    return OptimizerPtr(std::make_shared<RandomForestOptimizer>());
  }
  return Result<OptimizerPtr>::Error("Unknown optimizer type: " + type);
}

Json ModelFactory::Pack(const OptimizerInterface& optimizer) {
  JsonObject envelope;
  envelope["type"] = optimizer.type();
  envelope["payload"] = optimizer.Serialize();
  return Json(std::move(envelope));
}

Result<OptimizerPtr> ModelFactory::Unpack(const Json& envelope) {
  if (!envelope.is_object() || !envelope.at("type").is_string()) {
    return Result<OptimizerPtr>::Error("model envelope: missing type");
  }
  auto optimizer = Make(envelope.at("type").as_string());
  if (!optimizer.ok()) return optimizer;
  const Status loaded = (*optimizer)->Deserialize(envelope.at("payload"));
  if (!loaded.ok()) return Result<OptimizerPtr>::Error(loaded.message());
  return optimizer;
}

}  // namespace eco::chronus
