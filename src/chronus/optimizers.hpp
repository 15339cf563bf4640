// The three Optimizer implementations the paper ships (§3.2 Figure 5,
// `chronus init-model --model [brute-force|linear-regression|random-tree]`)
// plus the ModelFactory that maps the persisted type string back to an
// implementation (§4.1 Listing 2).
//
// All three predict GFLOPS/W from a (cores, threads_per_core, frequency)
// configuration, trained on BenchmarkRecords.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "chronus/interfaces.hpp"
#include "ml/forest_inference.hpp"
#include "ml/linear_regression.hpp"
#include "ml/random_forest.hpp"

namespace eco::chronus {

// argmax of `predict` over the candidates — the serial sweep every
// BestConfiguration is defined against. Tie-breaking contract: the
// comparison is a strict `>`, so the FIRST candidate to reach the maximum
// wins and later candidates with an equal score never displace it. That
// makes a batched argmax over precomputed scores (ArgmaxFromScores)
// provably select the same configuration as this sweep. Candidates that
// fail to score (brute force off-grid) are skipped; every candidate
// failing — including an empty candidate list — is an error.
Result<Configuration> ArgmaxPrediction(
    const std::vector<Configuration>& candidates,
    const std::function<Result<double>(const Configuration&)>& predict);

// First-wins argmax over batch-predicted scores: scores[i]/scored[i] as
// produced by OptimizerInterface::PredictBatch. Same tie-breaking and
// all-fail contract as ArgmaxPrediction, so for any optimizer whose
// PredictBatch matches its Predict, the two sweeps pick identically.
Result<Configuration> ArgmaxFromScores(
    const std::vector<Configuration>& candidates,
    const std::vector<double>& scores, const std::vector<bool>& scored);

// Exhaustive lookup of measured configurations; the best configuration is
// the best *measured* one. Predict() fails for configurations that were
// never benchmarked — precise but zero generalisation.
class BruteForceOptimizer : public OptimizerInterface {
 public:
  static std::string Name() { return "brute-force"; }
  [[nodiscard]] std::string type() const override { return Name(); }

  Status Train(const std::vector<BenchmarkRecord>& benchmarks) override;
  Result<double> Predict(const Configuration& config) const override;
  Result<Configuration> BestConfiguration(
      const std::vector<Configuration>& candidates) const override;

  [[nodiscard]] Json Serialize() const override;
  Status Deserialize(const Json& json) override;

 private:
  using Key = std::tuple<int, int, KiloHertz>;
  static Key MakeKey(const Configuration& c) {
    return {c.cores, c.threads_per_core, c.frequency};
  }
  std::map<Key, double> table_;  // config -> mean measured GFLOPS/W
};

class LinearRegressionOptimizer : public OptimizerInterface {
 public:
  explicit LinearRegressionOptimizer(ml::LinearRegressionParams params = {});
  static std::string Name() { return "linear-regression"; }
  [[nodiscard]] std::string type() const override { return Name(); }

  Status Train(const std::vector<BenchmarkRecord>& benchmarks) override;
  Result<double> Predict(const Configuration& config) const override;
  // One feature matrix, one vectorized pass (ml::LinearRegression::
  // PredictBatch) — bitwise identical to looping Predict.
  Status PredictBatch(const std::vector<Configuration>& candidates,
                      std::vector<double>* out,
                      std::vector<bool>* scored) const override;
  Result<Configuration> BestConfiguration(
      const std::vector<Configuration>& candidates) const override;

  [[nodiscard]] Json Serialize() const override;
  Status Deserialize(const Json& json) override;

 private:
  ml::LinearRegression model_;
};

class RandomForestOptimizer : public OptimizerInterface {
 public:
  explicit RandomForestOptimizer(ml::ForestParams params = {});
  static std::string Name() { return "random-tree"; }
  [[nodiscard]] std::string type() const override { return Name(); }

  Status Train(const std::vector<BenchmarkRecord>& benchmarks) override;
  Result<double> Predict(const Configuration& config) const override;
  // One feature matrix, one CompiledForest::BatchPredict — bitwise identical
  // to looping Predict (ml/forest_inference.hpp determinism contract).
  Status PredictBatch(const std::vector<Configuration>& candidates,
                      std::vector<double>* out,
                      std::vector<bool>* scored) const override;
  Result<Configuration> BestConfiguration(
      const std::vector<Configuration>& candidates) const override;

  [[nodiscard]] Json Serialize() const override;
  Status Deserialize(const Json& json) override;

  // Takes an already-loaded forest (the pre-loaded model image) and
  // compiles it, as Deserialize does for JSON.
  void Adopt(ml::RandomForest forest);
  [[nodiscard]] const ml::RandomForest& model() const { return model_; }

 private:
  // Flattens model_ into the SoA engine; on the (never expected) compile
  // failure the optimizer falls back to the pointer walk.
  void RecompileModel();

  ml::RandomForest model_;
  // Compiled once per fitted model. The eco plugin's SlurmConfigService
  // caches this optimizer per (system_hash, binary_hash), so the miss path
  // compiles once per key, then every submit decision reuses the engine.
  std::shared_ptr<const ml::CompiledForest> compiled_;
};

// Feature vector shared by the learned optimizers.
std::vector<double> ConfigurationFeatures(const Configuration& config);

class ModelFactory {
 public:
  // Known type strings, in CLI order.
  static std::vector<std::string> KnownTypes();
  // Fresh, untrained optimizer of the given type.
  static Result<OptimizerPtr> Make(const std::string& type);
  // Wraps a trained optimizer into the storage envelope
  // {"type": ..., "payload": ...}.
  static Json Pack(const OptimizerInterface& optimizer);
  // Reconstructs an optimizer from an envelope.
  static Result<OptimizerPtr> Unpack(const Json& envelope);
};

}  // namespace eco::chronus
