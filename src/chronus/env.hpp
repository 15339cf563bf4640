// Entry-point wiring (§4.1: "In the entry point of your application, you
// specify which implementations there are for each interface").
//
// MakeSimEnv builds a complete simulated deployment: one cluster, the
// virtual procfs describing its node, a repository (in-memory MiniDb, a
// MiniDb file, or CSV files), blob storage, etc-storage, the simulated HPCG
// runner, and every application service — the object graph the Chronus CLI
// and the benches operate on.
#pragma once

#include <memory>
#include <string>

#include "chronus/gateway.hpp"
#include "chronus/integrations.hpp"
#include "chronus/repositories.hpp"
#include "chronus/services.hpp"
#include "chronus/storage.hpp"
#include "slurm/cluster.hpp"
#include "sysinfo/procfs.hpp"

namespace eco::chronus {

enum class RepositoryKind { kMemory, kMiniDb, kCsv };

struct EnvOptions {
  // Root directory for all on-disk state (settings, blobs, database). Empty
  // = fully in-memory where possible (repository forced to kMemory; settings
  // and blobs in private temp directories removed with the env).
  std::string workdir;
  RepositoryKind repository = RepositoryKind::kMemory;
  slurm::ClusterConfig cluster{};
  SimulatedRunnerOptions runner{};
};

struct ChronusEnv {
  std::shared_ptr<slurm::ClusterSim> cluster;
  std::shared_ptr<sysinfo::VirtualProcFs> procfs;

  RepositoryPtr repository;
  FileRepositoryPtr blobs;
  LocalStoragePtr local;
  std::shared_ptr<SimulatedHpcgRunner> runner;
  SystemInfoPtr system_info;

  std::shared_ptr<BenchmarkService> benchmark;
  std::shared_ptr<InitModelService> init_model;
  std::shared_ptr<LoadModelService> load_model;
  std::shared_ptr<SlurmConfigService> slurm_config;
  std::shared_ptr<SettingsService> settings;
  std::shared_ptr<ChronusGateway> gateway;
};

ChronusEnv MakeSimEnv(const EnvOptions& options);

// Convenience: runs the full paper pipeline on an env — benchmark the given
// configurations, init a model of `model_type`, pre-load it — leaving the
// env ready for job_submit_eco queries. Returns the model meta.
Result<ModelMeta> RunFullPipeline(ChronusEnv& env,
                                  const std::vector<Configuration>& configs,
                                  const std::string& model_type);

}  // namespace eco::chronus
