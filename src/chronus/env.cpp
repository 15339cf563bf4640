#include "chronus/env.hpp"

namespace eco::chronus {

ChronusEnv MakeSimEnv(const EnvOptions& options) {
  ChronusEnv env;
  env.cluster = std::make_shared<slurm::ClusterSim>(options.cluster);
  env.procfs = std::make_shared<sysinfo::VirtualProcFs>(
      options.cluster.node.machine);

  std::string workdir = options.workdir;
  if (!workdir.empty() && workdir.back() == '/') workdir.pop_back();

  RepositoryKind repo_kind = options.repository;
  if (workdir.empty()) {
    repo_kind = RepositoryKind::kMemory;
    // Private directories per env, removed with it: envs built side by side
    // (tests, benches under `ctest -j`) never see each other's files.
    env.local = EtcStorage::Temporary();
    env.blobs = LocalBlobStorage::Temporary();
  } else {
    EnsureDirectory(workdir);
    env.local = std::make_shared<EtcStorage>(workdir + "/etc/chronus");
    env.blobs = std::make_shared<LocalBlobStorage>(workdir + "/optimizers");
  }

  switch (repo_kind) {
    case RepositoryKind::kMemory:
      env.repository = std::make_shared<MiniDbRepository>("");
      break;
    case RepositoryKind::kMiniDb:
      env.repository =
          std::make_shared<MiniDbRepository>(workdir + "/data.db");
      break;
    case RepositoryKind::kCsv: {
      const std::string dir = workdir + "/database";
      EnsureDirectory(dir);
      env.repository = std::make_shared<CsvRepository>(dir);
      break;
    }
  }

  env.runner = std::make_shared<SimulatedHpcgRunner>(env.cluster.get(),
                                                     options.runner);
  env.system_info = std::make_shared<LscpuSystemInfo>(env.procfs.get());

  env.benchmark = std::make_shared<BenchmarkService>(env.repository,
                                                     env.runner,
                                                     env.system_info);
  env.init_model =
      std::make_shared<InitModelService>(env.repository, env.blobs);
  env.load_model = std::make_shared<LoadModelService>(env.repository,
                                                      env.blobs, env.local);
  env.slurm_config = std::make_shared<SlurmConfigService>(env.local);
  env.settings = std::make_shared<SettingsService>(env.local);
  env.gateway =
      ChronusGateway::Wire(env.slurm_config, env.settings, env.procfs);
  return env;
}

Result<ModelMeta> RunFullPipeline(ChronusEnv& env,
                                  const std::vector<Configuration>& configs,
                                  const std::string& model_type) {
  auto benchmarks = env.benchmark->Run(configs);
  if (!benchmarks.ok()) return Result<ModelMeta>::Error(benchmarks.message());

  auto meta = env.init_model->Run(model_type, env.benchmark->last_system_id(),
                                  env.cluster->Now());
  if (!meta.ok()) return meta;

  auto preloaded = env.load_model->Run(meta->id);
  if (!preloaded.ok()) return Result<ModelMeta>::Error(preloaded.message());
  return meta;
}

}  // namespace eco::chronus
