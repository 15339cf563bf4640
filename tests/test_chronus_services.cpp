// Application services and the full paper pipeline: benchmark -> init-model
// -> load-model -> slurm-config -> job_submit_eco rewriting a live
// submission on the simulated cluster.
#include <gtest/gtest.h>

#include <cctype>
#include <filesystem>

#include "chronus/env.hpp"
#include "chronus/optimizers.hpp"
#include "slurm/job_desc.hpp"
#include "common/log.hpp"
#include "plugin/job_submit_eco.hpp"
#include "slurm/sbatch.hpp"
#include "sysinfo/simple_hash.hpp"

namespace eco::chronus {
namespace {
namespace fs = std::filesystem;

std::string FreshDir(const std::string& name) {
  // Tag with the running test's full name: ctest runs the gtest-discovered
  // cases of this binary in parallel, and two fixtures sharing one state
  // directory would race each other's remove_all.
  std::string tag = name;
  const auto* info = testing::UnitTest::GetInstance()->current_test_info();
  if (info != nullptr) {
    tag += std::string("_") + info->test_suite_name() + "_" + info->name();
  }
  for (char& c : tag) {
    if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
  }
  const std::string dir = testing::TempDir() + "eco_svc_" + tag;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

// Short benchmark jobs so the suite stays fast; the physics are the same.
EnvOptions FastEnvOptions(const std::string& workdir) {
  EnvOptions options;
  options.workdir = workdir;
  options.runner.target_seconds = 60.0;
  return options;
}

const std::vector<Configuration> kSmallSweep = {
    {8, 1, kHz(2'200'000)},  {8, 2, kHz(2'200'000)},
    {32, 1, kHz(1'500'000)}, {32, 1, kHz(2'200'000)},
    {32, 2, kHz(2'200'000)}, {32, 1, kHz(2'500'000)},
    {32, 2, kHz(2'500'000)},
};

class ServicesTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Logger::Instance().SetLevel(LogLevel::kWarn);
    env_ = MakeSimEnv(FastEnvOptions(FreshDir("pipeline")));
  }
  void TearDown() override {
    plugin::SetChronusGateway(nullptr);
    Logger::Instance().SetLevel(LogLevel::kInfo);
  }

  ChronusEnv env_;
};

TEST_F(ServicesTest, BenchmarkServicePersistsSystemAndRecords) {
  auto records = env_.benchmark->Run(kSmallSweep);
  ASSERT_TRUE(records.ok()) << records.message();
  EXPECT_EQ(records->size(), kSmallSweep.size());
  const int system_id = env_.benchmark->last_system_id();
  EXPECT_GE(system_id, 1);

  auto system = env_.repository->GetSystem(system_id);
  ASSERT_TRUE(system.ok());
  EXPECT_EQ(system->cores, 32);
  EXPECT_FALSE(system->system_hash.empty());

  auto stored = env_.repository->ListBenchmarks(system_id);
  ASSERT_TRUE(stored.ok());
  EXPECT_EQ(stored->size(), kSmallSweep.size());
  for (const auto& b : *stored) {
    EXPECT_GT(b.gflops, 0.0);
    EXPECT_GT(b.avg_system_watts, 50.0);
    EXPECT_GT(b.duration_s, 0.0);
    EXPECT_EQ(b.application, "hpcg");
  }
}

TEST_F(ServicesTest, BenchmarkRunsAreRepeatableOnTheSameEnv) {
  auto first = env_.benchmark->Run({{32, 1, kHz(2'200'000)}});
  ASSERT_TRUE(first.ok());
  auto second = env_.benchmark->Run({{32, 1, kHz(2'200'000)}});
  ASSERT_TRUE(second.ok());
  // Same physics, same machine: GFLOPS identical; sampled watts close (the
  // second run starts on a warm node, so fan power differs slightly).
  EXPECT_NEAR(first->front().gflops, second->front().gflops, 1e-9);
  EXPECT_NEAR(first->front().avg_system_watts,
              second->front().avg_system_watts, 5.0);
}

TEST_F(ServicesTest, InitModelUploadsBlobAndMeta) {
  ASSERT_TRUE(env_.benchmark->Run(kSmallSweep).ok());
  auto meta = env_.init_model->Run("random-tree",
                                   env_.benchmark->last_system_id(), 100.0);
  ASSERT_TRUE(meta.ok()) << meta.message();
  EXPECT_GE(meta->id, 1);
  EXPECT_EQ(meta->type, "random-tree");
  EXPECT_EQ(meta->application, "hpcg");

  auto blob = env_.blobs->Load(meta->blob_path);
  ASSERT_TRUE(blob.ok());
  auto envelope = Json::Parse(*blob);
  ASSERT_TRUE(envelope.ok());
  EXPECT_EQ(envelope->at("type").as_string(), "random-tree");
}

TEST_F(ServicesTest, InitModelFailsWithoutBenchmarksOrBadType) {
  EXPECT_FALSE(env_.init_model->Run("random-tree", 42, 0.0).ok());
  ASSERT_TRUE(env_.benchmark->Run({{8, 1, kHz(2'200'000)}}).ok());
  const auto status = env_.init_model->Run(
      "neural-net", env_.benchmark->last_system_id(), 0.0);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("Unknown optimizer type"), std::string::npos);
}

TEST_F(ServicesTest, LoadModelWritesSelfContainedLocalFile) {
  ASSERT_TRUE(env_.benchmark->Run(kSmallSweep).ok());
  auto meta = env_.init_model->Run("brute-force",
                                   env_.benchmark->last_system_id(), 1.0);
  ASSERT_TRUE(meta.ok());
  auto path = env_.load_model->Run(meta->id);
  ASSERT_TRUE(path.ok()) << path.message();

  auto text = ReadWholeFile(*path);
  ASSERT_TRUE(text.ok());
  auto file = Json::Parse(*text);
  ASSERT_TRUE(file.ok());
  EXPECT_FALSE(file->at("model").is_null());
  EXPECT_EQ(file->at("candidates").as_array().size(), 32u * 3 * 2);
  EXPECT_FALSE(file->at("system_hash").as_string().empty());

  // Settings now index the pre-loaded model.
  auto settings = env_.local->LoadSettings();
  ASSERT_TRUE(settings.ok());
  EXPECT_FALSE(settings->at("preloaded_models").as_object().empty());
}

TEST_F(ServicesTest, SlurmConfigPredictsFromPreloadedModelOnly) {
  auto meta = RunFullPipeline(env_, kSmallSweep, "brute-force");
  ASSERT_TRUE(meta.ok()) << meta.message();

  const std::string system_hash = env_.gateway->system_hash();
  auto json = env_.slurm_config->Run(system_hash, env_.runner->binary_hash());
  ASSERT_TRUE(json.ok()) << json.message();
  auto config = Configuration::FromJson(*Json::Parse(*json));
  ASSERT_TRUE(config.ok());
  // With the small sweep measured, the best is 32 cores @ 2.2 GHz no-HT —
  // the paper's headline configuration.
  EXPECT_EQ(config->cores, 32);
  EXPECT_EQ(config->frequency, kHz(2'200'000));
  EXPECT_EQ(config->threads_per_core, 1);

  // Unknown binary -> clean failure.
  EXPECT_FALSE(env_.slurm_config->Run(system_hash, "deadbeef").ok());
}

TEST_F(ServicesTest, GatewaySystemHashIsTheProcfsIdentityAndStable) {
  const std::string expected = sysinfo::HashToString(env_.procfs->SystemHash());
  EXPECT_EQ(env_.gateway->system_hash(), expected);
  EXPECT_EQ(env_.gateway->system_hash(), expected);
}

TEST_F(ServicesTest, SettingsServiceStateRoundTrip) {
  EXPECT_EQ(env_.settings->GetState(), PluginState::kUser);  // paper default
  ASSERT_TRUE(env_.settings->SetState(PluginState::kActive).ok());
  EXPECT_EQ(env_.settings->GetState(), PluginState::kActive);
  ASSERT_TRUE(env_.settings->SetState(PluginState::kDeactivated).ok());
  EXPECT_EQ(env_.settings->GetState(), PluginState::kDeactivated);

  ASSERT_TRUE(env_.settings->SetDatabasePath("/srv/chronus/data.db").ok());
  EXPECT_EQ(*env_.settings->GetDatabasePath(), "/srv/chronus/data.db");
  ASSERT_TRUE(env_.settings->SetBlobStoragePath("/srv/blobs").ok());
  EXPECT_EQ(*env_.settings->GetBlobStoragePath(), "/srv/blobs");
}

TEST(PluginStateNames, RoundTrip) {
  for (const PluginState s :
       {PluginState::kActive, PluginState::kUser, PluginState::kDeactivated}) {
    PluginState parsed{};
    ASSERT_TRUE(ParsePluginState(PluginStateName(s), parsed));
    EXPECT_EQ(parsed, s);
  }
  PluginState out{};
  EXPECT_FALSE(ParsePluginState("sometimes", out));
}

TEST_F(ServicesTest, DeadlineServicePrefersEfficientFeasibleConfig) {
  ASSERT_TRUE(env_.benchmark->Run(kSmallSweep).ok());
  const int system_id = env_.benchmark->last_system_id();
  auto optimizer = ModelFactory::Make("brute-force");
  ASSERT_TRUE(optimizer.ok());
  ASSERT_TRUE(
      (*optimizer)->Train(*env_.repository->ListBenchmarks(system_id)).ok());
  DeadlineService deadline(env_.repository, *optimizer);

  // Generous deadline: the overall best (32c @ 2.2 GHz) fits.
  auto relaxed = deadline.Choose(system_id, 10'000.0);
  ASSERT_TRUE(relaxed.ok());
  EXPECT_EQ(relaxed->frequency, kHz(2'200'000));

  // Deadline tighter than any measured run: falls back to the fastest
  // measured configuration.
  auto impossible = deadline.Choose(system_id, 1.0);
  ASSERT_TRUE(impossible.ok());
  const auto benchmarks = *env_.repository->ListBenchmarks(system_id);
  double min_duration = benchmarks.front().duration_s;
  double chosen_duration = 0.0;
  for (const auto& b : benchmarks) {
    min_duration = std::min(min_duration, b.duration_s);
    if (b.config == *impossible) chosen_duration = b.duration_s;
  }
  EXPECT_DOUBLE_EQ(chosen_duration, min_duration);
}

// ------------------------------------------------- plugin end-to-end

class PluginE2E : public ServicesTest {};

TEST_F(PluginE2E, RewritesOptedInJobOnLiveCluster) {
  ASSERT_TRUE(RunFullPipeline(env_, kSmallSweep, "brute-force").ok());
  plugin::SetChronusGateway(env_.gateway);
  plugin::ResetEcoPluginStats();
  ASSERT_TRUE(env_.cluster->plugins().Load(plugin::EcoPluginOps()).ok());

  // A user submits a sloppy job: all 32 cores with HT at max frequency,
  // opting in via the paper's "#SBATCH --comment chronus".
  slurm::JobRequest request;
  request.name = "user-job";
  request.num_tasks = 32;
  request.threads_per_core = 2;
  request.comment = "chronus";
  request.script = "#!/bin/bash\nsrun --mpi=pmix_v4 " +
                   std::string("../hpcg/build/bin/xhpcg") + "\n";
  request.workload =
      slurm::WorkloadSpec::Hpcg(hpcg::HpcgProblem::Official(), 50);
  request.time_limit_s = 7200.0;

  auto job = env_.cluster->RunJobToCompletion(request);
  ASSERT_TRUE(job.ok()) << job.message();
  // The plugin rewrote the job to the efficient configuration.
  EXPECT_EQ(job->request.num_tasks, 32);
  EXPECT_EQ(job->request.threads_per_core, 1);
  EXPECT_EQ(job->request.cpu_freq_max, kHz(2'200'000));
  // The original submission is preserved for audit.
  EXPECT_EQ(job->submitted.threads_per_core, 2);
  EXPECT_EQ(job->submitted.cpu_freq_max, 0u);

  const auto stats = plugin::GetEcoPluginStats();
  EXPECT_EQ(stats.modified, 1u);
  EXPECT_EQ(stats.errors, 0u);
  env_.cluster->plugins().Unload("job_submit/eco");
}

TEST_F(PluginE2E, LeavesNonOptedJobsAlone) {
  ASSERT_TRUE(RunFullPipeline(env_, kSmallSweep, "brute-force").ok());
  plugin::SetChronusGateway(env_.gateway);
  plugin::ResetEcoPluginStats();
  ASSERT_TRUE(env_.cluster->plugins().Load(plugin::EcoPluginOps()).ok());

  slurm::JobRequest request;
  request.num_tasks = 16;
  request.threads_per_core = 2;
  request.comment = "just a normal job";
  request.workload = slurm::WorkloadSpec::Fixed(30.0);
  auto job = env_.cluster->RunJobToCompletion(request);
  ASSERT_TRUE(job.ok());
  EXPECT_EQ(job->request.num_tasks, 16);
  EXPECT_EQ(job->request.cpu_freq_max, 0u);
  EXPECT_EQ(plugin::GetEcoPluginStats().skipped, 1u);
  env_.cluster->plugins().Unload("job_submit/eco");
}

TEST_F(PluginE2E, ActiveStateRewritesEveryJob) {
  ASSERT_TRUE(RunFullPipeline(env_, kSmallSweep, "brute-force").ok());
  ASSERT_TRUE(env_.settings->SetState(PluginState::kActive).ok());
  plugin::SetChronusGateway(env_.gateway);
  plugin::ResetEcoPluginStats();
  ASSERT_TRUE(env_.cluster->plugins().Load(plugin::EcoPluginOps()).ok());

  slurm::JobRequest request;
  request.num_tasks = 4;
  request.comment = "no opt-in";
  request.script = "srun ../hpcg/build/bin/xhpcg\n";
  request.workload = slurm::WorkloadSpec::Fixed(30.0);
  auto job = env_.cluster->RunJobToCompletion(request);
  ASSERT_TRUE(job.ok());
  EXPECT_EQ(job->request.cpu_freq_max, kHz(2'200'000));
  env_.cluster->plugins().Unload("job_submit/eco");
}

TEST_F(PluginE2E, DeactivatedStateNeverRewrites) {
  ASSERT_TRUE(RunFullPipeline(env_, kSmallSweep, "brute-force").ok());
  ASSERT_TRUE(env_.settings->SetState(PluginState::kDeactivated).ok());
  plugin::SetChronusGateway(env_.gateway);
  ASSERT_TRUE(env_.cluster->plugins().Load(plugin::EcoPluginOps()).ok());

  slurm::JobRequest request;
  request.num_tasks = 4;
  request.comment = "chronus";
  request.workload = slurm::WorkloadSpec::Fixed(30.0);
  auto job = env_.cluster->RunJobToCompletion(request);
  ASSERT_TRUE(job.ok());
  EXPECT_EQ(job->request.cpu_freq_max, 0u);
  env_.cluster->plugins().Unload("job_submit/eco");
}

TEST_F(PluginE2E, ChronusFailureLeavesJobUntouched) {
  // No model pre-loaded: the chronus lookup fails; the job must still
  // submit unchanged (the plugin never breaks production).
  plugin::SetChronusGateway(env_.gateway);
  plugin::ResetEcoPluginStats();
  ASSERT_TRUE(env_.cluster->plugins().Load(plugin::EcoPluginOps()).ok());

  slurm::JobRequest request;
  request.num_tasks = 8;
  request.comment = "chronus";
  request.workload = slurm::WorkloadSpec::Fixed(30.0);
  auto job = env_.cluster->RunJobToCompletion(request);
  ASSERT_TRUE(job.ok()) << job.message();
  EXPECT_EQ(job->request.num_tasks, 8);
  EXPECT_EQ(plugin::GetEcoPluginStats().errors, 1u);
  env_.cluster->plugins().Unload("job_submit/eco");
}

TEST(PluginUnit, ExtractSrunBinary) {
  EXPECT_EQ(plugin::ExtractSrunBinary(
                "#!/bin/bash\nsrun --mpi=pmix_v4 --ntasks-per-core=2 "
                "../hpcg/build/bin/xhpcg\n"),
            "../hpcg/build/bin/xhpcg");
  EXPECT_EQ(plugin::ExtractSrunBinary("srun ./app\n"), "./app");
  EXPECT_EQ(plugin::ExtractSrunBinary("echo no srun here\n"), "");
  EXPECT_EQ(plugin::ExtractSrunBinary(nullptr), "");
}

TEST(PluginUnit, NullGatewayIsInert) {
  plugin::SetChronusGateway(nullptr);
  plugin::ResetEcoPluginStats();
  slurm::JobRequest request;
  request.comment = "chronus";
  slurm::JobDescWrapper wrapper(request, 1);
  char* err = nullptr;
  EXPECT_EQ(plugin::EcoPluginOps()->job_submit(wrapper.desc(), 0, &err),
            SLURM_SUCCESS);
  EXPECT_EQ(plugin::GetEcoPluginStats().skipped, 1u);
}

}  // namespace
}  // namespace eco::chronus
