// The shared thread-pool runtime and every layer built on it: pool
// semantics (coverage, exceptions, nesting), serial-vs-parallel bitwise
// equivalence for the HPCG kernels and random-forest training, the pooled
// Chronus benchmark sweep, and the plugin's submit-time decision cache.
//
// These tests (plus the pool-threaded kernels they drive) are labelled
// `tsan` in CMake so `ctest -L tsan` in a -DECO_SANITIZE=thread build
// exercises every parallel code path under ThreadSanitizer.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "chronus/env.hpp"
#include "hpcg/cg.hpp"
#include "hpcg/geometry.hpp"
#include "hpcg/stencil.hpp"
#include "hpcg/vector_ops.hpp"
#include "ml/dataset.hpp"
#include "ml/random_forest.hpp"
#include "plugin/job_submit_eco.hpp"
#include "slurm/job_desc.hpp"

namespace eco {
namespace {

// ------------------------------------------------------------- pool basics

TEST(ThreadPool, ChunkCountDependsOnlyOnRangeAndGrain) {
  EXPECT_EQ(ThreadPool::ChunkCount(0, 10), 0);
  EXPECT_EQ(ThreadPool::ChunkCount(1, 10), 1);
  EXPECT_EQ(ThreadPool::ChunkCount(10, 10), 1);
  EXPECT_EQ(ThreadPool::ChunkCount(11, 10), 2);
  EXPECT_EQ(ThreadPool::ChunkCount(100, 10), 10);
  // grain <= 0 selects the default grain, still pool-size independent.
  EXPECT_EQ(ThreadPool::ChunkCount(ThreadPool::kDefaultGrain + 1, 0), 2);
}

TEST(ThreadPool, ChunkRngIsDeterministicPerChunk) {
  Rng a = ThreadPool::ChunkRng(42, 3);
  Rng b = ThreadPool::ChunkRng(42, 3);
  Rng c = ThreadPool::ChunkRng(42, 4);
  bool differs = false;
  for (int i = 0; i < 16; ++i) {
    const auto va = a.NextU64();
    EXPECT_EQ(va, b.NextU64());
    if (va != c.NextU64()) differs = true;
  }
  EXPECT_TRUE(differs) << "adjacent chunk streams should not collide";
}

TEST(ThreadPool, CoversRangeExactlyOnce) {
  ThreadPool pool(4);
  constexpr std::int64_t kN = 10'000;
  std::vector<std::atomic<int>> hits(kN);
  for (auto& h : hits) h.store(0);
  pool.ParallelFor(0, kN, 37, [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t i = lo; i < hi; ++i) hits[i].fetch_add(1);
  });
  for (std::int64_t i = 0; i < kN; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPool, ChunkIndicesMatchSerialDecomposition) {
  // The (chunk, lo, hi) triples a 4-thread pool hands out must be exactly
  // the triples of the serial decomposition — that is what makes per-chunk
  // RNG forks and ordered reductions bit-identical across pool sizes.
  constexpr std::int64_t kN = 1000;
  constexpr std::int64_t kGrain = 64;
  const auto chunks = ThreadPool::ChunkCount(kN, kGrain);
  std::vector<std::pair<std::int64_t, std::int64_t>> bounds(
      static_cast<std::size_t>(chunks), {-1, -1});
  ThreadPool pool(4);
  pool.ParallelForChunks(
      0, kN, kGrain, [&](std::int64_t chunk, std::int64_t lo, std::int64_t hi) {
        bounds[static_cast<std::size_t>(chunk)] = {lo, hi};
      });
  for (std::int64_t chunk = 0; chunk < chunks; ++chunk) {
    const std::int64_t lo = chunk * kGrain;
    const std::int64_t hi = std::min(lo + kGrain, kN);
    EXPECT_EQ(bounds[static_cast<std::size_t>(chunk)].first, lo);
    EXPECT_EQ(bounds[static_cast<std::size_t>(chunk)].second, hi);
  }
}

TEST(ThreadPool, PoolOfOneRunsSeriallyAndMatchesParallelReduction) {
  ThreadPool serial(1);
  ThreadPool parallel(4);
  EXPECT_EQ(serial.size(), 1);
  EXPECT_EQ(parallel.size(), 4);

  constexpr std::int64_t kN = 50'000;
  std::vector<double> values(kN);
  Rng rng(7);
  for (auto& v : values) v = rng.Uniform(-1.0, 1.0);

  const auto chunked_sum = [&](ThreadPool& pool) {
    const auto chunks = ThreadPool::ChunkCount(kN, 4096);
    std::vector<double> partials(static_cast<std::size_t>(chunks), 0.0);
    pool.ParallelForChunks(
        0, kN, 4096,
        [&](std::int64_t chunk, std::int64_t lo, std::int64_t hi) {
          double s = 0.0;
          for (std::int64_t i = lo; i < hi; ++i)
            s += values[static_cast<std::size_t>(i)];
          partials[static_cast<std::size_t>(chunk)] = s;
        });
    double total = 0.0;
    for (const double p : partials) total += p;  // chunk order
    return total;
  };

  const double a = chunked_sum(serial);
  const double b = chunked_sum(parallel);
  EXPECT_EQ(a, b) << "bitwise, not just approximately";
}

TEST(ThreadPool, ExceptionsPropagateAndPoolSurvives) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.ParallelFor(0, 1000, 10,
                       [&](std::int64_t lo, std::int64_t) {
                         if (lo >= 500) throw std::runtime_error("chunk boom");
                       }),
      std::runtime_error);

  // The pool is still fully usable afterwards.
  std::atomic<std::int64_t> sum{0};
  pool.ParallelFor(0, 100, 7, [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t i = lo; i < hi; ++i) sum.fetch_add(i);
  });
  EXPECT_EQ(sum.load(), 99 * 100 / 2);
}

TEST(ThreadPool, NestedParallelForDoesNotDeadlock) {
  ThreadPool pool(4);
  constexpr std::int64_t kOuter = 8;
  constexpr std::int64_t kInner = 1000;
  std::vector<std::int64_t> inner_sums(kOuter, 0);
  pool.ParallelFor(0, kOuter, 1, [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t o = lo; o < hi; ++o) {
      // Nested call: degrades to a serial chunk loop on this thread.
      std::int64_t s = 0;
      pool.ParallelFor(0, kInner, 64, [&](std::int64_t ilo, std::int64_t ihi) {
        for (std::int64_t i = ilo; i < ihi; ++i) s += i;
      });
      inner_sums[static_cast<std::size_t>(o)] = s;
    }
  });
  for (const auto s : inner_sums) EXPECT_EQ(s, kInner * (kInner - 1) / 2);
}

// Process exit with helper entries still queued. ParallelForChunks queues
// one entry per helper, and entries whose chunks the caller already ran
// stay queued until a worker pops them, which ~ThreadPool lets the workers
// do, each pop publishing the queue depth to the global metrics registry.
// The registry must therefore outlive the global pool, even though the
// pool is built first. Here every worker (and a helper thread) is held
// inside a chunk until an atexit handler registered between the pool and
// the registry releases them, so the workers pop the stale entries after
// anything built after the pool has been destroyed. Under AddressSanitizer
// a destroyed registry turns that into a use-after-free and a non-zero
// exit.
std::atomic<bool> g_release_workers{false};

TEST(ThreadPoolDeathTest, ExitWithQueuedEmptyEntriesIsClean) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_EXIT(
      {
        setenv("ECO_THREADS", "4", 1);
        ThreadPool& pool = ThreadPool::Global();
        std::atexit([] { g_release_workers.store(true); });
        const std::int64_t n = pool.size();
        std::atomic<std::int64_t> held{0};
        std::thread holder([&] {
          pool.ParallelForChunks(0, n, 1,
                                 [&](std::int64_t, std::int64_t, std::int64_t) {
                                   held.fetch_add(1);
                                   while (!g_release_workers.load()) {
                                     std::this_thread::yield();
                                   }
                                 });
        });
        while (held.load() < n) std::this_thread::yield();
        // Every thread is busy, so the caller runs all n chunks itself and
        // leaves n - 1 empty entries queued.
        pool.ParallelForChunks(0, n, 1,
                               [](std::int64_t, std::int64_t, std::int64_t) {});
        holder.detach();
        std::exit(0);
      },
      ::testing::ExitedWithCode(0), "");
}

TEST(ThreadPool, EcoThreadsEnvControlsDefaultThreadCount) {
  ::setenv("ECO_THREADS", "3", /*overwrite=*/1);
  EXPECT_EQ(ThreadPool::DefaultThreadCount(), 3);
  ::setenv("ECO_THREADS", "not-a-number", 1);
  EXPECT_GE(ThreadPool::DefaultThreadCount(), 1);
  ::unsetenv("ECO_THREADS");
  EXPECT_GE(ThreadPool::DefaultThreadCount(), 1);
}

// ---------------------------------------------------- HPCG kernel equivalence

class HpcgParallelEquivalence : public ::testing::Test {
 protected:
  static hpcg::Vec RandomVec(std::int64_t n, std::uint64_t seed) {
    hpcg::Vec v(static_cast<std::size_t>(n));
    Rng rng(seed);
    for (auto& x : v) x = rng.Uniform(-1.0, 1.0);
    return v;
  }
};

TEST_F(HpcgParallelEquivalence, SpMVMatchesSerialBitwise) {
  ThreadPool pool(4);
  for (const hpcg::Geometry geo :
       {hpcg::Geometry{16, 16, 16}, hpcg::Geometry{5, 7, 9}}) {
    const auto x = RandomVec(geo.size(), 11);
    hpcg::Vec serial(x.size()), pooled(x.size());
    hpcg::SpMV(geo, x, serial);
    hpcg::SpMV(geo, x, pooled, &pool);
    for (std::size_t i = 0; i < x.size(); ++i) {
      ASSERT_EQ(serial[i], pooled[i]) << "row " << i;
    }
  }
}

TEST_F(HpcgParallelEquivalence, SymGSColoredMatchesSerialBitwise) {
  ThreadPool pool(4);
  for (const hpcg::Geometry geo :
       {hpcg::Geometry{16, 16, 16}, hpcg::Geometry{6, 10, 8}}) {
    const auto r = RandomVec(geo.size(), 23);
    hpcg::Vec z_serial(r.size(), 0.0), z_pooled(r.size(), 0.0);
    hpcg::SymGSColored(geo, r, z_serial);
    hpcg::SymGSColored(geo, r, z_pooled, &pool);
    for (std::size_t i = 0; i < r.size(); ++i) {
      ASSERT_EQ(z_serial[i], z_pooled[i]) << "row " << i;
    }
  }
}

TEST_F(HpcgParallelEquivalence, SymGSColoredReducesResidualLikeASmoother) {
  const hpcg::Geometry geo{8, 8, 8};
  const auto n = static_cast<std::size_t>(geo.size());
  hpcg::Vec exact(n, 1.0), b(n);
  hpcg::SpMV(geo, exact, b);

  ThreadPool pool(4);
  hpcg::Vec z(n, 0.0), az(n), r(n);
  double prev = hpcg::Norm2(b);
  for (int sweep = 0; sweep < 3; ++sweep) {
    hpcg::SymGSColored(geo, b, z, &pool);
    hpcg::SpMV(geo, z, az, &pool);
    hpcg::Waxpby(1.0, b, -1.0, az, r, &pool);
    const double now = hpcg::Norm2(r, &pool);
    EXPECT_LT(now, prev);
    prev = now;
  }
}

TEST_F(HpcgParallelEquivalence, DotAndNorm2MatchSerialBitwise) {
  // > 2 * kReduceGrain elements so the pooled path really spans chunks.
  constexpr std::int64_t kN = 3 * hpcg::kReduceGrain + 123;
  const auto x = RandomVec(kN, 31);
  const auto y = RandomVec(kN, 37);
  ThreadPool pool(4);
  EXPECT_EQ(hpcg::Dot(x, y), hpcg::Dot(x, y, &pool));
  EXPECT_EQ(hpcg::Norm2(x), hpcg::Norm2(x, &pool));
}

TEST_F(HpcgParallelEquivalence, WaxpbyMatchesSerialAndIsAliasSafe) {
  constexpr std::int64_t kN = 2 * hpcg::kReduceGrain + 7;
  const auto x = RandomVec(kN, 41);
  const auto y = RandomVec(kN, 43);
  ThreadPool pool(4);

  hpcg::Vec w_serial(x.size()), w_pooled(x.size());
  hpcg::Waxpby(2.0, x, -0.5, y, w_serial);
  hpcg::Waxpby(2.0, x, -0.5, y, w_pooled, &pool);
  for (std::size_t i = 0; i < x.size(); ++i) {
    ASSERT_EQ(w_serial[i], w_pooled[i]);
  }

  // Aliased output (w == x), as CG uses it.
  hpcg::Vec x_alias = x;
  hpcg::Waxpby(2.0, x_alias, -0.5, y, x_alias, &pool);
  for (std::size_t i = 0; i < x.size(); ++i) {
    ASSERT_EQ(x_alias[i], w_serial[i]);
  }
}

TEST_F(HpcgParallelEquivalence, CgSolveMatchesSerialBitwise) {
  // With the lexicographic smoother the pooled solver must follow exactly
  // the serial floating-point path: same chunked dot products, same
  // elementwise kernels, same smoother.
  const hpcg::Geometry geo{16, 16, 16};
  const auto n = static_cast<std::size_t>(geo.size());
  hpcg::Vec exact(n), b(n);
  Rng rng(53);
  for (auto& v : exact) v = rng.Uniform(-1.0, 1.0);
  hpcg::SpMV(geo, exact, b);

  hpcg::CgOptions serial_opts;
  serial_opts.max_iterations = 50;
  serial_opts.tolerance = 1e-10;
  hpcg::Vec x_serial(n, 0.0);
  const auto serial = hpcg::CgSolver(geo, serial_opts).Solve(b, x_serial);

  ThreadPool pool(4);
  hpcg::CgOptions pooled_opts = serial_opts;
  pooled_opts.pool = &pool;
  hpcg::Vec x_pooled(n, 0.0);
  const auto pooled = hpcg::CgSolver(geo, pooled_opts).Solve(b, x_pooled);

  EXPECT_EQ(serial.iterations, pooled.iterations);
  EXPECT_EQ(serial.final_residual, pooled.final_residual);
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(x_serial[i], x_pooled[i]) << "row " << i;
  }
}

TEST_F(HpcgParallelEquivalence, CgWithColoredSmootherConverges) {
  const hpcg::Geometry geo{16, 16, 16};
  const auto n = static_cast<std::size_t>(geo.size());
  hpcg::Vec exact(n, 1.0), b(n), x(n, 0.0);
  hpcg::SpMV(geo, exact, b);

  ThreadPool pool(4);
  hpcg::CgOptions options;
  options.max_iterations = 200;
  options.tolerance = 1e-10;
  options.pool = &pool;
  options.colored_symgs = true;
  const auto result = hpcg::CgSolver(geo, options).Solve(b, x);
  EXPECT_TRUE(result.converged);
  double max_err = 0.0;
  for (const double v : x) max_err = std::max(max_err, std::abs(v - 1.0));
  EXPECT_LT(max_err, 1e-8);
}

// --------------------------------------------------- forest training equivalence

ml::Dataset MakeRegressionData(std::size_t n, std::uint64_t seed) {
  ml::Dataset data;
  Rng rng(seed);
  for (std::size_t i = 0; i < n; ++i) {
    const double a = rng.Uniform(0.0, 4.0);
    const double b = rng.Uniform(-1.0, 1.0);
    const double c = rng.Uniform(0.0, 1.0);
    data.Add({a, b, c}, a * a - 2.0 * b + 0.5 * c + rng.Uniform(-0.05, 0.05));
  }
  return data;
}

TEST(RandomForestParallel, FitMatchesSerialBitwise) {
  const auto data = MakeRegressionData(200, 99);
  ml::ForestParams params;
  params.trees = 12;
  params.seed = 7;

  ml::RandomForest serial(params);
  ASSERT_TRUE(serial.Fit(data).ok());

  ThreadPool pool(4);
  ml::RandomForest pooled(params);
  ASSERT_TRUE(pooled.Fit(data, &pool).ok());

  EXPECT_EQ(serial.oob_r_squared(), pooled.oob_r_squared());
  EXPECT_EQ(serial.ToJson().Dump(), pooled.ToJson().Dump());
  for (const auto& row : data.features) {
    ASSERT_EQ(serial.Predict(row), pooled.Predict(row));
  }
}

TEST(RandomForestParallel, FromJsonRestoresFitParams) {
  const auto data = MakeRegressionData(80, 5);
  ml::ForestParams params;
  params.trees = 5;
  params.seed = 1234;
  params.bootstrap_fraction = 0.75;
  ml::RandomForest forest(params);
  ASSERT_TRUE(forest.Fit(data).ok());

  auto restored = ml::RandomForest::FromJson(forest.ToJson());
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored->params().seed, 1234u);
  EXPECT_DOUBLE_EQ(restored->params().bootstrap_fraction, 0.75);
  // A restored forest refits to the identical model.
  ASSERT_TRUE(restored->Fit(data).ok());
  EXPECT_EQ(restored->ToJson().Dump(), forest.ToJson().Dump());
}

// --------------------------------------------------- Chronus pooled sweep

// A reentrant runner: Run() is a pure function of the configuration, so any
// number of calls may be in flight — exactly the kind of runner the pooled
// sweep is for.
class PureComputeRunner : public chronus::ApplicationRunnerInterface {
 public:
  [[nodiscard]] std::string application() const override { return "hpcg"; }
  [[nodiscard]] std::string binary_hash() const override { return "cafe"; }
  [[nodiscard]] int max_concurrency() const override { return 4; }
  Result<chronus::RunResult> Run(const chronus::Configuration& c) override {
    calls_.fetch_add(1);
    if (c.cores == 13) return Result<chronus::RunResult>::Error("unlucky");
    chronus::RunResult r;
    r.gflops = 0.1 * c.cores * c.threads_per_core;
    r.duration_s = 100.0 / c.cores;
    r.avg_system_watts = 50.0 + 2.0 * c.cores;
    r.avg_cpu_watts = 30.0 + 1.5 * c.cores;
    r.system_kilojoules = r.duration_s * r.avg_system_watts / 1000.0;
    r.cpu_kilojoules = r.duration_s * r.avg_cpu_watts / 1000.0;
    r.avg_cpu_temp = 40.0 + 0.5 * c.cores;
    r.power_samples = 10;
    return r;
  }
  [[nodiscard]] int calls() const { return calls_.load(); }

 private:
  std::atomic<int> calls_{0};
};

TEST(BenchmarkServiceParallel, PooledSweepMatchesSerialRecords) {
  std::vector<chronus::Configuration> sweep;
  for (int cores = 1; cores <= 16; ++cores) {
    sweep.push_back({cores, 1, kHz(2'200'000)});
  }
  sweep.push_back({13, 1, kHz(2'200'000)});  // duplicate of the failing one

  const auto run_sweep = [&](ThreadPool* pool, const std::string& tag,
                             int& runner_calls) {
    // Unique workdir per sweep: test processes run concurrently under ctest,
    // so shared scratch directories would race.
    chronus::EnvOptions options;
    options.workdir = testing::TempDir() + "eco_tp_sweep_" + tag;
    auto env = chronus::MakeSimEnv(options);
    auto runner = std::make_shared<PureComputeRunner>();
    chronus::BenchmarkService service(env.repository, runner, env.system_info,
                                      pool);
    auto records = service.Run(sweep);
    runner_calls = runner->calls();
    return records;
  };

  int serial_calls = 0;
  int pooled_calls = 0;
  auto serial = run_sweep(nullptr, "serial", serial_calls);
  ThreadPool pool(4);
  auto pooled = run_sweep(&pool, "pooled", pooled_calls);

  ASSERT_TRUE(serial.ok());
  ASSERT_TRUE(pooled.ok());
  EXPECT_EQ(serial_calls, static_cast<int>(sweep.size()));
  EXPECT_EQ(pooled_calls, static_cast<int>(sweep.size()));
  // The failing configuration (cores == 13, twice) is skipped either way.
  ASSERT_EQ(serial->size(), sweep.size() - 2);
  ASSERT_EQ(pooled->size(), serial->size());
  for (std::size_t i = 0; i < serial->size(); ++i) {
    EXPECT_EQ((*serial)[i].id, (*pooled)[i].id);  // ids assigned in order
    EXPECT_TRUE((*serial)[i].config == (*pooled)[i].config);
    EXPECT_EQ((*serial)[i].gflops, (*pooled)[i].gflops);
    EXPECT_EQ((*serial)[i].duration_s, (*pooled)[i].duration_s);
    EXPECT_EQ((*serial)[i].avg_system_watts, (*pooled)[i].avg_system_watts);
  }
}

// --------------------------------------------------- plugin decision cache

class DecisionCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    gateway_ = std::make_shared<chronus::ChronusGateway>();
    gateway_->system_hash = [] { return std::string("sys"); };
    gateway_->state = [] { return chronus::PluginState::kActive; };
    gateway_->slurm_config = [this](const std::string&, const std::string&) {
      ++lookups_;
      if (fail_) return Result<std::string>::Error("chronus down");
      return Result<std::string>(
          R"({"cores": 8, "threads_per_core": 1, "frequency": 2200000})");
    };
    plugin::SetChronusGateway(gateway_);  // also clears the cache
    plugin::ResetEcoPluginStats();
  }
  void TearDown() override { plugin::SetChronusGateway(nullptr); }

  static int Submit(const std::string& partition) {
    slurm::JobRequest request;
    request.num_tasks = 32;
    request.comment = "chronus";
    request.partition = partition;
    request.script = "srun ./app\n";
    slurm::JobDescWrapper wrapper(request, 1);
    char* err = nullptr;
    return plugin::EcoPluginOps()->job_submit(wrapper.desc(), 0, &err);
  }

  std::shared_ptr<chronus::ChronusGateway> gateway_;
  int lookups_ = 0;
  bool fail_ = false;
};

TEST_F(DecisionCacheTest, RepeatSubmissionsSkipTheGateway) {
  for (int i = 0; i < 5; ++i) EXPECT_EQ(Submit("batch"), SLURM_SUCCESS);
  EXPECT_EQ(lookups_, 1) << "only the first submission pays the round-trip";
  const auto stats = plugin::GetEcoPluginStats();
  EXPECT_EQ(stats.cache_misses, 1u);
  EXPECT_EQ(stats.cache_hits, 4u);
  EXPECT_EQ(stats.modified, 5u);
  EXPECT_EQ(plugin::EcoDecisionCacheSize(), 1u);
}

TEST_F(DecisionCacheTest, PartitionIsPartOfTheKey) {
  EXPECT_EQ(Submit("batch"), SLURM_SUCCESS);
  EXPECT_EQ(Submit("debug"), SLURM_SUCCESS);
  EXPECT_EQ(Submit("batch"), SLURM_SUCCESS);
  EXPECT_EQ(lookups_, 2);
  EXPECT_EQ(plugin::EcoDecisionCacheSize(), 2u);
}

TEST_F(DecisionCacheTest, FailuresAreNotCached) {
  fail_ = true;
  EXPECT_EQ(Submit("batch"), SLURM_SUCCESS);
  EXPECT_EQ(Submit("batch"), SLURM_SUCCESS);
  EXPECT_EQ(lookups_, 2) << "a failed lookup must retry, not stick";
  EXPECT_EQ(plugin::EcoDecisionCacheSize(), 0u);
  EXPECT_EQ(plugin::GetEcoPluginStats().errors, 2u);

  // Chronus recovers: the next submission resolves and is cached.
  fail_ = false;
  EXPECT_EQ(Submit("batch"), SLURM_SUCCESS);
  EXPECT_EQ(Submit("batch"), SLURM_SUCCESS);
  EXPECT_EQ(lookups_, 3);
  EXPECT_EQ(plugin::EcoDecisionCacheSize(), 1u);
}

TEST_F(DecisionCacheTest, SettingAGatewayClearsTheCache) {
  EXPECT_EQ(Submit("batch"), SLURM_SUCCESS);
  EXPECT_EQ(plugin::EcoDecisionCacheSize(), 1u);
  plugin::SetChronusGateway(gateway_);
  EXPECT_EQ(plugin::EcoDecisionCacheSize(), 0u);

  // Resetting the stats does NOT clear the cache (warm-cache benchmarking).
  EXPECT_EQ(Submit("batch"), SLURM_SUCCESS);
  plugin::ResetEcoPluginStats();
  EXPECT_EQ(plugin::EcoDecisionCacheSize(), 1u);
  EXPECT_EQ(Submit("batch"), SLURM_SUCCESS);
  EXPECT_EQ(plugin::GetEcoPluginStats().cache_hits, 1u);
}

TEST_F(DecisionCacheTest, CachedDecisionRewritesTheDescriptor) {
  EXPECT_EQ(Submit("batch"), SLURM_SUCCESS);

  slurm::JobRequest request;
  request.num_tasks = 32;
  request.threads_per_core = 2;
  request.comment = "chronus";
  request.script = "srun ./app\n";
  slurm::JobDescWrapper wrapper(request, 2);
  char* err = nullptr;
  ASSERT_EQ(plugin::EcoPluginOps()->job_submit(wrapper.desc(), 0, &err),
            SLURM_SUCCESS);
  EXPECT_EQ(wrapper.desc()->num_tasks, 8u);
  EXPECT_EQ(wrapper.desc()->threads_per_core, 1u);
  EXPECT_EQ(wrapper.desc()->cpu_freq_min, 2'200'000u);
  EXPECT_EQ(wrapper.desc()->cpu_freq_max, 2'200'000u);
}

}  // namespace
}  // namespace eco
