#include "common/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>

#include "common/telemetry/metrics.hpp"

namespace eco {
namespace {

// Set while a pool worker (any pool) is executing a chunk, so nested
// ParallelFor calls run serially instead of deadlocking on a full queue.
thread_local bool t_inside_worker = false;

// Process-global pool telemetry (all pools publish here; handles resolved
// once, updates are lock-free). Trivially destructible and pointing into
// the never-destroyed global registry, so workers of a pool destroyed at
// exit may still publish through it.
struct PoolMetrics {
  telemetry::Counter* parallel_calls;
  telemetry::Counter* serial_calls;
  telemetry::Counter* chunks;
  telemetry::Gauge* queue_depth;
  telemetry::Gauge* queue_depth_peak;

  static const PoolMetrics& Get() {
    static const PoolMetrics m = [] {
      auto& reg = telemetry::MetricsRegistry::Global();
      return PoolMetrics{
          reg.GetCounter("eco_pool_parallel_calls_total"),
          reg.GetCounter("eco_pool_serial_calls_total"),
          reg.GetCounter("eco_pool_chunks_total"),
          reg.GetGauge("eco_pool_queue_depth"),
          reg.GetGauge("eco_pool_queue_depth_peak"),
      };
    }();
    return m;
  }
};

std::uint64_t MixSeed(std::uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdull;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ull;
  x ^= x >> 33;
  return x;
}

}  // namespace

struct ThreadPool::Job {
  std::int64_t begin = 0;
  std::int64_t end = 0;
  std::int64_t grain = 1;
  std::int64_t chunks = 0;
  const ChunkFn* fn = nullptr;
  std::atomic<std::int64_t> next{0};
  std::atomic<std::int64_t> done{0};
  std::atomic<bool> failed{false};
  std::mutex mutex;
  std::condition_variable finished;
  std::exception_ptr error;
};

ThreadPool::ThreadPool(int threads) {
  if (threads <= 0) threads = DefaultThreadCount();
  for (int i = 1; i < threads; ++i) {
    workers_.emplace_back([this] { WorkerMain(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  wake_.notify_all();
  for (auto& worker : workers_) worker.join();
}

int ThreadPool::DefaultThreadCount() {
  if (const char* env = std::getenv("ECO_THREADS")) {
    const int n = std::atoi(env);
    if (n > 0) return n;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

ThreadPool& ThreadPool::Global() {
  static ThreadPool pool(DefaultThreadCount());
  return pool;
}

std::int64_t ThreadPool::ChunkCount(std::int64_t n, std::int64_t grain) {
  if (n <= 0) return 0;
  if (grain <= 0) grain = kDefaultGrain;
  return (n + grain - 1) / grain;
}

Rng ThreadPool::ChunkRng(std::uint64_t seed, std::int64_t chunk) {
  return Rng(MixSeed(seed ^ MixSeed(static_cast<std::uint64_t>(chunk) + 1)));
}

// Claims chunks until none remain. Every chunk index is claimed by exactly
// one thread and counted in `done` whether it ran or was skipped after a
// failure, so `done` always converges to `chunks` and the caller's wait
// cannot hang.
void ThreadPool::RunChunks(Job& job) {
  const bool was_inside = t_inside_worker;
  t_inside_worker = true;
  while (true) {
    const std::int64_t chunk = job.next.fetch_add(1);
    if (chunk >= job.chunks) break;
    if (!job.failed.load(std::memory_order_acquire)) {
      const std::int64_t lo = job.begin + chunk * job.grain;
      const std::int64_t hi = std::min(lo + job.grain, job.end);
      try {
        (*job.fn)(chunk, lo, hi);
      } catch (...) {
        std::lock_guard<std::mutex> lock(job.mutex);
        if (!job.error) job.error = std::current_exception();
        job.failed.store(true, std::memory_order_release);
      }
    }
    if (job.done.fetch_add(1) + 1 == job.chunks) {
      std::lock_guard<std::mutex> lock(job.mutex);
      job.finished.notify_all();
    }
  }
  t_inside_worker = was_inside;
}

void ThreadPool::ParallelForChunks(std::int64_t begin, std::int64_t end,
                                   std::int64_t grain, const ChunkFn& fn) {
  const std::int64_t n = end - begin;
  if (n <= 0) return;
  if (grain <= 0) grain = kDefaultGrain;
  const std::int64_t chunks = ChunkCount(n, grain);

  // Serial paths: single chunk, no workers, or nested inside a pool worker.
  // Chunk indices match the parallel decomposition, so per-chunk RNG streams
  // and reduction order are identical.
  if (chunks == 1 || workers_.empty() || t_inside_worker) {
    const PoolMetrics& metrics = PoolMetrics::Get();
    metrics.serial_calls->Add(1);
    metrics.chunks->Add(static_cast<std::uint64_t>(chunks));
    for (std::int64_t chunk = 0; chunk < chunks; ++chunk) {
      const std::int64_t lo = begin + chunk * grain;
      const std::int64_t hi = std::min(lo + grain, end);
      fn(chunk, lo, hi);
    }
    return;
  }

  const PoolMetrics& metrics = PoolMetrics::Get();
  metrics.parallel_calls->Add(1);
  metrics.chunks->Add(static_cast<std::uint64_t>(chunks));

  auto job = std::make_shared<Job>();
  job->begin = begin;
  job->end = end;
  job->grain = grain;
  job->chunks = chunks;
  job->fn = &fn;

  // One queue entry per helper; late poppers see no chunks left and return.
  const std::int64_t helpers = std::min<std::int64_t>(
      static_cast<std::int64_t>(workers_.size()), chunks - 1);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (std::int64_t i = 0; i < helpers; ++i) queue_.push_back(job);
    const auto depth = static_cast<double>(queue_.size());
    metrics.queue_depth->Set(depth);
    metrics.queue_depth_peak->SetMax(depth);
  }
  wake_.notify_all();

  RunChunks(*job);

  std::unique_lock<std::mutex> lock(job->mutex);
  job->finished.wait(lock, [&] { return job->done.load() == job->chunks; });
  if (job->error) std::rethrow_exception(job->error);
}

void ThreadPool::ParallelFor(std::int64_t begin, std::int64_t end,
                             std::int64_t grain, const RangeFn& fn) {
  ParallelForChunks(
      begin, end, grain,
      [&fn](std::int64_t, std::int64_t lo, std::int64_t hi) { fn(lo, hi); });
}

void ThreadPool::WorkerMain() {
  while (true) {
    std::shared_ptr<Job> job;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      wake_.wait(lock, [&] { return stopping_ || !queue_.empty(); });
      if (stopping_ && queue_.empty()) return;
      job = std::move(queue_.front());
      queue_.pop_front();
      PoolMetrics::Get().queue_depth->Set(static_cast<double>(queue_.size()));
    }
    RunChunks(*job);
  }
}

}  // namespace eco
