// P7 — RPC submit storm: the subd binary front door (wire codec + epoll
// server + SubmitIngress) vs the in-process serial Submit path, over
// loopback TCP.
//
// Two phases:
//
//  1. Equivalence — the end-to-end ordering guarantee across the network
//     hop: the same request stream pushed through a live SubdServer by 1,
//     4 and 8 racing client connections (each batch carries base_seq =
//     global stream index) must produce a schedule byte-identical to a
//     serial per-call Submit loop. Both sides run with defer_dispatch so
//     submission grouping cannot change pass timing. Clients wait for
//     every reply before the drain, so the comparison isolates ordering
//     (seq numbers), not drain timing.
//
//  2. Storm — N jobs (default 2M) blasted over loopback through a
//     connection x pipeline-depth sweep (default {1,4,8} connections x
//     {1,16} outstanding batches), the sim side draining the ingress
//     concurrently to a counting sink. Per-batch round-trip latency is
//     recorded client-side; the server's own eco_rpc_enqueue_seconds
//     histogram gives the per-record admission cost.
//
// Checked, not just reported (timing gates arm at >= --gate-scale jobs,
// default 1M, so smoke runs stay green on noisy CI cores):
//  - best storm configuration sustains >= 500k submits/s over loopback;
//  - p99 batch round-trip <= 100 ms at the best configuration;
//  - every storm job acked kOk and drained exactly once (always checked);
//  - schedules byte-identical at every connection count (always checked).
//
// Flags: --jobs N, --batch N, --equiv-jobs N, --gate-scale N,
// --shards N, --skip-equiv.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "bench_common.hpp"
#include "common/telemetry/metrics.hpp"
#include "slurm/cluster.hpp"
#include "slurm/ingress.hpp"
#include "slurm/rpc/client.hpp"
#include "slurm/rpc/subd.hpp"
#include "slurm/workload_gen.hpp"

namespace {

using namespace eco;
using namespace eco::slurm;

constexpr int kNodes = 64;
constexpr int kCoresPerNode = 32;
// Job durations are whole multiples of this, so completions arrive in
// waves.
constexpr double kDurationQuantumS = 60.0;
constexpr double kGateSubmitsPerS = 500'000.0;
constexpr double kGateRttP99Seconds = 0.100;

int g_failures = 0;

void Check(bool ok, const std::string& what) {
  if (!ok) {
    ++g_failures;
    std::printf("FAIL  %s\n", what.c_str());
  }
}

ClusterConfig MakeConfig() {
  ClusterConfig config;
  config.nodes = kNodes;
  config.defer_dispatch = true;
  config.backfill_max_job_test = 100;
  return config;
}

// ---------------------------------------------------------------------------
// Phase 1: byte-identical schedules at connection counts 1/4/8.

std::vector<JobRequest> MakeEquivStream(int count) {
  WorkloadMix mix;
  mix.hpcg_share = 0.0;  // scheduler stress, not perf-model stress
  mix.wide_share = 0.2;
  mix.wide_nodes = 4;
  mix.users = 64;
  mix.duration_quantum_s = kDurationQuantumS;
  mix.seed = 20'260'808;
  mix.qos = {"premium", "standard", "besteffort"};
  auto generated = GenerateWorkload(mix, count, kCoresPerNode, 1);
  std::vector<JobRequest> requests;
  requests.reserve(generated.size());
  for (auto& job : generated) requests.push_back(std::move(job.request));
  return requests;
}

// One line per job: everything the schedule decided. Two runs produce equal
// strings iff their schedules are identical.
std::string ScheduleDigest(const ClusterSim& cluster, std::size_t count) {
  std::ostringstream out;
  out.precision(17);  // full doubles: "identical" must mean bitwise
  for (JobId id = 1; id <= count; ++id) {
    const auto job = cluster.GetJob(id);
    if (!job) {
      out << id << " <missing>\n";
      continue;
    }
    out << id << ' ' << job->request.name << " u" << job->request.user_id
        << ' ' << JobStateName(job->state) << " start=" << job->start_time
        << " end=" << job->end_time << " node=" << job->node << " x"
        << job->allocated_nodes << " prio=" << job->priority << '\n';
  }
  return out.str();
}

std::string RunSerialReference(const std::vector<JobRequest>& stream) {
  ClusterSim cluster(MakeConfig());
  for (const auto& request : stream) {
    const auto id = cluster.Submit(request);
    Check(id.ok(), "equiv serial submit: " +
                       std::string(id.ok() ? "" : id.message()));
  }
  cluster.RunUntilIdle();
  return ScheduleDigest(cluster, stream.size());
}

std::string RunOverTheWire(const std::vector<JobRequest>& stream,
                           int connections, int shards,
                           std::size_t batch_size) {
  ClusterSim cluster(MakeConfig());
  IngressConfig icfg;
  icfg.stripes = 16;
  icfg.max_queued = stream.size() + 1;
  icfg.metrics = &cluster.metrics();
  SubmitIngress ingress(icfg);

  rpc::SubdConfig scfg;
  scfg.shards = shards;
  scfg.ingress = &ingress;
  scfg.metrics = &cluster.metrics();
  rpc::SubdServer server(scfg);
  const Status started = server.Start();
  Check(started.ok(), "equiv server start: " +
                          std::string(started.ok() ? "" : started.message()));
  if (!started.ok()) return {};

  // Contiguous per-connection slices; base_seq = global stream index is
  // what re-establishes stream order on the drain side.
  const std::size_t chunk =
      (stream.size() + connections - 1) / static_cast<std::size_t>(connections);
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(connections));
  std::atomic<std::uint64_t> acked{0};
  std::atomic<bool> failed{false};
  for (int c = 0; c < connections; ++c) {
    threads.emplace_back([&, c] {
      rpc::SubmitClient client;
      if (!client.Connect("127.0.0.1", server.port()).ok()) {
        failed.store(true);
        return;
      }
      const std::size_t begin = static_cast<std::size_t>(c) * chunk;
      const std::size_t end = std::min(stream.size(), begin + chunk);
      std::vector<rpc::SubmitReplyEntry> replies;
      std::uint64_t ok = 0;
      for (std::size_t i = begin; i < end; i += batch_size) {
        const std::size_t n = std::min(batch_size, end - i);
        if (!client.SendBatch(stream.data() + i, n, i).ok() ||
            !client.ReadReply(&replies).ok()) {
          failed.store(true);
          return;
        }
        for (const auto& reply : replies) ok += reply.ok() ? 1 : 0;
      }
      acked.fetch_add(ok, std::memory_order_relaxed);
    });
  }
  for (auto& t : threads) t.join();
  server.Stop();
  Check(!failed.load(), "equiv wire transport clean");
  Check(acked.load() == stream.size(),
        "equiv wire admitted everything (" + std::to_string(acked.load()) +
            " of " + std::to_string(stream.size()) + ")");
  const auto results = ingress.DrainInto(cluster);
  Check(results.size() == stream.size(), "equiv drain count");
  cluster.RunUntilIdle();
  return ScheduleDigest(cluster, stream.size());
}

void RunEquivalence(int equiv_jobs, int shards, bench::BenchReport& report) {
  std::printf("== equivalence: subd x{1,4,8} connections vs serial Submit "
              "loop (%d jobs) ==\n",
              equiv_jobs);
  const auto stream = MakeEquivStream(equiv_jobs);
  const std::string reference = RunSerialReference(stream);
  bool all_equal = true;
  for (const int connections : {1, 4, 8}) {
    const std::string digest =
        RunOverTheWire(stream, connections, shards, /*batch_size=*/64);
    const bool equal = digest == reference;
    all_equal = all_equal && equal;
    Check(equal, "schedule byte-identical to serial at " +
                     std::to_string(connections) + " connections");
    std::printf("  connections=%d  schedule %s (%zu bytes)\n", connections,
                equal ? "identical" : "DIVERGED", digest.size());
  }
  report.Set("equivalence_ok", static_cast<std::uint64_t>(all_equal ? 1 : 0));
  report.Set("equiv_jobs", static_cast<std::uint64_t>(equiv_jobs));
}

// ---------------------------------------------------------------------------
// Phase 2: loopback throughput sweep.

// The storm request factory: deterministic and allocation-light. Short
// strings stay in SSO; the encoder copies them into the frame anyway.
JobRequest StormRequest(std::uint64_t seq) {
  JobRequest request;
  request.name = "storm";
  request.qos = "storm";
  request.account = "acct-storm";
  request.user_id = 1000 + static_cast<std::uint32_t>(seq & 4095);
  request.num_tasks = 1 + static_cast<int>(seq & 7);
  request.workload = WorkloadSpec::Fixed(kDurationQuantumS * (1 + (seq % 4)), 0.9);
  request.time_limit_s = 3600.0;
  return request;
}

struct StormResult {
  double rate = 0.0;       // submits/s end-to-end (send -> drained)
  double rtt_p50_s = 0.0;  // per-batch round-trip, client-side
  double rtt_p99_s = 0.0;
  double enqueue_p99_s = 0.0;  // server-side per-record admission cost
  std::uint64_t acked = 0;
  std::uint64_t drained = 0;
};

StormResult RunStorm(std::uint64_t jobs, int connections, int pipeline,
                     int shards, std::size_t batch_size) {
  telemetry::MetricsRegistry registry;
  IngressConfig icfg;
  icfg.stripes = 32;
  icfg.max_queued = jobs + 1;  // the storm must never hit the hard cap
  icfg.metrics = &registry;
  // Admission control stays ON, as in the P5 storm: a generous per-user
  // bucket keeps the limiter state on the measured path without ever
  // limiting a legitimate job.
  QosRule storm_rule;
  storm_rule.user_rate_per_s = 100'000.0;
  storm_rule.user_burst = 4096.0;
  icfg.qos["storm"] = storm_rule;
  SubmitIngress ingress(icfg);

  rpc::SubdConfig scfg;
  scfg.shards = shards;
  scfg.ingress = &ingress;
  scfg.metrics = &registry;
  rpc::SubdServer server(scfg);
  if (!server.Start().ok()) {
    Check(false, "storm server start");
    return {};
  }

  // Per-batch round-trip latency, client-side. Observe() is sharded-atomic,
  // safe from all connection threads.
  telemetry::Histogram rtt({1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4, 1e-3,
                            2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2, 1e-1, 1.0});

  std::atomic<std::uint64_t> acked{0};
  std::atomic<bool> failed{false};
  using Clock = std::chrono::steady_clock;
  const auto t0 = Clock::now();

  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(connections));
  const std::uint64_t chunk =
      (jobs + static_cast<std::uint64_t>(connections) - 1) /
      static_cast<std::uint64_t>(connections);
  for (int c = 0; c < connections; ++c) {
    threads.emplace_back([&, c] {
      rpc::SubmitClient client;
      if (!client.Connect("127.0.0.1", server.port()).ok()) {
        failed.store(true);
        return;
      }
      const std::uint64_t begin = static_cast<std::uint64_t>(c) * chunk;
      const std::uint64_t end = std::min(jobs, begin + chunk);
      std::vector<JobRequest> batch;
      batch.reserve(batch_size);
      std::vector<rpc::SubmitReplyEntry> replies;
      // Sliding window: up to `pipeline` batches in flight; send times
      // queue in a ring so each reply closes the oldest outstanding batch.
      std::vector<Clock::time_point> sent(
          static_cast<std::size_t>(pipeline));
      std::size_t sent_head = 0, sent_tail = 0;
      int outstanding = 0;
      std::uint64_t ok = 0;
      const auto absorb = [&]() -> bool {
        if (!client.ReadReply(&replies).ok()) return false;
        rtt.Observe(std::chrono::duration<double>(
                        Clock::now() - sent[sent_head])
                        .count());
        sent_head = (sent_head + 1) % sent.size();
        --outstanding;
        for (const auto& reply : replies) ok += reply.ok() ? 1 : 0;
        return true;
      };
      for (std::uint64_t i = begin; i < end; i += batch_size) {
        const std::uint64_t n = std::min<std::uint64_t>(batch_size, end - i);
        batch.clear();
        for (std::uint64_t j = 0; j < n; ++j) {
          batch.push_back(StormRequest(i + j));
        }
        if (outstanding == pipeline && !absorb()) {
          failed.store(true);
          return;
        }
        sent[sent_tail] = Clock::now();
        sent_tail = (sent_tail + 1) % sent.size();
        ++outstanding;
        if (!client.SendBatch(batch, i).ok()) {
          failed.store(true);
          return;
        }
      }
      while (outstanding > 0) {
        if (!absorb()) {
          failed.store(true);
          return;
        }
      }
      acked.fetch_add(ok, std::memory_order_relaxed);
    });
  }

  // The sim thread's side of the MPSC queue: drain to a counting sink until
  // every job came through (the schedule integration is phase 1's job —
  // this phase measures the front door itself).
  std::uint64_t drained = 0;
  bool each_once = true;
  std::vector<char> seen(jobs, 0);
  while (drained < jobs && !failed.load(std::memory_order_relaxed)) {
    const auto batch = ingress.Drain();
    if (batch.empty()) {
      std::this_thread::yield();
      continue;
    }
    for (const auto& pending : batch) {
      char& slot = seen[pending.seq];
      if (slot != 0) each_once = false;
      slot = 1;
    }
    drained += batch.size();
  }
  for (auto& t : threads) t.join();
  const double wall =
      std::chrono::duration<double>(Clock::now() - t0).count();
  server.Stop();

  StormResult out;
  out.rate = static_cast<double>(drained) / wall;
  out.rtt_p50_s = rtt.Quantile(0.50);
  out.rtt_p99_s = rtt.Quantile(0.99);
  out.acked = acked.load();
  out.drained = drained;
  const telemetry::Histogram* enq =
      registry.FindHistogram("eco_rpc_enqueue_seconds");
  out.enqueue_p99_s = enq != nullptr ? enq->Quantile(0.99) : 0.0;

  Check(!failed.load(), "storm transport clean");
  Check(out.acked == jobs, "storm acked all " + std::to_string(jobs) +
                               " (got " + std::to_string(out.acked) + ")");
  Check(out.drained == jobs, "storm drained all");
  Check(each_once, "every seq drained exactly once");

  std::printf("  conns=%d pipeline=%-2d  %.3f s = %8.0f submits/s   "
              "rtt p50=%7.1f us p99=%8.1f us   enqueue p99=%.2f us\n",
              connections, pipeline, wall, out.rate, out.rtt_p50_s * 1e6,
              out.rtt_p99_s * 1e6, out.enqueue_p99_s * 1e6);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t jobs = 2'000'000;
  std::uint64_t batch = 64;
  int equiv_jobs = 20'000;
  int shards = 3;
  std::uint64_t gate_scale = 1'000'000;
  bool skip_equiv = false;
  for (int i = 1; i < argc; ++i) {
    const auto int_arg = [&](const char* flag, auto* out) {
      if (std::strcmp(argv[i], flag) == 0 && i + 1 < argc) {
        *out = static_cast<std::remove_pointer_t<decltype(out)>>(
            std::strtoull(argv[++i], nullptr, 10));
        return true;
      }
      return false;
    };
    if (int_arg("--jobs", &jobs) || int_arg("--batch", &batch) ||
        int_arg("--equiv-jobs", &equiv_jobs) ||
        int_arg("--shards", &shards) ||
        int_arg("--gate-scale", &gate_scale)) {
      continue;
    }
    if (std::strcmp(argv[i], "--skip-equiv") == 0) {
      skip_equiv = true;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
      return 2;
    }
  }
  batch = std::max<std::uint64_t>(1, batch);
  shards = std::max(1, shards);

  bench::BenchReport report("p7_rpc_storm");
  report.Set("jobs", static_cast<std::uint64_t>(jobs));
  report.Set("batch", static_cast<std::uint64_t>(batch));
  report.Set("shards", static_cast<std::uint64_t>(shards));

  if (!skip_equiv) RunEquivalence(equiv_jobs, shards, report);

  std::printf("== storm: %llu jobs over loopback, batch=%llu, %d shards ==\n",
              static_cast<unsigned long long>(jobs),
              static_cast<unsigned long long>(batch), shards);
  double best_rate = 0.0;
  StormResult best;
  for (const int connections : {1, 4, 8}) {
    for (const int pipeline : {1, 16}) {
      const StormResult r = RunStorm(jobs, connections, pipeline, shards,
                                     static_cast<std::size_t>(batch));
      const std::string key = "c" + std::to_string(connections) + "_p" +
                              std::to_string(pipeline);
      report.Set(key + "_submits_per_s", r.rate);
      report.Set(key + "_rtt_p99_us", r.rtt_p99_s * 1e6);
      if (r.rate > best_rate) {
        best_rate = r.rate;
        best = r;
      }
    }
  }
  report.Set("best_submits_per_s", best_rate);
  report.Set("best_rtt_p50_us", best.rtt_p50_s * 1e6);
  report.Set("best_rtt_p99_us", best.rtt_p99_s * 1e6);
  report.Set("best_enqueue_p99_us", best.enqueue_p99_s * 1e6);
  std::printf("== best: %.0f submits/s, rtt p99 %.1f us ==\n", best_rate,
              best.rtt_p99_s * 1e6);

  if (jobs >= gate_scale) {
    Check(best_rate >= kGateSubmitsPerS,
          "loopback storm >= 500k submits/s (got " +
              std::to_string(best_rate) + ")");
    Check(best.rtt_p99_s <= kGateRttP99Seconds,
          "p99 batch round-trip <= 100 ms at best config (got " +
              std::to_string(best.rtt_p99_s * 1e3) + " ms)");
  }

  const std::string path = report.Write();
  if (!path.empty()) std::printf("artifact: %s\n", path.c_str());

  if (g_failures > 0) {
    std::printf("%d CHECK(S) FAILED\n", g_failures);
    return 1;
  }
  std::printf("all checks passed\n");
  return 0;
}
