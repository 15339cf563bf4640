#include "harness.hpp"

#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <filesystem>
#include <map>
#include <string_view>
#include <unordered_map>

#include "common/rng.hpp"
#include "common/telemetry/metrics.hpp"
#include "hpcg/perf_model.hpp"
#include "plugin/job_submit_eco.hpp"
#include "slurm/workload_gen.hpp"

namespace perfbench {

namespace {

using eco::Result;
using eco::Status;
namespace slurm = eco::slurm;
namespace chronus = eco::chronus;
namespace telemetry = eco::telemetry;

// eco_mix: the paper's scenario at fleet scale.
constexpr int kEcoMixNodes = 64;
constexpr int kEcoMixJobs = 2500;
constexpr double kEcoMixLoad = 0.9;      // offered load on the nodes
constexpr double kEcoMixWindowS = 60.0;  // sim seconds per arrival window
// backlog_drain: a deep burst of short jobs on a wider cluster.
constexpr int kBacklogNodes = 256;
constexpr int kBacklogJobs = 15000;
// submit_storm: 1-job frames at a fixed open-loop rate, about half the
// single-connection closed-loop capacity (ProbeClosedLoop: ~35k frames/s on
// a 4-core x86-64 VM under PlaceThreads; every run prints its own figure).
constexpr int kStormNodes = 64;
constexpr double kStormRatePerS = 17500.0;
constexpr int kStormJobs = 17500;  // one second of sending
constexpr int kStormLightUsers = 4000;
constexpr int kStormHeavyUsers = 32;
constexpr double kStormHeavyShare = 0.1;
constexpr double kStormUserBurst = 32.0;

// The gateway spans and the plugin entry span go to the traced run's
// main-thread log; the plugin's C entry point has no context argument.
SpanLog* g_plugin_log = nullptr;

// The core PlaceThreads() gave the storm generator.
int g_generator_cpu = -1;

int TracedJobSubmit(job_desc_msg_t* job_desc, uint32_t submit_uid,
                    char** err_msg) {
  ScopedSpan span(g_plugin_log, "plugin.job_submit");
  return eco::plugin::EcoPluginOps()->job_submit(job_desc, submit_uid,
                                                 err_msg);
}

// The eco plugin's ops table with the job_submit entry wrapped in a span.
const job_submit_plugin_ops_t* TracedEcoOps() {
  static const job_submit_plugin_ops_t ops = [] {
    job_submit_plugin_ops_t wrapped = *eco::plugin::EcoPluginOps();
    wrapped.job_submit = TracedJobSubmit;
    return wrapped;
  }();
  return &ops;
}

std::shared_ptr<chronus::ChronusGateway> TracedGateway(
    std::shared_ptr<chronus::ChronusGateway> inner, SpanLog* log) {
  auto traced = std::make_shared<chronus::ChronusGateway>();
  traced->slurm_config = [inner, log](const std::string& system_hash,
                                      const std::string& binary_hash) {
    ScopedSpan span(log, "chronus.slurm_config");
    return inner->slurm_config(system_hash, binary_hash);
  };
  traced->system_hash = [inner, log] {
    ScopedSpan span(log, "chronus.system_hash");
    return inner->system_hash();
  };
  traced->state = [inner, log] {
    ScopedSpan span(log, "chronus.state");
    return inner->state();
  };
  return traced;
}

// The Chronus benchmark sweep the model trains on: the paper's full grid
// (Tables 4-6), 23 core counts x {1.5, 2.2, 2.5} GHz x SMT off/on.
std::vector<chronus::Configuration> SweepConfigurations() {
  std::vector<chronus::Configuration> configs;
  for (const int cores : {1,  2,  3,  4,  5,  6,  7,  8,  9,  10, 12, 14,
                          15, 16, 18, 20, 21, 24, 25, 27, 28, 30, 32}) {
    for (const eco::KiloHertz f : {eco::kHz(1'500'000), eco::kHz(2'200'000),
                                   eco::kHz(2'500'000)}) {
      for (const int tpc : {1, 2}) configs.push_back({cores, tpc, f});
    }
  }
  return configs;
}

std::vector<slurm::JobRequest> TakeRequests(
    std::vector<slurm::GeneratedJob> generated) {
  std::vector<slurm::JobRequest> out;
  out.reserve(generated.size());
  for (auto& job : generated) out.push_back(std::move(job.request));
  return out;
}

Inputs MakeEcoMix(std::uint64_t seed) {
  Inputs in;
  in.nodes = kEcoMixNodes;
  const slurm::NodeParams params;
  slurm::WorkloadMix mix;  // 40 % opted-in HPCG, 20 % wide, fillers
  mix.users = 16;
  mix.seed = seed;
  const int iterations =
      eco::hpcg::HpcgPerfModel(params.perf)
          .IterationsForDuration(eco::hpcg::HpcgProblem::Official(),
                                 mix.hpcg_target_seconds);
  auto generated = slurm::GenerateWorkload(
      mix, kEcoMixJobs, params.machine.cpu.cores, iterations);
  // Scale the Poisson arrival clock so this seed's jobs offer exactly
  // kEcoMixLoad over their arrival span (nominal durations: HPCG at its
  // reference length). Queue behaviour at high load swings with the
  // realized load, which would otherwise differ from seed to seed.
  double offered = 0.0;
  for (const auto& job : generated) {
    const auto& w = job.request.workload;
    offered += job.request.min_nodes *
               (w.kind == slurm::WorkloadSpec::Kind::kHpcg
                    ? mix.hpcg_target_seconds
                    : w.fixed_duration_s);
  }
  const double scale =
      offered / (kEcoMixLoad * in.nodes * generated.back().arrival);
  for (auto& job : generated) job.arrival *= scale;
  // Arrival windows: (k * W, (k + 1) * W], skipping empty ones.
  std::size_t i = 0;
  while (i < generated.size()) {
    const double end =
        std::max(1.0, std::ceil(generated[i].arrival / kEcoMixWindowS)) *
        kEcoMixWindowS;
    in.window_first.push_back(i);
    in.window_end.push_back(end);
    while (i < generated.size() && generated[i].arrival <= end) ++i;
  }
  in.window_first.push_back(generated.size());
  in.requests = TakeRequests(std::move(generated));
  return in;
}

Inputs MakeBacklog(std::uint64_t seed) {
  Inputs in;
  in.nodes = kBacklogNodes;
  slurm::WorkloadMix mix;
  mix.hpcg_share = 0.0;  // nobody opts in: the plugin's skip path
  mix.wide_share = 0.05;
  mix.wide_nodes = 32;
  mix.filler_min_s = 1.0;
  mix.filler_max_s = 10.0;
  mix.users = 1000;
  mix.seed = seed;
  in.requests = TakeRequests(slurm::GenerateWorkload(
      mix, kBacklogJobs, slurm::NodeParams{}.machine.cpu.cores, 1));
  return in;
}

Inputs MakeStorm(std::uint64_t seed) {
  Inputs in;
  in.nodes = kStormNodes;
  in.storm_rate_per_s = kStormRatePerS;
  eco::Rng rng(seed);
  std::unordered_map<std::uint32_t, int> per_user;
  in.requests.reserve(kStormJobs);
  for (int i = 0; i < kStormJobs; ++i) {
    slurm::JobRequest request;
    request.name = "sbatch";
    request.qos = "storm";
    request.account = "acct-storm";
    request.user_id =
        rng.Chance(kStormHeavyShare)
            ? 9000 + static_cast<std::uint32_t>(
                         rng.NextBounded(kStormHeavyUsers))
            : 1000 + static_cast<std::uint32_t>(
                         rng.NextBounded(kStormLightUsers));
    request.num_tasks = 1 + static_cast<int>(rng.NextBounded(32));
    request.workload = slurm::WorkloadSpec::Fixed(1.0, 0.9);  // one tick
    request.time_limit_s = 60.0;
    ++per_user[request.user_id];
    in.requests.push_back(std::move(request));
  }
  for (const auto& [user, count] : per_user) {
    in.expected_rejects += static_cast<std::uint64_t>(
        std::max(0.0, count - kStormUserBurst));
  }
  return in;
}

// FNV-1a over raw bytes.
struct Digest {
  std::uint64_t h = 1469598103934665603ull;
  void Bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= p[i];
      h *= 1099511628211ull;
    }
  }
  void Str(std::string_view s) {
    Bytes(s.data(), s.size());
    Bytes("\0", 1);
  }
  template <typename T>
  void Val(T v) {
    Bytes(&v, sizeof(v));
  }
};

double CounterValue(const telemetry::MetricsRegistry& registry,
                    const char* name) {
  const telemetry::Counter* counter = registry.FindCounter(name);
  return counter != nullptr ? static_cast<double>(counter->Value()) : 0.0;
}

double GaugeValue(const telemetry::MetricsRegistry& registry,
                  const char* name) {
  const telemetry::Gauge* gauge = registry.FindGauge(name);
  return gauge != nullptr ? gauge->Value() : 0.0;
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

}  // namespace

void PlaceThreads() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0 ||
      CPU_COUNT(&allowed) < 2) {
    return;
  }
  std::vector<int> cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &allowed)) cpus.push_back(cpu);
  }
  // The first core takes the machine's interrupts and housekeeping; with
  // three or more, the controller skips it.
  PinThisThread(cpus.size() >= 3 ? cpus[1] : cpus[0]);
  g_generator_cpu = cpus.back();
}

int GeneratorCpu() { return g_generator_cpu; }

void PinThisThread(int cpu) {
  if (cpu < 0) return;
  cpu_set_t only;
  CPU_ZERO(&only);
  CPU_SET(cpu, &only);
  pthread_setaffinity_np(pthread_self(), sizeof(only), &only);
}

bool ParseWorkload(const std::string& name, Workload* out) {
  for (const Workload w : {Workload::kEcoMix, Workload::kBacklogDrain,
                           Workload::kSubmitStorm}) {
    if (name == WorkloadName(w)) {
      *out = w;
      return true;
    }
  }
  return false;
}

const char* WorkloadName(Workload workload) {
  switch (workload) {
    case Workload::kEcoMix:
      return "eco_mix";
    case Workload::kBacklogDrain:
      return "backlog_drain";
    case Workload::kSubmitStorm:
      return "submit_storm";
  }
  return "?";
}

Inputs MakeInputs(Workload workload, std::uint64_t seed) {
  Inputs in;
  switch (workload) {
    case Workload::kEcoMix:
      in = MakeEcoMix(seed);
      break;
    case Workload::kBacklogDrain:
      in = MakeBacklog(seed);
      break;
    case Workload::kSubmitStorm:
      in = MakeStorm(seed);
      break;
  }
  in.workload = workload;
  for (const auto& request : in.requests) {
    if (request.comment.find("chronus") != std::string::npos) ++in.opted_in;
  }
  return in;
}

Result<std::unique_ptr<Stack>> Stack::Build(const Inputs& inputs,
                                            const std::string& workdir,
                                            int connections, SpanLog* log) {
  using R = Result<std::unique_ptr<Stack>>;
  std::unique_ptr<Stack> stack(new Stack());

  // Chronus: a fresh environment under the run's work directory, the
  // benchmark sweep on its own one-node cluster, a random-tree model
  // trained and pre-loaded.
  std::error_code ec;
  std::filesystem::remove_all(workdir, ec);
  chronus::EnvOptions options;
  options.workdir = workdir;
  options.repository = chronus::RepositoryKind::kMemory;
  options.runner.target_seconds = 600.0;
  stack->env_ = chronus::MakeSimEnv(options);
  const auto meta = chronus::RunFullPipeline(
      stack->env_, SweepConfigurations(), "random-tree");
  if (!meta.ok()) return R::Error("chronus pipeline: " + meta.message());

  // The cluster the workload runs on: default node model, energy ledger,
  // the benchmark's own energy taps, job_submit_eco loaded.
  slurm::ClusterConfig config;
  config.nodes = inputs.nodes;
  config.backfill_max_job_test = 100;
  // The storm's backlog drains as `chronus subd` drains it: completions at
  // one sim timestamp share one scheduling pass.
  config.defer_dispatch = inputs.workload == Workload::kSubmitStorm;
  config.energy_ledger = &stack->ledger_;
  stack->cluster_ = std::make_unique<slurm::ClusterSim>(config);
  slurm::ClusterSim& cluster = *stack->cluster_;
  stack->taps_.joules.assign(cluster.node_count(), 0.0);
  for (std::size_t i = 0; i < cluster.node_count(); ++i) {
    cluster.node(i).AddEnergyTap(
        [taps = &stack->taps_, i](double system_watts, double, double dt) {
          taps->joules[i] += system_watts * dt;
          ++taps->accruals;
        });
  }
  eco::plugin::SetChronusGateway(
      log != nullptr ? TracedGateway(stack->env_.gateway, log)
                     : stack->env_.gateway);
  g_plugin_log = log;
  const Status loaded = cluster.plugins().Load(
      log != nullptr ? TracedEcoOps() : eco::plugin::EcoPluginOps());
  if (!loaded.ok()) return R::Error("plugin load: " + loaded.message());
  eco::plugin::ResetEcoPluginStats();

  // The front door: ingress with admission control, one subd shard.
  slurm::IngressConfig icfg;
  icfg.max_queued = inputs.requests.size() + 1;
  icfg.metrics = &cluster.metrics();
  if (inputs.workload == Workload::kSubmitStorm) {
    slurm::QosRule storm;
    storm.user_rate_per_s = 1.0;  // never refills: the admission clock is 0
    storm.user_burst = kStormUserBurst;
    icfg.qos["storm"] = storm;
  }
  stack->ingress_ = std::make_unique<slurm::SubmitIngress>(icfg);
  slurm::rpc::SubdConfig scfg;
  scfg.shards = 1;
  scfg.ingress = stack->ingress_.get();
  scfg.metrics = &cluster.metrics();
  stack->server_ = std::make_unique<slurm::rpc::SubdServer>(scfg);
  const Status started = stack->server_->Start();
  if (!started.ok()) return R::Error("subd start: " + started.message());
  stack->clients_.resize(static_cast<std::size_t>(connections));
  for (auto& client : stack->clients_) {
    const Status connected = client.Connect("127.0.0.1", stack->port());
    if (!connected.ok()) return R::Error("connect: " + connected.message());
  }
  return stack;
}

Stack::~Stack() {
  eco::plugin::SetChronusGateway(nullptr);
  g_plugin_log = nullptr;
}

void Verify(const Inputs& inputs, Stack& stack, IterResult* result) {
  auto fail = [result](const std::string& what) {
    result->errors.push_back(what);
  };
  slurm::ClusterSim& cluster = stack.cluster();
  const auto& records = cluster.accounting().records();

  // Every admitted job ends kCompleted exactly once. Ids are dense from 1
  // because only admitted requests reach the cluster.
  std::vector<int> seen(result->admitted + 1, 0);
  double wait_s = 0.0;
  result->completed = 0;
  for (const auto& record : records) {
    if (record.id == 0 || record.id > result->admitted) {
      fail("accounting holds unknown job " + std::to_string(record.id));
      continue;
    }
    ++seen[record.id];
    if (record.state == slurm::JobState::kCompleted) {
      ++result->completed;
      wait_s += record.WaitSeconds();
    }
  }
  std::uint64_t missing = 0, repeated = 0;
  for (std::size_t id = 1; id < seen.size(); ++id) {
    missing += seen[id] == 0 ? 1 : 0;
    repeated += seen[id] > 1 ? 1 : 0;
  }
  if (missing > 0 || repeated > 0) {
    fail(std::to_string(missing) + " admitted jobs never finalized, " +
         std::to_string(repeated) + " finalized twice");
  }
  result->not_completed = result->admitted - std::min<std::uint64_t>(
                                                 result->admitted,
                                                 result->completed);
  if (result->not_completed > 0) {
    fail(std::to_string(result->not_completed) +
         " admitted jobs did not end kCompleted");
  }
  if (!cluster.Queue().empty()) fail("jobs left queued or running");
  if (result->transport_errors > 0) {
    fail(std::to_string(result->transport_errors) + " transport errors");
  }

  // Ledger conservation against the benchmark's own node taps.
  double tapped = 0.0;
  for (const double j : stack.taps().joules) tapped += j;
  const double booked = stack.ledger().TotalJoules();
  const double rel = std::abs(booked - tapped) / std::max(tapped, 1e-300);
  result->layer["ledger.conservation_err"] = rel;
  if (!(rel <= 1e-6)) {
    fail("ledger total " + std::to_string(booked) + " J vs taps " +
         std::to_string(tapped) + " J");
  }

  // The plugin rewrote every opted-in job and never failed.
  const auto& global = telemetry::MetricsRegistry::Global();
  result->plugin_errors = static_cast<std::uint64_t>(
      CounterValue(global, "eco_plugin_errors_total"));
  if (result->plugin_errors > 0) {
    fail(std::to_string(result->plugin_errors) + " plugin errors");
  }
  if (inputs.workload == Workload::kEcoMix) {
    const auto modified = static_cast<std::uint64_t>(
        CounterValue(global, "eco_plugin_modified_total"));
    if (modified != inputs.opted_in) {
      fail("plugin modified " + std::to_string(modified) + " jobs, " +
           std::to_string(inputs.opted_in) + " opted in");
    }
  }
  if (inputs.workload == Workload::kSubmitStorm &&
      result->refused != inputs.expected_rejects) {
    fail("ingress refused " + std::to_string(result->refused) +
         " submits, token buckets allow " +
         std::to_string(inputs.expected_rejects));
  }
  if (result->wire_ok + result->refused + result->transport_errors !=
      result->attempted) {
    fail("submit verdicts do not add up to the submits sent");
  }
  if (result->admitted != result->wire_ok || result->cluster_rejects > 0) {
    fail(std::to_string(result->wire_ok) + " submits acknowledged, " +
         std::to_string(result->admitted) + " entered the cluster");
  }

  result->sim_kj_per_job =
      booked / 1e3 / static_cast<double>(std::max<std::uint64_t>(
                         1, result->completed));
  result->sim_wait_mean_s =
      wait_s / static_cast<double>(std::max<std::uint64_t>(1,
                                                           result->completed));

  // Digests: everything the schedule decided, bit for bit, and the books.
  Digest schedule;
  for (const auto& record : records) {
    schedule.Val(record.id);
    schedule.Str(record.request.name);
    schedule.Val(record.request.user_id);
    schedule.Val(static_cast<int>(record.state));
    schedule.Val(std::bit_cast<std::uint64_t>(record.submit_time));
    schedule.Val(std::bit_cast<std::uint64_t>(record.start_time));
    schedule.Val(std::bit_cast<std::uint64_t>(record.end_time));
    schedule.Str(record.node);
    schedule.Val(record.allocated_nodes);
    schedule.Val(record.request.num_tasks);
    schedule.Val(record.request.threads_per_core);
    schedule.Val(record.request.cpu_freq_max);
    schedule.Val(std::bit_cast<std::uint64_t>(record.system_joules));
  }
  result->schedule_digest = schedule.h;
  Digest books;
  books.Str(stack.ledger().ToJson().Dump());
  result->ledger_digest = books.h;
}

void CollectLayers(Stack& stack, const std::vector<const SpanLog*>& logs,
                   IterResult* result) {
  auto& layer = result->layer;
  const auto& reg = stack.cluster().metrics();
  const auto& global = telemetry::MetricsRegistry::Global();

  layer["rpc.frames"] = CounterValue(reg, "eco_rpc_frames_total");
  layer["rpc.bytes_in"] = CounterValue(reg, "eco_rpc_bytes_read_total");
  layer["rpc.decode_errors"] = CounterValue(reg, "eco_rpc_decode_errors_total");

  layer["ingress.admitted"] = CounterValue(reg, "eco_ingress_admitted_total");
  layer["ingress.rejected.rate"] =
      CounterValue(reg, "eco_ingress_rate_limited_total");
  layer["ingress.rejected.account"] =
      CounterValue(reg, "eco_ingress_account_limited_total");
  layer["ingress.rejected.qos"] =
      CounterValue(reg, "eco_ingress_qos_rejected_total");
  layer["ingress.rejected.shed"] = CounterValue(reg, "eco_ingress_shed_total");
  layer["ingress.rejected.queue_full"] =
      CounterValue(reg, "eco_ingress_queue_full_total");
  layer["ingress.rejected.closed"] =
      CounterValue(reg, "eco_ingress_closed_total");
  layer["ingress.backlog_peak"] = GaugeValue(reg, "eco_ingress_backlog_peak");
  const telemetry::Histogram* enqueue =
      reg.FindHistogram("eco_rpc_enqueue_seconds");
  const bool has_enqueue = enqueue != nullptr && enqueue->Count() > 0;
  layer["ingress.enqueue_p99_us"] =
      has_enqueue ? enqueue->Quantile(0.99) * 1e6 : 0.0;
  const double enqueue_s = has_enqueue ? enqueue->Sum() : 0.0;
  layer["ingress.enqueue_s"] = enqueue_s;

  const double calls = CounterValue(global, "eco_plugin_calls_total");
  const double hits = CounterValue(global, "eco_plugin_cache_hits_total");
  const double misses = CounterValue(global, "eco_plugin_cache_misses_total");
  layer["plugin.calls"] = calls;
  layer["plugin.modified"] = CounterValue(global, "eco_plugin_modified_total");
  layer["plugin.skipped"] = CounterValue(global, "eco_plugin_skipped_total");
  layer["plugin.errors"] = CounterValue(global, "eco_plugin_errors_total");
  layer["plugin.cache_hit_ratio"] = Ratio(hits, hits + misses);

  const double dispatch_s =
      CounterValue(reg, "eco_sched_dispatch_ns_total") * 1e-9;
  const double candidates =
      CounterValue(reg, "eco_sched_plan_candidates_total");
  const double started = CounterValue(reg, "eco_sched_jobs_started_total");
  layer["sched.dispatch_s"] = dispatch_s;
  layer["sched.dispatch_calls"] =
      CounterValue(reg, "eco_sched_dispatch_calls_total");
  layer["sched.plan_candidates"] = candidates;
  layer["sched.jobs_started"] = started;
  layer["sched.start_ratio"] = Ratio(started, candidates);
  layer["sched.pending_peak"] = GaugeValue(reg, "eco_sched_pending_peak");

  const double completed = static_cast<double>(result->completed);
  layer["node.events"] = static_cast<double>(result->events);
  layer["node.accruals"] = static_cast<double>(stack.taps().accruals);
  layer["node.events_per_job"] =
      Ratio(static_cast<double>(result->events), completed);
  layer["ledger.samples"] = static_cast<double>(stack.ledger().samples());

  std::map<std::string, SpanTotals> totals;
  for (const SpanLog* log : logs) {
    for (const auto& [name, t] : TotalsByName(*log)) {
      SpanTotals& sum = totals[name];
      sum.self_s += t.self_s;
      sum.calls += t.calls;
    }
  }
  const auto self = [&](const char* name) { return totals[name].self_s; };
  const auto count = [&](const char* name) {
    return static_cast<double>(totals[name].calls);
  };
  layer["rpc.send_s"] = self("rpc.SendBatch");
  layer["rpc.reply_wait_s"] = self("rpc.ReadReply");
  layer["rpc.front_door_s"] = self("rpc.front_door");
  layer["ingress.drain_s"] = self("ingress.Drain");
  layer["plugin.self_s"] = self("plugin.job_submit");
  layer["chronus.system_hash_s"] = self("chronus.system_hash");
  layer["chronus.state_s"] = self("chronus.state");
  layer["chronus.slurm_config_s"] = self("chronus.slurm_config");
  layer["chronus.system_hash_calls"] = count("chronus.system_hash");
  layer["chronus.state_calls"] = count("chronus.state");
  layer["chronus.slurm_config_calls"] = count("chronus.slurm_config");
  layer["sched.submit_self_s"] = self("sched.SubmitBatch");
  layer["node.self_s"] = self("node.RunUntil");
  layer["ledger.flush_s"] = self("ledger.FlushIdleEnergy");

  // Coverage: the main thread's top-level spans tile the measured wall
  // time; whatever lies between them is the benchmark's own glue.
  double covered = 0.0;
  for (const Span& span : logs.front()->spans()) {
    if (span.parent < 0) {
      covered += static_cast<double>(span.end_ns - span.start_ns) * 1e-9;
    }
  }
  layer["trace.coverage"] = Ratio(covered, result->wall_s);
  // Critical-path self time of the front door. The server enqueues into the
  // ingress while the main thread waits on the wire, so that share of the
  // main thread's rpc spans belongs to the ingress. In submit_storm the main
  // thread waits out the whole paced storm; only the time the front door had
  // a frame in hand is rpc work, the rest is the generator's pacing.
  const auto main_totals = TotalsByName(*logs.front());
  const auto main_self = [&](const char* name) {
    const auto it = main_totals.find(name);
    return it != main_totals.end() ? it->second.self_s : 0.0;
  };
  const double front_door_s = main_self("rpc.front_door");
  const double busy_s = std::min(front_door_s, result->front_door_busy_s);
  layer["storm.pacing_s"] = front_door_s - busy_s;
  const double wire_s =
      main_self("rpc.SendBatch") + main_self("rpc.ReadReply") + busy_s;
  layer["rpc.self_s"] = std::max(0.0, wire_s - enqueue_s);
  layer["ingress.self_s"] =
      std::min(wire_s, enqueue_s) + main_self("ingress.Drain");
}

}  // namespace perfbench
