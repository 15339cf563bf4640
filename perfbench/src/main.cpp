// perfbench_pipeline — jobs carried from a client socket to a finished,
// energy-attributed job, with a per-layer time budget.
//
//   perfbench_pipeline --workload eco_mix|backlog_drain|submit_storm
//                      --seed N --seconds S --trace 0|1 --workdir DIR
//                      [--trace-out FILE] [--git-sha SHA]
//
// A run first replays the workload once over two client connections, one
// for submit_storm (the check iteration: its schedule and ledger digests are
// the reference; a traced submit_storm run also probes the closed-loop
// capacity of one connection here, untimed), then
// repeats it over one connection for --seconds, every iteration on a freshly
// built stack. --trace 0 prints the end-to-end metrics; --trace 1 alternates
// untraced and traced iterations and prints the per-layer metrics, the
// traced share of wall time and the tracing overhead. The last line of
// stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "common/log.hpp"
#include "harness.hpp"
#include "hpcg/dispatch.hpp"

namespace {

using namespace perfbench;

// Timed iterations: at least this many, at most this many, whatever
// --seconds says; and the measuring phase stops well inside the time limit.
constexpr int kMinIterations = 3;
constexpr int kMaxIterations = 200;
constexpr double kMaxMeasureSeconds = 120.0;

// The per-layer metrics --trace 1 reports, in output order (BENCHMARK.json
// lists the same names and units).
struct LayerMetric {
  const char* name;
  const char* unit;
};
constexpr LayerMetric kLayerMetrics[] = {
    {"rpc.frames", "count"},
    {"rpc.bytes_in", "bytes"},
    {"rpc.decode_errors", "count"},
    {"rpc.send_s", "s"},
    {"rpc.reply_wait_s", "s"},
    {"rpc.front_door_s", "s"},
    {"rpc.self_s", "s"},
    {"rpc.ack_samples", "count"},
    {"rpc.ack_p90_us", "us"},
    {"rpc.ack_p99_us", "us"},
    {"rpc.ack_send_p99_us", "us"},
    {"ingress.admitted", "count"},
    {"ingress.rejected.rate", "count"},
    {"ingress.rejected.account", "count"},
    {"ingress.rejected.qos", "count"},
    {"ingress.rejected.shed", "count"},
    {"ingress.rejected.queue_full", "count"},
    {"ingress.rejected.closed", "count"},
    {"ingress.enqueue_p99_us", "us"},
    {"ingress.enqueue_s", "s"},
    {"ingress.drain_s", "s"},
    {"ingress.self_s", "s"},
    {"ingress.backlog_peak", "count"},
    {"plugin.calls", "count"},
    {"plugin.modified", "count"},
    {"plugin.skipped", "count"},
    {"plugin.errors", "count"},
    {"plugin.cache_hit_ratio", "ratio"},
    {"plugin.self_s", "s"},
    {"chronus.system_hash_s", "s"},
    {"chronus.state_s", "s"},
    {"chronus.slurm_config_s", "s"},
    {"chronus.system_hash_calls", "count"},
    {"chronus.state_calls", "count"},
    {"chronus.slurm_config_calls", "count"},
    {"sched.submit_self_s", "s"},
    {"sched.dispatch_s", "s"},
    {"sched.dispatch_calls", "count"},
    {"sched.plan_candidates", "count"},
    {"sched.jobs_started", "count"},
    {"sched.start_ratio", "ratio"},
    {"sched.pending_peak", "count"},
    {"sched.wait_mean_s", "sim-s"},
    {"node.self_s", "s"},
    {"node.events", "count"},
    {"node.accruals", "count"},
    {"node.events_per_job", "count"},
    {"ledger.flush_s", "s"},
    {"ledger.samples", "count"},
    {"ledger.conservation_err", "ratio"},
    {"trace.coverage", "ratio"},
    {"trace.overhead", "ratio"},
    {"storm.pacing_s", "s"},
    {"storm.gen_late_p99_us", "us"},
    {"storm.gen_stall_p99_us", "us"},
    {"storm.closed_loop_fps", "frames/s"},
    {"storm.rate_share", "ratio"},
};

struct Options {
  Workload workload = Workload::kEcoMix;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string workdir;
  std::string trace_out;
  std::string git_sha = "unknown";
};

bool ParseArgs(int argc, char** argv, Options* opt) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      if (!ParseWorkload(value, &opt->workload)) return false;
      have_workload = true;
    } else if (flag == "--seed") {
      opt->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      opt->seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      opt->trace = value == "1";
    } else if (flag == "--workdir") {
      opt->workdir = value;
    } else if (flag == "--trace-out") {
      opt->trace_out = value;
    } else if (flag == "--git-sha") {
      opt->git_sha = value;
    } else {
      return false;
    }
  }
  return have_workload && !opt->workdir.empty() && argc % 2 == 1 &&
         opt->seconds > 0.0;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

// Linear interpolation between closest ranks.
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void PrintResult(bool correct, std::uint64_t attempted, std::uint64_t failed,
                 const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("  %-30s %18.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  char buf[64];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    json += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " +
            buf + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!ParseArgs(argc, argv, &opt)) {
    std::fprintf(stderr,
                 "usage: perfbench_pipeline --workload "
                 "eco_mix|backlog_drain|submit_storm --seed N --seconds S "
                 "--trace 0|1 --workdir DIR [--trace-out FILE] "
                 "[--git-sha SHA]\n");
    return 2;
  }
  // As in the repo's other benches: stderr sink speed stays out of the
  // numbers (job_submit_eco logs every rewrite at INFO).
  eco::Logger::Instance().SetLevel(eco::LogLevel::kWarn);
  PlaceThreads();

  const Inputs inputs = MakeInputs(opt.workload, opt.seed);
  std::printf("# perfbench: workload=%s seed=%llu jobs=%zu nodes=%d "
              "nproc=%ld isa=%s git_sha=%s trace=%d\n",
              WorkloadName(opt.workload),
              static_cast<unsigned long long>(opt.seed),
              inputs.requests.size(), inputs.nodes,
              sysconf(_SC_NPROCESSORS_ONLN),
              eco::hpcg::IsaTierName(eco::hpcg::ActiveIsaTier()),
              opt.git_sha.c_str(), opt.trace ? 1 : 0);

  std::vector<std::string> errors;
  std::vector<double> setup_s, jobs_per_s_untraced, jobs_per_s_traced;
  std::vector<double> ack_us, ack_from_send_us, late_us, stall_us;
  double closed_loop_fps = 0.0;
  // Room for every sample a run can take, so these never reallocate: pages
  // not yet written stay out of peak_rss_mb, and a reallocation's copy
  // would not.
  const std::size_t max_samples =
      static_cast<std::size_t>(kMaxIterations) * inputs.requests.size();
  ack_us.reserve(max_samples);
  if (opt.workload == Workload::kSubmitStorm) {
    for (auto* samples : {&ack_from_send_us, &late_us, &stall_us}) {
      samples->reserve(max_samples);
    }
  }
  std::map<std::string, std::vector<double>> layers;
  std::vector<std::unique_ptr<SpanLog>> kept_logs;  // last traced iteration
  std::uint64_t attempted = 0, failed = 0;
  IterResult reference;

  const std::int64_t start_ns = NowNs();
  std::int64_t measure_end_ns = 0;
  int timed = 0;
  for (int iter = 0;; ++iter) {
    const bool check = iter == 0;
    if (!check) {
      const std::int64_t now = NowNs();
      if (measure_end_ns == 0) {
        measure_end_ns = now + static_cast<std::int64_t>(
                                   std::min(opt.seconds, kMaxMeasureSeconds) *
                                   1e9);
      }
      if ((now >= measure_end_ns && timed >= kMinIterations) ||
          timed >= kMaxIterations) {
        break;
      }
    }
    // The check iteration replays over two connections (submit_storm's
    // sender and receiver share one); timed iterations use one. With
    // --trace 1 every second timed iteration records spans.
    const bool traced = opt.trace && !check && timed % 2 == 1;
    const int connections =
        check && opt.workload != Workload::kSubmitStorm ? 2 : 1;
    auto main_log = std::make_unique<SpanLog>(0, traced);
    std::vector<std::unique_ptr<SpanLog>> worker_logs;

    IterResult r;
    const std::int64_t t_setup = NowNs();
    auto built = Stack::Build(inputs, opt.workdir + "/chronus", connections,
                              traced ? main_log.get() : nullptr);
    r.setup_s = static_cast<double>(NowNs() - t_setup) * 1e-9;
    if (!built.ok()) {
      errors.push_back("set-up: " + built.message());
      break;
    }
    Stack& stack = **built;
    RunWorkload(inputs, stack, *main_log, &r, &worker_logs);
    stack.StopServer();
    Verify(inputs, stack, &r);
    if (traced) {
      std::vector<const SpanLog*> logs = {main_log.get()};
      for (const auto& log : worker_logs) logs.push_back(log.get());
      CollectLayers(stack, logs, &r);
    }
    built.value().reset();
    setup_s.push_back(r.setup_s);

    const std::string tag = "iteration " + std::to_string(iter) + ": ";
    for (const auto& e : r.errors) errors.push_back(tag + e);
    if (check) {
      reference = r;
      std::printf("# check iteration: %llu submits, %llu completed, "
                  "%.3f s wall, setup %.3f s, digests %016llx %016llx\n",
                  static_cast<unsigned long long>(r.attempted),
                  static_cast<unsigned long long>(r.completed), r.wall_s,
                  r.setup_s,
                  static_cast<unsigned long long>(r.schedule_digest),
                  static_cast<unsigned long long>(r.ledger_digest));
      if (opt.trace && opt.workload == Workload::kSubmitStorm) {
        // The storm's offered rate against what one connection carries
        // closed loop, on a stack of its own (untimed; only in the traced
        // run, so its memory stays out of peak_rss_mb).
        auto probe = Stack::Build(inputs, opt.workdir + "/chronus", 1, nullptr);
        if (!probe.ok()) {
          errors.push_back("probe set-up: " + probe.message());
          break;
        }
        closed_loop_fps = ProbeClosedLoop(inputs, **probe);
        (*probe)->StopServer();
        std::printf("# closed-loop capacity: %.0f frames/s; storm rate "
                    "%.0f/s is %.2f of it\n",
                    closed_loop_fps, inputs.storm_rate_per_s,
                    closed_loop_fps > 0.0
                        ? inputs.storm_rate_per_s / closed_loop_fps
                        : 0.0);
      }
      continue;
    }
    // Same seed, same outcome: the schedule and the books match the check
    // iteration's, which ran over two connections instead of one.
    if (r.schedule_digest != reference.schedule_digest ||
        r.ledger_digest != reference.ledger_digest) {
      errors.push_back(tag + "schedule or ledger digest differs from the "
                             "check iteration's");
    }
    if (r.completed != reference.completed || r.refused != reference.refused) {
      errors.push_back(tag + "job outcome differs from the check "
                             "iteration's");
    }

    ++timed;
    attempted += r.attempted;
    failed += r.transport_errors + r.cluster_rejects + r.not_completed +
              r.plugin_errors;
    const double jobs_per_s =
        static_cast<double>(r.completed) / std::max(r.wall_s, 1e-9);
    late_us.insert(late_us.end(), r.late_us.begin(), r.late_us.end());
    stall_us.insert(stall_us.end(), r.stall_us.begin(), r.stall_us.end());
    if (traced) {
      jobs_per_s_traced.push_back(jobs_per_s);
      for (const auto& [name, value] : r.layer) layers[name].push_back(value);
      kept_logs = std::move(worker_logs);
      kept_logs.insert(kept_logs.begin(), std::move(main_log));
    } else {
      jobs_per_s_untraced.push_back(jobs_per_s);
      ack_us.insert(ack_us.end(), r.ack_us.begin(), r.ack_us.end());
      ack_from_send_us.insert(ack_from_send_us.end(),
                              r.ack_from_send_us.begin(),
                              r.ack_from_send_us.end());
    }
    std::printf("# iteration %d%s: %.3f s wall, %.1f jobs/s, setup %.3f s\n",
                iter, traced ? " (traced)" : "", r.wall_s, jobs_per_s,
                r.setup_s);
  }
  std::error_code ec;
  std::filesystem::remove_all(opt.workdir + "/chronus", ec);

  const double gen_late_p99_us = Quantile(late_us, 0.99);
  if (opt.workload == Workload::kSubmitStorm) {
    // A frame is late when the previous send blocked (the server was slow
    // to read, which the due-time acknowledgement latency already charges
    // to the server) or when the generator itself stalled. A generator late
    // by a whole send interval on half its frames cannot hold the rate, and
    // one that stalls by a send interval on more than 1 % of its frames
    // offers bursts the workload does not ask for: either way the run is
    // invalid.
    const double interval_us = 1e6 / inputs.storm_rate_per_s;
    const double late_p50_us = Quantile(late_us, 0.50);
    const double stall_p99_us = Quantile(stall_us, 0.99);
    std::printf("# storm generator lateness: p50 %.1f us, p99 %.1f us; "
                "own stalls: p99 %.1f us\n",
                late_p50_us, gen_late_p99_us, stall_p99_us);
    if (late_p50_us > interval_us || stall_p99_us > interval_us) {
      errors.push_back("invalid run: the storm generator fell behind");
    }
  }
  if (timed == 0) errors.push_back("no timed iteration completed");
  for (const auto& e : errors) std::printf("FAIL %s\n", e.c_str());
  std::printf("# %zu submit acknowledgements sampled, %.1f s elapsed\n",
              ack_us.size(), static_cast<double>(NowNs() - start_ns) * 1e-9);

  std::vector<Metric> metrics;
  if (!opt.trace) {
    metrics = {
        {"setup_s", Median(setup_s), "s"},
        {"jobs_per_s", Median(jobs_per_s_untraced), "jobs/s"},
        {"submit_p50_us", Quantile(ack_us, 0.50), "us"},
        {"done_ratio",
         static_cast<double>(reference.completed) /
             static_cast<double>(std::max<std::uint64_t>(1,
                                                         reference.attempted)),
         "ratio"},
        {"sim_kj_per_job", reference.sim_kj_per_job, "kJ"},
        {"peak_rss_mb", PeakRssMb(), "MB"},
    };
  } else {
    const double traced_rate = Median(jobs_per_s_traced);
    layers["rpc.ack_samples"] = {static_cast<double>(ack_us.size())};
    layers["rpc.ack_p90_us"] = {Quantile(ack_us, 0.90)};
    layers["rpc.ack_p99_us"] = {Quantile(ack_us, 0.99)};
    layers["sched.wait_mean_s"] = {reference.sim_wait_mean_s};
    layers["trace.overhead"] = {
        traced_rate > 0.0 ? Median(jobs_per_s_untraced) / traced_rate - 1.0
                          : 0.0};
    layers["rpc.ack_send_p99_us"] = {Quantile(ack_from_send_us, 0.99)};
    layers["storm.gen_late_p99_us"] = {gen_late_p99_us};
    layers["storm.gen_stall_p99_us"] = {Quantile(stall_us, 0.99)};
    layers["storm.closed_loop_fps"] = {closed_loop_fps};
    layers["storm.rate_share"] = {
        closed_loop_fps > 0.0 ? inputs.storm_rate_per_s / closed_loop_fps
                              : 0.0};
    for (const LayerMetric& m : kLayerMetrics) {
      metrics.push_back({m.name, Median(layers[m.name]), m.unit});
    }
    if (!opt.trace_out.empty() && !kept_logs.empty()) {
      std::vector<const SpanLog*> logs;
      for (const auto& log : kept_logs) logs.push_back(log.get());
      if (!WriteChromeTrace(opt.trace_out, logs)) {
        std::printf("# could not write %s\n", opt.trace_out.c_str());
      }
    }
  }
  PrintResult(errors.empty(), std::max<std::uint64_t>(1, attempted), failed,
              metrics);
  return 0;
}
