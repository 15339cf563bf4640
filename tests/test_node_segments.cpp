// The segment-exact node model.
//
//  - Closed form vs. a reference integrator: NodeSim books each segment's
//    energy and ∫T in closed form; the reference below steps the same
//    power, thermal and governor models at ≤ 1 ms (power at each step's
//    midpoint, the thermal model advanced by its exact exponential, fans by
//    the trapezoid rule). They agree to 1e-6 relative for HPCG at every
//    EPYC frequency with HT on and off, a fixed-duration job, an ondemand
//    run, and a run whose mean temperature sits inside the fan knee's
//    ripple band.
//  - Observer invariance: a ClusterSim workload gives bitwise-identical
//    schedules and energy books whether nobody watches it, an IPMI sampler
//    or the time-series store samples it, RAPL polls flush it every 5 s, or
//    random SystemWatts/CpuTempCelsius reads land between events.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/log.hpp"
#include "common/rng.hpp"
#include "common/telemetry/timeseries.hpp"
#include "hw/rapl.hpp"
#include "ipmi/bmc.hpp"
#include "ipmi/sampler.hpp"
#include "plugin/acct_gather_energy.hpp"
#include "slurm/cluster.hpp"
#include "slurm/energy_gather.hpp"
#include "slurm/energy_ledger.hpp"
#include "slurm/node_sim.hpp"

namespace eco::slurm {
namespace {

constexpr KiloHertz kF15 = kHz(1'500'000);
constexpr KiloHertz kF22 = kHz(2'200'000);
constexpr KiloHertz kF25 = kHz(2'500'000);

JobRecord HpcgJob(int tasks, KiloHertz freq, int tpc, int iterations) {
  JobRecord job;
  job.id = 1;
  job.request.num_tasks = tasks;
  job.request.threads_per_core = tpc;
  job.request.cpu_freq_min = freq;
  job.request.cpu_freq_max = freq;
  job.request.workload =
      WorkloadSpec::Hpcg(hpcg::HpcgProblem::Official(), iterations);
  return job;
}

struct Books {
  double seconds = 0.0;
  double system_joules = 0.0;
  double cpu_joules = 0.0;
  double avg_cpu_temp = 0.0;
};

// One job on a fresh node (ambient temperature at t = 0), run to completion.
Books RunNode(const NodeParams& params, const JobRecord& job, int tasks) {
  EventQueue queue;
  NodeSim node("n0", params, &queue);
  RunStats stats;
  bool done = false;
  EXPECT_TRUE(node.StartJob(job, tasks, [&](JobId, const RunStats& s) {
                    stats = s;
                    done = true;
                  }).ok());
  queue.RunAll();
  EXPECT_TRUE(done);
  return {stats.seconds, stats.system_joules, stats.cpu_joules,
          stats.avg_cpu_temp};
}

// The reference: the same job stepped at ≤ 1 ms through the same models.
Books Reference(const NodeParams& params, const JobRecord& job, int tasks) {
  constexpr double kStep = 1e-3;
  const hw::PowerModel power(params.power);
  const hpcg::HpcgPerfModel perf(params.perf);
  hw::ThermalModel thermal(params.thermal);
  const auto& cpu = params.machine.cpu;
  const WorkloadSpec& work = job.request.workload;
  const bool hpcg = work.kind == WorkloadSpec::Kind::kHpcg;
  const bool ht = job.request.threads_per_core > 1;
  hw::DvfsPolicy dvfs(cpu, job.request.cpu_freq_max > 0
                               ? hw::Governor::kUserspace
                               : params.default_governor);
  if (job.request.cpu_freq_max > 0) dvfs.Pin(job.request.cpu_freq_max);
  const bool ondemand = dvfs.governor() == hw::Governor::kOndemand;
  const double tau = params.thermal.time_constant_s;
  const double total =
      hpcg ? hpcg::HpcgPerfModel::TotalFlops(work.problem, tasks,
                                             work.iterations)
           : work.fixed_duration_s;

  Books out;
  double temp_integral = 0.0;
  double progress = 0.0;
  for (;;) {
    const KiloHertz f = dvfs.frequency();
    const auto op = perf.OperatingPointFor(tasks, f, ht);
    const auto utilization = [&](double x) {
      return hpcg ? perf.UtilizationAt(x, op) : work.fixed_utilization;
    };
    const double rate = hpcg ? op.gflops * 1e9 : 1.0;
    const double left = (total - progress) / rate;
    const bool last = !ondemand || left <= dvfs.sampling_interval();
    const double len = last ? left : dvfs.sampling_interval();
    const int steps = std::max(1, static_cast<int>(std::ceil(len / kStep)));
    const double h = len / steps;
    for (int i = 0; i < steps; ++i) {
      const double x = out.seconds + (i + 0.5) * h;
      const double p_cpu = power.CpuPower(tasks, f, ht, utilization(x));
      const double t_a = thermal.temperature();
      const double target = thermal.SteadyState(p_cpu);
      temp_integral += target * h - (t_a - target) * tau * std::expm1(-h / tau);
      thermal.Advance(h, p_cpu);
      const double fan =
          0.5 * (power.FanPower(t_a) + power.FanPower(thermal.temperature()));
      out.cpu_joules += p_cpu * h;
      out.system_joules += (p_cpu + fan + params.power.platform_watts) * h;
    }
    out.seconds += len;
    progress += rate * len;
    if (last) break;
    dvfs.Step(utilization(out.seconds));
  }
  out.avg_cpu_temp = temp_integral / out.seconds;
  return out;
}

void ExpectBooksMatch(const Books& node, const Books& ref) {
  EXPECT_NEAR(node.seconds, ref.seconds, ref.seconds * 1e-12);
  EXPECT_NEAR(node.system_joules, ref.system_joules, ref.system_joules * 1e-6);
  EXPECT_NEAR(node.cpu_joules, ref.cpu_joules, ref.cpu_joules * 1e-6);
  EXPECT_NEAR(node.avg_cpu_temp, ref.avg_cpu_temp, ref.avg_cpu_temp * 1e-6);
}

TEST(NodeSegments, PinnedHpcgMatchesReferenceAndEndsOnItsLastFlop) {
  const NodeParams params;
  const hpcg::HpcgPerfModel perf(params.perf);
  for (const KiloHertz f : {kF15, kF22, kF25}) {
    for (const int tpc : {1, 2}) {
      SCOPED_TRACE(testing::Message() << f << " kHz, tpc=" << tpc);
      const JobRecord job = HpcgJob(32, f, tpc, 200);
      const Books node = RunNode(params, job, 32);
      EXPECT_DOUBLE_EQ(
          node.seconds,
          hpcg::HpcgPerfModel::TotalFlops(hpcg::HpcgProblem::Official(), 32,
                                          200) /
              (perf.Gflops(32, f, tpc > 1) * 1e9));
      ExpectBooksMatch(node, Reference(params, job, 32));
    }
  }
}

TEST(NodeSegments, FixedDurationJobMatchesReference) {
  const NodeParams params;
  JobRecord job;
  job.id = 1;
  job.request.num_tasks = 8;
  job.request.workload = WorkloadSpec::Fixed(300.0, 0.8);
  const Books node = RunNode(params, job, 8);
  EXPECT_EQ(node.seconds, 300.0);
  ExpectBooksMatch(node, Reference(params, job, 8));
}

TEST(NodeSegments, OndemandRunMatchesReference) {
  NodeParams params;
  params.default_governor = hw::Governor::kOndemand;
  params.perf.phase_amp_base = 0.7;
  params.perf.compute_gflops_per_ghz = 0.01;
  JobRecord job = HpcgJob(8, 0, 2, 300);
  job.request.cpu_freq_min = job.request.cpu_freq_max = 0;
  ExpectBooksMatch(RunNode(params, job, 8), Reference(params, job, 8));
}

// The fan knee placed at the run's mean steady-state temperature: the CG
// ripple carries T back and forth across it for most of the run, so the
// fan energy comes from the Gauss–Legendre band, not the closed form.
TEST(NodeSegments, SteadyStateInsideKneeRippleBandMatchesReference) {
  NodeParams params;
  const hw::PowerModel power(params.power);
  const hpcg::HpcgPerfModel perf(params.perf);
  const auto op = perf.OperatingPointFor(16, kF25, false);
  const hw::Waveform cpu =
      power.CpuWave(16, kF25, false, perf.UtilizationWave(op));
  ASSERT_GT(cpu.ripple, 0.0);
  params.power.fan_knee_celsius =
      params.thermal.ambient_celsius +
      params.thermal.thermal_resistance_k_per_w * cpu.mean;
  const JobRecord job = HpcgJob(16, kF25, 1, 800);
  const Books node = RunNode(params, job, 16);
  ASSERT_GT(node.seconds, 10 * params.thermal.time_constant_s);
  ExpectBooksMatch(node, Reference(params, job, 16));
}

// ------------------------------------------------------ observer invariance

enum class Observer { kNone, kIpmi1s, kTimeseries1s, kTimeseries7s, kRapl5s,
                      kRandomReads };

struct ObservedRun {
  std::vector<JobRecord> records;
  double attributed = 0.0;
  double idle = 0.0;
};

// 8 ondemand nodes under a power cap, HPCG and fixed jobs, half of them
// pinned, arriving in three waves so nodes sit idle between runs.
ObservedRun RunObserved(Observer observer, double power_cap_watts = 1200.0) {
  constexpr double kHorizon = 4000.0;
  EnergyLedger ledger;
  telemetry::TimeSeriesStore store;
  ClusterConfig config;
  config.nodes = 8;
  config.node.default_governor = hw::Governor::kOndemand;
  config.power_cap_watts = power_cap_watts;
  config.energy_ledger = &ledger;
  if (observer == Observer::kTimeseries1s ||
      observer == Observer::kTimeseries7s) {
    config.timeseries = &store;
    config.timeseries_resolution_s =
        observer == Observer::kTimeseries1s ? 1.0 : 7.0;
  }
  ClusterSim cluster(config);
  EventQueue& queue = cluster.queue();

  std::unique_ptr<ipmi::BmcSimulator> bmc;
  std::unique_ptr<ipmi::IpmiSampler> sampler;
  if (observer == Observer::kIpmi1s) {
    bmc = std::make_unique<ipmi::BmcSimulator>(&cluster.node(0),
                                               ipmi::BmcParams{}, Rng(7));
    sampler = std::make_unique<ipmi::IpmiSampler>(&queue, bmc.get(), 1.0);
    sampler->Start();
  }
  hw::RaplCounter counter;
  EnergyGatherHost host;
  std::function<void(SimTime)> poll;
  if (observer == Observer::kRapl5s) {
    for (std::size_t i = 0; i < cluster.node_count(); ++i) {
      cluster.node(i).AddEnergyTap(
          [&counter](double system_watts, double, double dt) {
            counter.Accumulate(system_watts, dt);
          });
    }
    plugin::SetRaplEnergySource(&counter, &queue);
    EXPECT_TRUE(host.Load(plugin::RaplEnergyOps()).ok());
    EXPECT_TRUE(host.PollDelta().ok());
    poll = [&](SimTime t) {
      cluster.FlushIdleEnergy();
      EXPECT_TRUE(host.PollDelta().ok());
      if (t + 5.0 < kHorizon) queue.ScheduleAfter(5.0, poll);
    };
    queue.ScheduleAfter(5.0, poll);
  }
  double sink = 0.0;
  if (observer == Observer::kRandomReads) {
    Rng rng(2026);
    for (int i = 0; i < 2000; ++i) {
      const std::size_t n = rng.NextBounded(cluster.node_count());
      queue.ScheduleAt(rng.NextDouble() * kHorizon, [&, n](SimTime) {
        const NodeSim& node = cluster.node(n);
        sink += node.SystemWatts() + node.CpuTempCelsius() + node.CpuWatts();
      });
    }
  }

  std::vector<JobRequest> jobs;
  for (int i = 0; i < 36; ++i) {
    JobRequest r;
    r.user_id = 100 + i % 5;
    r.num_tasks = 8 + 8 * (i % 4);
    r.threads_per_core = 1 + i % 2;
    r.time_limit_s = 3600.0;
    if (i % 3 == 0) {
      r.workload =
          WorkloadSpec::Fixed(40.0 + 13.0 * (i % 7), 0.5 + 0.1 * (i % 5));
    } else {
      r.workload =
          WorkloadSpec::Hpcg(hpcg::HpcgProblem::Official(), 20 + 7 * (i % 6));
    }
    if (i % 2 == 0) r.cpu_freq_min = r.cpu_freq_max = i % 4 == 0 ? kF22 : kF15;
    jobs.push_back(r);
  }
  for (int wave = 0; wave < 3; ++wave) {
    std::vector<JobRequest> batch(jobs.begin() + 12 * wave,
                                  jobs.begin() + 12 * (wave + 1));
    queue.ScheduleAt(600.0 * wave + 0.25, [&cluster, batch](SimTime) {
      cluster.SubmitBatch(batch);
    });
  }

  cluster.RunUntil(kHorizon);
  if (sampler) sampler->Stop();
  cluster.FlushIdleEnergy();
  if (observer == Observer::kRapl5s) {
    EXPECT_TRUE(host.PollDelta().ok());
    host.Unload();
    plugin::SetRaplEnergySource(nullptr, nullptr);
  }
  EXPECT_TRUE(queue.empty());
  if (sampler) {
    EXPECT_GT(sampler->trace().samples().size(), 1000u);
  }
  EXPECT_TRUE(std::isfinite(sink));

  ObservedRun out;
  out.records.assign(cluster.accounting().records().begin(),
                     cluster.accounting().records().end());
  out.attributed = ledger.AttributedJoules();
  out.idle = ledger.IdleJoules();
  return out;
}

TEST(NodeSegments, ObserversNeverChangeSchedulesOrEnergyBooks) {
  Logger::Instance().SetLevel(LogLevel::kError);
  const ObservedRun bare = RunObserved(Observer::kNone);
  ASSERT_EQ(bare.records.size(), 36u);
  for (const JobRecord& r : bare.records) {
    EXPECT_EQ(r.state, JobState::kCompleted) << "job " << r.id;
  }
  // The cap binds: without it the same jobs start earlier, so dispatch
  // really reads ClusterWatts() and the reads below could matter.
  const ObservedRun uncapped = RunObserved(Observer::kNone, 0.0);
  double capped_wait = 0.0, uncapped_wait = 0.0;
  for (std::size_t i = 0; i < bare.records.size(); ++i) {
    capped_wait += bare.records[i].WaitSeconds();
    uncapped_wait += uncapped.records[i].WaitSeconds();
  }
  EXPECT_GT(capped_wait, uncapped_wait);
  for (const Observer observer :
       {Observer::kIpmi1s, Observer::kTimeseries1s, Observer::kTimeseries7s,
        Observer::kRapl5s, Observer::kRandomReads}) {
    SCOPED_TRACE(testing::Message()
                 << "observer " << static_cast<int>(observer));
    const ObservedRun run = RunObserved(observer);
    ASSERT_EQ(run.records.size(), bare.records.size());
    for (std::size_t i = 0; i < run.records.size(); ++i) {
      const JobRecord& a = bare.records[i];
      const JobRecord& b = run.records[i];
      EXPECT_EQ(a.id, b.id);
      EXPECT_EQ(a.state, b.state);
      EXPECT_EQ(a.node, b.node) << "job " << a.id;
      EXPECT_EQ(a.start_time, b.start_time) << "job " << a.id;
      EXPECT_EQ(a.end_time, b.end_time) << "job " << a.id;
      EXPECT_EQ(a.request.cpu_freq_max, b.request.cpu_freq_max);
      EXPECT_EQ(a.system_joules, b.system_joules) << "job " << a.id;
      EXPECT_EQ(a.cpu_joules, b.cpu_joules) << "job " << a.id;
      EXPECT_EQ(a.gflops, b.gflops) << "job " << a.id;
      EXPECT_EQ(a.avg_cpu_temp, b.avg_cpu_temp) << "job " << a.id;
      // Ledger joules: RAPL polls split a segment's emission into pieces,
      // so they agree to rounding, not bitwise.
      EXPECT_NEAR(a.attributed_joules, b.attributed_joules,
                  a.attributed_joules * 1e-12);
    }
    EXPECT_NEAR(run.attributed, bare.attributed, bare.attributed * 1e-12);
    EXPECT_NEAR(run.idle, bare.idle, bare.idle * 1e-12);
  }
  Logger::Instance().SetLevel(LogLevel::kInfo);
}

}  // namespace
}  // namespace eco::slurm
