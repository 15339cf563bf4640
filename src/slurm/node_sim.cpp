#include "slurm/node_sim.hpp"

#include <algorithm>
#include <cmath>

#include "common/log.hpp"

namespace eco::slurm {

NodeSim::NodeSim(std::string name, NodeParams params, EventQueue* queue)
    : name_(std::move(name)),
      params_(params),
      queue_(queue),
      power_model_(params.power),
      dvfs_(params.machine.cpu, params.default_governor),
      perf_model_(params.perf) {
  // ECO_PERF_CALIBRATION=<BENCH_p4 artifact> refits the analytic model from
  // the measured kernel roofline (no-op when unset), so simulated durations
  // and GFLOPS/W rankings track the kernels this build actually runs.
  hpcg::ApplyEnvCalibration(&perf_model_);
  freq_ = dvfs_.frequency();
  idle_mark_ = queue_->now();
  const auto idle = power_model_.SystemPower(
      0, params_.machine.cpu.MinFrequency(), false, 0.0,
      power_model_.params().fan_knee_celsius);
  idle_system_watts_ = idle.system_watts;
  idle_cpu_watts_ = idle.cpu_watts;
  reported_watts_ = idle_system_watts_;
  seg_start_ = queue_->now();
  seg_ = hw::ThermalSegment(params_.thermal, hw::Waveform{idle_cpu_watts_},
                            0.0, params_.thermal.ambient_celsius);
}

double NodeSim::UtilizationAt(SimTime t) const {
  return workload_.kind == WorkloadSpec::Kind::kHpcg
             ? perf_model_.UtilizationAt(t - start_time_, op_)
             : workload_.fixed_utilization;
}

Status NodeSim::StartJob(const JobRecord& job, int tasks,
                         CompletionCallback on_done) {
  if (running_) {
    return Status::Error("node " + name_ + ": busy with job " +
                         std::to_string(job_id_));
  }
  const auto& cpu = params_.machine.cpu;
  if (tasks < 1 || tasks > cpu.cores) {
    return Status::Error("node " + name_ + ": " + std::to_string(tasks) +
                         " tasks exceed " + std::to_string(cpu.cores) +
                         " cores");
  }
  const int tpc = job.request.threads_per_core;
  if (tpc < 1 || tpc > cpu.threads_per_core) {
    return Status::Error("node " + name_ + ": unsupported threads_per_core " +
                         std::to_string(tpc));
  }

  // Bill the idle stretch that ends now to the taps before run accruals
  // start, so an attached energy ledger sees idle and busy joules meet
  // exactly at the job boundary.
  EmitIdleGap(queue_->now());
  const double temp0 = seg_.At(SegmentClock());

  running_ = true;
  job_id_ = job.id;
  workload_ = job.request.workload;
  tasks_ = tasks;
  ht_ = tpc > 1;
  on_done_ = std::move(on_done);
  start_time_ = queue_->now();
  progress_flops_ = 0.0;
  energy_system_j_ = energy_cpu_j_ = temp_integral_ = elapsed_ = 0.0;

  // Frequency: a pinned job (the eco plugin's doing) acts like the userspace
  // governor; otherwise the node's default governor decides.
  if (job.request.cpu_freq_max > 0) {
    dvfs_ = hw::DvfsPolicy(cpu, hw::Governor::kUserspace);
    dvfs_.Pin(job.request.cpu_freq_max);
  } else {
    dvfs_ = hw::DvfsPolicy(cpu, params_.default_governor);
  }
  SetFrequency(dvfs_.frequency());

  total_work_flops_ =
      workload_.kind == WorkloadSpec::Kind::kHpcg
          ? hpcg::HpcgPerfModel::TotalFlops(workload_.problem, tasks_,
                                            workload_.iterations)
          : 0.0;

  OpenRunSegment(temp0);
  ECO_DEBUG << "node " << name_ << ": job " << job_id_ << " started, tasks="
            << tasks_ << " freq=" << freq_ << " ht=" << ht_;
  return Status::Ok();
}

void NodeSim::SetFrequency(KiloHertz f) {
  freq_ = f;
  if (workload_.kind == WorkloadSpec::Kind::kHpcg) {
    op_ = perf_model_.OperatingPointFor(tasks_, freq_, ht_);
  }
}

void NodeSim::OpenRunSegment(double temp0) {
  const bool hpcg = workload_.kind == WorkloadSpec::Kind::kHpcg;
  const hw::Waveform utilization =
      hpcg ? perf_model_.UtilizationWave(op_)
           : hw::Waveform{workload_.fixed_utilization};
  seg_start_ = queue_->now();
  seg_ = hw::ThermalSegment(
      params_.thermal, power_model_.CpuWave(tasks_, freq_, ht_, utilization),
      seg_start_ - start_time_, temp0);
  // Seconds to completion at this segment's rate.
  const double left = std::max(
      0.0, hpcg ? (total_work_flops_ - progress_flops_) / (op_.gflops * 1e9)
                : workload_.fixed_duration_s - elapsed_);
  const double sample = dvfs_.sampling_interval();
  seg_completes_ =
      dvfs_.governor() != hw::Governor::kOndemand || left <= sample;
  seg_seconds_ = seg_completes_ ? left : sample;
  seg_energy_ = power_model_.Integrate(seg_, seg_seconds_);
  seg_sent_ = hw::SegmentEnergy{};
  seg_sent_seconds_ = 0.0;
  if (seg_seconds_ > 0.0) {
    reported_watts_ = seg_energy_.system_joules / seg_seconds_;
  }
  seg_event_ = queue_->ScheduleAfter(seg_seconds_,
                                     [this](SimTime t) { EndRunSegment(t); });
}

void NodeSim::EndRunSegment(SimTime now) {
  seg_event_ = 0;
  CloseRunSegment(seg_seconds_, seg_energy_);
  const double temp = seg_.At(seg_seconds_);
  if (!seg_completes_) {
    // An ondemand sample: the governor reacts to the utilization it sees.
    const KiloHertz next = dvfs_.Step(UtilizationAt(now));
    if (next != freq_) SetFrequency(next);
    OpenRunSegment(temp);
    return;
  }
  const JobId id = job_id_;
  auto cb = std::move(on_done_);
  const RunStats stats = EndRun(now, temp);  // the callback may start a job
  ECO_DEBUG << "node " << name_ << ": job " << id << " done in "
            << stats.seconds << "s, " << stats.gflops << " GFLOPS";
  if (cb) cb(id, stats);
}

void NodeSim::CloseRunSegment(double seconds, const hw::SegmentEnergy& e) {
  energy_system_j_ += e.system_joules;
  energy_cpu_j_ += e.cpu_joules;
  temp_integral_ += e.temp_integral;
  elapsed_ += seconds;
  if (workload_.kind == WorkloadSpec::Kind::kHpcg) {
    progress_flops_ += op_.gflops * 1e9 * seconds;
  }
  Emit(e.system_joules - seg_sent_.system_joules,
       e.cpu_joules - seg_sent_.cpu_joules, seconds - seg_sent_seconds_);
}

RunStats NodeSim::EndRun(SimTime now, double temp) {
  running_ = false;
  on_done_ = nullptr;
  idle_mark_ = now;
  reported_watts_ = idle_system_watts_;
  seg_start_ = now;
  seg_ = hw::ThermalSegment(params_.thermal, hw::Waveform{idle_cpu_watts_},
                            0.0, temp);
  return FinalStats();
}

RunStats NodeSim::FinalStats() const {
  RunStats stats;
  stats.seconds = elapsed_;
  stats.system_joules = energy_system_j_;
  stats.cpu_joules = energy_cpu_j_;
  if (elapsed_ > 0.0) {
    stats.avg_cpu_temp = temp_integral_ / elapsed_;
    stats.avg_system_watts = energy_system_j_ / elapsed_;
    stats.avg_cpu_watts = energy_cpu_j_ / elapsed_;
    if (workload_.kind == WorkloadSpec::Kind::kHpcg) {
      stats.gflops = progress_flops_ / elapsed_ / 1e9;
    }
  }
  return stats;
}

RunStats NodeSim::CancelJob() {
  if (!running_) return RunStats{};
  const double s = std::clamp(SegmentClock(), 0.0, seg_seconds_);
  CloseRunSegment(s, power_model_.Integrate(seg_, s));
  queue_->Cancel(seg_event_);
  seg_event_ = 0;
  return EndRun(queue_->now(), seg_.At(s));
}

void NodeSim::Emit(double joules, double cpu_joules, double dt) {
  if (dt <= 0.0) return;
  for (const EnergyTap& tap : energy_taps_) {
    tap(joules / dt, cpu_joules / dt, dt);
  }
}

void NodeSim::EmitIdleGap(SimTime now) {
  const double dt = now - idle_mark_;
  idle_mark_ = now;
  if (dt <= 0.0) return;
  for (const EnergyTap& tap : energy_taps_) {
    tap(idle_system_watts_, idle_cpu_watts_, dt);
  }
}

void NodeSim::FlushIdleEnergy() {
  if (!running_) {
    EmitIdleGap(queue_->now());
    return;
  }
  const double s = std::clamp(SegmentClock(), 0.0, seg_seconds_);
  if (s <= seg_sent_seconds_) return;
  const hw::SegmentEnergy e = power_model_.Integrate(seg_, s);
  Emit(e.system_joules - seg_sent_.system_joules,
       e.cpu_joules - seg_sent_.cpu_joules, s - seg_sent_seconds_);
  seg_sent_ = e;
  seg_sent_seconds_ = s;
}

double NodeSim::SystemWatts() const {
  return CpuWatts() + power_model_.FanPower(CpuTempCelsius()) +
         power_model_.params().platform_watts;
}

double NodeSim::CpuWatts() const {
  return seg_.cpu().At(seg_.x0() + SegmentClock());
}

double NodeSim::CpuTempCelsius() const { return seg_.At(SegmentClock()); }

}  // namespace eco::slurm
