// Simulated compute node (the slurmd side).
//
// A NodeSim owns the machine's power, thermal and DVFS models and runs at
// most one job at a time (exclusive allocation, as on the paper's test
// node). It schedules events only where its state changes: a job's exact
// completion, an `ondemand` governor sample, and a cancel. Each stretch
// between two such events is a *segment*, with tasks, frequency and HT
// fixed, so everything in it has a closed form:
//
//   utilization u(x)   ->  a Waveform in the job's phase x (HPCG's CG
//                          cycle; constant for fixed-duration jobs)
//   CPU power          ->  the same waveform rescaled (hw::PowerModel)
//   temperature        ->  its exact response (hw::ThermalSegment)
//   energy, fans, ∫T   ->  exact integrals (hw::PowerModel::Integrate)
//   progress           ->  FLOPs at the segment's GFLOPS; an HPCG run ends
//                          at remaining FLOPs / (GFLOPS·1e9)
//
// `performance`, `powersave` and `userspace` (pinned eco jobs) hold one
// frequency, so a run is one segment and one event. `ondemand` ends a
// segment at every sample, so its dynamics (bouncing between levels) still
// change runtime and energy. An idle node cools toward its idle steady
// state in closed form, and the next job starts from that temperature.
//
// The node implements ipmi::PowerSource, so a BmcSimulator attached to it
// sees the same signals a real BMC would. Those reads evaluate the closed
// form at the current time and never move the state: observers cannot
// change results.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/sim_clock.hpp"
#include "hpcg/perf_model.hpp"
#include "hw/cpu_spec.hpp"
#include "hw/dvfs.hpp"
#include "hw/power_model.hpp"
#include "hw/thermal.hpp"
#include "ipmi/bmc.hpp"
#include "slurm/job.hpp"

namespace eco::slurm {

struct NodeParams {
  hw::MachineSpec machine = hw::MachineSpec::Epyc7502P();
  hw::PowerModelParams power = hw::PowerModelParams::Epyc7502P();
  hw::ThermalParams thermal = hw::ThermalParams::Epyc7502P();
  hpcg::PerfModelParams perf = hpcg::PerfModelParams::Epyc7502P();
  hw::Governor default_governor = hw::Governor::kPerformance;
};

struct RunStats {
  double seconds = 0.0;
  double system_joules = 0.0;
  double cpu_joules = 0.0;
  double gflops = 0.0;     // total FLOPs done / seconds (0 for fixed jobs)
  double avg_cpu_temp = 0.0;
  double avg_system_watts = 0.0;
  double avg_cpu_watts = 0.0;
};

class NodeSim : public ipmi::PowerSource {
 public:
  NodeSim(std::string name, NodeParams params, EventQueue* queue);

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] const hw::MachineSpec& machine() const { return params_.machine; }
  [[nodiscard]] const NodeParams& params() const { return params_; }
  [[nodiscard]] bool idle() const { return !running_; }
  [[nodiscard]] JobId running_job() const { return job_id_; }
  [[nodiscard]] KiloHertz current_frequency() const { return freq_; }

  // Partitions this node belongs to, in cluster-config order. Tagged by
  // ClusterSim at construction; a node in overlapping partitions carries
  // every owner's name (like slurm.conf NodeName= appearing in several
  // PartitionName= lines).
  [[nodiscard]] const std::vector<std::string>& partitions() const {
    return partitions_;
  }
  void AddPartition(const std::string& name) { partitions_.push_back(name); }

  using CompletionCallback = std::function<void(JobId, const RunStats&)>;
  // Observes every energy accrual: (system_watts, cpu_watts, dt_seconds).
  // Used to drive external energy counters (e.g. the RAPL simulator behind
  // acct_gather_energy/rapl) without coupling the node to them.
  using EnergyTap = std::function<void(double, double, double)>;

  // Replaces all installed taps with `tap` (historical single-tap API).
  void SetEnergyTap(EnergyTap tap) {
    energy_taps_.clear();
    AddEnergyTap(std::move(tap));
  }
  // Installs an additional tap; all taps see every accrual, in installation
  // order. The energy ledger and the RAPL/IPMI plugin sources can therefore
  // observe the same node independently.
  void AddEnergyTap(EnergyTap tap) {
    if (tap) energy_taps_.push_back(std::move(tap));
  }

  // Emits to the taps the energy drawn since they last heard from the node:
  // the idle draw since the node last went idle, or the open run segment's
  // energy so far (the segment itself is not restarted, so per-run stats do
  // not depend on when this is called). StartJob flushes the preceding idle
  // gap automatically; call this at end of sim to bill the trailing gap,
  // and before reading a counter the taps feed, so no single emission
  // spans a long run.
  void FlushIdleEnergy();

  // Starts `tasks` ranks of the job's workload on this node. The request's
  // cpu_freq_max (if set) pins the frequency; otherwise the node's default
  // governor rules. Fails if busy or the request exceeds the hardware.
  Status StartJob(const JobRecord& job, int tasks, CompletionCallback on_done);

  // Cancels the running job; the completion callback is NOT invoked.
  // Returns stats for the partial run.
  RunStats CancelJob();

  // Mean system watts of the open run segment (idle draw when idle). Set
  // only at sim events, so it is a pure O(1) read — what the 1 Hz
  // time-series sampler sums instead of evaluating the closed form per node
  // per sample (SystemWatts() stays the exact instantaneous value for
  // IPMI/BMC reads).
  [[nodiscard]] double ReportedWatts() const { return reported_watts_; }

  // ipmi::PowerSource — instantaneous true values, pure reads.
  [[nodiscard]] double SystemWatts() const override;
  [[nodiscard]] double CpuWatts() const override;
  [[nodiscard]] double CpuTempCelsius() const override;

 private:
  // Utilization of the running workload at sim time `t`.
  [[nodiscard]] double UtilizationAt(SimTime t) const;
  // Switches the run to frequency `f`, re-deriving the operating point.
  void SetFrequency(KiloHertz f);
  // Opens a run segment now at die temperature `temp0`; it lasts until the
  // job completes or, under ondemand, until the next governor sample.
  void OpenRunSegment(double temp0);
  // The open run segment's end event.
  void EndRunSegment(SimTime now);
  // Books the first `seconds` of the open run segment (integrals `e`) into
  // the run and sends the taps what FlushIdleEnergy has not yet sent.
  void CloseRunSegment(double seconds, const hw::SegmentEnergy& e);
  // Ends the run at `now` with die temperature `temp` and opens the idle
  // segment; returns the run's stats.
  RunStats EndRun(SimTime now, double temp);
  [[nodiscard]] RunStats FinalStats() const;
  // Fires every tap with `joules`/`cpu_joules` drawn over `dt` seconds.
  void Emit(double joules, double cpu_joules, double dt);
  // Fires the taps with the idle draw over [idle_mark_, now), then moves the
  // mark to `now`.
  void EmitIdleGap(SimTime now);
  // Seconds into the open segment at the current sim time.
  [[nodiscard]] double SegmentClock() const {
    return queue_->now() - seg_start_;
  }

  std::string name_;
  NodeParams params_;
  EventQueue* queue_;
  std::vector<std::string> partitions_;
  hw::PowerModel power_model_;
  hw::DvfsPolicy dvfs_;
  hpcg::HpcgPerfModel perf_model_;

  // Run state.
  bool running_ = false;
  JobId job_id_ = 0;
  WorkloadSpec workload_{};
  int tasks_ = 0;
  bool ht_ = false;
  KiloHertz freq_ = 0;
  // The HPCG model at (tasks_, freq_, ht_); only valid for kHpcg runs.
  hpcg::HpcgPerfModel::OperatingPoint op_{};
  SimTime start_time_ = 0.0;
  double total_work_flops_ = 0.0;  // kHpcg
  double progress_flops_ = 0.0;
  CompletionCallback on_done_;
  std::vector<EnergyTap> energy_taps_;

  // The open segment (run or idle) and, for a run segment, its planned
  // length, whether the job ends with it, its integrals over that length,
  // and what FlushIdleEnergy already sent of it.
  SimTime seg_start_ = 0.0;
  hw::ThermalSegment seg_;
  double seg_seconds_ = 0.0;
  bool seg_completes_ = false;
  hw::SegmentEnergy seg_energy_;
  hw::SegmentEnergy seg_sent_;
  double seg_sent_seconds_ = 0.0;
  std::uint64_t seg_event_ = 0;

  // Constant idle draw (min frequency, thermally settled at the fan knee —
  // the same steady state EstimateJobWatts subtracts) billed to the taps for
  // the gaps between runs. Cached at construction.
  double idle_system_watts_ = 0.0;
  double idle_cpu_watts_ = 0.0;
  // When the node last became idle (construction, job end, or cancel).
  SimTime idle_mark_ = 0.0;
  // The open run segment's mean system watts; idle draw while idle.
  double reported_watts_ = 0.0;

  // Accumulators for the current run.
  double energy_system_j_ = 0.0;
  double energy_cpu_j_ = 0.0;
  double temp_integral_ = 0.0;
  double elapsed_ = 0.0;
};

}  // namespace eco::slurm
