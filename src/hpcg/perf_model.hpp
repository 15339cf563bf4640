// Analytic HPCG performance model.
//
// The paper benchmarks real 20-minute HPCG runs per configuration; the
// simulator needs the same response surface in microseconds. The model is a
// roofline-style closed form fitted to the paper's Tables 4-6:
//
//   GFLOPS(n, f, ht) = A · n^core_exp · f_ghz^eps(n) · h(n, ht)
//
//   eps(n) = eps_floor + (1 - eps_floor) · exp(-(n-1)/eps_decay)
//
// `eps(n)` is the *frequency elasticity*: ~1 at one core (compute bound — a
// faster clock converts directly into FLOPS) and ~0.26 at 32 cores (memory
// bound — HPCG saturates the memory channels and extra clock mostly stalls).
// This single mechanism reproduces the paper's crossover: below ~10 cores the
// highest frequency wins GFLOPS/W because idle power dominates ("race to
// idle"); from ~12 cores up, 2.2 GHz wins; at 32 cores the paper's best
// configuration (32 c @ 2.2 GHz, no HT) emerges.
//
// h(n, ht) is the hyper-threading factor: a small gain at low core counts
// (the second hardware thread hides memory latency) decaying into a small
// loss at high counts (threads share L1/L2 and the channels are already
// saturated) — the paper's observations (2) and (3) in §5.2.1.
//
// HPCG is run in weak scaling: the problem (default 104³) is the *local* grid
// per rank, so total work scales with the rank count — that is why 32 ranks
// of a 104³ problem need ~32 GB of the node's 256 GB (12.5 %), matching §5.2.
//
// Calibration loop: the paper-fitted defaults stay the defaults, but the
// model can be refitted from a measured kernel roofline
// (BENCH_p4_kernel_roofline.json, produced by bench_p4_kernel_roofline) via
// KernelCalibration + CalibrateFrom(), so node_sim durations and Chronus
// GFLOPS/W rankings derive from the kernels this repo actually runs instead
// of the paper's hardware. Set ECO_PERF_CALIBRATION=<artifact path> to apply
// it to every simulated node.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/json.hpp"
#include "common/units.hpp"
#include "hw/cpu_spec.hpp"

namespace eco::hpcg {

struct HpcgProblem {
  int nx = 104;
  int ny = 104;
  int nz = 104;

  [[nodiscard]] std::uint64_t LocalPoints() const {
    return static_cast<std::uint64_t>(nx) * ny * nz;
  }
  // Approximate working-set bytes per grid point (matrix + MG hierarchy +
  // vectors), calibrated so 32 ranks × 104³ ≈ 32 GB as the paper reports.
  [[nodiscard]] std::uint64_t LocalBytes() const { return LocalPoints() * 888; }
  // FLOPs per point per CG iteration (SpMV + MG/SymGS + vector ops).
  static constexpr double kFlopsPerPointPerIteration = 308.0;

  static HpcgProblem Official() { return HpcgProblem{}; }
};

struct PerfModelParams {
  double reference_gflops = 9.35;  // 32 c @ 2.5 GHz, no HT (paper Figure 1)
  int reference_cores = 32;
  double reference_ghz = 2.5;
  double core_exponent = 0.90;
  double eps_floor = 0.26;
  double eps_decay = 8.0;
  double ht_gain = 0.030;     // low-core-count HT benefit
  double ht_gain_decay = 8.0;
  double ht_penalty = 0.005;  // HT loss at full core count
  // Per-core compute capability (GFLOPS per GHz) used for the utilization /
  // headroom estimate that drives power-trace variability.
  double compute_gflops_per_ghz = 0.55;
  // Power-trace modulation: above the V/f knee the package dips in and out
  // of boost residency as stall density fluctuates between CG phases, so the
  // power trace is visibly less stable at 2.5 GHz than pinned at 2.2 GHz
  // (paper Figure 15).
  double phase_amp_base = 0.02;
  double phase_amp_per_ghz_above_knee = 0.30;
  double knee_ghz = 2.2;
  double phase_period_s = 45.0;
  // FLOPs per grid point per CG iteration. Defaults to the official HPCG
  // accounting; calibration keeps it in the params so TotalFlopsFor /
  // IterationsForDuration stay consistent with whatever fit is in force.
  double flops_per_point = HpcgProblem::kFlopsPerPointPerIteration;

  static PerfModelParams Epyc7502P() { return PerfModelParams{}; }
};

// A measured kernel roofline, distilled from a BENCH_p4_kernel_roofline
// artifact into exactly what CalibrateFrom() needs:
//   - composite whole-iteration GFLOPS per measured worker count (the
//     SpMV/SymGS/BLAS-1 rates combined as a flop-share-weighted harmonic
//     mean, i.e. time-weighted over one CG iteration);
//   - the streaming bandwidth the BLAS-1 kernels achieved and the best SpMV
//     rate across ISA tiers, which together locate the machine-balance
//     point the elasticity floor is derived from.
struct KernelCalibration {
  struct Point {
    int cores = 0;
    double gflops = 0.0;
  };
  std::vector<Point> points;           // sorted by cores, ascending
  double stream_bandwidth_gbs = 0.0;   // best of dot/waxpby × 8 B/flop
  double peak_gflops = 0.0;            // best SpMV over every measured tier
  double iteration_bytes_per_flop = 0.0;  // flop-share-weighted B/flop
  std::string isa_tier;                // tier the unsuffixed rows ran under
  std::string source;                  // artifact path ("" when from JSON)

  // Distils a parsed artifact body ({"bench": ..., "metrics": {...}}).
  // Fails when the required spmv/symgs keys are missing or non-positive.
  static Result<KernelCalibration> FromArtifact(const Json& artifact);
  // Reads and parses `path`, then distils it.
  static Result<KernelCalibration> FromFile(const std::string& path);
};

class HpcgPerfModel {
 public:
  explicit HpcgPerfModel(PerfModelParams params = PerfModelParams::Epyc7502P());

  [[nodiscard]] const PerfModelParams& params() const { return params_; }

  // Sustained GFLOPS for `cores` ranks at frequency `f`, hyper-threading
  // on/off. `cores` is the number of physical cores used (the paper's
  // --ntasks); HT controls threads-per-core.
  [[nodiscard]] double Gflops(int cores, KiloHertz f, bool ht) const;

  // Frequency elasticity at this core count (exposed for tests/ablations).
  [[nodiscard]] double FrequencyElasticity(int cores) const;

  // Mean utilization fed to the power model (1.0: stalled cores still burn
  // the stall fraction; the dynamic remainder tracks issue density).
  [[nodiscard]] double MeanUtilization(int cores, KiloHertz f, bool ht) const;

  // Time-varying utilization for power traces: mean utilization modulated by
  // the CG phase cycle. Deterministic in `t`.
  [[nodiscard]] double UtilizationAt(double t_seconds, int cores, KiloHertz f,
                                     bool ht) const;

  // The time-independent part of a (cores, f, ht) configuration, so a
  // simulated run can evaluate it once per frequency instead of once per
  // tick. Built from the same expressions as the per-call functions above,
  // so both paths return the same bits.
  struct OperatingPoint {
    double gflops = 0.0;            // Gflops(cores, f, ht)
    double mean_utilization = 0.0;  // MeanUtilization(cores, f, ht)
    double phase_amplitude = 0.0;   // depth of the CG phase modulation
  };
  [[nodiscard]] OperatingPoint OperatingPointFor(int cores, KiloHertz f,
                                                 bool ht) const;
  // UtilizationAt(t, cores, f, ht) for the configuration `op` describes.
  [[nodiscard]] double UtilizationAt(double t_seconds,
                                     const OperatingPoint& op) const;

  // Total FLOPs of a weak-scaled run: `cores` ranks × local problem ×
  // `iterations` CG iterations, at the official HPCG flop accounting.
  [[nodiscard]] static double TotalFlops(const HpcgProblem& problem, int cores,
                                         int iterations);
  // Same, at this model's (possibly calibrated) flops_per_point — the
  // counterpart IterationsForDuration sizes against, so duration × GFLOPS
  // round-trips exactly through the pair.
  [[nodiscard]] double TotalFlopsFor(const HpcgProblem& problem, int cores,
                                     int iterations) const;

  // Iteration count that makes the reference configuration run for
  // `target_seconds` (HPCG's "official run" sizing). The paper's runs target
  // ~20 minutes; Table 2 reports 18:29 measured at the standard config.
  [[nodiscard]] int IterationsForDuration(const HpcgProblem& problem,
                                          double target_seconds) const;

  // Refits the reference point (cores, GFLOPS), the core-scaling exponent
  // (log-log least squares over the measured points, clamped to [0.3, 1.0])
  // and the elasticity floor (compute fraction at the machine-balance
  // point) from a measured roofline. By construction the refitted model
  // reproduces the measured composite GFLOPS at the reference worker count
  // exactly. Returns false — leaving the model untouched — when the
  // calibration has no usable points.
  bool CalibrateFrom(const KernelCalibration& cal);

 private:
  [[nodiscard]] double MeanUtilizationFrom(double gflops, int cores,
                                           KiloHertz f) const;

  PerfModelParams params_;
  double scale_;  // A in the formula, derived from the reference point
};

// When ECO_PERF_CALIBRATION names a readable roofline artifact, refits
// `model` from it; otherwise a no-op. The artifact is read and parsed once
// per process (an unreadable path warns once and is then ignored). NodeSim
// calls this at construction, so every simulated node — and therefore every
// Chronus sweep — runs on the measured kernels when the variable is set.
void ApplyEnvCalibration(HpcgPerfModel* model);

}  // namespace eco::hpcg
