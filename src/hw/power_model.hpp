// Node power model.
//
// System power decomposes as
//
//   P_sys = P_platform + P_uncore(f) + sum_over_active_cores P_core(f, ht, u)
//           + P_fan(T_cpu)
//
// with the per-core term combining static leakage and dynamic power
// `k · f · V(f)²` (the classic DVFS law). V(f) has a *voltage floor*: below
// `voltage_floor_freq` the regulator cannot drop voltage further, so power
// scales roughly linearly in f — this is what makes 1.5 GHz save only a
// little over 2.2 GHz on the paper's EPYC 7502P while 2.5 GHz costs a lot
// (it sits above the knee of the V/f curve).
//
// Calibration reproduces the paper's measurements in shape:
//   32 c @ 2.5 GHz (standard): ~120 W CPU, ~216 W system
//   32 c @ 2.2 GHz (best):     ~ 97 W CPU, ~190 W system
//   32 c @ 1.5 GHz:            ~ 175 W system
//
// Within a segment (tasks, frequency and HT fixed) utilization is a
// Waveform and CpuPower is affine in it, so the package draw is a Waveform
// too; Integrate() turns one segment into joules and °C·s in closed form.
#pragma once

#include "common/units.hpp"
#include "hw/cpu_spec.hpp"

namespace eco::hw {

// v(x) = mean − ripple·(sin w1·x + sin w2·x): HPCG's CG-phase utilization
// and, rescaled, the package draw it causes. ripple = 0 is a constant.
struct Waveform {
  double mean = 0.0;
  double ripple = 0.0;
  double w1 = 0.0;  // rad/s
  double w2 = 0.0;

  [[nodiscard]] double At(double x) const;
  // ∫ v over [x0, x0 + len], exact.
  [[nodiscard]] double Integral(double x0, double len) const;
};

class ThermalSegment;

// One segment's integrals.
struct SegmentEnergy {
  double cpu_joules = 0.0;
  double system_joules = 0.0;
  double temp_integral = 0.0;  // ∫ T_cpu dt, °C·s
};

struct PowerModelParams {
  // Chassis, RAM, NICs, disks — everything that is not CPU or fans.
  double platform_watts = 70.0;
  // SoC / IO-die power: base + slope · f_ghz while any core is active.
  double uncore_base_watts = 12.0;
  double uncore_per_ghz_watts = 3.0;
  double uncore_idle_watts = 14.0;  // package power with all cores parked
  // Per-core static (leakage + clocks) when unparked.
  double core_static_watts = 1.35;
  // Dynamic coefficient: P_dyn = k · f_ghz · V(f)².
  double core_dynamic_coeff = 0.88;
  // V(f): flat at `voltage_floor_volts` up to `voltage_floor_freq`, then
  // linear with `voltage_slope_per_ghz`.
  double voltage_floor_volts = 0.95;
  KiloHertz voltage_floor_freq = GHzToKiloHertz(2.2);
  double voltage_slope_per_ghz = 0.78;
  // Hyper-threading keeps both hardware threads' pipelines fed; it costs a
  // small per-core power increase.
  double ht_power_factor = 1.008;
  // Fraction of dynamic power that is burned even when the core only stalls
  // on memory (clock tree, speculation). u=1 jobs pay full dynamic power.
  double stall_power_fraction = 0.35;
  // Fans: baseline + proportional above `fan_knee_celsius`.
  double fan_base_watts = 5.0;
  double fan_per_celsius_watts = 0.25;
  double fan_knee_celsius = 40.0;

  static PowerModelParams Epyc7502P() { return PowerModelParams{}; }
};

struct PowerBreakdown {
  double cpu_watts = 0.0;   // uncore + cores (what IPMI's CPU sensor reports)
  double fan_watts = 0.0;
  double platform_watts = 0.0;
  double system_watts = 0.0;  // total DC draw
};

class PowerModel {
 public:
  explicit PowerModel(PowerModelParams params) : params_(params) {}

  [[nodiscard]] const PowerModelParams& params() const { return params_; }

  // Core supply voltage at frequency `f`.
  [[nodiscard]] double Voltage(KiloHertz f) const;

  // Package power for `active_cores` cores at frequency `f`.
  // `utilization` in [0,1] scales the dynamic component above the stall
  // floor; `ht` indicates both hardware threads are in use.
  [[nodiscard]] double CpuPower(int active_cores, KiloHertz f, bool ht,
                                double utilization) const;

  // CpuPower for a utilization that follows `utilization` (which must stay
  // within [0, 1]): affine in u, so the same waveform rescaled. Idle
  // (active_cores <= 0) is the constant uncore draw.
  [[nodiscard]] Waveform CpuWave(int active_cores, KiloHertz f, bool ht,
                                 const Waveform& utilization) const;

  [[nodiscard]] double FanPower(double cpu_temp_celsius) const;

  // Full node draw given CPU load state and current CPU temperature.
  [[nodiscard]] PowerBreakdown SystemPower(int active_cores, KiloHertz f,
                                           bool ht, double utilization,
                                           double cpu_temp_celsius) const;

  // Integrals over the first `seconds` of `segment`: CPU joules from its
  // draw waveform, fan joules from its temperature above the knee, the
  // platform's constant draw, and ∫T.
  [[nodiscard]] SegmentEnergy Integrate(const ThermalSegment& segment,
                                        double seconds) const;

 private:
  PowerModelParams params_;
};

}  // namespace eco::hw
