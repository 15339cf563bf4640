#include "hw/power_model.hpp"

#include <algorithm>
#include <cmath>

#include "hw/thermal.hpp"

namespace eco::hw {

double Waveform::At(double x) const {
  if (ripple == 0.0) return mean;
  return mean - ripple * (std::sin(w1 * x) + std::sin(w2 * x));
}

double Waveform::Integral(double x0, double len) const {
  double total = mean * len;
  if (ripple == 0.0) return total;
  // cos(w·b) − cos(w·a) = −2·sin(w·mid)·sin(w·half): no cancellation on
  // short segments.
  const double mid = x0 + 0.5 * len;
  const double half = 0.5 * len;
  for (const double w : {w1, w2}) {
    total -= ripple * 2.0 * std::sin(w * mid) * std::sin(w * half) / w;
  }
  return total;
}

double PowerModel::Voltage(KiloHertz f) const {
  const double f_ghz = KiloHertzToGHz(f);
  const double knee_ghz = KiloHertzToGHz(params_.voltage_floor_freq);
  if (f_ghz <= knee_ghz) return params_.voltage_floor_volts;
  return params_.voltage_floor_volts +
         params_.voltage_slope_per_ghz * (f_ghz - knee_ghz);
}

double PowerModel::CpuPower(int active_cores, KiloHertz f, bool ht,
                            double utilization) const {
  utilization = std::clamp(utilization, 0.0, 1.0);
  if (active_cores <= 0) return params_.uncore_idle_watts;

  const double f_ghz = KiloHertzToGHz(f);
  const double v = Voltage(f);
  const double dyn_scale =
      params_.stall_power_fraction +
      (1.0 - params_.stall_power_fraction) * utilization;
  double per_core = params_.core_static_watts +
                    params_.core_dynamic_coeff * f_ghz * v * v * dyn_scale;
  if (ht) per_core *= params_.ht_power_factor;

  const double uncore =
      params_.uncore_base_watts + params_.uncore_per_ghz_watts * f_ghz;
  return uncore + per_core * active_cores;
}

Waveform PowerModel::CpuWave(int active_cores, KiloHertz f, bool ht,
                             const Waveform& utilization) const {
  Waveform out = utilization;
  out.mean = CpuPower(active_cores, f, ht, utilization.mean);
  out.ripple = 0.0;
  if (active_cores > 0 && utilization.ripple != 0.0) {
    // dCpuPower/du: the dynamic term above the stall floor.
    const double v = Voltage(f);
    double slope = params_.core_dynamic_coeff * KiloHertzToGHz(f) * v * v *
                   (1.0 - params_.stall_power_fraction);
    if (ht) slope *= params_.ht_power_factor;
    out.ripple = slope * active_cores * utilization.ripple;
  }
  return out;
}

double PowerModel::FanPower(double cpu_temp_celsius) const {
  const double above = std::max(0.0, cpu_temp_celsius - params_.fan_knee_celsius);
  return params_.fan_base_watts + params_.fan_per_celsius_watts * above;
}

PowerBreakdown PowerModel::SystemPower(int active_cores, KiloHertz f, bool ht,
                                       double utilization,
                                       double cpu_temp_celsius) const {
  PowerBreakdown out;
  out.cpu_watts = CpuPower(active_cores, f, ht, utilization);
  out.fan_watts = FanPower(cpu_temp_celsius);
  out.platform_watts = params_.platform_watts;
  out.system_watts = out.cpu_watts + out.fan_watts + out.platform_watts;
  return out;
}

SegmentEnergy PowerModel::Integrate(const ThermalSegment& segment,
                                    double seconds) const {
  SegmentEnergy out;
  if (seconds <= 0.0) return out;
  out.cpu_joules = segment.cpu().Integral(segment.x0(), seconds);
  out.temp_integral = segment.Integral(seconds);
  const double fan_joules =
      params_.fan_base_watts * seconds +
      params_.fan_per_celsius_watts *
          segment.IntegralAbove(params_.fan_knee_celsius, seconds);
  out.system_joules =
      out.cpu_joules + fan_joules + params_.platform_watts * seconds;
  return out;
}

}  // namespace eco::hw
