// First-order thermal model of the CPU package.
//
// The die temperature relaxes exponentially toward a steady state
// `T_amb + R_th · P_cpu` with time constant tau. The paper reports average
// CPU temperature dropping from 62.8 °C (standard config, ~120 W CPU) to
// 53.8 °C (best config, ~97 W) — an R_th around 0.3 K/W over ~25 °C ambient,
// which is what the defaults encode.
//
// ThermalSegment is the exact response to one segment's package-draw
// Waveform, which is what lets the node simulation skip time stepping.
#pragma once

#include "hw/power_model.hpp"

namespace eco::hw {

struct ThermalParams {
  double ambient_celsius = 25.0;
  double thermal_resistance_k_per_w = 0.31;
  double time_constant_s = 40.0;

  static ThermalParams Epyc7502P() { return ThermalParams{}; }
};

class ThermalModel {
 public:
  explicit ThermalModel(ThermalParams params)
      : params_(params), temp_(params.ambient_celsius) {}

  [[nodiscard]] double temperature() const { return temp_; }
  [[nodiscard]] const ThermalParams& params() const { return params_; }

  // Steady-state temperature under sustained `cpu_watts`.
  [[nodiscard]] double SteadyState(double cpu_watts) const;

  // Advances the model `dt` seconds with constant `cpu_watts` applied, using
  // the closed-form exponential response (exact for piecewise-constant power,
  // so event-driven simulation introduces no integration error).
  void Advance(double dt_seconds, double cpu_watts);

  void Reset() { temp_ = params_.ambient_celsius; }
  void Reset(double temp_celsius) { temp_ = temp_celsius; }

 private:
  ThermalParams params_;
  double temp_;
};

// The exact response over one segment. The package draws P(x) = `cpu` in
// the phase coordinate x, from phase x0 on, starting at temperature temp0.
// With k_w = R·ripple / (1 + τ²w²), τT' + T = T_amb + R·P(x) solves to
//
//   T(s)   = T_p(x0 + s) + (temp0 − T_p(x0))·e^(−s/τ)
//   T_p(x) = T_amb + R·mean − Σ_w k_w·(sin wx − τw·cos wx)
//
// so T, ∫T and ∫max(0, T − threshold) need no time stepping.
class ThermalSegment {
 public:
  ThermalSegment() = default;
  ThermalSegment(const ThermalParams& params, const Waveform& cpu, double x0,
                 double temp0);

  [[nodiscard]] const Waveform& cpu() const { return cpu_; }
  [[nodiscard]] double x0() const { return x0_; }

  // Temperature `s` seconds into the segment.
  [[nodiscard]] double At(double s) const;
  // ∫ T over [0, s], °C·s.
  [[nodiscard]] double Integral(double s) const;
  // ∫ max(0, T − threshold) over [0, s]. Closed form wherever T is provably
  // on one side of `threshold` (the monotone transient, ± the ripple
  // bound); a fixed-order Gauss–Legendre rule on ≤ 1 s sub-intervals of the
  // band where the ripple may straddle it.
  [[nodiscard]] double IntegralAbove(double threshold, double s) const;

 private:
  // The periodic part of T_p at phase x, and its integral over the first
  // `s` seconds of the segment.
  [[nodiscard]] double Ripple(double x) const;
  [[nodiscard]] double RippleIntegral(double s) const;
  // T_amb + R·mean + offset·e^(−s/τ): T without the ripple, monotone in s.
  [[nodiscard]] double Transient(double s) const;

  Waveform cpu_;
  double x0_ = 0.0;
  double tau_ = 1.0;
  double steady_ = 0.0;        // T_amb + R·mean
  double k1_ = 0.0;            // k_w1, k_w2
  double k2_ = 0.0;
  double offset_ = 0.0;        // temp0 − T_p(x0)
  double ripple_bound_ = 0.0;  // max |Ripple| = Σ R·ripple / √(1 + τ²w²)
};

}  // namespace eco::hw
