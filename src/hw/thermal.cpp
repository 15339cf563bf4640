#include "hw/thermal.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

namespace eco::hw {

double ThermalModel::SteadyState(double cpu_watts) const {
  return params_.ambient_celsius +
         params_.thermal_resistance_k_per_w * cpu_watts;
}

void ThermalModel::Advance(double dt_seconds, double cpu_watts) {
  if (dt_seconds <= 0.0) return;
  const double target = SteadyState(cpu_watts);
  const double decay = std::exp(-dt_seconds / params_.time_constant_s);
  temp_ = target + (temp_ - target) * decay;
}

ThermalSegment::ThermalSegment(const ThermalParams& params,
                               const Waveform& cpu, double x0, double temp0)
    : cpu_(cpu),
      x0_(x0),
      tau_(params.time_constant_s),
      steady_(params.ambient_celsius +
              params.thermal_resistance_k_per_w * cpu.mean) {
  if (cpu_.ripple != 0.0) {
    const double amp = params.thermal_resistance_k_per_w * cpu_.ripple;
    const double d1 = 1.0 + tau_ * tau_ * cpu_.w1 * cpu_.w1;
    const double d2 = 1.0 + tau_ * tau_ * cpu_.w2 * cpu_.w2;
    k1_ = amp / d1;
    k2_ = amp / d2;
    ripple_bound_ = amp / std::sqrt(d1) + amp / std::sqrt(d2);
  }
  offset_ = temp0 - steady_ - Ripple(x0_);
}

double ThermalSegment::Ripple(double x) const {
  if (cpu_.ripple == 0.0) return 0.0;
  const double a = cpu_.w1 * x;
  const double b = cpu_.w2 * x;
  return -k1_ * (std::sin(a) - tau_ * cpu_.w1 * std::cos(a)) -
         k2_ * (std::sin(b) - tau_ * cpu_.w2 * std::cos(b));
}

double ThermalSegment::RippleIntegral(double s) const {
  if (cpu_.ripple == 0.0) return 0.0;
  // ∫ −k·(sin wx − τw·cos wx) = k·(cos wx / w + τ·sin wx), differenced in
  // product form so short segments do not cancel.
  const double mid = x0_ + 0.5 * s;
  const double half = 0.5 * s;
  double total = 0.0;
  for (const auto& [k, w] :
       {std::pair{k1_, cpu_.w1}, std::pair{k2_, cpu_.w2}}) {
    total += k * 2.0 * std::sin(w * half) *
             (tau_ * std::cos(w * mid) - std::sin(w * mid) / w);
  }
  return total;
}

double ThermalSegment::Transient(double s) const {
  return steady_ + offset_ * std::exp(-s / tau_);
}

double ThermalSegment::At(double s) const {
  return Transient(s) + Ripple(x0_ + s);
}

double ThermalSegment::Integral(double s) const {
  return steady_ * s + RippleIntegral(s) -
         offset_ * tau_ * std::expm1(-s / tau_);
}

double ThermalSegment::IntegralAbove(double threshold, double s) const {
  if (s <= 0.0) return 0.0;
  // Cut [0, s] where the transient crosses threshold ± ripple bound; each
  // piece then lies wholly above, wholly below, or in the band.
  double cuts[4] = {0.0, s, s, s};
  int n = 1;
  for (const double level :
       {threshold - ripple_bound_, threshold + ripple_bound_}) {
    const double ratio = offset_ != 0.0 ? (level - steady_) / offset_ : 0.0;
    if (ratio > 0.0 && ratio < 1.0) {
      const double t = -tau_ * std::log(ratio);
      if (t < s) cuts[n++] = t;
    }
  }
  cuts[n++] = s;
  std::sort(cuts, cuts + n);

  // 8-point Gauss–Legendre nodes and weights on [-1, 1].
  static constexpr double kNode[4] = {0.1834346424956498, 0.5255324099163290,
                                      0.7966664774136267, 0.9602898564975363};
  static constexpr double kWeight[4] = {0.3626837833783620, 0.3137066458778873,
                                        0.2223810344533745, 0.1012285362903763};
  constexpr double kMaxStep = 1.0;  // s; well under the ripple periods
  double total = 0.0;
  for (int i = 0; i + 1 < n; ++i) {
    const double a = cuts[i];
    const double b = cuts[i + 1];
    if (b <= a) continue;
    const double m = Transient(0.5 * (a + b));
    if (m - ripple_bound_ >= threshold) {
      total += Integral(b) - Integral(a) - threshold * (b - a);
    } else if (m + ripple_bound_ > threshold) {
      const int steps =
          std::max(1, static_cast<int>(std::ceil((b - a) / kMaxStep)));
      const double h = (b - a) / steps;
      for (int j = 0; j < steps; ++j) {
        const double c = a + (j + 0.5) * h;
        for (int q = 0; q < 4; ++q) {
          const double d = 0.5 * h * kNode[q];
          total += 0.5 * h * kWeight[q] *
                   (std::max(0.0, At(c - d) - threshold) +
                    std::max(0.0, At(c + d) - threshold));
        }
      }
    }
  }
  return total;
}

}  // namespace eco::hw
