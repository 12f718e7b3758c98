#include "spice/measure.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace olp::spice {

std::vector<double> log_frequencies(double f_lo, double f_hi,
                                    int points_per_decade) {
  OLP_CHECK(f_lo > 0 && f_hi > f_lo, "bad frequency range");
  OLP_CHECK(points_per_decade >= 1, "need at least one point per decade");
  std::vector<double> freqs;
  const double decades = std::log10(f_hi / f_lo);
  const int n = std::max(2, static_cast<int>(std::ceil(decades * points_per_decade)) + 1);
  for (int i = 0; i < n; ++i) {
    const double frac = static_cast<double>(i) / (n - 1);
    freqs.push_back(f_lo * std::pow(10.0, frac * decades));
  }
  return freqs;
}

std::vector<double> ac_magnitude(const Simulator& sim, const AcResult& ac,
                                 NodeId node) {
  std::vector<double> mags;
  mags.reserve(ac.solutions.size());
  for (const auto& x : ac.solutions) {
    mags.push_back(std::abs(sim.ac_voltage(x, node)));
  }
  return mags;
}

std::vector<double> ac_magnitude_diff(const Simulator& sim, const AcResult& ac,
                                      NodeId p, NodeId n) {
  std::vector<double> mags;
  mags.reserve(ac.solutions.size());
  for (const auto& x : ac.solutions) {
    mags.push_back(std::abs(sim.ac_voltage(x, p) - sim.ac_voltage(x, n)));
  }
  return mags;
}

std::vector<double> ac_phase_deg(const Simulator& sim, const AcResult& ac,
                                 NodeId node) {
  std::vector<double> phases;
  phases.reserve(ac.solutions.size());
  double prev = 0.0;
  bool first = true;
  for (const auto& x : ac.solutions) {
    double ph = std::arg(sim.ac_voltage(x, node)) * 180.0 / M_PI;
    if (!first) {
      // Unwrap: keep successive samples within 180 degrees of each other.
      while (ph - prev > 180.0) ph -= 360.0;
      while (ph - prev < -180.0) ph += 360.0;
    }
    prev = ph;
    first = false;
    phases.push_back(ph);
  }
  return phases;
}

double db(double magnitude) { return 20.0 * std::log10(magnitude); }

std::optional<double> crossing_frequency(const std::vector<double>& freqs,
                                         const std::vector<double>& mags,
                                         double level) {
  OLP_CHECK(freqs.size() == mags.size(), "freq/mag size mismatch");
  for (std::size_t i = 1; i < mags.size(); ++i) {
    if (mags[i - 1] >= level && mags[i] < level) {
      // Interpolate in log-frequency / log-magnitude space.
      const double l0 = std::log10(std::max(mags[i - 1], 1e-30));
      const double l1 = std::log10(std::max(mags[i], 1e-30));
      const double lt = std::log10(level);
      const double frac = (l0 - lt) / std::max(l0 - l1, 1e-30);
      const double lf = std::log10(freqs[i - 1]) +
                        frac * (std::log10(freqs[i]) - std::log10(freqs[i - 1]));
      return std::pow(10.0, lf);
    }
  }
  return std::nullopt;
}

std::optional<double> unity_gain_frequency(const std::vector<double>& freqs,
                                           const std::vector<double>& mags) {
  return crossing_frequency(freqs, mags, 1.0);
}

std::optional<double> bandwidth_3db(const std::vector<double>& freqs,
                                    const std::vector<double>& mags) {
  OLP_CHECK(!mags.empty(), "empty magnitude response");
  return crossing_frequency(freqs, mags, mags.front() / std::sqrt(2.0));
}

std::optional<double> phase_margin_deg(const std::vector<double>& freqs,
                                       const std::vector<double>& mags,
                                       const std::vector<double>& phases_deg) {
  OLP_CHECK(freqs.size() == mags.size() && freqs.size() == phases_deg.size(),
            "freq/mag/phase size mismatch");
  const std::optional<double> ugf = unity_gain_frequency(freqs, mags);
  if (!ugf) return std::nullopt;
  // Linear interpolation of the phase at the UGF.
  for (std::size_t i = 1; i < freqs.size(); ++i) {
    if (freqs[i] >= *ugf) {
      const double frac =
          (std::log10(*ugf) - std::log10(freqs[i - 1])) /
          (std::log10(freqs[i]) - std::log10(freqs[i - 1]));
      const double ph =
          phases_deg[i - 1] + frac * (phases_deg[i] - phases_deg[i - 1]);
      return 180.0 + ph;
    }
  }
  return std::nullopt;
}

std::vector<double> tran_waveform(const Simulator& sim, const TranResult& tr,
                                  NodeId node) {
  std::vector<double> wave;
  wave.reserve(tr.samples.size());
  for (const auto& x : tr.samples) wave.push_back(sim.voltage(x, node));
  return wave;
}

std::vector<double> tran_source_current(const Simulator& sim,
                                        const TranResult& tr,
                                        const std::string& vsource) {
  std::vector<double> wave;
  wave.reserve(tr.samples.size());
  for (const auto& x : tr.samples) {
    wave.push_back(sim.vsource_current(x, vsource));
  }
  return wave;
}

namespace {

/// The crossing of `level` between samples (t0, w0) and (t1, w1) in the
/// given direction, linearly interpolated; nullopt when there is none.
std::optional<double> crossing(double t0, double w0, double t1, double w1,
                               double level, bool rising) {
  const bool crossed =
      rising ? (w0 < level && w1 >= level) : (w0 > level && w1 <= level);
  if (!crossed) return std::nullopt;
  const double dv = w1 - w0;
  const double frac = dv == 0.0 ? 0.0 : (level - w0) / dv;
  return t0 + frac * (t1 - t0);
}

}  // namespace

std::vector<double> crossing_times(const std::vector<double>& times,
                                   const std::vector<double>& wave,
                                   double level, bool rising) {
  OLP_CHECK(times.size() == wave.size(), "time/wave size mismatch");
  std::vector<double> crossings;
  for (std::size_t i = 1; i < wave.size(); ++i) {
    if (const auto t = crossing(times[i - 1], wave[i - 1], times[i], wave[i],
                                level, rising)) {
      crossings.push_back(*t);
    }
  }
  return crossings;
}

DelayTracker::DelayTracker(double ref_level, bool ref_rising,
                           double sig_level, bool sig_rising, int ref_skip)
    : ref_level_(ref_level),
      sig_level_(sig_level),
      ref_rising_(ref_rising),
      sig_rising_(sig_rising),
      ref_skip_(ref_skip) {
  OLP_CHECK(ref_skip >= 0, "ref_skip must be >= 0");
}

bool DelayTracker::add(double t, double ref, double sig) {
  if (done()) return true;
  if (started_) {
    if (!t_ref_) {
      const auto tr =
          crossing(t_prev_, ref_prev_, t, ref, ref_level_, ref_rising_);
      if (tr && ref_crossings_++ == ref_skip_) {
        t_ref_ = tr;
        // The first crossing of sig at or after t_ref, in sample order.
        for (double ts : sig_before_ref_) {
          if (ts >= *t_ref_) {
            delay_ = ts - *t_ref_;
            break;
          }
        }
      }
    }
    const auto ts =
        crossing(t_prev_, sig_prev_, t, sig, sig_level_, sig_rising_);
    if (ts && !delay_) {
      if (!t_ref_) {
        sig_before_ref_.push_back(*ts);
      } else if (*ts >= *t_ref_) {
        delay_ = *ts - *t_ref_;
      }
    }
  }
  started_ = true;
  t_prev_ = t;
  ref_prev_ = ref;
  sig_prev_ = sig;
  return done();
}

std::optional<double> delay_between(const std::vector<double>& times,
                                    const std::vector<double>& ref,
                                    double ref_level, bool ref_rising,
                                    const std::vector<double>& sig,
                                    double sig_level, bool sig_rising,
                                    int ref_skip) {
  OLP_CHECK(times.size() == ref.size() && times.size() == sig.size(),
            "time/wave size mismatch");
  DelayTracker tracker(ref_level, ref_rising, sig_level, sig_rising,
                       ref_skip);
  for (std::size_t i = 0; i < times.size(); ++i) {
    if (tracker.add(times[i], ref[i], sig[i])) break;
  }
  return tracker.delay();
}

std::optional<double> oscillation_frequency(const std::vector<double>& times,
                                            const std::vector<double>& wave,
                                            double level, int periods) {
  OLP_CHECK(periods >= 1, "need at least one period");
  const std::vector<double> rises = crossing_times(times, wave, level, true);
  if (static_cast<int>(rises.size()) < periods + 1) return std::nullopt;
  const std::size_t last = rises.size() - 1;
  const double span =
      rises[last] - rises[last - static_cast<std::size_t>(periods)];
  if (span <= 0) return std::nullopt;
  return static_cast<double>(periods) / span;
}

double time_average(const std::vector<double>& times,
                    const std::vector<double>& wave, double t0, double t1) {
  OLP_CHECK(times.size() == wave.size(), "time/wave size mismatch");
  OLP_CHECK(t1 > t0, "bad averaging window");
  double acc = 0.0;
  double span = 0.0;
  for (std::size_t i = 1; i < times.size(); ++i) {
    const double a = std::max(times[i - 1], t0);
    const double b = std::min(times[i], t1);
    if (b <= a) continue;
    // Trapezoid over the clipped interval (waveform treated linear in it).
    const double dt_full = times[i] - times[i - 1];
    auto value_at = [&](double t) {
      if (dt_full <= 0) return wave[i];
      const double frac = (t - times[i - 1]) / dt_full;
      return wave[i - 1] + frac * (wave[i] - wave[i - 1]);
    };
    acc += 0.5 * (value_at(a) + value_at(b)) * (b - a);
    span += b - a;
  }
  return span > 0 ? acc / span : 0.0;
}

double average_supply_power(const Simulator& sim, const TranResult& tr,
                            const std::string& vsource, double t0, double t1) {
  const std::vector<double> i = tran_source_current(sim, tr, vsource);
  std::vector<double> p(i.size());
  const Circuit& ckt = sim.circuit();
  const VSource& vs =
      ckt.vsources()[static_cast<std::size_t>(ckt.find_vsource(vsource))];
  for (std::size_t k = 0; k < i.size(); ++k) {
    const double t = tr.times[k];
    // Branch current flows p -> n inside the source; a supply delivering
    // power has negative branch current, hence the minus sign.
    p[k] = -vs.wave.value(t) * i[k];
  }
  return time_average(tr.times, p, t0, t1);
}

}  // namespace olp::spice
