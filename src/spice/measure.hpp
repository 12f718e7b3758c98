#pragma once
// Post-processing measurements on analysis results (the ".measure" layer).

#include <complex>
#include <optional>
#include <string>
#include <vector>

#include "spice/circuit.hpp"
#include "spice/simulator.hpp"

namespace olp::spice {

/// Logarithmically spaced frequency grid from f_lo to f_hi inclusive.
std::vector<double> log_frequencies(double f_lo, double f_hi,
                                    int points_per_decade = 20);

/// Magnitude response (absolute, not dB) of a node across an AC result.
std::vector<double> ac_magnitude(const Simulator& sim, const AcResult& ac,
                                 NodeId node);
/// Differential magnitude |V(p) - V(n)|.
std::vector<double> ac_magnitude_diff(const Simulator& sim, const AcResult& ac,
                                      NodeId p, NodeId n);
/// Unwrapped phase response [degrees] of a node.
std::vector<double> ac_phase_deg(const Simulator& sim, const AcResult& ac,
                                 NodeId node);

double db(double magnitude);

/// Frequency where the magnitude crosses `level` (first downward crossing),
/// log-interpolated; nullopt when no crossing exists in the sweep.
std::optional<double> crossing_frequency(const std::vector<double>& freqs,
                                         const std::vector<double>& mags,
                                         double level);

/// Unity-gain frequency of a magnitude response.
std::optional<double> unity_gain_frequency(const std::vector<double>& freqs,
                                           const std::vector<double>& mags);

/// -3 dB bandwidth relative to the DC (first-sample) magnitude.
std::optional<double> bandwidth_3db(const std::vector<double>& freqs,
                                    const std::vector<double>& mags);

/// Phase margin [degrees]: 180 + phase at the unity-gain frequency.
std::optional<double> phase_margin_deg(const std::vector<double>& freqs,
                                       const std::vector<double>& mags,
                                       const std::vector<double>& phases_deg);

/// Time-domain waveform of one node extracted from a transient result.
std::vector<double> tran_waveform(const Simulator& sim, const TranResult& tr,
                                  NodeId node);
/// Branch current waveform of a voltage source.
std::vector<double> tran_source_current(const Simulator& sim,
                                        const TranResult& tr,
                                        const std::string& vsource);

/// Times at which `wave` crosses `level` in the given direction, linearly
/// interpolated between samples.
std::vector<double> crossing_times(const std::vector<double>& times,
                                   const std::vector<double>& wave,
                                   double level, bool rising);

/// Delay from the k-th crossing of `ref` to the first crossing of `sig` at or
/// after it, decided one sample at a time. add() returns true from the first
/// sample at which that delay is known; later samples cannot change it, and
/// it ignores them. delay_between runs on this tracker, so a transient that
/// ends at the deciding sample (TranOptions::stop_when) measures the same
/// bits as one that runs its full window.
class DelayTracker {
 public:
  DelayTracker(double ref_level, bool ref_rising, double sig_level,
               bool sig_rising, int ref_skip = 0);

  /// Feeds the next sample (times non-decreasing); returns done().
  bool add(double t, double ref, double sig);
  bool done() const { return delay_.has_value(); }
  /// The delay once done(), nullopt before.
  std::optional<double> delay() const { return delay_; }

 private:
  double ref_level_, sig_level_;
  bool ref_rising_, sig_rising_;
  int ref_skip_;
  bool started_ = false;  ///< a previous sample is held
  double t_prev_ = 0.0, ref_prev_ = 0.0, sig_prev_ = 0.0;
  int ref_crossings_ = 0;
  std::optional<double> t_ref_;
  /// Crossings of `sig` seen while t_ref_ was still unknown.
  std::vector<double> sig_before_ref_;
  std::optional<double> delay_;
};

/// Delay from the k-th crossing of `ref` to the first subsequent crossing of
/// `sig` (DelayTracker over every sample); nullopt when either crossing does
/// not occur.
std::optional<double> delay_between(const std::vector<double>& times,
                                    const std::vector<double>& ref,
                                    double ref_level, bool ref_rising,
                                    const std::vector<double>& sig,
                                    double sig_level, bool sig_rising,
                                    int ref_skip = 0);

/// Oscillation frequency from the mean period of the last `periods` rising
/// crossings of `level`; nullopt when fewer crossings exist.
std::optional<double> oscillation_frequency(const std::vector<double>& times,
                                            const std::vector<double>& wave,
                                            double level, int periods = 5);

/// Average of w over the time window [t0, t1] (trapezoidal).
double time_average(const std::vector<double>& times,
                    const std::vector<double>& wave, double t0, double t1);

/// Average power delivered by the named DC supply over [t0, t1]:
/// mean(-V * I_branch) with the SPICE branch-current sign convention.
double average_supply_power(const Simulator& sim, const TranResult& tr,
                            const std::string& vsource, double t0, double t1);

}  // namespace olp::spice
