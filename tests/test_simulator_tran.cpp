// Transient analysis tests: RC step responses against the analytic solution,
// integration-method behavior, initial conditions, and the time-domain
// measurement helpers.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "circuits/common.hpp"
#include "spice/measure.hpp"
#include "spice/simulator.hpp"
#include "util/budget.hpp"
#include "util/diag.hpp"
#include "util/obs.hpp"
#include "util/rng.hpp"

namespace olp::spice {
namespace {

/// RC charging circuit: step source, tau = 1 ns.
Circuit rc_step(double r = 1e3, double c_val = 1e-12) {
  Circuit c;
  const NodeId in = c.node("in");
  const NodeId out = c.node("out");
  c.add_vsource("vin", in, kGround,
                Waveform::pulse(0.0, 1.0, 0.1e-9, 1e-12, 1e-12, 100e-9,
                                200e-9));
  c.add_resistor("r", in, out, r);
  c.add_capacitor("c", out, kGround, c_val);
  return c;
}

TEST(Tran, RcStepMatchesAnalytic) {
  const Circuit c = rc_step();
  Simulator sim(c);
  TranOptions tr;
  tr.tstop = 5e-9;
  tr.dt = 5e-12;
  const TranResult res = sim.tran(tr);
  ASSERT_TRUE(res.ok);
  const std::vector<double> v = tran_waveform(sim, res, c.find_node("out"));
  for (std::size_t k = 0; k < res.times.size(); ++k) {
    const double t = res.times[k] - 0.1e-9;  // step delay
    const double expected = t < 0 ? 0.0 : 1.0 - std::exp(-t / 1e-9);
    EXPECT_NEAR(v[k], expected, 0.01) << "t=" << res.times[k];
  }
}

TEST(Tran, BackwardEulerAlsoTracksAnalytic) {
  const Circuit c = rc_step();
  Simulator sim(c);
  TranOptions tr;
  tr.tstop = 4e-9;
  tr.dt = 2e-12;
  tr.backward_euler = true;
  const TranResult res = sim.tran(tr);
  ASSERT_TRUE(res.ok);
  const std::vector<double> v = tran_waveform(sim, res, c.find_node("out"));
  const double t_end = res.times.back() - 0.1e-9;
  EXPECT_NEAR(v.back(), 1.0 - std::exp(-t_end / 1e-9), 0.02);
}

TEST(Tran, TrapezoidalIsMoreAccurateThanEulerAtCoarseStep) {
  // Clean exponential via an initial condition (no sub-step source edges).
  auto error_at_tau = [&](bool be) {
    Circuit c;
    const NodeId in = c.node("in");
    const NodeId out = c.node("out");
    c.add_vsource("vin", in, kGround, Waveform::dc(1.0));
    c.add_resistor("r", in, out, 1e3);
    c.add_capacitor("c", out, kGround, 1e-12);
    c.set_initial_condition(out, 0.0);
    Simulator sim(c);
    TranOptions tr;
    tr.tstop = 1e-9;  // exactly one tau
    tr.dt = 100e-12;  // coarse: 10 steps
    tr.backward_euler = be;
    const TranResult res = sim.tran(tr);
    const std::vector<double> v = tran_waveform(sim, res, out);
    return std::fabs(v.back() - (1.0 - std::exp(-1.0)));
  };
  EXPECT_LT(error_at_tau(false), error_at_tau(true));
}

TEST(Tran, StartsFromOperatingPoint) {
  // DC-settled divider: transient from the OP shows no startup transient.
  Circuit c;
  const NodeId in = c.node("in");
  const NodeId out = c.node("out");
  c.add_vsource("vin", in, kGround, Waveform::dc(1.0));
  c.add_resistor("r1", in, out, 1e3);
  c.add_resistor("r2", out, kGround, 1e3);
  c.add_capacitor("c1", out, kGround, 1e-12);
  Simulator sim(c);
  TranOptions tr;
  tr.tstop = 2e-9;
  tr.dt = 10e-12;
  const TranResult res = sim.tran(tr);
  ASSERT_TRUE(res.ok);
  const std::vector<double> v = tran_waveform(sim, res, out);
  for (double x : v) EXPECT_NEAR(x, 0.5, 1e-6);
}

TEST(Tran, NodeInitialConditionOverridesOp) {
  Circuit c;
  const NodeId out = c.node("out");
  c.add_resistor("r", out, kGround, 1e3);
  c.add_capacitor("c", out, kGround, 1e-12);
  c.set_initial_condition(out, 1.0);
  Simulator sim(c);
  TranOptions tr;
  tr.tstop = 5e-9;
  tr.dt = 10e-12;
  const TranResult res = sim.tran(tr);
  ASSERT_TRUE(res.ok);
  const std::vector<double> v = tran_waveform(sim, res, out);
  EXPECT_NEAR(v.front(), 1.0, 1e-9);
  // Discharges with tau = 1 ns.
  EXPECT_NEAR(v.back(), 0.0, 0.02);
  // Roughly e^-1 after one tau.
  for (std::size_t k = 0; k < res.times.size(); ++k) {
    if (std::fabs(res.times[k] - 1e-9) < 6e-12) {
      EXPECT_NEAR(v[k], std::exp(-1.0), 0.02);
    }
  }
}

/// CMOS inverter driving 5 fF; its input rises through 0.4 V at 0.21 ns.
Circuit inverter() {
  Circuit c;
  const int nm = c.add_model(circuits::default_nmos());
  const int pm = c.add_model(circuits::default_pmos());
  const NodeId vdd = c.node("vdd");
  const NodeId in = c.node("in");
  const NodeId out = c.node("out");
  c.add_vsource("vs", vdd, kGround, Waveform::dc(0.8));
  c.add_vsource("vi", in, kGround,
                Waveform::pulse(0.0, 0.8, 0.2e-9, 20e-12, 20e-12, 1e-9,
                                2e-9));
  Mosfet mn;
  mn.name = "mn";
  mn.d = out;
  mn.g = in;
  mn.s = kGround;
  mn.b = kGround;
  mn.model = nm;
  mn.w = 1e-6;
  mn.l = 14e-9;
  c.add_mosfet(mn);
  Mosfet mp = mn;
  mp.name = "mp";
  mp.s = vdd;
  mp.b = vdd;
  mp.model = pm;
  mp.w = 1.2e-6;
  c.add_mosfet(mp);
  c.add_capacitor("cl", out, kGround, 5e-15);
  return c;
}

/// The inverter's delay: input rising to output falling through 0.4 V.
std::optional<double> inverter_delay(const Simulator& sim,
                                     const TranResult& res) {
  const Circuit& c = sim.circuit();
  return delay_between(res.times, tran_waveform(sim, res, c.find_node("in")),
                       0.4, true, tran_waveform(sim, res, c.find_node("out")),
                       0.4, false);
}

/// A stop_when that ends the transient once inverter_delay is decided.
std::function<bool(double, const std::vector<double>&)> stop_at_delay(
    const Simulator& sim) {
  const NodeId in = sim.circuit().find_node("in");
  const NodeId out = sim.circuit().find_node("out");
  return [&sim, in, out, tracker = DelayTracker(0.4, true, 0.4, false)](
             double t, const std::vector<double>& x) mutable {
    return tracker.add(t, sim.voltage(x, in), sim.voltage(x, out));
  };
}

std::uint64_t bits(double v) {
  std::uint64_t u;
  std::memcpy(&u, &v, sizeof u);
  return u;
}

TEST(Tran, InverterSwitches) {
  const Circuit c = inverter();
  Simulator sim(c);
  TranOptions tr;
  tr.tstop = 1e-9;
  tr.dt = 1e-12;
  const TranResult res = sim.tran(tr);
  ASSERT_TRUE(res.ok);
  const std::vector<double> vo = tran_waveform(sim, res, c.find_node("out"));
  EXPECT_GT(vo.front(), 0.75);  // input low -> output high
  EXPECT_LT(vo.back(), 0.05);   // input high -> output low
  const auto delay = inverter_delay(sim, res);
  ASSERT_TRUE(delay.has_value());
  EXPECT_GT(*delay, 0.0);
  EXPECT_LT(*delay, 100e-12);
}

// A transient ended by stop_when is a bitwise prefix of the full run that
// ends at the first recorded sample deciding the delay, so it measures the
// same bits. With a stride the decision sees recorded samples only.
TEST(Tran, StopsAtTheSampleThatDecidesTheDelay) {
  const Circuit c = inverter();
  const Simulator sim(c);
  for (const int stride : {1, 3}) {
    SCOPED_TRACE("record_stride " + std::to_string(stride));
    TranOptions tr;
    tr.tstop = 1e-9;
    tr.dt = 1e-12;
    tr.record_stride = stride;
    const TranResult full = sim.tran(tr);
    tr.stop_when = stop_at_delay(sim);
    TranResult stopped;
    {
      obs::ScopedObservability scope;
      stopped = sim.tran(tr);
      EXPECT_EQ(obs::Registry::global().counter("sim.tran.stopped"), 1);
    }
    ASSERT_TRUE(full.ok);
    ASSERT_TRUE(stopped.ok);
    const std::size_t m = stopped.times.size();
    ASSERT_LT(m, full.times.size() / 2);
    ASSERT_EQ(stopped.samples.size(), m);
    EXPECT_EQ(std::memcmp(stopped.times.data(), full.times.data(),
                          m * sizeof(double)),
              0);
    for (std::size_t k = 0; k < m; ++k) {
      ASSERT_EQ(stopped.samples[k].size(), full.samples[k].size());
      ASSERT_EQ(std::memcmp(stopped.samples[k].data(), full.samples[k].data(),
                            full.samples[k].size() * sizeof(double)),
                0)
          << "sample " << k;
    }

    auto prefix = [&](std::size_t n) {
      TranResult p;
      p.times.assign(full.times.begin(), full.times.begin() + n);
      p.samples.assign(full.samples.begin(), full.samples.begin() + n);
      return p;
    };
    EXPECT_FALSE(inverter_delay(sim, prefix(m - 1)).has_value());
    EXPECT_TRUE(inverter_delay(sim, prefix(m)).has_value());

    const auto d_full = inverter_delay(sim, full);
    const auto d_stopped = inverter_delay(sim, stopped);
    ASSERT_TRUE(d_full.has_value());
    ASSERT_TRUE(d_stopped.has_value());
    EXPECT_EQ(bits(*d_stopped), bits(*d_full));
  }
}

// No predicate state survives an attempt: two tran() calls with one
// TranOptions stop at the same sample, and each retry of a failing
// transient starts from the state the caller set.
TEST(Tran, StopStartsOverWithEveryAttempt) {
  const Circuit c = inverter();
  const Simulator sim(c);
  TranOptions tr;
  tr.tstop = 1e-9;
  tr.dt = 1e-12;
  tr.stop_when = stop_at_delay(sim);
  const TranResult first = sim.tran(tr);
  const TranResult second = sim.tran(tr);
  ASSERT_TRUE(first.ok);
  ASSERT_TRUE(second.ok);
  EXPECT_GT(first.times.size(), 2u);
  EXPECT_EQ(second.times.size(), first.times.size());

  // One Newton iteration never converges, so each of the three attempts
  // fails at its first step after recording t = 0.
  std::vector<int> calls_at_t0;
  tr.max_newton = 1;
  tr.stop_when = [&calls_at_t0, calls = 0](
                     double, const std::vector<double>&) mutable {
    calls_at_t0.push_back(calls++);
    return false;
  };
  EXPECT_FALSE(sim.tran(tr).ok);
  EXPECT_EQ(calls_at_t0, (std::vector<int>{0, 0, 0}));
}
TEST(Tran, RecordStrideThinsSamples) {
  const Circuit c = rc_step();
  Simulator sim(c);
  TranOptions tr;
  tr.tstop = 2e-9;
  tr.dt = 10e-12;
  tr.record_stride = 4;
  const TranResult res = sim.tran(tr);
  ASSERT_TRUE(res.ok);
  EXPECT_LT(res.samples.size(), 60u);
}

TEST(Tran, RejectsBadOptions) {
  const Circuit c = rc_step();
  Simulator sim(c);
  TranOptions tr;
  tr.tstop = 1e-9;
  tr.dt = 0.0;
  EXPECT_THROW(sim.tran(tr), InvalidArgumentError);
  tr.dt = 1e-12;
  tr.record_stride = 0;
  EXPECT_THROW(sim.tran(tr), InvalidArgumentError);
}

// The failure diagnostic counts the retries that ran, and says when the
// budget ended the ladder before the retries did.
TEST(Tran, FailureDiagnosticCountsTheRetriesThatRan) {
  auto failure = [](const DiagnosticsSink& diag) {
    std::string message;
    for (const Diagnostic& d : diag.diagnostics()) {
      if (d.stage == "simulator" && d.subject == "tran" &&
          d.severity == DiagSeverity::kError) {
        message = d.message;
      }
    }
    return message;
  };
  const Circuit c = rc_step();
  TranOptions tr;
  tr.tstop = 1e-9;
  tr.dt = 10e-12;
  {
    DiagnosticsSink diag;
    BudgetOptions limits;
    limits.max_checks = 0;  // trips at the first check
    Budget budget(limits);
    const Simulator sim(c, &diag, &budget);
    EXPECT_FALSE(sim.tran(tr).ok);
    EXPECT_EQ(failure(diag),
              "transient failed after 0 retries; the budget ended the ladder");
  }
  {
    DiagnosticsSink diag;
    const Simulator sim(c, &diag);
    tr.max_newton = 1;  // never converges
    EXPECT_FALSE(sim.tran(tr).ok);
    EXPECT_EQ(failure(diag), "transient failed after 2 retries");
  }
}

// The live-simulator contract: a source waveform changed between two
// analyses on one Simulator is seen by the next op() and tran().
TEST(Tran, SeesSourceChangedBetweenAnalyses) {
  Circuit c;
  const NodeId in = c.node("in");
  const NodeId out = c.node("out");
  c.add_vsource("vin", in, kGround, Waveform::dc(0.4));
  c.add_resistor("r", in, out, 1e3);
  c.add_capacitor("c", out, kGround, 1e-12);
  const Simulator sim(c);
  TranOptions tr;
  tr.tstop = 5e-9;
  tr.dt = 10e-12;
  tr.start_from_op = false;  // charge from 0 V: five time constants

  EXPECT_NEAR(sim.voltage(sim.op().x, out), 0.4, 1e-9);
  TranResult res = sim.tran(tr);
  ASSERT_TRUE(res.ok);
  EXPECT_NEAR(sim.voltage(res.samples.back(), out), 0.4 * (1 - std::exp(-5.0)),
              1e-3);

  c.vsources()[0].wave = Waveform::dc(0.7);
  EXPECT_NEAR(sim.voltage(sim.op().x, out), 0.7, 1e-9);
  res = sim.tran(tr);
  ASSERT_TRUE(res.ok);
  EXPECT_NEAR(sim.voltage(res.samples.back(), out), 0.7 * (1 - std::exp(-5.0)),
              1e-3);
}

// --- time-domain measurement helpers ----------------------------------------

TEST(Measure, CrossingTimesOfSine) {
  std::vector<double> times, wave;
  for (int k = 0; k <= 1000; ++k) {
    const double t = k * 1e-11;
    times.push_back(t);
    wave.push_back(std::sin(2 * M_PI * 1e9 * t));  // 1 GHz
  }
  const std::vector<double> rising = crossing_times(times, wave, 0.0, true);
  ASSERT_GE(rising.size(), 9u);
  for (std::size_t k = 1; k < rising.size(); ++k) {
    EXPECT_NEAR(rising[k] - rising[k - 1], 1e-9, 1e-11);
  }
}

/// delay_between as the two passes it used to make, written out: every
/// interpolated crossing of ref and of sig, then the first sig crossing at or
/// after the k-th ref crossing.
std::optional<double> two_pass_delay(const std::vector<double>& times,
                                     const std::vector<double>& ref,
                                     double ref_level, bool ref_rising,
                                     const std::vector<double>& sig,
                                     double sig_level, bool sig_rising,
                                     int ref_skip) {
  auto crossings = [&](const std::vector<double>& wave, double level,
                       bool rising) {
    std::vector<double> out;
    for (std::size_t i = 1; i < wave.size(); ++i) {
      const bool crossed = rising
                               ? (wave[i - 1] < level && wave[i] >= level)
                               : (wave[i - 1] > level && wave[i] <= level);
      if (!crossed) continue;
      const double dv = wave[i] - wave[i - 1];
      const double frac = dv == 0.0 ? 0.0 : (level - wave[i - 1]) / dv;
      out.push_back(times[i - 1] + frac * (times[i] - times[i - 1]));
    }
    return out;
  };
  const std::vector<double> ref_x = crossings(ref, ref_level, ref_rising);
  if (static_cast<int>(ref_x.size()) <= ref_skip) return std::nullopt;
  const double t_ref = ref_x[static_cast<std::size_t>(ref_skip)];
  for (double t : crossings(sig, sig_level, sig_rising)) {
    if (t >= t_ref) return t - t_ref;
  }
  return std::nullopt;
}

/// A seeded random waveform pair around the level 0.5. Even cases take
/// values on a 1/8 grid, so samples land exactly on the level; a sixth of
/// the cases keep sig on one side of it, so it never crosses.
struct DelayCase {
  std::vector<double> times, ref, sig;
  bool ref_rising = true, sig_rising = false;
  int ref_skip = 0;
};

DelayCase random_delay_case(Rng& rng, int index) {
  DelayCase dc;
  const int n = rng.uniform_int(2, 60);
  const bool grid = index % 2 == 0;
  const bool flat_sig = index % 6 == 1;
  auto value = [&] {
    return grid ? rng.uniform_int(0, 8) * 0.125 : rng.uniform(0.0, 1.0);
  };
  double t = 0.0;
  for (int k = 0; k < n; ++k) {
    dc.times.push_back(t);
    t = index % 3 == 0 ? (k + 1) * 1e-12 : t + rng.uniform(0.5e-12, 2e-12);
    dc.ref.push_back(value());
    dc.sig.push_back(flat_sig ? 0.25 * value() : value());
  }
  dc.ref_rising = rng.chance(0.5);
  dc.sig_rising = rng.chance(0.5);
  dc.ref_skip = rng.uniform_int(0, 1);
  return dc;
}

std::optional<double> case_delay(const DelayCase& dc, std::size_t n) {
  const auto end = [n](const std::vector<double>& v) {
    return std::vector<double>(v.begin(), v.begin() + n);
  };
  return delay_between(end(dc.times), end(dc.ref), 0.5, dc.ref_rising,
                       end(dc.sig), 0.5, dc.sig_rising, dc.ref_skip);
}

// The tracker reports "decided" first on the shortest prefix where
// delay_between has a value, and that prefix measures the full run's bits.
TEST(Measure, DelayTrackerDecidesOnTheShortestPrefix) {
  Rng rng(15);
  int decided = 0, undecided = 0, sig_before_ref = 0;
  for (int index = 0; index < 3000; ++index) {
    const DelayCase dc = random_delay_case(rng, index);
    const std::size_t n = dc.times.size();
    DelayTracker tracker(0.5, dc.ref_rising, 0.5, dc.sig_rising, dc.ref_skip);
    std::size_t m = 0;  // samples fed when the tracker first said done
    for (std::size_t k = 0; k < n && m == 0; ++k) {
      if (tracker.add(dc.times[k], dc.ref[k], dc.sig[k])) m = k + 1;
    }
    const std::optional<double> full = case_delay(dc, n);
    if (m == 0) {
      ++undecided;
      EXPECT_FALSE(full.has_value()) << "case " << index;
      EXPECT_FALSE(tracker.delay().has_value()) << "case " << index;
      continue;
    }
    ++decided;
    EXPECT_FALSE(case_delay(dc, m - 1).has_value()) << "case " << index;
    const std::optional<double> at_m = case_delay(dc, m);
    ASSERT_TRUE(at_m.has_value()) << "case " << index;
    ASSERT_TRUE(full.has_value()) << "case " << index;
    EXPECT_EQ(bits(*at_m), bits(*full)) << "case " << index;
    EXPECT_EQ(bits(*tracker.delay()), bits(*full)) << "case " << index;
    const std::vector<double> ref_x =
        crossing_times(dc.times, dc.ref, 0.5, dc.ref_rising);
    const std::vector<double> sig_x =
        crossing_times(dc.times, dc.sig, 0.5, dc.sig_rising);
    if (sig_x.front() < ref_x[static_cast<std::size_t>(dc.ref_skip)]) {
      ++sig_before_ref;
    }
  }
  // The draw covers both outcomes and sig crossing before the reference.
  EXPECT_GT(decided, 300);
  EXPECT_GT(undecided, 300);
  EXPECT_GT(sig_before_ref, 100);
}

// delay_between keeps the bits of the two-pass formula it replaced, which
// the StrongARM delay (ref_skip = 1) and the inverter delay read.
TEST(Measure, DelayBetweenKeepsTheTwoPassBits) {
  Rng rng(16);
  int exact_hits = 0;
  for (int index = 0; index < 3000; ++index) {
    const DelayCase dc = random_delay_case(rng, index);
    const std::optional<double> got =
        delay_between(dc.times, dc.ref, 0.5, dc.ref_rising, dc.sig, 0.5,
                      dc.sig_rising, dc.ref_skip);
    const std::optional<double> want =
        two_pass_delay(dc.times, dc.ref, 0.5, dc.ref_rising, dc.sig, 0.5,
                       dc.sig_rising, dc.ref_skip);
    ASSERT_EQ(got.has_value(), want.has_value()) << "case " << index;
    if (got) {
      EXPECT_EQ(bits(*got), bits(*want)) << "case " << index;
    }
    for (double v : dc.sig) exact_hits += v == 0.5;
  }
  EXPECT_GT(exact_hits, 1000);

  // A sig crossing from the interval before the reference edge still counts
  // when the edge's interpolation rounds onto the sample they share.
  const std::vector<double> times = {0.0, 1e-9, 1e-9 + 1e-12};
  const std::vector<double> ref = {0.0, std::nextafter(0.5, 0.0), 1.0};
  const std::vector<double> sig = {1.0, 0.5, 0.0};
  const std::optional<double> edge =
      delay_between(times, ref, 0.5, true, sig, 0.5, false);
  ASSERT_TRUE(edge.has_value());
  EXPECT_EQ(*edge, 0.0);
  EXPECT_EQ(bits(*edge),
            bits(*two_pass_delay(times, ref, 0.5, true, sig, 0.5, false, 0)));
}

TEST(Measure, OscillationFrequencyOfSine) {
  std::vector<double> times, wave;
  for (int k = 0; k <= 2000; ++k) {
    const double t = k * 5e-12;
    times.push_back(t);
    wave.push_back(0.4 + 0.4 * std::sin(2 * M_PI * 2e9 * t));
  }
  const auto f = oscillation_frequency(times, wave, 0.4, 5);
  ASSERT_TRUE(f.has_value());
  EXPECT_NEAR(*f, 2e9, 1e7);
}

TEST(Measure, OscillationFrequencyNeedsEnoughPeriods) {
  std::vector<double> times = {0, 1e-9, 2e-9};
  std::vector<double> wave = {0, 1, 0};
  EXPECT_FALSE(oscillation_frequency(times, wave, 0.5, 5).has_value());
}

TEST(Measure, TimeAverage) {
  const std::vector<double> times = {0.0, 1.0, 2.0, 3.0};
  const std::vector<double> wave = {0.0, 2.0, 2.0, 0.0};
  // Trapezoids: 1 + 2 + 1 = 4 over span 3.
  EXPECT_NEAR(time_average(times, wave, 0.0, 3.0), 4.0 / 3.0, 1e-12);
  // Sub-window [1,2] is flat at 2.
  EXPECT_NEAR(time_average(times, wave, 1.0, 2.0), 2.0, 1e-12);
}

TEST(Measure, SupplyPowerOfResistor) {
  Circuit c;
  const NodeId a = c.node("a");
  c.add_vsource("vdd", a, kGround, Waveform::dc(1.0));
  c.add_resistor("r", a, kGround, 1e3);
  Simulator sim(c);
  TranOptions tr;
  tr.tstop = 1e-9;
  tr.dt = 10e-12;
  const TranResult res = sim.tran(tr);
  ASSERT_TRUE(res.ok);
  EXPECT_NEAR(average_supply_power(sim, res, "vdd", 0.0, 1e-9), 1e-3, 1e-9);
}

}  // namespace
}  // namespace olp::spice
