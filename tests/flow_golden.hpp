#pragma once
// Bitwise golden comparison of flow results, for determinism tests.
//
// expect_same_flow_result() asserts that two (FlowReport, Realization) pairs
// are byte-identical in every decision-bearing field: candidate options and
// costs, chosen options, placement coordinates, routes, port constraints and
// wire decisions, realized tunings and net RCs. Doubles are compared by bit
// pattern (memcmp), not by tolerance — "deterministic" here means the
// parallel/cached run reproduces the serial uncached run exactly.
//
// Deliberately excluded, because they measure *how* the result was obtained
// rather than *what* it is: runtime_s (wall clock), testbenches and the
// budget consumption counters (cache hits skip simulation), and telemetry
// (span timings, thread-dependent counters). Diagnostics are compared as a
// sorted multiset of (severity, stage, subject, message) tuples: concurrent
// reporters interleave records in nondeterministic order, but the same set
// of records must always be produced. The span path is excluded from the
// tuple for the same reason.
//
// flow_result_hash() folds the same fields, with the same exclusions, into
// one 64-bit FNV-1a value, so a committed hash can pin a flow's decisions
// across commits where expect_same_flow_result() compares two runs of one
// build.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>
#include <tuple>
#include <vector>

#include "circuits/flow.hpp"

namespace olp {

inline bool double_bits_equal(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

inline void expect_bits(double got, double want, const std::string& what) {
  EXPECT_TRUE(double_bits_equal(got, want))
      << what << ": " << got << " != " << want;
}

inline void expect_same_metric_values(const core::MetricValues& got,
                                      const core::MetricValues& want,
                                      const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  auto gi = got.begin();
  auto wi = want.begin();
  for (; gi != got.end(); ++gi, ++wi) {
    EXPECT_EQ(gi->first, wi->first) << what;
    expect_bits(gi->second, wi->second,
                what + "/" + core::metric_name(gi->first));
  }
}

inline void expect_same_tuning(const extract::TuningMap& got,
                               const extract::TuningMap& want,
                               const std::string& what) {
  EXPECT_EQ(got, want) << what;
}

inline void expect_same_candidate(const core::LayoutCandidate& got,
                                  const core::LayoutCandidate& want,
                                  const std::string& what) {
  EXPECT_EQ(got.layout.config.to_string(), want.layout.config.to_string())
      << what;
  expect_same_tuning(got.tuning, want.tuning, what + "/tuning");
  expect_same_metric_values(got.values, want.values, what + "/values");
  expect_bits(got.cost.total, want.cost.total, what + "/cost");
  ASSERT_EQ(got.cost.terms.size(), want.cost.terms.size()) << what;
  for (std::size_t i = 0; i < got.cost.terms.size(); ++i) {
    expect_bits(got.cost.terms[i].deviation, want.cost.terms[i].deviation,
                what + "/term" + std::to_string(i));
  }
  EXPECT_EQ(got.bin, want.bin) << what;
  EXPECT_EQ(got.quarantined, want.quarantined) << what;
}

inline void expect_same_routes(
    const std::map<std::string, route::NetRoute>& got,
    const std::map<std::string, route::NetRoute>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (const auto& [net, w] : want) {
    ASSERT_TRUE(got.count(net)) << net;
    const route::NetRoute& g = got.at(net);
    EXPECT_EQ(g.net, w.net) << net;
    EXPECT_EQ(g.routed, w.routed) << net;
    EXPECT_EQ(g.vias, w.vias) << net;
    ASSERT_EQ(g.segments.size(), w.segments.size()) << net;
    for (std::size_t i = 0; i < g.segments.size(); ++i) {
      EXPECT_EQ(g.segments[i].layer, w.segments[i].layer) << net;
      EXPECT_TRUE(g.segments[i].a == w.segments[i].a) << net;
      EXPECT_TRUE(g.segments[i].b == w.segments[i].b) << net;
    }
  }
}

/// Diagnostics as an order-insensitive multiset (span paths excluded: the
/// interleaving — and therefore the open-span stack a worker reports under —
/// is scheduling-dependent; the record *set* is not).
inline std::vector<std::tuple<int, std::string, std::string, std::string>>
diag_multiset(const std::vector<Diagnostic>& diags) {
  std::vector<std::tuple<int, std::string, std::string, std::string>> out;
  out.reserve(diags.size());
  for (const Diagnostic& d : diags) {
    out.emplace_back(static_cast<int>(d.severity), d.stage, d.subject,
                     d.message);
  }
  std::sort(out.begin(), out.end());
  return out;
}

inline void expect_same_flow_result(const circuits::FlowReport& got,
                                    const circuits::FlowReport& want,
                                    const circuits::Realization& got_real,
                                    const circuits::Realization& want_real) {
  // Step A: per-instance candidate options.
  ASSERT_EQ(got.options.size(), want.options.size());
  for (const auto& [name, wopts] : want.options) {
    ASSERT_TRUE(got.options.count(name)) << name;
    const auto& gopts = got.options.at(name);
    ASSERT_EQ(gopts.size(), wopts.size()) << name;
    for (std::size_t i = 0; i < gopts.size(); ++i) {
      expect_same_candidate(gopts[i], wopts[i],
                            name + "[" + std::to_string(i) + "]");
    }
  }
  EXPECT_EQ(got.chosen_option, want.chosen_option);

  // Step C: placement and routing.
  EXPECT_EQ(got.placed_instances, want.placed_instances);
  ASSERT_EQ(got.placement.blocks.size(), want.placement.blocks.size());
  for (std::size_t i = 0; i < got.placement.blocks.size(); ++i) {
    const std::string what = "block" + std::to_string(i);
    expect_bits(got.placement.blocks[i].x, want.placement.blocks[i].x,
                what + ".x");
    expect_bits(got.placement.blocks[i].y, want.placement.blocks[i].y,
                what + ".y");
    EXPECT_EQ(got.placement.blocks[i].mirrored,
              want.placement.blocks[i].mirrored)
        << what;
  }
  expect_bits(got.placement.width, want.placement.width, "placement.width");
  expect_bits(got.placement.height, want.placement.height, "placement.height");
  expect_bits(got.placement.hpwl, want.placement.hpwl, "placement.hpwl");
  EXPECT_EQ(got.placement.legal, want.placement.legal);
  expect_same_routes(got.routes, want.routes);

  // Step D: port optimization.
  ASSERT_EQ(got.constraints.size(), want.constraints.size());
  for (std::size_t i = 0; i < got.constraints.size(); ++i) {
    const core::PortConstraint& g = got.constraints[i];
    const core::PortConstraint& w = want.constraints[i];
    const std::string what = g.instance + "/" + g.circuit_net;
    EXPECT_EQ(g.instance, w.instance) << what;
    EXPECT_EQ(g.circuit_net, w.circuit_net) << what;
    EXPECT_EQ(g.interval.lo, w.interval.lo) << what;
    EXPECT_EQ(g.interval.hi, w.interval.hi) << what;
    ASSERT_EQ(g.cost_curve.size(), w.cost_curve.size()) << what;
    for (std::size_t k = 0; k < g.cost_curve.size(); ++k) {
      expect_bits(g.cost_curve[k], w.cost_curve[k],
                  what + "/curve" + std::to_string(k));
    }
  }
  ASSERT_EQ(got.decisions.size(), want.decisions.size());
  for (std::size_t i = 0; i < got.decisions.size(); ++i) {
    EXPECT_EQ(got.decisions[i].circuit_net, want.decisions[i].circuit_net);
    EXPECT_EQ(got.decisions[i].parallel_routes,
              want.decisions[i].parallel_routes)
        << got.decisions[i].circuit_net;
    EXPECT_EQ(got.decisions[i].from_overlap, want.decisions[i].from_overlap)
        << got.decisions[i].circuit_net;
  }

  // Degradation state and the diagnostic record set.
  EXPECT_EQ(got.degraded, want.degraded);
  EXPECT_EQ(got.budget.exhausted, want.budget.exhausted);
  EXPECT_EQ(got.budget.tripped, want.budget.tripped);
  EXPECT_EQ(diag_multiset(got.diagnostics), diag_multiset(want.diagnostics));

  // The realization handed to downstream measurement.
  ASSERT_EQ(got_real.layouts.size(), want_real.layouts.size());
  for (const auto& [name, wlay] : want_real.layouts) {
    ASSERT_TRUE(got_real.layouts.count(name)) << name;
    EXPECT_EQ(got_real.layouts.at(name).config.to_string(),
              wlay.config.to_string())
        << name;
  }
  EXPECT_EQ(got_real.tunings, want_real.tunings);
  ASSERT_EQ(got_real.net_wires.size(), want_real.net_wires.size());
  for (const auto& [net, wrc] : want_real.net_wires) {
    ASSERT_TRUE(got_real.net_wires.count(net)) << net;
    expect_bits(got_real.net_wires.at(net).resistance, wrc.resistance,
                net + ".r");
    expect_bits(got_real.net_wires.at(net).capacitance, wrc.capacitance,
                net + ".c");
  }
}

/// 64-bit FNV-1a over the fields expect_same_flow_result() compares:
/// integers and double bit patterns fed little-endian and strings with their
/// length, so the value is the same on any host.
class FlowHash {
 public:
  void add(const circuits::FlowReport& report,
           const circuits::Realization& real) {
    u64(report.options.size());
    for (const auto& [name, opts] : report.options) {
      str(name);
      u64(opts.size());
      for (const core::LayoutCandidate& c : opts) {
        str(c.layout.config.to_string());
        tuning(c.tuning);
        u64(c.values.size());
        for (const auto& [kind, value] : c.values) {
          u64(static_cast<std::uint64_t>(kind));
          f64(value);
        }
        f64(c.cost.total);
        u64(c.cost.terms.size());
        for (const auto& term : c.cost.terms) f64(term.deviation);
        u64(static_cast<std::uint64_t>(c.bin));
        u64(c.quarantined ? 1 : 0);
      }
    }
    u64(report.chosen_option.size());
    for (const auto& [name, index] : report.chosen_option) {
      str(name);
      u64(static_cast<std::uint64_t>(index));
    }

    u64(report.placed_instances.size());
    for (const std::string& name : report.placed_instances) str(name);
    u64(report.placement.blocks.size());
    for (const place::PlacedBlock& b : report.placement.blocks) {
      f64(b.x);
      f64(b.y);
      u64(b.mirrored ? 1 : 0);
    }
    f64(report.placement.width);
    f64(report.placement.height);
    f64(report.placement.hpwl);
    u64(report.placement.legal ? 1 : 0);
    u64(report.routes.size());
    for (const auto& [net, r] : report.routes) {
      str(net);
      str(r.net);
      u64(r.routed ? 1 : 0);
      u64(static_cast<std::uint64_t>(r.vias));
      u64(r.segments.size());
      for (const route::RouteSegment& seg : r.segments) {
        u64(static_cast<std::uint64_t>(seg.layer));
        for (const geom::Point& pt : {seg.a, seg.b}) {
          u64(static_cast<std::uint64_t>(pt.x));
          u64(static_cast<std::uint64_t>(pt.y));
        }
      }
    }

    u64(report.constraints.size());
    for (const core::PortConstraint& c : report.constraints) {
      str(c.instance);
      str(c.circuit_net);
      u64(static_cast<std::uint64_t>(c.interval.lo));
      u64(c.interval.hi ? 1 : 0);
      u64(static_cast<std::uint64_t>(c.interval.hi.value_or(0)));
      u64(c.cost_curve.size());
      for (const double v : c.cost_curve) f64(v);
    }
    u64(report.decisions.size());
    for (const core::NetWireDecision& d : report.decisions) {
      str(d.circuit_net);
      u64(static_cast<std::uint64_t>(d.parallel_routes));
      u64(d.from_overlap ? 1 : 0);
    }

    u64(report.degraded ? 1 : 0);
    u64(report.budget.exhausted ? 1 : 0);
    u64(static_cast<std::uint64_t>(report.budget.tripped));
    const auto diags = diag_multiset(report.diagnostics);
    u64(diags.size());
    for (const auto& [severity, stage, subject, message] : diags) {
      u64(static_cast<std::uint64_t>(severity));
      str(stage);
      str(subject);
      str(message);
    }

    u64(real.layouts.size());
    for (const auto& [name, layout] : real.layouts) {
      str(name);
      str(layout.config.to_string());
    }
    u64(real.tunings.size());
    for (const auto& [name, t] : real.tunings) {
      str(name);
      tuning(t);
    }
    u64(real.net_wires.size());
    for (const auto& [net, rc] : real.net_wires) {
      str(net);
      f64(rc.resistance);
      f64(rc.capacitance);
    }
  }
  std::uint64_t value() const { return h_; }

 private:
  void u64(std::uint64_t w) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (w >> (8 * i)) & 0xffU;
      h_ *= 0x100000001b3ULL;
    }
  }
  void f64(double v) {
    std::uint64_t w;
    std::memcpy(&w, &v, sizeof w);
    u64(w);
  }
  void str(const std::string& s) {
    u64(s.size());
    for (const char c : s) {
      h_ ^= static_cast<unsigned char>(c);
      h_ *= 0x100000001b3ULL;
    }
  }
  void tuning(const extract::TuningMap& t) {
    u64(t.size());
    for (const auto& [net, wires] : t) {
      str(net);
      u64(static_cast<std::uint64_t>(wires));
    }
  }

  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

inline std::uint64_t flow_result_hash(const circuits::FlowReport& report,
                                      const circuits::Realization& real) {
  FlowHash hash;
  hash.add(report, real);
  return hash.value();
}

}  // namespace olp
