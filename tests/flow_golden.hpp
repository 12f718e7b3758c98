#pragma once
// Bitwise comparison and hashing of flow results.
//
// FlowFields walks every decision-bearing field of a flow result once, as
// labelled integers, double bit patterns and strings: candidate options and
// costs, chosen options, placement, routes, port constraints and wire
// decisions, the degradation state and diagnostics, and the realized
// layouts, tunings and net RCs. expect_same_flow_result() compares two walks
// field by field, doubles by bit pattern: "deterministic" means the
// parallel/cached run reproduces the serial uncached run exactly.
// flow_result_hash() folds one walk into one Fnv1a value, so a golden pins a
// flow's decisions across commits.
//
// Deliberately excluded, because they measure *how* the result was obtained
// rather than *what* it is: runtime_s, testbenches and the budget counters
// (cache hits skip simulation), and telemetry. Diagnostics are walked as a
// sorted multiset of (severity, stage, subject, message): concurrent
// reporters interleave records in nondeterministic order and span paths,
// but always produce the same set.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <iomanip>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "circuits/flow.hpp"
#include "goldens.hpp"

namespace olp {

/// One walked field: an integer or a double's bit pattern in `word`, or a
/// string in `text`.
struct FlowField {
  enum Kind { kInt, kDouble, kText };
  std::string label;
  Kind kind;
  std::uint64_t word = 0;
  std::string text;
};

class FlowFields {
 public:
  void add(const circuits::FlowReport& report,
           const circuits::Realization& real) {
    // Per-instance candidate options and the chosen ones.
    u64("options", report.options.size());
    for (const auto& [name, opts] : report.options) {
      str("options key", name);
      u64(name + " options", opts.size());
      for (std::size_t i = 0; i < opts.size(); ++i) {
        add(opts[i], name + "[" + std::to_string(i) + "]");
      }
    }
    u64("chosen", report.chosen_option.size());
    for (const auto& [name, index] : report.chosen_option) {
      str("chosen key", name);
      u64(name + " chosen", static_cast<std::uint64_t>(index));
    }

    // Placement and routing.
    u64("placed", report.placed_instances.size());
    for (const std::string& name : report.placed_instances) {
      str("placed", name);
    }
    u64("blocks", report.placement.blocks.size());
    for (std::size_t i = 0; i < report.placement.blocks.size(); ++i) {
      const place::PlacedBlock& b = report.placement.blocks[i];
      const std::string what = "block" + std::to_string(i);
      f64(what + ".x", b.x);
      f64(what + ".y", b.y);
      u64(what + ".mirrored", b.mirrored ? 1 : 0);
    }
    f64("placement.width", report.placement.width);
    f64("placement.height", report.placement.height);
    f64("placement.hpwl", report.placement.hpwl);
    u64("placement.legal", report.placement.legal ? 1 : 0);
    u64("routes", report.routes.size());
    for (const auto& [net, r] : report.routes) {
      str("routes key", net);
      str(net + " net", r.net);
      u64(net + " routed", r.routed ? 1 : 0);
      u64(net + " vias", static_cast<std::uint64_t>(r.vias));
      u64(net + " segments", r.segments.size());
      for (const route::RouteSegment& seg : r.segments) {
        u64(net + " layer", static_cast<std::uint64_t>(seg.layer));
        for (const geom::Point& pt : {seg.a, seg.b}) {
          u64(net + " x", static_cast<std::uint64_t>(pt.x));
          u64(net + " y", static_cast<std::uint64_t>(pt.y));
        }
      }
    }

    // Port optimization.
    u64("constraints", report.constraints.size());
    for (const core::PortConstraint& c : report.constraints) {
      const std::string what = c.instance + "/" + c.circuit_net;
      str("constraint instance", c.instance);
      str(what + " net", c.circuit_net);
      u64(what + " lo", static_cast<std::uint64_t>(c.interval.lo));
      u64(what + " bounded", c.interval.hi ? 1 : 0);
      u64(what + " hi", static_cast<std::uint64_t>(c.interval.hi.value_or(0)));
      u64(what + " curve", c.cost_curve.size());
      for (std::size_t k = 0; k < c.cost_curve.size(); ++k) {
        f64(what + "/curve" + std::to_string(k), c.cost_curve[k]);
      }
    }
    u64("decisions", report.decisions.size());
    for (const core::NetWireDecision& d : report.decisions) {
      str("decision net", d.circuit_net);
      u64(d.circuit_net + " routes",
          static_cast<std::uint64_t>(d.parallel_routes));
      u64(d.circuit_net + " from_overlap", d.from_overlap ? 1 : 0);
    }

    // Degradation state and the diagnostic record set.
    u64("degraded", report.degraded ? 1 : 0);
    u64("budget.exhausted", report.budget.exhausted ? 1 : 0);
    u64("budget.tripped", static_cast<std::uint64_t>(report.budget.tripped));
    std::vector<std::tuple<int, std::string, std::string, std::string>> diags;
    for (const Diagnostic& d : report.diagnostics) {
      diags.emplace_back(static_cast<int>(d.severity), d.stage, d.subject,
                         d.message);
    }
    std::sort(diags.begin(), diags.end());
    u64("diagnostics", diags.size());
    for (const auto& [severity, stage, subject, message] : diags) {
      u64("diagnostic severity", static_cast<std::uint64_t>(severity));
      str("diagnostic stage", stage);
      str("diagnostic subject", subject);
      str(subject + " message", message);
    }

    // The realization handed to downstream measurement.
    u64("layouts", real.layouts.size());
    for (const auto& [name, layout] : real.layouts) {
      str("layouts key", name);
      str(name + " layout", layout.config.to_string());
    }
    u64("tunings", real.tunings.size());
    for (const auto& [name, t] : real.tunings) {
      str("tunings key", name);
      tuning(t, name + " realized");
    }
    u64("net_wires", real.net_wires.size());
    for (const auto& [net, rc] : real.net_wires) {
      str("net_wires key", net);
      f64(net + ".r", rc.resistance);
      f64(net + ".c", rc.capacitance);
    }
  }

  void add(const core::LayoutCandidate& c, const std::string& what) {
    str(what + "/config", c.layout.config.to_string());
    tuning(c.tuning, what + "/tuning");
    u64(what + "/values", c.values.size());
    for (const auto& [kind, value] : c.values) {
      u64(what + "/metric", static_cast<std::uint64_t>(kind));
      f64(what + "/" + core::metric_name(kind), value);
    }
    f64(what + "/cost", c.cost.total);
    u64(what + "/terms", c.cost.terms.size());
    for (std::size_t i = 0; i < c.cost.terms.size(); ++i) {
      f64(what + "/term" + std::to_string(i), c.cost.terms[i].deviation);
    }
    u64(what + "/bin", static_cast<std::uint64_t>(c.bin));
    u64(what + "/quarantined", c.quarantined ? 1 : 0);
  }

  const std::vector<FlowField>& fields() const { return fields_; }

 private:
  void u64(std::string label, std::uint64_t w) {
    fields_.push_back({std::move(label), FlowField::kInt, w, {}});
  }
  void f64(std::string label, double v) {
    fields_.push_back({std::move(label), FlowField::kDouble,
                       std::bit_cast<std::uint64_t>(v), {}});
  }
  void str(std::string label, std::string s) {
    fields_.push_back({std::move(label), FlowField::kText, 0, std::move(s)});
  }
  void tuning(const extract::TuningMap& t, const std::string& what) {
    u64(what, t.size());
    for (const auto& [net, wires] : t) {
      str(what + " net", net);
      u64(what + "/" + net, static_cast<std::uint64_t>(wires));
    }
  }

  std::vector<FlowField> fields_;
};

inline std::string describe(const FlowField& f) {
  if (f.kind == FlowField::kText) return '"' + f.text + '"';
  if (f.kind == FlowField::kInt) {
    return std::to_string(static_cast<std::int64_t>(f.word));
  }
  std::ostringstream os;
  os << std::setprecision(17) << std::bit_cast<double>(f.word) << " ("
     << hex64(f.word) << ")";
  return os.str();
}

/// Expects two walks to hold the same fields, and stops at the first label
/// where they part (a count differs, or a key).
inline void expect_same_fields(const FlowFields& got, const FlowFields& want) {
  const std::vector<FlowField>& g = got.fields();
  const std::vector<FlowField>& w = want.fields();
  for (std::size_t i = 0; i < std::min(g.size(), w.size()); ++i) {
    if (g[i].label != w[i].label) {
      ADD_FAILURE() << "field " << i << " is " << g[i].label << ", want "
                    << w[i].label;
      return;
    }
    if (g[i].word != w[i].word || g[i].text != w[i].text) {
      ADD_FAILURE() << g[i].label << ": " << describe(g[i])
                    << " != " << describe(w[i]);
    }
  }
  EXPECT_EQ(g.size(), w.size()) << "field count";
}

inline void expect_same_candidate(const core::LayoutCandidate& got,
                                  const core::LayoutCandidate& want,
                                  const std::string& what) {
  FlowFields g;
  FlowFields w;
  g.add(got, what);
  w.add(want, what);
  expect_same_fields(g, w);
}

inline void expect_same_flow_result(const circuits::FlowReport& got,
                                    const circuits::FlowReport& want,
                                    const circuits::Realization& got_real,
                                    const circuits::Realization& want_real) {
  FlowFields g;
  FlowFields w;
  g.add(got, got_real);
  w.add(want, want_real);
  expect_same_fields(g, w);
}

inline std::uint64_t flow_result_hash(const circuits::FlowReport& report,
                                      const circuits::Realization& real) {
  FlowFields fields;
  fields.add(report, real);
  Fnv1a hash;
  for (const FlowField& f : fields.fields()) {
    if (f.kind == FlowField::kText) {
      hash.str(f.text);
    } else {
      hash.u64(f.word);
    }
  }
  return hash.value();
}

}  // namespace olp
