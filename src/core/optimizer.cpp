#include "core/optimizer.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/budget.hpp"
#include "util/curvature.hpp"
#include "util/diag.hpp"
#include "util/error.hpp"
#include "util/logging.hpp"
#include "util/obs.hpp"
#include "util/task_pool.hpp"

namespace olp::core {

std::vector<int> assign_aspect_bins(const std::vector<double>& aspect_ratios,
                                    int bins) {
  OLP_CHECK(bins >= 1, "need at least one bin");
  OLP_CHECK(!aspect_ratios.empty(), "no aspect ratios to bin");
  double lo = std::numeric_limits<double>::infinity();
  double hi = -lo;
  for (double ar : aspect_ratios) {
    OLP_CHECK(ar > 0, "aspect ratio must be positive");
    lo = std::min(lo, std::log(ar));
    hi = std::max(hi, std::log(ar));
  }
  std::vector<int> out(aspect_ratios.size(), 0);
  if (hi - lo < 1e-12) return out;  // all identical -> single bin
  for (std::size_t i = 0; i < aspect_ratios.size(); ++i) {
    const double frac = (std::log(aspect_ratios[i]) - lo) / (hi - lo);
    out[i] = std::min(bins - 1, static_cast<int>(frac * bins));
  }
  return out;
}

MetricValues PrimitiveOptimizer::schematic_reference(
    const pcell::PrimitiveNetlist& netlist, int fins_per_device) const {
  // Any configuration works in ideal mode (parasitics/LDE ignored); use a
  // canonical mid-size one.
  const std::vector<pcell::LayoutConfig> configs =
      pcell::PrimitiveGenerator::enumerate_configs(
          fins_per_device, {pcell::PlacementPattern::kABBA});
  OLP_CHECK(!configs.empty(), "no layout configuration for the device size");
  pcell::PrimitiveLayout layout =
      generator_.footprint(netlist, configs[configs.size() / 2]);
  EvalCondition cond;
  cond.ideal = true;
  return evaluator_.evaluate(layout, cond, [&]() -> const auto& {
    return generator_.materialize(layout);
  });
}

CostBreakdown PrimitiveOptimizer::cost_of(
    pcell::PrimitiveLayout& layout, const extract::TuningMap& tuning,
    const MetricValues& reference, MetricValues* values_out) const {
  EvalCondition cond;
  cond.ideal = false;
  cond.tuning = tuning;
  EvalOutcome outcome;
  // A miss materializes a footprint in place, so a winner that missed is
  // already full when selection keeps it.
  const MetricValues values = evaluator_.evaluate(
      layout, cond,
      [&]() -> const auto& { return generator_.materialize(layout); },
      &outcome);
  if (values_out != nullptr) *values_out = values;
  // The per-call outcome (not a stats() delta) attributes a quarantine to
  // this evaluation even when other evaluations run concurrently.
  return layout_cost(evaluator_, layout, reference, values,
                     outcome.quarantined);
}

std::vector<LayoutCandidate> PrimitiveOptimizer::evaluate_all(
    const pcell::PrimitiveNetlist& netlist, int fins_per_device,
    const OptimizerOptions& options) const {
  std::vector<pcell::LayoutConfig> configs = options.configs;
  if (configs.empty()) {
    const bool matched = netlist.devices.size() > 1 &&
                         netlist.devices.front().match_group >= 0;
    configs = pcell::PrimitiveGenerator::enumerate_configs(
        fins_per_device,
        matched ? std::vector<pcell::PlacementPattern>{
                      pcell::PlacementPattern::kABBA,
                      pcell::PlacementPattern::kABAB,
                      pcell::PlacementPattern::kAABB}
                : std::vector<pcell::PlacementPattern>{
                      pcell::PlacementPattern::kABBA});
  }
  OLP_CHECK(!configs.empty(), "no layout configurations to evaluate");
  obs::Span span("optimizer.evaluate_all", [&] { return netlist.name; });
  obs::counter_add("optimizer.candidates",
                   static_cast<long>(configs.size()));

  // Budget-bounded enumeration: exhaustion keeps every candidate evaluated
  // so far. When the budget is gone before even the schematic reference,
  // the reference evaluation is skipped too.
  std::vector<LayoutCandidate> candidates;
  if (budget_ == nullptr || !budget_->check()) {
    const MetricValues reference =
        schematic_reference(netlist, fins_per_device);
    candidates = sweep(pool_, budget_, configs.size(), [&](std::size_t i) {
      LayoutCandidate cand;
      cand.layout = generator_.footprint(netlist, configs[i]);
      cand.cost = cost_of(cand.layout, {}, reference, &cand.values);
      cand.quarantined = cand.cost.total >= kQuarantineCost;
      return cand;
    });
  }
  std::vector<double> aspects;
  for (const LayoutCandidate& cand : candidates) {
    if (cand.quarantined) obs::counter_add("optimizer.quarantined");
    aspects.push_back(cand.layout.aspect_ratio());
  }
  if (candidates.size() < configs.size()) {
    report_truncation(*budget_, diag_, "optimizer", netlist.name,
                      "evaluated " + std::to_string(candidates.size()) +
                          " of " + std::to_string(configs.size()) +
                          " configurations");
  }
  if (candidates.empty()) {
    // Exhausted before the first evaluation: salvage the first configuration
    // unevaluated (generation is pure geometry, no simulation). It carries
    // the quarantine cost so it loses against any evaluated candidate.
    LayoutCandidate cand;
    cand.layout = generator_.generate(netlist, configs[0]);
    cand.cost.total = kQuarantineCost;
    cand.quarantined = true;
    cand.bin = 0;
    candidates.push_back(std::move(cand));
    return candidates;
  }
  const std::vector<int> bins = assign_aspect_bins(aspects, options.bins);
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    candidates[i].bin = bins[i];
  }
  return candidates;
}

void PrimitiveOptimizer::tune(LayoutCandidate& candidate,
                              int max_wires) const {
  OLP_CHECK(!candidate.layout.footprint_only,
            "tune needs the full layout; materialize the candidate first");
  const MetricLibraryEntry lib = metric_library(candidate.layout.netlist.type);
  if (lib.tuning_terminals.empty()) return;
  obs::Span span("optimizer.tune",
                 [&] { return candidate.layout.config.to_string(); });
  const MetricValues reference = schematic_reference(
      candidate.layout.netlist, candidate.layout.config.fins_per_device());

  auto cost_at = [&](const extract::TuningMap& tuning) {
    return cost_of(candidate.layout, tuning, reference, nullptr).total;
  };

  // Budget-bounded tuning: a trip mid-sweep reverts to the entry tuning so
  // (tuning, values, cost) stay mutually consistent without spending further
  // testbenches on the final refresh. The candidate survives untuned.
  const extract::TuningMap entry_tuning = candidate.tuning;
  auto revert_to_entry = [&]() {
    candidate.tuning = entry_tuning;
    report_truncation(*budget_, diag_, "optimizer",
                      candidate.layout.netlist.name,
                      "tuning sweep abandoned, keeping entry tuning");
  };

  if (!lib.terminals_correlated || lib.tuning_terminals.size() == 1) {
    // Optimize terminals separately (Algorithm 1 line 10). The sweep points
    // of one terminal are independent, so they evaluate in parallel;
    // terminals stay sequential because each sweep starts from the previous
    // terminal's chosen tuning.
    for (const std::string& terminal : lib.tuning_terminals) {
      const std::size_t n = static_cast<std::size_t>(max_wires);
      const std::vector<double> curve =
          sweep(pool_, budget_, n, [&](std::size_t k) {
            extract::TuningMap tuning = candidate.tuning;
            tuning[terminal] = static_cast<int>(k) + 1;
            return cost_at(tuning);
          });
      if (curve.size() < n) {
        revert_to_entry();
        return;
      }
      const std::size_t stop = tuning_stop_index(curve);
      candidate.tuning[terminal] = static_cast<int>(stop) + 1;
    }
  } else {
    // Correlated terminals: enumerate combinations (Algorithm 1 line 12).
    // Practically at most two terminals are correlated (paper Sec. III-A3).
    // The pairs are flattened w0-major, so the first minimum is the one the
    // serial nested loop's strict-< scan keeps.
    OLP_CHECK(lib.tuning_terminals.size() == 2,
              "joint tuning supports exactly two correlated terminals");
    const std::size_t n =
        static_cast<std::size_t>(max_wires) * static_cast<std::size_t>(max_wires);
    auto set_pair = [&](extract::TuningMap& tuning, std::size_t k) {
      tuning[lib.tuning_terminals[0]] = static_cast<int>(k) / max_wires + 1;
      tuning[lib.tuning_terminals[1]] = static_cast<int>(k) % max_wires + 1;
    };
    const std::vector<double> costs =
        sweep(pool_, budget_, n, [&](std::size_t k) {
          extract::TuningMap tuning = candidate.tuning;
          set_pair(tuning, k);
          return cost_at(tuning);
        });
    if (costs.size() < n) {
      revert_to_entry();
      return;
    }
    if (!costs.empty()) {
      const auto best = std::min_element(costs.begin(), costs.end());
      set_pair(candidate.tuning,
               static_cast<std::size_t>(best - costs.begin()));
    }
  }

  // Refresh the candidate's measured values and cost at the final tuning.
  // Uses cost_of directly so the quarantine clamp survives into the stored
  // cost (recomputing from the raw values would lose it).
  MetricValues final_values;
  const CostBreakdown final_cost =
      cost_of(candidate.layout, candidate.tuning, reference, &final_values);
  candidate.values = final_values;
  candidate.cost = final_cost;
  candidate.quarantined = final_cost.total >= kQuarantineCost;
}

std::vector<LayoutCandidate> PrimitiveOptimizer::optimize(
    const pcell::PrimitiveNetlist& netlist, int fins_per_device,
    const OptimizerOptions& options) const {
  std::vector<LayoutCandidate> all =
      evaluate_all(netlist, fins_per_device, options);

  // Select the cheapest healthy candidate per bin (Algorithm 1 lines 6-7);
  // quarantined candidates never win a bin.
  std::vector<int> best_in_bin(static_cast<std::size_t>(options.bins), -1);
  std::vector<int> bin_total(static_cast<std::size_t>(options.bins), 0);
  std::vector<int> bin_quarantined(static_cast<std::size_t>(options.bins), 0);
  for (std::size_t i = 0; i < all.size(); ++i) {
    const std::size_t b = static_cast<std::size_t>(all[i].bin);
    ++bin_total[b];
    if (all[i].quarantined) {
      ++bin_quarantined[b];
      continue;
    }
    int& best = best_in_bin[b];
    if (best < 0 ||
        all[i].cost.total < all[static_cast<std::size_t>(best)].cost.total) {
      best = static_cast<int>(i);
    }
  }
  for (std::size_t b = 0; b < best_in_bin.size(); ++b) {
    if (bin_total[b] > 0 && bin_quarantined[b] == bin_total[b]) {
      obs::counter_add("optimizer.bins_dropped");
      if (diag_) {
        diag_->report(DiagSeverity::kWarning, "optimizer", netlist.name,
                      "all " + std::to_string(bin_total[b]) +
                          " candidates in aspect bin " + std::to_string(b) +
                          " quarantined; bin dropped");
      }
    }
  }
  std::vector<LayoutCandidate> selected;
  for (int idx : best_in_bin) {
    if (idx < 0) continue;
    selected.push_back(std::move(all[static_cast<std::size_t>(idx)]));
    generator_.materialize(selected.back().layout);
  }

  obs::counter_add("optimizer.selected", static_cast<long>(selected.size()));
  if (selected.empty()) {
    obs::counter_add("optimizer.minarea_fallbacks");
    // Graceful degradation: every candidate was quarantined. Hand back the
    // minimum-area configuration untuned so the flow can still place and
    // route something structurally valid.
    std::size_t best_area = 0;
    for (std::size_t i = 1; i < all.size(); ++i) {
      if (all[i].layout.area() < all[best_area].layout.area()) best_area = i;
    }
    if (diag_) {
      diag_->report(DiagSeverity::kWarning, "optimizer", netlist.name,
                    "all candidates failed evaluation; falling back to the "
                    "min-area configuration " +
                        all[best_area].layout.config.to_string());
    }
    OLP_WARN << "optimizer: all candidates for " << netlist.name
             << " quarantined; min-area fallback";
    generator_.materialize(all[best_area].layout);
    return {all[best_area]};
  }

  // Tune each selected candidate (Algorithm 1 lines 8-15). On budget
  // exhaustion the remaining candidates keep their untuned selection result —
  // still evaluated, still valid options for placement.
  for (std::size_t k = 0; k < selected.size(); ++k) {
    if (budget_ != nullptr && budget_->check()) {
      report_truncation(*budget_, diag_, "optimizer", netlist.name,
                        "tuned " + std::to_string(k) + " of " +
                            std::to_string(selected.size()) +
                            " selected candidates");
      break;
    }
    tune(selected[k], options.max_tuning_wires);
  }
  std::sort(selected.begin(), selected.end(),
            [](const LayoutCandidate& a, const LayoutCandidate& b) {
              return a.cost.total < b.cost.total;
            });
  return selected;
}

}  // namespace olp::core
