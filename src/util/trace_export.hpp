#pragma once
// Export views over an obs::Snapshot:
//
//   to_chrome_trace_json()  - Chrome trace-event JSON ("X" complete events),
//                             loadable in Perfetto / chrome://tracing.
//   make_flow_telemetry()   - the machine-readable per-flow report attached
//                             to circuits::FlowReport (stage timings derived
//                             from the spans one level under the root span,
//                             simulation count from the "eval.testbench"
//                             counter).
//   to_json()               - FlowTelemetry as JSON.
//   summary_table()         - human-readable per-stage table (util/table).
//
// String escaping goes through util/jsonl (jsonl::escape), and
// jsonl::well_formed validates the emitted documents.

#include <string>
#include <vector>

#include "util/budget.hpp"
#include "util/obs.hpp"

namespace olp::obs {

/// The whole snapshot as Chrome trace-event JSON (timestamps/durations in
/// microseconds; one process, one lane per registry tid, named via "M"
/// thread_name metadata records from Snapshot::thread_names). Always a
/// valid JSON document, even for an empty snapshot.
std::string to_chrome_trace_json(const Snapshot& snapshot);

/// Aggregated wall-clock time of one flow stage (spans merged by name).
struct StageTiming {
  std::string stage;      ///< span name, e.g. "selection"
  double seconds = 0.0;   ///< summed wall-clock time across occurrences
  long spans = 0;         ///< number of span occurrences merged
};

/// Machine-readable flow telemetry: what FlowReport carries when the
/// registry is enabled during a flow run.
struct FlowTelemetry {
  bool enabled = false;     ///< false = registry was off; everything empty
  std::string flow;         ///< root span name, e.g. "flow.optimize"
  double total_seconds = 0.0;  ///< root span duration
  /// Simulation count, from the "eval.testbench" counter — the same registry
  /// sites that feed FlowReport::testbenches, so the two cannot disagree.
  long simulations = 0;
  std::vector<StageTiming> stages;  ///< spans one level under the root
  /// The run's FlowReport::budget, the one record of its budget. A batch's
  /// pooled telemetry leaves it default: each job's budget stays on its own
  /// report.
  BudgetStatus budget;
  Snapshot snapshot;        ///< full raw data (spans/counters/distributions)
};

/// Builds the telemetry view of a snapshot. The first span is taken as the
/// flow root; stages are the spans exactly one level deeper, merged by name
/// in first-seen order. The budget is left default for the caller to set.
FlowTelemetry make_flow_telemetry(const Snapshot& snapshot);

/// FlowTelemetry as a JSON document (stages, budget, counters,
/// distributions; the raw span list is left to the Chrome trace export).
std::string to_json(const FlowTelemetry& telemetry);

/// Renders the per-stage summary table plus counter/distribution sections.
std::string summary_table(const FlowTelemetry& telemetry);

/// Writes `content` to `path`, throwing olp::Error on I/O failure.
void write_text_file(const std::string& path, const std::string& content);

}  // namespace olp::obs
