#pragma once
// Centralized parsing of the OLP_* environment overrides.
//
// Every tunable the library reads from the environment goes through this
// header, with ONE precedence rule applied everywhere:
//
//   explicit option < environment variable
//
// i.e. a set-and-parseable variable overrides the explicitly configured
// option value, while an unset, empty, or malformed variable leaves the
// configured value untouched. Overrides are applied at a single point —
// object construction (FlowEngine, BatchRunner, log setup) — never at flow
// entry, so a constructed engine's behavior cannot change if the
// environment mutates between construction and run().
//
// Known variables (all optional):
//   OLP_THREADS           worker threads incl. caller; 0 or negative = one
//                         per hardware core            (util/task_pool)
//   OLP_EVAL_CACHE        "0"/empty = off, else on     (circuits/flow)
//   OLP_DEADLINE_MS       wall-clock deadline [ms]     (util/budget)
//   OLP_TESTBENCH_BUDGET  max testbench evaluations    (util/budget)
//   OLP_LOG_LEVEL         debug|info|warn|error|off    (util/logging)
//   OLP_TRACE_DIR         trace/artifact output dir    (examples, batch)
//
// Numeric parses are strict AND range-checked: a value that overflows the
// target type (e.g. "99999999999999999999") is treated as malformed and
// leaves the configured fallback untouched, exactly like trailing garbage.

#include <string>

namespace olp::env {

/// True when the variable is set, even to the empty string.
bool has(const char* name);

/// The variable's value, or `fallback` when unset.
std::string str(const char* name, const std::string& fallback = std::string());

/// Strictly numeric integer parse: unset, empty, or trailing-garbage values
/// return `fallback`.
long integer(const char* name, long fallback);

/// Strictly numeric floating-point parse: unset, empty, or trailing-garbage
/// values return `fallback`.
double number(const char* name, double fallback);

/// Boolean convention shared by every OLP_* flag: unset or empty returns
/// `fallback`; a value starting with '0' means false; anything else true.
bool flag(const char* name, bool fallback);

}  // namespace olp::env
