#!/usr/bin/env bash
# Budget smoke run: execute the 5T-OTA flow example under a deadline far
# below its unbounded runtime and assert the bounded-execution contract:
#
#   - the process still exits 0 (exhaustion degrades, never fails);
#   - the run reports itself degraded ("Flow degraded: true");
#   - the report's "Budget:" line ends with "exhausted by deadline}";
#   - the telemetry JSON is written, well-formed enough to grep, and marks
#     the budget as exhausted by the deadline. The "Budget:" line prints
#     FlowReport::budget and the JSON prints its copy in the telemetry, so
#     the two checks agree only when the report and the telemetry do;
#   - the Chrome trace is written and non-empty.
#
# Usage: OLP_FLOW_BIN=<path-to-ota_layout_flow> tests/run_budget_smoke.sh
# (ctest sets OLP_FLOW_BIN; a default build-tree location is the fallback.)
set -euo pipefail

script_dir="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
src_dir="$(dirname "${script_dir}")"
bin="${OLP_FLOW_BIN:-${src_dir}/build/examples/ota_layout_flow}"

if [[ ! -x "${bin}" ]]; then
  echo "budget smoke: flow binary not found at ${bin}" >&2
  exit 1
fi

tmp="$(mktemp -d)"
trap 'rm -rf "${tmp}"' EXIT

# 5 ms is far below the flow's unbounded runtime on any machine, so the
# deadline is guaranteed to trip mid-flow.
out="${tmp}/stdout.txt"
OLP_DEADLINE_MS=5 OLP_TRACE_DIR="${tmp}" "${bin}" > "${out}"
echo "budget smoke: flow exited 0 under a 5 ms deadline"

grep -q "^Flow degraded: true$" "${out}" || {
  echo "budget smoke: run did not report itself degraded" >&2
  cat "${out}" >&2
  exit 1
}

grep -q "^Budget: .*exhausted by deadline}$" "${out}" || {
  echo "budget smoke: Budget: line does not end with 'exhausted by deadline}'" >&2
  cat "${out}" >&2
  exit 1
}

telemetry="${tmp}/ota_flow.telemetry.json"
[[ -s "${telemetry}" ]] || {
  echo "budget smoke: telemetry JSON missing or empty at ${telemetry}" >&2
  exit 1
}
grep -q '"budget":{' "${telemetry}" || {
  echo "budget smoke: telemetry JSON lacks the budget object" >&2
  exit 1
}
grep -q '"exhausted":true' "${telemetry}" || {
  echo "budget smoke: telemetry does not mark the budget exhausted" >&2
  exit 1
}
grep -q '"tripped":"deadline"' "${telemetry}" || {
  echo "budget smoke: telemetry does not attribute the trip to the deadline" >&2
  exit 1
}

trace="${tmp}/ota_flow.trace.json"
[[ -s "${trace}" ]] || {
  echo "budget smoke: Chrome trace missing or empty at ${trace}" >&2
  exit 1
}

echo "budget smoke run passed"
