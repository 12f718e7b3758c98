#!/usr/bin/env bash
# Chaos smoke run: build the fault-injection tests, the netlist parser
# tests (parse_netlist is the one parser of outside bytes; its suite fuzzes
# it with mutated decks), the JSON layer tests, the transient and evaluator
# tests (TranOptions::stop_when is a callback holding references into the
# caller's frame, copied into every attempt; an evaluation's testbenches
# share one bench and change its sources between analyses), the solver
# tests (the sparse LU ordering's linked entry pool, and a Simulator hands
# its first factorization from one analysis call to the next), the placer
# tests (the annealer's cache of scored states: slot arithmetic, key copies
# and compares), and the flow and batch tests (the flow skeleton hands
# pointers to the chosen candidates' layouts from step to step, and its
# evaluators read the run-local or batch cache through Algorithm 2) under
# AddressSanitizer + UBSan and execute them.
#
# Usage: tests/run_chaos.sh [build-dir]
# The build directory defaults to build-chaos-asan next to the source tree.
set -euo pipefail

script_dir="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
src_dir="$(dirname "${script_dir}")"
build_dir="${1:-${src_dir}/build-chaos-asan}"

# A compiler may be unable to link the ASan/UBSan runtimes; probe first and
# skip — exit 0 with a loud note — rather than fail the suite on a toolchain
# limitation.
probe="$(mktemp -d)"
trap 'rm -rf "${probe}"' EXIT
cat > "${probe}/probe.cpp" <<'CPP'
int main() { return 0; }
CPP
if ! c++ -fsanitize=address,undefined "${probe}/probe.cpp" \
    -o "${probe}/probe" 2> "${probe}/probe.err"; then
  echo "chaos smoke: toolchain cannot build with" \
    "-fsanitize=address,undefined; skipping"
  cat "${probe}/probe.err"
  exit 0
fi

cmake -B "${build_dir}" -S "${src_dir}" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DOLP_SANITIZE="address;undefined" \
  -DOLP_BUILD_BENCH=OFF \
  -DOLP_BUILD_EXAMPLES=OFF > /dev/null
cmake --build "${build_dir}" -j "$(nproc)" \
  --target test_chaos test_failure_injection test_parser test_util \
  test_simulator_tran test_evaluator test_linalg test_simulator_dc \
  test_simulator_ac test_place test_flow test_batch > /dev/null

echo "== chaos tests (ASan+UBSan) =="
"${build_dir}/tests/test_chaos"
echo "== failure-injection tests (ASan+UBSan) =="
"${build_dir}/tests/test_failure_injection"
echo "== netlist parser tests + mutation fuzz (ASan+UBSan) =="
"${build_dir}/tests/test_parser"
echo "== util + JSON layer tests (ASan+UBSan) =="
"${build_dir}/tests/test_util"
echo "== transient + evaluator tests (ASan+UBSan) =="
"${build_dir}/tests/test_simulator_tran"
"${build_dir}/tests/test_evaluator"
echo "== sparse LU + DC/AC simulator tests (ASan+UBSan) =="
"${build_dir}/tests/test_linalg"
"${build_dir}/tests/test_simulator_dc"
"${build_dir}/tests/test_simulator_ac"
echo "== placer tests (ASan+UBSan) =="
"${build_dir}/tests/test_place"
echo "== flow + batch tests (ASan+UBSan) =="
"${build_dir}/tests/test_flow"
"${build_dir}/tests/test_batch"
echo "chaos smoke run passed"
