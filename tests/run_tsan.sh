#!/usr/bin/env bash
# ThreadSanitizer smoke run: build the eval-cache and obs registry stress
# binaries, the DC simulator and task pool tests and the OTA flow example
# with -fsanitize=thread, run both stresses, the DC simulator tests (op()
# calls pooled on one Simulator share its remembered first factorization)
# and the task pool's suite (nested and concurrent submission,
# cancellation, worker exceptions, sweep() under chaos delays), then
# drive the example through the parallel + cached code path (8 worker
# threads, eval cache on), then drive the batch example the same way —
# concurrent jobs racing over the shared worker pool and cross-job eval
# cache. TSan aborts the process on the first data race
# (-fno-sanitize-recover=all), so the assertions are simply:
#
#   - each sanitized run exits 0;
#   - no "ThreadSanitizer" report appears on stdout/stderr.
#
# Usage: tests/run_tsan.sh [<source-dir> [<build-dir>]]
# (ctest passes both; defaults allow running it by hand from the repo root.)
set -euo pipefail

script_dir="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
src_dir="${1:-$(dirname "${script_dir}")}"
build_dir="${2:-${src_dir}/build-tsan}"

# A compiler may lack TSan support (or be unable to link its runtime); probe
# first and skip — exit 0 with a loud note — rather than fail the suite on
# a toolchain limitation.
probe="$(mktemp -d)"
trap 'rm -rf "${probe}"' EXIT
cat > "${probe}/probe.cpp" <<'EOF'
int main() { return 0; }
EOF
if ! c++ -fsanitize=thread "${probe}/probe.cpp" -o "${probe}/probe" \
    2> "${probe}/probe.err"; then
  echo "tsan smoke: toolchain cannot build with -fsanitize=thread; skipping"
  cat "${probe}/probe.err"
  exit 0
fi

cmake -S "${src_dir}" -B "${build_dir}" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DOLP_SANITIZE=thread \
  -DOLP_BUILD_TESTS=ON \
  -DOLP_BUILD_BENCH=OFF \
  -DOLP_BUILD_EXAMPLES=ON > /dev/null
cmake --build "${build_dir}" --target ota_layout_flow batch_flows \
  eval_cache_stress obs_stress test_simulator_dc test_task_pool \
  -j "$(nproc)" > /dev/null

tmp="$(mktemp -d)"
trap 'rm -rf "${probe}" "${tmp}"' EXIT
out="${tmp}/stdout.txt"

tsan_opts="halt_on_error=1"

# The eval-cache stress: 8 readers against 2 writers on the same shard
# mutexes.
stress_out="${tmp}/stress_stdout.txt"
TSAN_OPTIONS="${tsan_opts}" \
  "${build_dir}/eval_cache_stress" > "${stress_out}" 2>&1
echo "tsan smoke: sanitized eval-cache stress reconciled exactly"

if grep -q "ThreadSanitizer" "${stress_out}"; then
  echo "tsan smoke: ThreadSanitizer reported a race in the eval cache" >&2
  cat "${stress_out}" >&2
  exit 1
fi

# The obs registry stress: 8 writers and a 4-worker pool open spans and
# record counters, histograms and samples while a thread loops snapshot()
# and rebase(); then one clean epoch must reconcile exactly.
obs_out="${tmp}/obs_stdout.txt"
TSAN_OPTIONS="${tsan_opts}" \
  "${build_dir}/obs_stress" > "${obs_out}" 2>&1
echo "tsan smoke: sanitized obs registry stress reconciled exactly"

if grep -q "ThreadSanitizer" "${obs_out}"; then
  echo "tsan smoke: ThreadSanitizer reported a race in the obs registry" >&2
  cat "${obs_out}" >&2
  exit 1
fi

# One sanitized gtest binary: it must pass with no race report.
run_suite() {
  local name="$1" what="$2"
  local suite_out="${tmp}/${name}_stdout.txt"
  if ! TSAN_OPTIONS="${tsan_opts}" \
      "${build_dir}/tests/${name}" > "${suite_out}" 2>&1; then
    echo "tsan smoke: sanitized ${name} failed" >&2
    cat "${suite_out}" >&2
    exit 1
  fi
  if grep -q "ThreadSanitizer" "${suite_out}"; then
    echo "tsan smoke: ThreadSanitizer reported a race in ${what}" >&2
    cat "${suite_out}" >&2
    exit 1
  fi
  echo "tsan smoke: sanitized ${name} passed"
}

# The DC simulator tests: DcOp.PooledOpsOnOneSimulatorAgree runs op() from
# 4 pool workers on one Simulator, racing the compare, adopt and replace of
# its remembered first factorization.
run_suite test_simulator_dc "the simulator"

# The task pool's own suite: nested and concurrent submitters, cancellation
# by a deadline, worker exceptions, and sweep() under chaos delays at every
# fuel limit.
run_suite test_task_pool "the task pool"

# A modest testbench budget keeps the (TSan-slowed) run bounded while still
# exercising every stage; the budget path itself is part of what is raced:
# workers call check() and consume_testbench() on one Budget concurrently.
OLP_THREADS=8 OLP_EVAL_CACHE=1 OLP_TESTBENCH_BUDGET=600 \
  OLP_TRACE_DIR="${tmp}" TSAN_OPTIONS="${tsan_opts}" \
  "${build_dir}/examples/ota_layout_flow" > "${out}" 2>&1
echo "tsan smoke: sanitized flow exited 0 at 8 threads with the cache on"

if grep -q "ThreadSanitizer" "${out}"; then
  echo "tsan smoke: ThreadSanitizer reported a race" >&2
  cat "${out}" >&2
  exit 1
fi

# The batch runner: 7 jobs racing through the shared pool and the
# scope-sharded cross-job cache, each job's workers racing check() and
# consume_testbench() on that job's own budget. The batch pool runs
# min(8, cores) workers; the flow run above keeps 8 real threads on any
# machine, because a FlowEngine's own pool is not capped.
batch_out="${tmp}/batch_stdout.txt"
OLP_THREADS=8 OLP_TESTBENCH_BUDGET=2000 \
  TSAN_OPTIONS="${tsan_opts}" \
  "${build_dir}/examples/batch_flows" > "${batch_out}" 2>&1
echo "tsan smoke: sanitized batch exited 0 with cache sharing"

if grep -q "ThreadSanitizer" "${batch_out}"; then
  echo "tsan smoke: ThreadSanitizer reported a race in the batch" >&2
  cat "${batch_out}" >&2
  exit 1
fi

echo "tsan smoke run passed"
