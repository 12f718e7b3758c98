#!/usr/bin/env python3
"""Builds bench_e2e from the repository sources and runs one workload.

    python3 bench/e2e/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
        [--json FILE] [--check REFERENCE] [--compare BASELINE]

The build goes to $CARGO_TARGET_DIR/e2e (default .bench_build/e2e at the
repository root). The run's full record (metrics, per-op outputs) is written
to --json, by default into <build>/out/, and a traced run's Chrome trace of
its first traced op next to it. The last stdout line is the benchmark's JSON
result.

--check compares the per-op outputs with a reference (reference_seed1.json);
--compare compares the end-to-end metrics with a baseline (baseline.json)
under the bounds in BENCHMARK.json. Either exits nonzero on a mismatch or a
regression.
"""

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return (base if base.is_absolute() else ROOT / base) / "e2e"


def build(out):
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"repository sources not found under {ROOT}")
    # Compiler temporaries stay inside the build tree too.
    tmp = out / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    if not (out / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(HERE), "-B", str(out), "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr, env=env).returncode != 0:
            fail("cmake configure failed", 1)
    jobs = str(min(4, os.cpu_count() or 1))
    step = ["cmake", "--build", str(out), "--target", "bench_e2e", "-j", jobs]
    if subprocess.run(step, stdout=sys.stderr, env=env).returncode != 0:
        fail("build failed", 1)
    return out / "bench_e2e"


def check_outputs(record, reference_path):
    """Per-op outputs must equal the reference's for every op both ran."""
    reference = json.loads(Path(reference_path).read_text())
    expected = reference.get(record["workload"], {})
    if expected.get("seed") != record["seed"]:
        return [f"reference has no {record['workload']} entry for seed {record['seed']}"]
    problems, common = [], 0
    for op in (op for op in record["ops"] if op["outputs"]):
        want = expected["ops"].get(op["name"])
        if want is None:
            continue
        common += 1
        if op["outputs"] != want:
            keys = sorted(set(op["outputs"]) | set(want))
            diff = [f"{k}: {op['outputs'].get(k)} != {want.get(k)}" for k in keys
                    if op["outputs"].get(k) != want.get(k)]
            problems.append(f"{op['name']}: " + "; ".join(diff))
    if common == 0:
        problems.append("no op of this run is in the reference")
    print(f"check: {common} ops compared with {reference_path}, {len(problems)} mismatches")
    return problems


def compare_metrics(record, spec, baseline_path):
    """Each end-to-end metric against the baseline median and its bound."""
    baseline = json.loads(Path(baseline_path).read_text())[record["workload"]]
    problems = []
    print(f"compare with {baseline_path} (median of {baseline['runs']} runs):")
    for metric in spec["end_to_end"]:
        name = metric["name"]
        base = baseline["end_to_end"][name]["median"]
        value = record["end_to_end"][name]["value"]
        delta = (value - base) / base
        worse = delta if metric["better"] == "lower" else -delta
        verdict = "REGRESSION" if worse > metric["bound"] else "ok"
        print(f"  {name:24s} {value:14.6g} vs {base:14.6g}  {delta:+8.2%}"
              f"  bound {metric['bound']:.0%}  {verdict}")
        if verdict != "ok":
            problems.append(f"{name} worse by {worse:.2%} (bound {metric['bound']:.0%})")
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, help="default: BENCHMARK.json run_seconds")
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--json")
    parser.add_argument("--check")
    parser.add_argument("--compare")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]

    started = time.monotonic()
    binary = build(build_dir())
    records = build_dir() / "out"
    records.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    json_path = Path(args.json or records / f"{tag}.json")
    command = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(seconds), "--trace", args.trace, "--json", str(json_path)]
    if args.trace == "1":
        command += ["--trace-out", str(json_path.with_suffix(".chrome.json"))]
    if json_path.exists():
        json_path.unlink()
    print(f"run.py: build ready after {time.monotonic() - started:.1f} s", file=sys.stderr)

    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"bench_e2e did not finish within {RUN_TIMEOUT_S} s", 1)
    lines = run.stdout.rstrip("\n").split("\n")
    if run.returncode not in (0, 1) or not json_path.is_file() or not lines[-1].startswith("{"):
        sys.stderr.write(run.stdout)
        fail(f"bench_e2e exited with code {run.returncode} and no result", 1)
    print("\n".join(lines[:-1]))

    record = json.loads(json_path.read_text())
    problems = []
    if args.check:
        problems += check_outputs(record, args.check)
    if args.compare:
        if args.trace == "1":
            print("compare: skipped, a traced run reports no end-to-end metrics")
        else:
            problems += compare_metrics(record, spec, args.compare)
    for problem in problems:
        print(f"  FAILED {problem}")
    print(f"record: {json_path}")
    print(lines[-1])
    sys.exit(1 if problems or run.returncode != 0 else 0)


if __name__ == "__main__":
    main()
