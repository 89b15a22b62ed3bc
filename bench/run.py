"""fibtor benchmark.

    python3 bench/run.py --workload sweep_genus1 --seed 0 --seconds 24 --trace 0
    python3 bench/run.py --workload all

Each run starts fresh interpreters (bench/worker.py) from the root of the
checkout, with the package from src/: SETUP_SAMPLES of them to measure
set-up, the last of which also runs the workload.  With --trace 0 the last
line of stdout is a JSON object with the end-to-end metrics; with --trace 1
it has the per-layer metrics of a traced run, and the spans are written to
bench/out/.  --negative-control perturbs outputs so the oracles must fail.
The exit code is 0 only when every output passed its oracle.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("sweep_genus1", "long_monodromy", "verify")
SETUP_SAMPLES = 5
BUDGET_S = 175.0
SETUP_KEYS = ("setup_s", "raw.setup_s", "setup.import_deps_ms",
              "setup.import_fibtor_ms", "catalog.build_ms")
END_TO_END_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "latency_p50_ms": "ms",
                    "latency_p90_ms": "ms", "peak_rss_mb": "MB"}


class BenchError(Exception):
    pass


def unit(name):
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith(("busy_ms", "self_ms")):
        return "ms/op"
    if name.endswith("_ms") or name.endswith(".ms"):
        return "ms"
    if name.endswith("_pct"):
        return "%"
    if name.endswith("_ratio"):
        return "ratio"
    if name == "scaling.exponent":
        return "log-log"
    return "count/op"


def spawn(args, deadline):
    env = dict(os.environ)
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["OMP_NUM_THREADS"] = "1"
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    spawned_at = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"),
             "--spawned-at", repr(spawned_at)] + args,
            cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
            timeout=max(1.0, deadline - spawned_at))
    except subprocess.TimeoutExpired as exc:
        raise BenchError("worker timed out") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError("worker exited with code %d" % proc.returncode)
    return json.loads(lines[-1])


def run_workload(name, seed, seconds, trace, negative_control, deadline):
    common = ["--workload", name, "--seed", str(seed), "--seconds", repr(seconds)]
    setups = [spawn(common + ["--setup-only"], deadline)["setup"]
              for _ in range(SETUP_SAMPLES - 1)]
    extra = ["--trace", str(trace)]
    if negative_control:
        extra.append("--negative-control")
    if trace:
        out_dir = os.path.join(HERE, "out")
        os.makedirs(out_dir, exist_ok=True)
        extra += ["--trace-out", os.path.join(out_dir, "trace-%s-seed%d.json.gz" % (name, seed))]
    result = spawn(common + extra, deadline)
    setups.append(result["setup"])
    medians = {key: statistics.median(s[key] for s in setups) for key in SETUP_KEYS}
    metrics = dict(result["metrics"])
    if trace:
        metrics.update({k: v for k, v in medians.items() if not k.endswith("setup_s")})
    else:
        metrics["setup_s"] = medians["setup_s"]
        result["raw"]["setup_s"] = medians["raw.setup_s"]
    result["metrics"] = metrics
    return result


def report(name, result):
    attempted, failed = result["attempted"], result["failed"]
    print("== %s: %d ops attempted, %d failed (fail_ratio %.4g), %d timed"
          % (name, attempted, failed, failed / attempted, result["timed_ops"]))
    if "traced_ops_per_s" in result:
        print("   ops_per_s untraced %.4g, traced %.4g"
              % (result["untraced_ops_per_s"], result["traced_ops_per_s"]))
    for metric, value in result["metrics"].items():
        raw = result.get("raw", {}).get(metric)
        print("   %-48s %14.6g %-8s%s" % (metric, value, unit(metric),
                                         "" if raw is None else " (raw %.6g)" % raw))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=24)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--negative-control", action="store_true")
    args = parser.parse_args(argv)
    deadline = time.monotonic() + BUDGET_S * (3 if args.workload == "all" else 1)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, args.trace,
                                         args.negative_control, deadline)
            report(name, results[name])
    except BenchError as exc:
        print("benchmark failed: %s" % exc, file=sys.stderr)
        return 2
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    metrics = {}
    for name, result in results.items():
        prefix = name + "." if len(results) > 1 else ""
        for metric, value in result["metrics"].items():
            metrics[prefix + metric] = {"value": value, "unit": unit(metric)}
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
