"""Benchmark for the ``transversal`` command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py [--seed N ...]     every workload, one after another
    python3 perfbench/run.py --smoke

Run from the repository root.  Inputs are generated from the seed into
``.perfbench_work/`` and every operation goes through the in-process entry
point ``transversal.cli.main(argv)`` in a separate single-threaded client
process (closed loop: the next call starts when the previous one returns).
Every output is checked by ``checker.py``, which shares no code with the
package.

Times are reported scaled to a reference host speed, measured by a
calibration kernel run before every call (see calibrate.py), because the
shared host's own speed drifts far more than the bounds allow; the times as
measured go to the full report.

--trace 0 reports the end-to-end metrics, measured with no wrappers
installed.  --trace 1 reports the per-layer metrics: an untraced client and
a traced client each run for half the time, a second traced client runs one
pass, and their counters and output digests must agree exactly.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  Lines before it repeat the metrics for
people, with the tail percentile and its sample count, and the machine.
A full report goes to ``.perfbench_out/``.

--smoke runs every workload for one pass at reduced sizes in both modes and
checks that every metric is present and that the only failures are the
known defects listed in KNOWN_DEFECTS.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"

sys.path.insert(0, str(HERE))
import calibrate  # noqa: E402
import workloads  # noqa: E402
from tracing import per_layer_names  # noqa: E402

END_TO_END = (
    ("ops_per_s", "1/s"),
    ("latency_p50_s", "s"),
    ("latency_tail_s", "s"),
    ("verify_p50_s", "s"),
    ("ok_share", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

# Operations that fail at the commit that introduced the benchmark; each
# fails once per pass.  rado-graphic-30: violator search enumerates 2^n
# subsets and refuses above 20 sets.
KNOWN_DEFECTS = {"desk-mix": ("rado-graphic-30",)}

SETUP_SAMPLES = 15
SETUP_SNIPPET = (
    "import sys, time; sys.path[:0] = sys.argv[1:3]; import calibrate; "
    "t = time.perf_counter(); import transversal.cli; t = time.perf_counter() - t; "
    "print(t, sorted(calibrate.timed_kernel() for _ in range(3))[1])"
)
# A run, set-up included, must end within this many seconds.
RUN_BUDGET_S = 170


class BenchError(Exception):
    pass


def machine():
    sha = "unknown"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        sha = done.stdout.strip() or sha
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"git_sha": sha, "python": platform.python_version(),
            "nproc": os.cpu_count(), "cpu": cpu}


def measure_setup():
    """Median wall time of a cold ``import transversal.cli``, each in a
    fresh interpreter and scaled by the calibration kernel run right after
    it in that interpreter."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run([sys.executable, "-c", SETUP_SNIPPET, str(SRC), str(HERE)],
                              capture_output=True, text=True, timeout=60)
        if done.returncode != 0:
            raise BenchError(f"import transversal.cli failed:\n{done.stderr}")
        seconds, cal = map(float, done.stdout.split())
        samples.append(seconds * calibrate.REFERENCE_S / cal)
    return statistics.median(samples)


def run_client(workdir, seconds, tag, deadline, trace=False, spans=None):
    out = workdir / f"report-{tag}.json"
    cmd = [sys.executable, str(HERE / "client.py"), "--workdir", str(workdir),
           "--src", str(SRC), "--seconds", str(seconds), "--out", str(out)]
    if trace:
        cmd.append("--trace")
    if spans:
        cmd += ["--spans", str(spans)]
    timeout = max(1.0, deadline - time.monotonic())
    try:
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"client {tag} did not finish within the {RUN_BUDGET_S} s budget") from exc
    if done.returncode != 0:
        raise BenchError(f"client {tag} exited with {done.returncode}:\n{done.stderr}")
    with open(out, encoding="utf-8") as fh:
        return json.load(fh)


def percentile(values, p):
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=1000, method="inclusive")[round(p * 10) - 1]


def failed_count(report):
    return sum(entry[0] for entry in report["failures"].values())


def wrong(report):
    return [op for op, entry in report["failures"].items() if entry[1] == "wrong"]


def end_to_end(name, report, setup_s):
    solve = report["solve_s"]
    verify = report["verify_s"]
    tail_p = workloads.TAIL_PERCENTILE[name]
    tail = percentile(solve, tail_p)
    metrics = {
        "ops_per_s": len(solve) / sum(solve),
        "latency_p50_s": statistics.median(solve),
        "latency_tail_s": tail,
        "verify_p50_s": statistics.median(verify),
        "ok_share": 1 - failed_count(report) / report["attempted"],
        "setup_s": setup_s,
        "peak_rss_mb": report["peak_rss_mb"],
    }
    beyond = sum(1 for x in solve if x > tail)
    notes = {
        "latency_tail_s": f"p{tail_p} of {len(solve)} solve samples, {beyond} beyond",
        "verify_p50_s": f"median of {len(verify)} --verify samples",
        "ok_share": f"1 - fail_share; fail_share {failed_count(report) / report['attempted']:.4g}"
                    f" ({failed_count(report)} of {report['attempted']} operations failed)",
        "setup_s": f"median of {SETUP_SAMPLES} cold imports",
        "ops_per_s": f"host speed x{report['speed']:.3g} of the reference; as measured"
                     f" {len(solve) / sum(report['raw_solve_s']):.4g} 1/s",
    }
    return metrics, notes


def per_layer(base, traced, second):
    """Per-layer metrics from the first traced client, medians over passes
    for times and the first pass for counters; plus determinism checks."""
    counts = traced["pass_counts"][0]
    metrics = {}
    for name, unit in per_layer_names():
        if unit == "count":
            metrics[name] = counts.get(name, 0)
        elif unit == "s":
            metrics[name] = statistics.median(p.get(name, 0.0) for p in traced["pass_layers"])
    rows = counts["bitmatch.lex_rows"]
    metrics["bitmatch.lex_probes_per_row"] = counts["bitmatch.lex_probes"] / rows if rows else 0
    ops = [len(r["solve_s"]) / sum(r["solve_s"]) for r in (base, traced)]
    metrics["trace.overhead_ratio"] = ops[0] / ops[1]
    problems = []
    if any(c != counts for c in traced["pass_counts"]):
        problems.append("counters differ between passes of one traced run")
    if second["pass_counts"][0] != counts:
        problems.append("counters differ between two traced runs")
    if not base["digests"] == traced["digests"] == second["digests"]:
        problems.append("emitted envelopes differ between runs")
    return metrics, problems


def run(name, seed, seconds, trace, small=False):
    deadline = time.monotonic() + RUN_BUDGET_S
    workdir = WORK / f"{name}-{seed}-{os.getpid()}"
    OUT.mkdir(exist_ok=True)
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        ops = workloads.build(name, seed, str(workdir), small=small)
        with open(workdir / "ops.json", "w", encoding="utf-8") as fh:
            json.dump(ops, fh)
        if not trace:
            setup_s = measure_setup()
            report = run_client(workdir, seconds, "e2e", deadline)
            metrics, notes = end_to_end(name, report, setup_s)
            reports = [report]
            problems = []
            units = dict(END_TO_END)
        else:
            base = run_client(workdir, seconds / 2, "untraced", deadline)
            traced = run_client(workdir, seconds / 2, "traced", deadline, trace=True,
                                spans=OUT / f"spans-{name}.jsonl")
            second = run_client(workdir, 0, "traced-again", deadline, trace=True)
            metrics, problems = per_layer(base, traced, second)
            notes = {"absent hooks": ", ".join(traced["absent"]) or "none"}
            reports = [base, traced, second]
            units = dict(per_layer_names())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failures = {}
    for r in reports:
        for op, (count, kind, reason) in r["failures"].items():
            failures.setdefault(op, [0, kind, reason])[0] += count
    result = {
        "correct": not problems and not any(wrong(rep) for rep in reports),
        "attempted": sum(r["attempted"] for r in reports),
        "failed": sum(failed_count(r) for r in reports),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    detail = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "machine": machine(), "passes": [r["passes"] for r in reports],
        "ops_per_pass": reports[0]["ops_per_pass"], "notes": notes,
        "failures": failures, "problems": problems, "result": result,
    }
    if trace:
        detail["counters"] = reports[1]["pass_counts"][0]
    else:
        detail["samples"] = {k: reports[0][k] for k in
                             ("solve_s", "verify_s", "raw_solve_s", "raw_verify_s")}
    with open(OUT / f"{name}-seed{seed}-trace{trace}.json", "w", encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1)
    return result, detail


def show(result, detail):
    print(f"workload {detail['workload']} seed {detail['seed']}: "
          f"{detail['ops_per_pass']} operations per pass, passes {detail['passes']}")
    for name, m in result["metrics"].items():
        note = detail["notes"].get(name)
        print(f"  {name:36s} {m['value']:.6g} {m['unit']}" + (f"  ({note})" if note else ""))
    if "absent hooks" in detail["notes"]:
        print(f"  absent hooks: {detail['notes']['absent hooks']}")
    for op, (count, kind, reason) in sorted(detail["failures"].items()):
        print(f"  failed {count}x {op} [{kind}]: {reason}")
    for problem in detail["problems"]:
        print(f"  problem: {problem}")
    print("  machine: " + ", ".join(f"{k}={v}" for k, v in detail["machine"].items()))


def smoke():
    ok = True
    for name in workloads.WORKLOADS:
        known = set(KNOWN_DEFECTS.get(name, ()))
        for trace, names in ((0, [n for n, _ in END_TO_END]),
                             (1, [n for n, _ in per_layer_names()])):
            result, detail = run(name, 0, 0, trace, small=True)
            missing = [n for n in names if n not in result["metrics"]]
            passes = sum(detail["passes"])
            failures = {op: e[0] for op, e in detail["failures"].items()}
            expected = {op: passes for op in known}
            good = result["correct"] and not missing and failures == expected
            ok = ok and good
            print(f"smoke {name} trace={trace}: {'ok' if good else 'FAILED'}"
                  f" (failed {result['failed']} of {result['attempted']})")
            if not good:
                print(f"  missing metrics: {missing}; failures {detail['failures']};"
                      f" expected failures {expected}; problems {detail['problems']}")
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    if not (SRC / "transversal" / "cli.py").is_file():
        print(f"error: {SRC / 'transversal'} is missing; run from a source checkout",
              file=sys.stderr)
        return 2
    try:
        if args.smoke:
            return smoke()
        for name in [args.workload] if args.workload else workloads.WORKLOADS:
            result, detail = run(name, args.seed, args.seconds, args.trace)
            show(result, detail)
            print(json.dumps(result))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
