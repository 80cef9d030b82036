"""One closed-loop client: runs a workload's passes through
``transversal.cli.main(argv)`` in this process and writes a JSON report.

    python3 perfbench/client.py --workdir DIR --src SRC --seconds S
                                [--trace] [--spans FILE] --out FILE

The pass in DIR/ops.json is repeated until S seconds of wall time have gone
by (at least one pass).  Every solve is followed by ``--verify`` on the
certificate it printed, as many times as the operation asks for.  Each distinct
output is checked once by the benchmark's own checker; repeats must print
the same bytes.  The calibration kernel runs before every call, and the
report gives each call's time both as measured and scaled to the reference
host speed (see calibrate.py).
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import statistics
import sys
import time

import calibrate


def run_main(main, argv):
    """Call main(argv) with stdout/stderr captured.

    Returns (seconds, exit code or None, stdout text, crash text or None).
    """
    out, err = io.StringIO(), io.StringIO()
    crash = None
    code = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = main(argv)
        except (Exception, SystemExit) as exc:  # a crash is a result to report
            crash = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
    return elapsed, code, out.getvalue(), crash


def parse_envelope(text):
    try:
        envelope = json.loads(text)
    except json.JSONDecodeError:
        return None
    return envelope if isinstance(envelope, dict) else None


class Client:
    def __init__(self, workdir, main, checker, tracer=None):
        self.workdir = workdir
        self.main = main
        self.checker = checker
        self.tracer = tracer
        self.cals = []  # calibration kernel time before each call
        self.solve = []  # (seconds, index into cals)
        self.verify = []
        self.attempted = 0
        self.failures = {}  # op id -> [count, kind, reason]
        self.checked = {}  # (op id, mode) -> (digest, reason)
        self.digests = {}  # op id -> digest of the first solve output
        self.certs = {}  # op id -> digest of the certificate file on disk

    def fail(self, op_id, kind, reason):
        entry = self.failures.setdefault(op_id, [0, kind, reason])
        entry[0] += 1

    def invoke(self, pass_no, op_id, mode, argv):
        """Run one call; returns (exit code, stdout text, crash text)."""
        self.cals.append(calibrate.timed_kernel())
        main = self.main
        if self.tracer is not None:
            self.tracer.tag = (pass_no, op_id, mode)
            main = self.tracer.span("cli.main", self.main)
        elapsed, code, text, crash = run_main(main, argv)
        samples = self.verify if mode == "verify" else self.solve
        samples.append((elapsed, len(self.cals) - 1))
        return code, text, crash

    def run_op(self, pass_no, op):
        op_id = op["id"]
        self.attempted += 1
        code, text, crash = self.invoke(pass_no, op_id, "solve", op["argv"])
        if crash is not None:
            self.fail(op_id, "wrong", f"traceback: {crash}")
            return
        digest = hashlib.sha256(text.encode()).hexdigest()
        self.digests.setdefault(op_id, digest)
        envelope = parse_envelope(text)
        if envelope is None:
            self.fail(op_id, "wrong", "stdout is not one JSON object")
            return
        reason = self.check(op_id, "solve", digest,
                            lambda: self.checker.solve(op, envelope, code))
        if reason is not None:
            refused = envelope.get("status") == "resource-limit"
            self.fail(op_id, "refused" if refused else "wrong", reason)
        if not op["verify"] or envelope.get("payload") is None \
                or envelope.get("status") not in ("found", "not-found"):
            return
        cert = f"cert-{op_id}.json"
        if self.certs.get(op_id) != digest:
            with open(os.path.join(self.workdir, cert), "w", encoding="utf-8") as fh:
                json.dump(envelope["payload"], fh)
            self.certs[op_id] = digest
        for _ in range(op["verify"]):
            self.attempted += 1
            vcode, vtext, crash = self.invoke(
                pass_no, op_id, "verify", op["argv"] + ["--verify", cert])
            if crash is not None:
                self.fail(op_id + "/verify", "wrong", f"traceback: {crash}")
                return
            vdigest = hashlib.sha256(vtext.encode()).hexdigest()
            venvelope = parse_envelope(vtext)
            reason = self.check(op_id, "verify", vdigest,
                                lambda: "stdout is not one JSON object" if venvelope is None
                                else self.checker.verify(op, venvelope, vcode))
            if reason is not None:
                self.fail(op_id + "/verify", "wrong", reason)

    def check(self, op_id, mode, digest, run_check):
        seen = self.checked.get((op_id, mode))
        if seen is not None and seen[0] == digest:
            return seen[1]
        reason = run_check()
        if seen is not None:
            reason = reason or "output differs between passes"
        self.checked[(op_id, mode)] = (digest, reason)
        return reason

    def counts_snapshot(self):
        if self.tracer is None:
            return None
        counts = dict(self.tracer.counts)
        counts["spans"] = len(self.tracer.spans)
        return counts


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--src", required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--spans")
    ap.add_argument("--out", required=True)
    args = ap.parse_args()

    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, args.src)
    from checker import Checker
    import transversal.cli as cli

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()

    with open(os.path.join(args.workdir, "ops.json"), encoding="utf-8") as fh:
        ops = json.load(fh)
    os.chdir(args.workdir)
    client = Client(args.workdir, cli.main, Checker(args.workdir), tracer)
    pass_counts = []
    pass_cals = []  # index of the first calibration of each pass
    passes = 0
    for _ in range(3):  # let the interpreter specialise the kernel first
        calibrate.kernel()
    start = time.perf_counter()
    while True:
        gc.collect()
        before = client.counts_snapshot()
        pass_cals.append(len(client.cals))
        for op in ops:
            client.run_op(passes, op)
        passes += 1
        if before is not None:
            after = client.counts_snapshot()
            pass_counts.append({k: after[k] - before[k] for k in after})
        if time.perf_counter() - start >= args.seconds:
            break
    client.cals.append(calibrate.timed_kernel())
    pass_cals.append(len(client.cals))
    scale = calibrate.factors(client.cals)

    report = {
        "passes": passes,
        "ops_per_pass": len(ops),
        "solve_s": [t * scale[i] for t, i in client.solve],
        "verify_s": [t * scale[i] for t, i in client.verify],
        "raw_solve_s": [t for t, _ in client.solve],
        "raw_verify_s": [t for t, _ in client.verify],
        "speed": statistics.median(scale),
        "attempted": client.attempted,
        "failures": client.failures,
        "digests": client.digests,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        from tracing import summarise, write_spans

        report["pass_counts"] = pass_counts
        report["absent"] = tracer.absent
        report["pass_layers"] = []
        for p in range(passes):
            factor = statistics.median(scale[pass_cals[p]:pass_cals[p + 1]])
            layers = summarise(tracer.spans, {(p, op["id"], mode) for op in ops
                                              for mode in ("solve", "verify")})
            report["pass_layers"].append({k: v * factor for k, v in layers.items()})
        if args.spans:
            write_spans(args.spans, tracer.spans)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh)


if __name__ == "__main__":
    main()
