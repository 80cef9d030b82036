"""Replay every solve and ``--verify`` call of the benchmark workloads and
print one digest of what they printed.

    python3 tests/replay_digest.py [SEED ...]      (default seeds: 7 11)

For each seed and each workload of ``perfbench/workloads.py``, the pass's
input files are written to a temporary directory, every operation is run
once through ``transversal.cli.main`` there, and an answer with a payload
is checked once with ``--verify`` on that payload, as the benchmark client
does.  The output is the number of calls and the sha256 of every call's
(id, exit code, stdout), in order: two trees that print the same line
answer every call with the same bytes.  Not a test module: pytest does not
collect it.
"""

import contextlib
import hashlib
import io
import json
import os
import pathlib
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402
from transversal import cli  # noqa: E402


def run(argv):
    """(exit code, stdout) of one in-process call."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def replay(seeds):
    """(number of calls, sha256 hex digest) over `seeds` and every workload."""
    digest = hashlib.sha256()
    calls = 0
    home = os.getcwd()
    for seed in seeds:
        for name in workloads.WORKLOADS:
            with tempfile.TemporaryDirectory() as workdir:
                ops = workloads.build(name, seed, workdir)
                os.chdir(workdir)
                try:
                    for op in ops:
                        code, text = run(op["argv"])
                        calls += 1
                        digest.update(repr((f"{name}/{seed}/{op['id']}", code, text)).encode())
                        envelope = json.loads(text)
                        if (not op["verify"] or envelope.get("payload") is None
                                or envelope.get("status") not in ("found", "not-found")):
                            continue
                        cert = f"cert-{op['id']}.json"
                        with open(cert, "w", encoding="utf-8") as fh:
                            json.dump(envelope["payload"], fh)
                        code, text = run(op["argv"] + ["--verify", cert])
                        calls += 1
                        digest.update(repr((f"{name}/{seed}/{op['id']}/verify", code, text))
                                      .encode())
                finally:
                    os.chdir(home)
    return calls, digest.hexdigest()


if __name__ == "__main__":
    seeds = [int(s) for s in sys.argv[1:]] or [7, 11]
    calls, hexdigest = replay(seeds)
    print(f"{calls} calls, sha256 {hexdigest}")
