"""Layer spans recorded from outside the program.

``Tracer.install()`` replaces module attributes of the ``transversal``
package with timing wrappers; nothing in the package itself changes.  Spans
stay in memory as (id, parent, name, start, end, tag) tuples and are written
out by the caller when the run ends.  A hook whose target is missing (a
private kernel renamed or deleted later) is listed in ``absent`` and its
metrics read 0.

Attribution rules:

* ``<module>.{build,solve,validate}_s`` count the outermost span of that
  module only, so helpers calling helpers are not counted twice, and a
  constructor run inside a build span stays build time.
* ``cli.self_s`` / ``cli.verify_self_s`` are the duration of a ``main``
  call minus the time covered by its direct child spans.
* Kernel spans (``bitmatch.*``, ``graphs.edmonds_karp`` ...) count every
  outermost call of that kernel.
"""

from __future__ import annotations

import argparse
import importlib
import inspect
import json
import types
from math import comb
from time import perf_counter

MODULES = ("core", "graphs", "posets", "latin", "birkhoff", "matroids", "groups", "hypersdr")

# (module, attribute path, span name): shared kernels, several private.
KERNELS = (
    ("_bitmatch", "max_matching", "bitmatch.max_matching"),
    ("_bitmatch", "alternating_reachable", "bitmatch.alternating_reachable"),
    ("_bitmatch", "lex_least_assignment", "bitmatch.lex_least"),
    ("graphs", "_edmonds_karp", "graphs.edmonds_karp"),
    ("birkhoff", "_permanent_rows", "birkhoff.permanent_rows"),
    ("latin", "_permanent_rows", "birkhoff.permanent_rows"),
    ("matroids", "_exchange_path", "matroids.exchange_path"),
    ("matroids", "MatroidOracle.rank_of", "matroids.rank"),
    ("cli", "_build_parser", "cli.parse"),
    ("cli", "_load", "cli.load"),
    ("cli", "ResultEnvelope.to_json", "cli.emit"),
)

COUNT_METRICS = (
    "bitmatch.max_matching.calls",
    "bitmatch.max_matching.rows",
    "bitmatch.lex_least.calls",
    "bitmatch.lex_probes",
    "bitmatch.lex_rows",
    "graphs.edmonds_karp.calls",
    "birkhoff.permanent_rows.calls",
    "birkhoff.permanent_rows.terms",
    "core.count_sdrs.terms",
    "matroids.oracle_calls",
    "matroids.rank_calls",
    "matroids.exchange_paths",
)


def per_layer_names():
    """Every per-layer metric name with its unit and direction."""
    names = [
        ("bitmatch.max_matching.calls", "count"),
        ("bitmatch.max_matching.rows", "count"),
        ("bitmatch.max_matching.s", "s"),
        ("bitmatch.alternating_reachable.s", "s"),
        ("bitmatch.lex_least.calls", "count"),
        ("bitmatch.lex_least.s", "s"),
        ("bitmatch.lex_probes_per_row", "ratio"),
        ("graphs.edmonds_karp.calls", "count"),
        ("graphs.edmonds_karp.s", "s"),
        ("birkhoff.permanent_rows.calls", "count"),
        ("birkhoff.permanent_rows.s", "s"),
        ("birkhoff.permanent_rows.terms", "count"),
        ("core.count_sdrs.s", "s"),
        ("core.count_sdrs.terms", "count"),
        ("matroids.oracle_calls", "count"),
        ("matroids.rank_calls", "count"),
        ("matroids.exchange_paths", "count"),
        ("cli.parse_s", "s"),
        ("cli.load_s", "s"),
        ("cli.emit_s", "s"),
        ("cli.self_s", "s"),
        ("cli.verify_self_s", "s"),
    ]
    for module in MODULES:
        for kind in ("build", "solve", "validate"):
            names.append((f"{module}.{kind}_s", "s"))
    names.append(("trace.overhead_ratio", "ratio"))
    return names


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.tag = None
        self.counts = dict.fromkeys(COUNT_METRICS, 0)
        self.absent = []
        self.lex_depth = 0

    # -- recording ---------------------------------------------------------

    def span(self, name, fn, before=None, after=None):
        """Wrap fn in a span.  ``before(args)`` runs first; ``after(args,
        result, ok)`` runs last, also when fn raises (ok False)."""
        tracer = self

        def wrapper(*args, **kwargs):
            sid = len(tracer.spans)
            tracer.spans.append(None)
            parent = tracer.stack[-1] if tracer.stack else -1
            tracer.stack.append(sid)
            if before is not None:
                before(args)
            ok = False
            result = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                end = perf_counter()
                tracer.stack.pop()
                tracer.spans[sid] = (sid, parent, name, start, end, tracer.tag)
                if after is not None:
                    after(args, result, ok)
            return result

        return wrapper

    # -- installation ------------------------------------------------------

    def install(self):
        mods = {m: importlib.import_module(f"transversal.{m}")
                for m in MODULES + ("_bitmatch", "cli")}
        for module, path, name in KERNELS:
            self._patch(mods[module], path, name, self._hooks(name))
        # json.dump inside cli is the serialisation half of emit.
        cli_json = getattr(mods["cli"], "json", None)
        if isinstance(cli_json, types.ModuleType):
            proxy = types.SimpleNamespace(**vars(cli_json))
            proxy.dump = self.span("cli.emit", cli_json.dump)
            mods["cli"].json = proxy
        else:
            self.absent.append("cli.json.dump")
        argparse.ArgumentParser.parse_args = self.span(
            "cli.parse", argparse.ArgumentParser.parse_args)
        for module in MODULES:
            self._install_module(mods[module], module)

    def _install_module(self, mod, module):
        after = self._oracle_hook if module == "matroids" else None
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_"):
                continue
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                if attr.startswith(("validate_", "verify_")):
                    kind = "validate"
                elif attr.endswith("from_json"):
                    kind = "build"
                else:
                    kind = "solve"
                hook = self._count_sdrs_terms if attr == "count_sdrs" else after
                setattr(mod, attr, self.span(f"{module}.{kind}:{attr}", obj, after=hook))
            elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                raw = obj.__dict__.get("from_json")
                if isinstance(raw, classmethod):
                    wrapped = self.span(f"{module}.build:{obj.__name__}.from_json",
                                        raw.__func__, after=after)
                    setattr(obj, "from_json", classmethod(wrapped))

    def _patch(self, mod, path, name, hooks):
        owner = mod
        *parents, attr = path.split(".")
        for part in parents:
            owner = getattr(owner, part, None)
        target = getattr(owner, attr, None) if owner is not None else None
        if not callable(target):
            self.absent.append(f"{mod.__name__}.{path}")
            return
        before, after = hooks
        setattr(owner, attr, self.span(name, target, after=after, before=before))

    def _hooks(self, name):
        counts = self.counts

        def matching_before(args):
            counts["bitmatch.max_matching.calls"] += 1
            counts["bitmatch.max_matching.rows"] += len(args[0])
            if self.lex_depth:
                counts["bitmatch.lex_probes"] += 1

        def lex_before(args):
            counts["bitmatch.lex_least.calls"] += 1
            self.lex_depth += 1

        def lex_after(args, result, ok):
            self.lex_depth -= 1
            counts["bitmatch.lex_rows"] += len(result) if result else 0

        def permanent_before(args):
            counts["birkhoff.permanent_rows.calls"] += 1
            counts["birkhoff.permanent_rows.terms"] += (1 << len(args[0])) - 1

        def edmonds_before(args):
            counts["graphs.edmonds_karp.calls"] += 1

        def rank_before(args):
            counts["matroids.rank_calls"] += 1

        def exchange_after(args, result, ok):
            if result is not None:
                counts["matroids.exchange_paths"] += 1

        return {
            "bitmatch.max_matching": (matching_before, None),
            "bitmatch.lex_least": (lex_before, lex_after),
            "birkhoff.permanent_rows": (permanent_before, None),
            "graphs.edmonds_karp": (edmonds_before, None),
            "matroids.rank": (rank_before, None),
            "matroids.exchange_path": (None, exchange_after),
        }.get(name, (None, None))

    def _count_sdrs_terms(self, args, result, ok):
        sets = args[0].sets
        n = len(sets)
        m = len(set().union(*sets)) if sets else 0
        if ok and m >= n:
            self.counts["core.count_sdrs.terms"] += sum(comb(m, k) for k in range(1, n + 1))

    def _oracle_hook(self, args, result, ok):
        """Count independence-oracle calls of every matroid the package builds."""
        indep = getattr(result, "_indep", None)
        if type(result).__name__ != "MatroidOracle" or indep is None:
            return
        if getattr(indep, "__counted__", False):
            return
        counts = self.counts

        def counted(subset):
            counts["matroids.oracle_calls"] += 1
            return indep(subset)

        counted.__counted__ = True
        result._indep = counted


KERNEL_TIME = {"cli.parse": "cli.parse_s", "cli.load": "cli.load_s", "cli.emit": "cli.emit_s"}


def summarise(spans, tags):
    """Per-layer seconds for the spans whose tag is in `tags`.

    Returns {metric: seconds}.  Span tags are (pass, op id, mode) with mode
    "solve" or "verify"; root spans are named "cli.main".
    """
    by_id = {s[0]: s for s in spans if s is not None}
    children = {}
    for s in by_id.values():
        children.setdefault(s[1], []).append(s)
    out = {}

    def add(key, value):
        out[key] = out.get(key, 0.0) + value

    def walk(s, seen_modules, seen_names):
        sid, _, name, start, end, tag = s
        duration = end - start
        if name == "cli.main":
            covered = sum(c[4] - c[3] for c in children.get(sid, ()))
            add("cli.verify_self_s" if tag[2] == "verify" else "cli.self_s", duration - covered)
        elif ":" in name:
            module_kind = name.split(":", 1)[0]
            module = module_kind.split(".", 1)[0]
            if module not in seen_modules:
                add(f"{module_kind}_s", duration)
                seen_modules = seen_modules | {module}
            if name == "core.solve:count_sdrs":
                add("core.count_sdrs.s", duration)
        elif name not in seen_names:
            add(KERNEL_TIME.get(name, name + ".s"), duration)
        seen_names = seen_names | {name}
        for c in children.get(sid, ()):
            walk(c, seen_modules, seen_names)

    for s in children.get(-1, ()):
        if s[5] in tags:
            walk(s, frozenset(), frozenset())
    return out


def write_spans(path, spans):
    with open(path, "w", encoding="utf-8") as fh:
        for s in spans:
            if s is not None:
                fh.write(json.dumps(s, separators=(",", ":")) + "\n")
