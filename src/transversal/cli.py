"""Command-line frontend: every solver behind one binary with JSON files in
and a machine-readable result envelope out.

Envelope: {"status": found|not-found|invalid-input|resource-limit,
"payload": certificate, "diagnostics": text}; exit codes 0/1/2/3 in the
same order.  ``--verify CERT.json`` re-checks a previously emitted
certificate with the library checker of its subcommand, never a solver.

Each subcommand is one row of `_COMMANDS`, by which `main` reads argv (no
argparse) and runs: load the files, make the problem, then verify or solve.
A row's solver is the library function that returns (status, payload,
diagnostics) itself, or, for the commands whose library function returns a
plain number, array or rectangle, a small adapter here.

`main` pauses the cyclic garbage collector for the call, since no call
makes a reference cycle, and leaves it as it found it.
"""

from __future__ import annotations

import functools
import gc
import json
import sys
from collections.abc import Callable
from operator import attrgetter
from types import SimpleNamespace
from typing import NamedTuple

# The rows name their builders, solvers and checkers by paths into these modules.
from . import birkhoff, core, graphs, groups, hypersdr, latin, matroids, posets
from .errors import ResourceLimitError, ValidationError

_EXIT = {"found": 0, "not-found": 1, "invalid-input": 2, "resource-limit": 3}

# `bounds` prints exact fractions.  From n = 43 on, the Latin bound
# (n!)^(2n) / n^(n^2) can pass CPython's 4300-digit limit for printing an
# int, and in the hundreds it takes seconds to compute.
_BOUNDS_CEILING = 42


def _load(path, field):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}", field=field) from exc
    except (ValueError, RecursionError) as exc:  # bad JSON or UTF-8, or nested too deep
        raise ValidationError(f"{path} is not valid JSON: {exc}", field=field) from exc


def _described(exc: ValidationError) -> str:
    return f"{exc} (field: {exc.field})" if exc.field else str(exc)


def _verify(path, check, *problem):
    """Re-check the certificate at `path` with ``check(*problem, cert)``.
    Only a certificate that is not a JSON object is invalid input; one that
    fails any check, its shape included, is rejected."""
    cert = _load(path, "certificate")
    if not isinstance(cert, dict):
        raise ValidationError(f"{path} must hold a JSON object", field="certificate")
    try:
        ok, reason = check(*problem, cert)
    except ValidationError as exc:
        ok, reason = False, _described(exc)
    if ok:
        return "found", {"valid": True}, "certificate re-validates"
    return "not-found", {"valid": False, "reason": reason}, f"certificate rejected: {reason}"


def _library(path):
    """The attribute at `path` of this module, such as "core.SetFamily.from_json"
    or "_bounds", looked up at each call, so that a wrapper set on it after
    import runs."""
    return attrgetter(path)(sys.modules[__name__])


def _build(*paths):
    """A loader that builds its k-th value with the package function at the
    k-th of `paths` and passes the values after them on as they are."""
    def load(*values):
        return (*[_library(p)(v) for p, v in zip(paths, values)], *values[len(paths):])
    return load


def _coset_problem(group, generators):
    """The problem of `cosets`: the group that the group file holds, and the
    subgroup that `generators`, a JSON list of element ids, generates."""
    group = groups.group_from_json(group)
    try:
        generators = json.loads(generators)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"--generators is not valid JSON: {exc}",
                              field="generators") from exc
    generators = groups.elements_from_json(generators, "generators")
    return group, groups.subgroup_closure(group, generators)


# ---------------------------------------------------------------------------
# Adapters, for the commands whose library function returns a plain value.
# Each takes the problem its command's loader made, and the ceiling when its
# command takes one, and returns (status, payload, diagnostics), as every
# library solver a row names does.  None is handed the arguments, so none can
# read a certificate.


def _count_sdr(family, **limits):
    count = core.count_sdrs(family, **limits)
    return "found", {"count": count}, f"{count} systems"


def _array_sdr(arr, **limits):
    grid = core.array_sdr(arr, **limits)
    if grid is None:
        return "not-found", None, "exhaustive search found no array system"
    return "found", {"grid": [list(r) for r in grid]}, "array system found"


def _permanent(matrix, **limits):
    value = birkhoff.file_permanent(matrix, **limits)
    birkhoff._check_printable("the permanent", value)
    return "found", {"permanent": str(value)}, "permanent computed"


def _bounds(n, regular):
    if n > _BOUNDS_CEILING:
        raise ResourceLimitError(f"n = {n} is above the bounds ceiling {_BOUNDS_CEILING}")
    payload = {"n": n, "vdw": str(birkhoff.vdw_bound(n)),
               "latin": str(latin.latin_lower_bound(n)),
               "regular": None if regular is None
               else str(birkhoff.regular_matching_bound(n, regular))}
    return "found", payload, "bounds computed"


def _latin_extend(rect):
    extended = latin.extend_row(rect)
    return "found", extended.to_json(), f"now {extended.m} rows"


def _latin_complete(rect):
    return "found", latin.complete(rect).to_json(), "completed to a square"


def _latin_count(n, **limits):
    count = latin.count_latin_squares(n, **limits)
    return "found", {"n": n, "count": count}, f"{count} squares"


def _youden(design):
    array = latin.youden_from_design(design)
    return "found", {"array": [list(r) for r in array]}, f"{len(array)} rows"


class Command(NamedTuple):
    """One subcommand.  `files` names its JSON files and `options` its other
    arguments, as (name, keywords): `type`, `choices`, `default`, `required`.
    `load` makes the problem from the loaded files and then the option
    values.  `solve` is the path of the solver, which takes the problem, and
    the ceiling when `ceiling` is set and one is given.  `check` is the path
    of the library checker behind --verify, or None for none; `precheck`, if
    set, must accept the problem before the certificate is read."""

    name: str
    files: tuple
    load: Callable
    solve: str
    check: str | None = None
    ceiling: bool = False
    options: tuple = ()
    precheck: Callable | None = None


_family = _build("core.SetFamily.from_json")
_bigraph = _build("graphs.BipartiteGraph.from_json")
_graph = _build("graphs.Graph.from_json")
_poset = _build("posets.Poset.from_json")
_rectangle = _build("latin.LatinRectangle.from_json")
_ORDER = ("n", {"type": int, "required": True})  # the order n of `bounds` and `latin-count`

_COMMANDS = {c.name: c for c in (
    Command("sdr", ("family",), _family, "core.hall_check", "core.verify_sdr"),
    Command("defect", ("family",), _family, "core.partial_sdr", "core.verify_defect"),
    Command("count-sdr", ("family",), _family, "_count_sdr", ceiling=True),
    Command("array-sdr", ("array",), _build("core.ArrayFamily.from_json"), "_array_sdr",
            "core.verify_array_sdr", ceiling=True),
    Command("matching", ("graph",), _bigraph, "graphs.max_matching", "graphs.verify_matching"),
    Command("cover", ("graph",), _bigraph, "graphs.konig_cover", "graphs.verify_cover"),
    Command("menger", ("graph",), _graph, "graphs.menger_paths", "graphs.verify_menger",
            options=(("--source", {"required": True}), ("--sink", {"required": True}),
                     ("--mode", {"choices": ("edge", "vertex"), "default": "vertex"})),
            precheck=lambda g, source, sink, mode: graphs.check_endpoints(g, source, sink)),
    Command("maxflow", ("network",), _build("graphs.FlowNetwork.from_json"),
            "graphs.max_flow_min_cut", "graphs.verify_maxflow"),
    Command("dilworth", ("poset",), _poset, "posets.dilworth", "posets.verify_dilworth"),
    Command("mirsky", ("poset",), _poset, "posets.mirsky", "posets.verify_mirsky"),
    Command("perfect", ("graph",), _graph, "posets.is_perfect", "posets.verify_perfect",
            ceiling=True),
    Command("birkhoff", ("matrix",), _build("birkhoff.RationalMatrix.from_json"),
            "birkhoff.birkhoff_decompose", "birkhoff.verify_birkhoff"),
    Command("permanent", ("matrix",), _build(), "_permanent", ceiling=True),
    Command("bounds", (), _build(), "_bounds", options=(_ORDER, ("--regular", {"type": int}))),
    Command("latin-extend", ("rectangle",), _rectangle, "_latin_extend",
            "latin.verify_extension"),
    Command("latin-complete", ("rectangle",), _rectangle, "_latin_complete",
            "latin.verify_completion"),
    Command("latin-count", (), _build(), "_latin_count", ceiling=True, options=(_ORDER,)),
    Command("youden", ("design",), _build("latin.BlockDesign.from_json"), "_youden",
            "latin.verify_youden"),
    Command("rado", ("family", "matroid"),
            _build("core.SetFamily.from_json", "matroids.matroid_from_json"),
            "matroids.rado_check", "matroids.verify_rado", precheck=matroids.check_ground),
    Command("cosets", ("group",), _coset_problem, "groups.coset_system", "groups.verify_cosets",
            options=(("--generators", {"required": True}),)),
    Command("hyper-sdr", ("family",), _build("hypersdr.HypergraphFamily.from_json"),
            "hypersdr.find_hyper_sdr", "hypersdr.verify_hyper_sdr", ceiling=True),
)}


@functools.cache
def _build_parser():
    """Each subcommand's arguments, by name in table order: a dict from each flag, and
    from the index of each positional, to (name, keywords as in `Command.options`)."""
    specs = {}
    for command in _COMMANDS.values():
        arguments = [*((name, {"required": True}) for name in command.files), *command.options,
                     *[("--ceiling", {"type": int, "metavar": "N"})] * command.ceiling,
                     *[("--verify", {"metavar": "CERT"})] * bool(command.check)]
        spec = dict(enumerate((name, kw) for name, kw in arguments if name[:2] != "--"))
        specs[command.name] = spec | {f: (f[2:], kw) for f, kw in arguments if f[:2] == "--"}
    return specs


def _print_usage(argv):
    """Print the usage line of the subcommand that `argv` names, or of every one."""
    specs = _build_parser()
    for name in [argv[0]] if argv[0] in specs else specs:
        words = ["usage: transversal", name]
        for key, (dest, kw) in specs[name].items():
            value = "|".join(kw.get("choices", ())) or kw.get("metavar", dest.upper())
            word = dest if isinstance(key, int) else f"{key} {value}"
            words.append(word if kw.get("required") else f"[{word}]")
        print(" ".join(words))


def _read_argv(argv):
    """The row `argv` names and its arguments, as a namespace.  A flag is `--flag value` or
    `--flag=value` by exact name, anywhere; the last repeat wins; after `--` all is positional."""
    specs = _build_parser()
    if not argv or argv[0] not in specs:
        raise ValidationError(f"choose a subcommand from {', '.join(specs)}", field="command")
    spec = specs[argv[0]]
    values = {dest: kw.get("default") for dest, kw in spec.values()}
    position, rest, tokens = 0, False, iter(argv[1:])
    for token in tokens:
        if not rest and (rest := token == "--"):
            continue
        if token.startswith("--") and not rest:
            key, eq, value = token.partition("=")
            if key in spec and not eq and (value := next(tokens, "--")).startswith("--"):
                raise ValidationError(f"{key} needs a value", field=spec[key][0])
        else:
            key, value, position = position, token, position + 1
        if key not in spec:
            raise ValidationError(f"{argv[0]} takes no argument {token}", field="argv")
        dest, kw = spec[key]
        try:
            values[dest] = kw.get("type", str)(value)
            if values[dest] not in kw.get("choices", (values[dest],)):
                raise ValueError(value)
        except ValueError:
            raise ValidationError(f"{value!r} is not a valid {dest}", field=dest) from None
    missing = [dest for dest, kw in spec.values() if kw.get("required") and values[dest] is None]
    if missing:
        raise ValidationError(f"{argv[0]} needs {' and '.join(missing)}", field=missing[0])
    return _COMMANDS[argv[0]], SimpleNamespace(**values)


def main(argv=None) -> int:
    """Run one subcommand on `argv` (default: the process arguments), print its envelope
    and return the exit code; or, given -h or --help, print usage and return 0."""
    argv = sys.argv[1:] if argv is None else argv
    if "-h" in argv or "--help" in argv:
        _print_usage(argv)
        return 0
    # Nothing a call makes is cyclic, so a collection during it would walk the
    # loaded input and free nothing: the collector is paused until the
    # envelope is written, and then left as the caller had it.
    collecting = gc.isenabled()
    gc.disable()
    try:
        try:
            command, args = _read_argv(argv)
            ceiling = getattr(args, "ceiling", None)
            if ceiling is not None and ceiling < 0:
                raise ValidationError(f"--ceiling {ceiling} is negative", field="ceiling")
            # No reference to a loaded file outlives the build, so none is held in the solve.
            problem = command.load(
                *[_load(getattr(args, name), name) for name in command.files],
                *[getattr(args, flag.lstrip("-")) for flag, _ in command.options])
            if getattr(args, "verify", None) is not None:
                if command.precheck:
                    command.precheck(*problem)
                result = _verify(args.verify, _library(command.check), *problem)
            else:
                limits = {} if ceiling is None else {"ceiling": ceiling}
                result = _library(command.solve)(*problem, **limits)
            status, payload, diagnostics = result
        except ValidationError as exc:
            status, payload, diagnostics = "invalid-input", None, _described(exc)
        except ResourceLimitError as exc:
            status, payload, diagnostics = "resource-limit", None, str(exc)
        envelope = {"status": status, "payload": payload, "diagnostics": diagnostics}
        # json.dumps runs the C encoder; json.dump always encodes in Python.
        sys.stdout.write(json.dumps(envelope) + "\n")
        if status in ("invalid-input", "resource-limit"):
            print(diagnostics, file=sys.stderr)
        return _EXIT[status]
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
