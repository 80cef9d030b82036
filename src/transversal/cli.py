"""Command-line frontend: every solver behind one binary with JSON files in
and a machine-readable result envelope out.

Envelope: {"status": found|not-found|invalid-input|resource-limit,
"payload": certificate, "diagnostics": text}; exit codes 0/1/2/3 in the
same order.  ``--verify CERT.json`` re-checks a previously emitted
certificate using only validators, never solvers.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import dataclass

from . import birkhoff, core, graphs, groups, hypersdr, latin, matroids, posets
from .errors import ResourceLimitError, ValidationError

_EXIT = {"found": 0, "not-found": 1, "invalid-input": 2, "resource-limit": 3}

# `bounds` prints exact fractions.  From n = 43 on, the Latin bound
# (n!)^(2n) / n^(n^2) can pass CPython's 4300-digit limit for printing an
# int, and in the hundreds it takes seconds to compute.
_BOUNDS_CEILING = 42


@dataclass
class ResultEnvelope:
    """What every invocation prints: a status, the certificate payload, and
    a short human-readable note."""

    status: str
    payload: object
    diagnostics: str

    @property
    def exit_code(self) -> int:
        return _EXIT[self.status]

    def to_json(self) -> dict:
        return {
            "status": self.status,
            "payload": self.payload,
            "diagnostics": self.diagnostics,
        }


def _load(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # bad JSON or UTF-8, or nested too deep
        raise ValidationError(f"{path} is not valid JSON: {exc}") from exc


def _described(exc: ValidationError) -> str:
    return f"{exc} (field: {exc.field})" if exc.field else str(exc)


def _verify(path, check, *problem):
    """Re-check the certificate at `path` with ``check(*problem, cert)``.
    Only a certificate that is not a JSON object is invalid input; one that
    fails any check, its shape included, is rejected."""
    cert = _load(path)
    if not isinstance(cert, dict):
        raise ValidationError(f"{path} must hold a JSON object", field="certificate")
    try:
        ok, reason = check(*problem, cert)
    except ValidationError as exc:
        ok, reason = False, _described(exc)
    if ok:
        return "found", {"valid": True}, "certificate re-validates"
    return "not-found", {"valid": False, "reason": reason}, f"certificate rejected: {reason}"


@functools.cache
def _print_limit():
    """10^4300: CPython prints no int of more digits (see
    `sys.get_int_max_str_digits`), and neither str() nor json.dumps can
    print a number that has a side of its bar at or past this."""
    return 10**birkhoff._DIGIT_CEILING


def _check_printable(what, *numbers):
    """Refuse, as too large to print (exit 3), a result whose `numbers`,
    ints or Fractions, have a side of the bar at or past `_print_limit()`."""
    limit = _print_limit()
    for x in numbers:
        if max(abs(x.numerator), x.denominator) >= limit:
            raise ResourceLimitError(
                f"{what} has over {birkhoff._DIGIT_CEILING} digits, too many to print")


def _ceiling(args):
    return {} if getattr(args, "ceiling", None) is None else {"ceiling": args.ceiling}


# ---------------------------------------------------------------------------
# Subcommand handlers.  Each loads its inputs, then either verifies the
# --verify certificate or solves, and returns (status, payload, diagnostics).


def _cmd_sdr(args):
    family = core.SetFamily.from_json(_load(args.family))
    if args.verify:
        return _verify(args.verify, core.verify_sdr, family)
    result = core.hall_check(family)
    if isinstance(result, core.Sdr):
        return "found", {"reps": list(result.reps)}, "SDR found"
    return (
        "not-found",
        {"indices": list(result.indices), "union": list(result.union)},
        f"{len(result.indices)} sets with a union of size {len(result.union)}",
    )


def _cmd_defect(args):
    family = core.SetFamily.from_json(_load(args.family))
    if args.verify:
        return _verify(args.verify, core.verify_defect, family)
    report = core.partial_sdr(family)
    payload = {
        "defect": report.defect,
        "partial": {str(i): x for i, x in sorted(report.partial.items())},
    }
    if report.violator is not None:
        payload["indices"] = list(report.violator.indices)
        payload["union"] = list(report.violator.union)
    return "found", payload, f"defect {report.defect}"


def _cmd_count_sdr(args):
    family = core.SetFamily.from_json(_load(args.family))
    count = core.count_sdrs(family, **_ceiling(args))
    return "found", {"count": count}, f"{count} systems"


def _cmd_array_sdr(args):
    arr = core.ArrayFamily.from_json(_load(args.array))
    if args.verify:
        return _verify(args.verify, core.verify_array_sdr, arr)
    grid = core.array_sdr(arr, **_ceiling(args))
    if grid is None:
        return "not-found", None, "exhaustive search found no array system"
    return "found", {"grid": [list(r) for r in grid]}, "array system found"


def _cmd_matching(args):
    g = graphs.BipartiteGraph.from_json(_load(args.graph))
    if args.verify:
        return _verify(args.verify, graphs.verify_matching, g)
    matching = graphs.max_matching(g)
    return (
        "found",
        {"edges": [list(e) for e in matching.edges], "size": len(matching)},
        f"matching of size {len(matching)}",
    )


def _cmd_cover(args):
    g = graphs.BipartiteGraph.from_json(_load(args.graph))
    if args.verify:
        return _verify(args.verify, graphs.verify_cover, g)
    matching, cover = graphs.konig_cover(g)
    payload = {
        "matching": [list(e) for e in matching.edges],
        "cover": {"partA": list(cover.in_a), "partB": list(cover.in_b)},
        "size": len(matching),
    }
    return "found", payload, f"matching and cover of size {len(matching)}"


def _cmd_menger(args):
    g = graphs.Graph.from_json(_load(args.graph))
    if args.verify:
        graphs.check_endpoints(g, args.source, args.sink)
        return _verify(args.verify, graphs.verify_menger, g, args.source, args.sink, args.mode)
    paths, cut = graphs.menger_paths(g, args.source, args.sink, args.mode)
    payload = {
        "paths": [list(p) for p in paths],
        "cut": [list(e) if isinstance(e, tuple) else e for e in cut],
        "count": len(paths),
    }
    return "found", payload, f"{len(paths)} disjoint paths, cut of equal size"


def _cmd_maxflow(args):
    net = graphs.FlowNetwork.from_json(_load(args.network))
    if args.verify:
        return _verify(args.verify, graphs.verify_maxflow, net)
    value, cut, flow = graphs.max_flow_min_cut(net)
    _check_printable("the maximum flow", value)  # each arc's flow is within its parsed capacity
    payload = {
        "value": value,
        "cut": [list(e) for e in cut],
        "flow": [[u, v, f] for (u, v), f in flow.items()],
    }
    return "found", payload, f"maximum flow {value}"


def _cmd_dilworth(args):
    p = posets.Poset.from_json(_load(args.poset))
    if args.verify:
        return _verify(args.verify, posets.verify_dilworth, p)
    partition, antichain = posets.dilworth(p)
    payload = {
        "chains": [list(c) for c in partition.chains],
        "antichain": list(antichain),
    }
    return "found", payload, f"{len(partition)} chains"


def _cmd_mirsky(args):
    p = posets.Poset.from_json(_load(args.poset))
    if args.verify:
        return _verify(args.verify, posets.verify_mirsky, p)
    partition, chain = posets.mirsky(p)
    payload = {
        "antichains": [list(a) for a in partition.antichains],
        "chain": list(chain),
    }
    return "found", payload, f"{len(partition)} antichain levels"


def _cmd_perfect(args):
    g = graphs.Graph.from_json(_load(args.graph))
    if args.verify:
        return _verify(args.verify, posets.verify_perfect, g)
    perfect, witness = posets.is_perfect(g, **_ceiling(args))
    # A graph is Berge (no odd hole or antihole) exactly when it is perfect.
    payload = {"perfect": perfect, "berge": perfect, "witness": list(witness) if witness else None}
    if perfect:
        return "found", payload, "graph is perfect"
    return "not-found", payload, "imperfect; witness subgraph attached"


def _cmd_birkhoff(args):
    m = birkhoff.RationalMatrix.from_json(_load(args.matrix))
    if args.verify:
        return _verify(args.verify, birkhoff.verify_birkhoff, m)
    dec = birkhoff.birkhoff_decompose(m)
    _check_printable("a coefficient", *(c for c, _ in dec.terms))
    payload = {
        "terms": [
            {"coefficient": str(c), "permutation": list(perm)} for c, perm in dec.terms
        ],
        "term_bound": birkhoff.term_bound(m),
    }
    return "found", payload, f"{len(dec)} terms"


def _cmd_permanent(args):
    value = birkhoff.file_permanent(_load(args.matrix), **_ceiling(args))
    _check_printable("the permanent", value)
    return "found", {"permanent": str(value)}, "permanent computed"


def _cmd_bounds(args):
    if args.n > _BOUNDS_CEILING:
        raise ResourceLimitError(f"n = {args.n} is above the bounds ceiling {_BOUNDS_CEILING}")
    payload = {
        "n": args.n,
        "vdw": str(birkhoff.vdw_bound(args.n)),
        "latin": str(latin.latin_lower_bound(args.n)),
        "regular": str(birkhoff.regular_matching_bound(args.n, args.regular))
        if args.regular is not None
        else None,
    }
    return "found", payload, "bounds computed"


def _cmd_latin_extend(args):
    rect = latin.LatinRectangle.from_json(_load(args.rectangle))
    if args.verify:
        return _verify(args.verify, latin.verify_extension, rect)
    extended = latin.extend_row(rect)
    return "found", extended.to_json(), f"now {extended.m} rows"


def _cmd_latin_complete(args):
    rect = latin.LatinRectangle.from_json(_load(args.rectangle))
    if args.verify:
        return _verify(args.verify, latin.verify_completion, rect)
    square = latin.complete(rect)
    return "found", square.to_json(), "completed to a square"


def _cmd_latin_count(args):
    count = latin.count_latin_squares(args.n, **_ceiling(args))
    return "found", {"n": args.n, "count": count}, f"{count} squares"


def _cmd_youden(args):
    design = latin.BlockDesign.from_json(_load(args.design))
    if args.verify:
        return _verify(args.verify, latin.verify_youden, design)
    array = latin.youden_from_design(design)
    return "found", {"array": [list(r) for r in array]}, f"{len(array)} rows"


def _cmd_rado(args):
    family = core.SetFamily.from_json(_load(args.family))
    oracle = matroids.matroid_from_json(_load(args.matroid))
    if args.verify:
        return _verify(args.verify, matroids.verify_rado, family, oracle)
    result = matroids.rado_check(family, oracle)
    if isinstance(result, matroids.Sir):
        return "found", {"reps": list(result.reps)}, "independent representatives found"
    payload = {
        "indices": list(result.indices),
        "union": list(result.union),
        "rank": result.rank,
    }
    return "not-found", payload, f"rank {result.rank} below {len(result.indices)} sets"


def _cmd_cosets(args):
    group = groups.group_from_json(_load(args.group))
    try:
        generators = json.loads(args.generators)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"--generators is not valid JSON: {exc}",
                              field="generators") from exc
    subgroup = groups.subgroup_closure(group, groups.elements_from_json(generators, "generators"))
    if args.verify:
        return _verify(args.verify, groups.verify_cosets, group, subgroup)
    system = groups.coset_system(group, subgroup)
    payload = {
        "subgroup": list(system.subgroup),
        "left": [list(c) for c in system.left],
        "right": [list(c) for c in system.right],
        "reps": list(system.reps),
        "family": core.SetFamily(range(system.index), system.family).to_json(),
    }
    return "found", payload, f"index {system.index}"


def _cmd_hyper_sdr(args):
    fam = hypersdr.HypergraphFamily.from_json(_load(args.family))
    if args.verify:
        return _verify(args.verify, hypersdr.verify_hyper_sdr, fam)
    limits = {}
    if args.ceiling is not None:
        limits["max_edges"] = args.ceiling
    result = hypersdr.find_hyper_sdr(fam, **limits)
    if result is not None:
        payload = {"selection": [sorted(e, key=repr) for e in result.selection]}
        return "found", payload, "hypergraph SDR found"
    holds, witness = hypersdr.ah_condition(fam, **limits)
    payload = {"witness": list(witness) if witness is not None else None}
    note = (
        "no SDR; sufficient condition fails at the attached subfamily"
        if not holds
        else "no SDR"
    )
    return "not-found", payload, note


# ---------------------------------------------------------------------------


@functools.cache
def _build_parser():
    parser = argparse.ArgumentParser(
        prog="transversal",
        description="Distinct-representative toolkit with verifiable certificates",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, *, ceiling=False, verify=True):
        p = sub.add_parser(name)
        p.set_defaults(handler=handler)
        if ceiling:
            p.add_argument("--ceiling", type=int, default=None,
                           help="override the desk-scale size limit")
        if verify:
            p.add_argument("--verify", metavar="CERT",
                           help="re-validate a previously emitted certificate")
        return p

    add("sdr", _cmd_sdr).add_argument("family")
    add("defect", _cmd_defect).add_argument("family")
    add("count-sdr", _cmd_count_sdr, ceiling=True, verify=False).add_argument("family")
    add("array-sdr", _cmd_array_sdr, ceiling=True).add_argument("array")
    add("matching", _cmd_matching).add_argument("graph")
    add("cover", _cmd_cover).add_argument("graph")
    p = add("menger", _cmd_menger)
    p.add_argument("graph")
    p.add_argument("--source", required=True)
    p.add_argument("--sink", required=True)
    p.add_argument("--mode", choices=("edge", "vertex"), default="vertex")
    add("maxflow", _cmd_maxflow).add_argument("network")
    add("dilworth", _cmd_dilworth).add_argument("poset")
    add("mirsky", _cmd_mirsky).add_argument("poset")
    add("perfect", _cmd_perfect, ceiling=True).add_argument("graph")
    add("birkhoff", _cmd_birkhoff).add_argument("matrix")
    add("permanent", _cmd_permanent, ceiling=True, verify=False).add_argument("matrix")
    p = add("bounds", _cmd_bounds, verify=False)
    p.add_argument("n", type=int)
    p.add_argument("--regular", type=int, default=None)
    add("latin-extend", _cmd_latin_extend).add_argument("rectangle")
    add("latin-complete", _cmd_latin_complete).add_argument("rectangle")
    add("latin-count", _cmd_latin_count, ceiling=True, verify=False).add_argument(
        "n", type=int
    )
    add("youden", _cmd_youden).add_argument("design")
    p = add("rado", _cmd_rado)
    p.add_argument("family")
    p.add_argument("matroid")
    p = add("cosets", _cmd_cosets)
    p.add_argument("group")
    p.add_argument("--generators", required=True,
                   help="JSON list of generator element ids")
    add("hyper-sdr", _cmd_hyper_sdr, ceiling=True).add_argument("family")
    return parser


def main(argv=None) -> int:
    """Run one subcommand on `argv` (default: the process arguments), print
    its envelope and return the exit code.  The parser is built on the first
    call and serves every later call in the process; argparse keeps no state
    between parses, so one call's options never reach the next."""
    args = _build_parser().parse_args(argv)
    try:
        if getattr(args, "ceiling", None) is not None and args.ceiling < 0:
            raise ValidationError(f"--ceiling {args.ceiling} is negative", field="ceiling")
        status, payload, diagnostics = args.handler(args)
    except ValidationError as exc:
        status, payload, diagnostics = "invalid-input", None, _described(exc)
    except ResourceLimitError as exc:
        status, payload, diagnostics = "resource-limit", None, str(exc)
    envelope = ResultEnvelope(status, payload, diagnostics)
    # json.dumps runs the C encoder; json.dump always encodes in Python.
    sys.stdout.write(json.dumps(envelope.to_json()) + "\n")
    if status in ("invalid-input", "resource-limit"):
        print(diagnostics, file=sys.stderr)
    return envelope.exit_code


if __name__ == "__main__":
    sys.exit(main())
