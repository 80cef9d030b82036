"""Command-line frontend: every solver behind one binary with JSON files in
and a machine-readable result envelope out.

Envelope: {"status": found|not-found|invalid-input|resource-limit,
"payload": certificate, "diagnostics": text}; exit codes 0/1/2/3 in the
same order.  ``--verify CERT.json`` re-checks a previously emitted
certificate using only validators, never solvers.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from fractions import Fraction

from . import birkhoff, core, graphs, groups, hypersdr, latin, matroids, posets
from .errors import ResourceLimitError, ValidationError

_EXIT = {"found": 0, "not-found": 1, "invalid-input": 2, "resource-limit": 3}


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
            "payload": _plain(self.payload),
            "diagnostics": self.diagnostics,
        }


def _plain(value):
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, (set, frozenset)):
        return sorted((_plain(v) for v in value), key=repr)
    return value


def _load(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # bad JSON or UTF-8, or nested too deep
        raise ValidationError(f"{path} is not valid JSON: {exc}") from exc


def _load_cert(path) -> dict:
    cert = _load(path)
    if not isinstance(cert, dict):
        raise ValidationError(f"{path} must hold a JSON object", field="certificate")
    return cert


def _checked(ok, reason, payload_on_ok=None):
    if ok:
        return "found", payload_on_ok or {"valid": True}, "certificate re-validates"
    return "not-found", {"valid": False, "reason": reason}, f"certificate rejected: {reason}"


def _ceiling(args):
    return {} if getattr(args, "ceiling", None) is None else {"ceiling": args.ceiling}


# ---------------------------------------------------------------------------
# Subcommand handlers.  Each returns (status, payload, diagnostics).


def _cmd_sdr(args):
    family = core.SetFamily.from_json(_load(args.family))
    if args.verify:
        cert = _load_cert(args.verify)
        if "reps" in cert:
            ok, reason = core.validate_sdr(family, cert["reps"])
            return _checked(ok, reason)
        try:
            violator = core.HallViolator(tuple(cert["indices"]), tuple(cert["union"]))
        except (KeyError, TypeError, ValidationError) as exc:
            return _checked(False, str(exc))
        ok, reason = core.verify_hall_violator(family, violator)
        return _checked(ok, reason)
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
        cert = _load_cert(args.verify)
        try:
            defect = cert["defect"]
            partial = {int(k): v for k, v in cert["partial"].items()}
        except (KeyError, TypeError, ValueError) as exc:
            return _checked(False, f"malformed report: {exc}")
        if len(partial) != family.n - defect:
            return _checked(False, "partial size does not match n - defect")
        seen = set()
        for i, x in partial.items():
            if not 0 <= i < family.n or x not in family.sets[i]:
                return _checked(False, f"assignment {i} -> {x!r} is not a membership")
            if x in seen:
                return _checked(False, f"value {x!r} is assigned twice")
            seen.add(x)
        return _checked(True, None)
    report = core.partial_sdr(family)
    payload = {
        "defect": report.defect,
        "partial": {str(i): x for i, x in sorted(report.partial.items())},
    }
    return "found", payload, f"defect {report.defect}"


def _cmd_count_sdr(args):
    family = core.SetFamily.from_json(_load(args.family))
    count = core.count_sdrs(family, **_ceiling(args))
    return "found", {"count": count}, f"{count} systems"


def _cmd_array_sdr(args):
    arr = core.ArrayFamily.from_json(_load(args.array))
    if args.verify:
        cert = _load_cert(args.verify)
        ok, reason = core.validate_array_sdr(arr, cert.get("grid", []))
        return _checked(ok, reason)
    grid = core.array_sdr(arr, **_ceiling(args))
    if grid is None:
        return "not-found", None, "exhaustive search found no array system"
    return "found", {"grid": [list(r) for r in grid]}, "array system found"


def _cmd_matching(args):
    g = graphs.BipartiteGraph.from_json(_load(args.graph))
    if args.verify:
        cert = _load_cert(args.verify)
        matching = graphs.Matching(tuple(tuple(e) for e in cert.get("edges", [])))
        ok, reason = graphs.validate_matching(g, matching)
        return _checked(ok, reason)
    matching = graphs.max_matching(g)
    return (
        "found",
        {"edges": [list(e) for e in matching.edges], "size": len(matching)},
        f"matching of size {len(matching)}",
    )


def _cmd_cover(args):
    g = graphs.BipartiteGraph.from_json(_load(args.graph))
    if args.verify:
        cert = _load_cert(args.verify)
        matching = graphs.Matching(tuple(tuple(e) for e in cert.get("matching", [])))
        cover = graphs.VertexCover(
            tuple(cert.get("cover", {}).get("partA", [])),
            tuple(cert.get("cover", {}).get("partB", [])),
        )
        ok, reason = graphs.validate_matching(g, matching)
        if ok:
            ok, reason = graphs.validate_cover(g, cover)
        if ok and len(matching) != len(cover):
            ok, reason = False, "matching and cover sizes differ"
        return _checked(ok, reason)
    matching, cover = graphs.konig_cover(g)
    payload = {
        "matching": [list(e) for e in matching.edges],
        "cover": {"partA": list(cover.in_a), "partB": list(cover.in_b)},
        "size": len(matching),
    }
    return "found", payload, f"matching and cover of size {len(matching)}"


def _verify_menger(g, s, t, mode, cert):
    paths = [tuple(p) for p in cert.get("paths", [])]
    cut = [tuple(e) if isinstance(e, list) else e for e in cert.get("cut", [])]
    if len(paths) != len(cut):
        return _checked(False, "path count differs from cut size")
    seen_edges = set()
    seen_inner = set()
    for k, path in enumerate(paths):
        if len(path) < 2 or path[0] != s or path[-1] != t:
            return _checked(False, f"path {k} does not run from source to sink")
        if len(set(path)) != len(path):
            return _checked(False, f"path {k} repeats a vertex")
        for u, v in zip(path, path[1:]):
            if not g.adjacent(u, v):
                return _checked(False, f"path {k} uses a non-edge {u!r}-{v!r}")
            key = frozenset((u, v))
            if mode == "edge" and key in seen_edges:
                return _checked(False, f"paths share the edge {u!r}-{v!r}")
            seen_edges.add(key)
        for v in path[1:-1]:
            if mode == "vertex" and v in seen_inner:
                return _checked(False, f"paths share the vertex {v!r}")
            seen_inner.add(v)
    # Connectivity recomputation with the cut removed.
    if mode == "edge":
        removed = {frozenset(e) for e in cut}
        blocked_vertices = set()
    else:
        removed = set()
        blocked_vertices = set(cut)
        if s in blocked_vertices or t in blocked_vertices:
            return _checked(False, "cut may not contain an endpoint")
    reach = {s}
    stack = [s]
    while stack:
        u = stack.pop()
        for v in g.vertices:
            if v in reach or v in blocked_vertices:
                continue
            if g.adjacent(u, v) and frozenset((u, v)) not in removed:
                reach.add(v)
                stack.append(v)
    if t in reach:
        return _checked(False, "cut does not disconnect the endpoints")
    return _checked(True, None)


def _cmd_menger(args):
    g = graphs.Graph.from_json(_load(args.graph))
    if args.verify:
        return _verify_menger(g, args.source, args.sink, args.mode, _load_cert(args.verify))
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
        cert = _load_cert(args.verify)
        value = cert.get("value")
        assignment = {(u, v): f for u, v, f in (tuple(e) for e in cert.get("flow", []))}
        ok, reason = graphs.validate_flow(net, value, assignment)
        if ok:
            cut = {(u, v) for u, v in (tuple(e) for e in cert.get("cut", []))}
            capacity = sum(c for u, v, c in net.arcs if (u, v) in cut)
            if capacity != value:
                ok, reason = False, "cut capacity differs from the flow value"
            else:
                reach = {net.source}
                stack = [net.source]
                while stack:
                    x = stack.pop()
                    for u, v, c in net.arcs:
                        if u == x and c > 0 and (u, v) not in cut and v not in reach:
                            reach.add(v)
                            stack.append(v)
                if net.sink in reach:
                    ok, reason = False, "cut does not separate source from sink"
        return _checked(ok, reason)
    value, cut, flow = graphs.max_flow_min_cut(net)
    payload = {
        "value": value,
        "cut": [list(e) for e in cut],
        "flow": [[u, v, f] for (u, v), f in flow.items()],
    }
    return "found", payload, f"maximum flow {value}"


def _cmd_dilworth(args):
    p = posets.Poset.from_json(_load(args.poset))
    if args.verify:
        cert = _load_cert(args.verify)
        partition = posets.ChainPartition(tuple(tuple(c) for c in cert.get("chains", [])))
        ok, reason = posets.validate_chain_partition(p, partition)
        if ok:
            ok, reason = posets.validate_antichain(p, cert.get("antichain", []))
        if ok and len(partition) != len(cert.get("antichain", [])):
            ok, reason = False, "chain count differs from the antichain size"
        return _checked(ok, reason)
    partition, antichain = posets.dilworth(p)
    payload = {
        "chains": [list(c) for c in partition.chains],
        "antichain": list(antichain),
    }
    return "found", payload, f"{len(partition)} chains"


def _cmd_mirsky(args):
    p = posets.Poset.from_json(_load(args.poset))
    if args.verify:
        cert = _load_cert(args.verify)
        partition = posets.AntichainPartition(
            tuple(tuple(a) for a in cert.get("antichains", []))
        )
        ok, reason = posets.validate_antichain_partition(p, partition)
        if ok:
            ok, reason = posets.validate_chain(p, cert.get("chain", []))
        if ok and len(partition) != len(cert.get("chain", [])):
            ok, reason = False, "level count differs from the chain length"
        return _checked(ok, reason)
    partition, chain = posets.mirsky(p)
    payload = {
        "antichains": [list(a) for a in partition.antichains],
        "chain": list(chain),
    }
    return "found", payload, f"{len(partition)} antichain levels"


def _cmd_perfect(args):
    g = graphs.Graph.from_json(_load(args.graph))
    if args.verify:
        cert = _load_cert(args.verify)
        witness = cert.get("witness")
        if not witness:
            return _checked(False, "nothing to verify without a witness")
        sub = graphs.Graph(
            witness,
            [e for e in g.edges if e[0] in set(witness) and e[1] in set(witness)],
        )
        ok, _ = posets.is_perfect(sub, **_ceiling(args))
        return _checked(not ok, "witness subgraph has equal clique and chromatic numbers")
    perfect, witness = posets.is_perfect(g, **_ceiling(args))
    berge = posets.berge_check(g, **_ceiling(args))
    payload = {"perfect": perfect, "berge": berge, "witness": list(witness) if witness else None}
    if perfect:
        return "found", payload, "graph is perfect"
    return "not-found", payload, "imperfect; witness subgraph attached"


def _cmd_birkhoff(args):
    m = birkhoff.RationalMatrix.from_json(_load(args.matrix))
    nnz = sum(1 for row in m.entries for x in row if x)
    if args.verify:
        cert = _load_cert(args.verify)
        try:
            terms = tuple(
                (Fraction(t["coefficient"]), tuple(t["permutation"]))
                for t in cert.get("terms", [])
            )
        except (KeyError, TypeError, ValueError) as exc:
            return _checked(False, f"malformed terms: {exc}")
        dec = birkhoff.BirkhoffDecomposition(terms)
        if any(c <= 0 for c, _ in terms):
            return _checked(False, "coefficients must be positive")
        if dec.coefficient_sum() != 1:
            return _checked(False, "coefficients do not sum to 1")
        if dec.as_matrix(m.n) != m:
            return _checked(False, "terms do not reconstruct the matrix")
        if len(terms) > nnz - m.n + 1:
            return _checked(False, "more terms than the support allows")
        return _checked(True, None)
    dec = birkhoff.birkhoff_decompose(m)
    payload = {
        "terms": [
            {"coefficient": str(c), "permutation": list(perm)} for c, perm in dec.terms
        ],
        "term_bound": nnz - m.n + 1,
    }
    return "found", payload, f"{len(dec)} terms"


def _cmd_permanent(args):
    m = birkhoff.RationalMatrix.from_json(_load(args.matrix))
    value = birkhoff.permanent(m, **_ceiling(args))
    return "found", {"permanent": str(value)}, "permanent computed"


def _cmd_bounds(args):
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
        cert = _load_cert(args.verify)
        extended = latin.LatinRectangle.from_json(cert)
        if extended.m != rect.m + 1 or extended.rows[: rect.m] != rect.rows:
            return _checked(False, "certificate does not extend the input by one row")
        return _checked(True, None)
    extended = latin.extend_row(rect)
    return "found", extended.to_json(), f"now {extended.m} rows"


def _cmd_latin_complete(args):
    rect = latin.LatinRectangle.from_json(_load(args.rectangle))
    if args.verify:
        cert = _load_cert(args.verify)
        square = latin.LatinRectangle.from_json(cert)
        if not square.is_square or square.rows[: rect.m] != rect.rows:
            return _checked(False, "certificate is not a completion of the input")
        return _checked(True, None)
    square = latin.complete(rect)
    return "found", square.to_json(), "completed to a square"


def _cmd_latin_count(args):
    count = latin.count_latin_squares(args.n, **_ceiling(args))
    return "found", {"n": args.n, "count": count}, f"{count} squares"


def _cmd_youden(args):
    design = latin.BlockDesign.from_json(_load(args.design))
    if args.verify:
        cert = _load_cert(args.verify)
        ok, reason = latin.validate_youden(design, cert.get("array", []))
        return _checked(ok, reason)
    array = latin.youden_from_design(design)
    return "found", {"array": [list(r) for r in array]}, f"{len(array)} rows"


def _cmd_rado(args):
    family = core.SetFamily.from_json(_load(args.family))
    oracle = matroids.matroid_from_json(_load(args.matroid))
    if args.verify:
        cert = _load_cert(args.verify)
        if "reps" in cert:
            ok, reason = matroids.validate_sir(family, oracle, cert["reps"])
            return _checked(ok, reason)
        try:
            violator = matroids.RadoViolator(
                tuple(cert["indices"]), tuple(cert["union"]), cert["rank"]
            )
        except (KeyError, TypeError, ValidationError) as exc:
            return _checked(False, f"malformed violator: {exc}")
        ok, reason = matroids.verify_rado_violator(family, oracle, violator)
        return _checked(ok, reason)
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
        generators = [tuple(x) if isinstance(x, list) else x for x in json.loads(args.generators)]
    except json.JSONDecodeError as exc:
        raise ValidationError(f"--generators is not valid JSON: {exc}") from exc
    subgroup = groups.subgroup_closure(group, generators)
    if args.verify:
        cert = _load_cert(args.verify)
        reps = [tuple(x) if isinstance(x, list) else x for x in cert.get("reps", [])]
        ok, reason = groups.validate_simultaneous_reps(group, subgroup, reps)
        return _checked(ok, reason)
    system = groups.coset_system(group, subgroup)
    reps = groups.simultaneous_reps(group, subgroup)
    family = groups.coset_family(group, subgroup)
    payload = {
        "subgroup": list(system.subgroup),
        "left": [list(c) for c in system.left],
        "right": [list(c) for c in system.right],
        "reps": list(reps),
        "family": family.to_json(),
    }
    return "found", payload, f"index {system.index}"


def _cmd_hyper_sdr(args):
    fam = hypersdr.HypergraphFamily.from_json(_load(args.family))
    limits = {}
    if args.ceiling is not None:
        limits["max_edges"] = args.ceiling
    if args.verify:
        cert = _load_cert(args.verify)
        sdr = hypersdr.HyperSdr(tuple(frozenset(e) for e in cert.get("selection", [])))
        ok, reason = hypersdr.validate_hyper_sdr(fam, sdr)
        return _checked(ok, reason)
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
    args = _build_parser().parse_args(argv)
    try:
        status, payload, diagnostics = args.handler(args)
    except ValidationError as exc:
        field = f" (field: {exc.field})" if exc.field else ""
        status, payload, diagnostics = "invalid-input", None, f"{exc}{field}"
    except ResourceLimitError as exc:
        status, payload, diagnostics = "resource-limit", None, str(exc)
    envelope = ResultEnvelope(status, payload, diagnostics)
    json.dump(envelope.to_json(), sys.stdout)
    sys.stdout.write("\n")
    if status in ("invalid-input", "resource-limit"):
        print(diagnostics, file=sys.stderr)
    return envelope.exit_code


if __name__ == "__main__":
    sys.exit(main())
