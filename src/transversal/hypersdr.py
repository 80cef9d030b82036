"""Hypergraph families at desk scale: pinning, the matching-based
sufficient condition, and exhaustive SDR search over edge choices."""

from __future__ import annotations

from functools import reduce
from itertools import combinations
from operator import or_

from . import _bitmatch, core
from .errors import ResourceLimitError, ValidationError

SUBFAMILY_CEILING = 4
EDGE_CEILING = 12


class Hypergraph:
    """Nonempty subsets, called edges, of a family's vertices; ``index`` maps
    each vertex to its position and is shared by the family's members."""

    __slots__ = ("vertices", "edges", "_masks")

    def __init__(self, vertices, index, edges):
        masks = [core._mask_of(edge, index, f"edges[{k}]") for k, edge in enumerate(edges)]
        for k, mask in enumerate(masks):
            if mask == 0:
                raise ValidationError(f"edge {k} is empty", field=f"edges[{k}]")
        self.vertices = vertices
        self.edges = tuple(frozenset(vertices[p] for p in _bitmatch.bits_of(m)) for m in masks)
        self._masks = masks


class HypergraphFamily:
    """Hypergraphs over one shared vertex set."""

    __slots__ = ("vertices", "members", "_index")

    def __init__(self, vertices, edge_lists):
        index = core._index_labels(vertices, "vertices")
        self.vertices = tuple(index)
        self._index = index
        self.members = tuple(Hypergraph(self.vertices, index, edges) for edges in edge_lists)

    def __len__(self):
        return len(self.members)

    @classmethod
    def from_json(cls, obj: dict) -> "HypergraphFamily":
        for key in ("vertices", "hypergraphs"):
            if not isinstance(obj, dict) or key not in obj:
                raise ValidationError(f"family file needs '{key}'", field=key)
        members = obj["hypergraphs"]
        if not isinstance(members, list) or not all(isinstance(h, list) for h in members):
            raise ValidationError("'hypergraphs' must hold lists of edges", field="hypergraphs")
        return cls(core._label_list(obj, "vertices"), members)


def _check_ceilings(fam, ceiling):
    """Refuse more than SUBFAMILY_CEILING hypergraphs or `ceiling` edges."""
    total = sum(len(h.edges) for h in fam.members)
    if len(fam.members) > SUBFAMILY_CEILING or total > ceiling:
        raise ResourceLimitError(
            f"{len(fam.members)} hypergraphs / {total} edges exceeds the ceiling "
            f"({SUBFAMILY_CEILING} hypergraphs, {ceiling} edges)"
        )


def _union_edge_masks(fam, group):
    masks = []
    seen = set()
    for i in group:
        for mask in fam.members[i]._masks:
            if mask not in seen:
                seen.add(mask)
                masks.append(mask)
    return masks


def _maximal_matchings(masks):
    """Yield each maximal set of pairwise disjoint edges from `masks`."""
    # one level per edge: take it, or skip it (value 0)
    for choice in _bitmatch.disjoint_choices([((m, m), (0, 0)) for m in masks]):
        used = reduce(or_, choice, 0)
        if all(edge or mask & used for mask, edge in zip(masks, choice)):
            yield [edge for edge in choice if edge]


def _pinnable(targets, masks, limit):
    """Can some set of at most `limit` pairwise disjoint edges from `masks`
    meet every target edge?"""
    # one level per pin edge: an edge that meets a target, or none (value 0)
    hitting = [(m, m) for m in masks if any(m & t for t in targets)] + [(0, 0)]
    for choice in _bitmatch.disjoint_choices([hitting] * limit):
        used = reduce(or_, choice, 0)
        if all(t & used for t in targets):
            return True
    return False


def ah_condition(fam: HypergraphFamily, *, ceiling: int = EDGE_CEILING):
    """The matching-based sufficient condition for a hypergraph SDR.

    True when every subfamily of size b admits a matching in the union of
    its edges that no b-1 or fewer pairwise disjoint edges (from the same
    union) can pin.  Returns (True, None) or (False, witness index tuple).
    Only maximal matchings are inspected: a matching's supersets are at
    least as hard to pin, so nothing is lost.
    """
    _check_ceilings(fam, ceiling)
    m = len(fam.members)
    for size in range(1, m + 1):
        for group in combinations(range(m), size):
            union = _union_edge_masks(fam, group)
            good = False
            for matching in _maximal_matchings(union):
                if matching and not _pinnable(matching, union, size - 1):
                    good = True
                    break
            if not good:
                return False, group
    return True, None


def find_hyper_sdr(fam: HypergraphFamily, *, ceiling: int = EDGE_CEILING) -> tuple[str, dict, str]:
    """Exhaustive search over edge choices with disjointness pruning, as
    (status, payload, diagnostics), the payload being what
    `verify_hyper_sdr` reads.  "found" has "selection", the
    lexicographically least choice (by listed edge order) of one edge per
    hypergraph, each edge's vertices sorted by repr.  After the search space
    is exhausted, "not-found" has "witness": the subfamily at which
    `ah_condition` fails, or None when it holds.
    """
    _check_ceilings(fam, ceiling)
    options = [list(zip(h._masks, h.edges)) for h in fam.members]
    selection = next(_bitmatch.disjoint_choices(options), None)
    if selection is not None:
        payload = {"selection": [sorted(e, key=repr) for e in selection]}
        return "found", payload, "hypergraph SDR found"
    holds, witness = ah_condition(fam, ceiling=ceiling)
    note = "no SDR" if holds else "no SDR; sufficient condition fails at the attached subfamily"
    return "not-found", {"witness": list(witness) if witness is not None else None}, note


def verify_hyper_sdr(fam: HypergraphFamily, cert: dict) -> tuple[bool, str | None]:
    """Check a ``hyper-sdr`` certificate object: "selection" lists one edge
    per hypergraph, each an edge of its own with no vertex listed twice, no
    two sharing a vertex.  A
    not-found answer, with a "witness" and no "selection", has nothing a
    checker could read."""
    if "selection" not in cert and "witness" in cert:
        return False, "a not-found answer carries no certificate a checker can read"
    rows = core._cert_rows(cert, "selection", fam._index)
    selection = [frozenset(e) for e in rows]
    if len(selection) != len(fam.members):
        return False, "selection length differs from the family size"
    for i, (row, edge) in enumerate(zip(rows, selection)):
        if len(edge) != len(row):
            return False, f"entry {i} repeats a vertex"
        if edge not in fam.members[i].edges:
            return False, f"entry {i} is not an edge of hypergraph {i}"
    for i, j in combinations(range(len(selection)), 2):
        if selection[i] & selection[j]:
            return False, f"entries {i} and {j} share a vertex"
    return True, None
