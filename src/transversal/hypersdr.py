"""Hypergraph families at desk scale: pinning, the matching-based
sufficient condition, and exhaustive SDR search over edge choices."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

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
        return cls(obj["vertices"], members)


@dataclass(frozen=True)
class HyperSdr:
    """One edge per hypergraph, pairwise disjoint."""

    selection: tuple


def _check_ceilings(fam, max_subfamily, max_edges):
    total = sum(len(h.edges) for h in fam.members)
    if len(fam.members) > max_subfamily or total > max_edges:
        raise ResourceLimitError(
            f"{len(fam.members)} hypergraphs / {total} edges exceeds the ceiling "
            f"({max_subfamily} hypergraphs, {max_edges} edges)"
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
    n = len(masks)
    found = []

    def descend(idx, used, chosen):
        extended = False
        for j in range(idx, n):
            if masks[j] & used:
                continue
            extended = True
            descend(j + 1, used | masks[j], chosen + [masks[j]])
        if not extended and all(masks[j] & used for j in range(idx)):
            found.append(chosen)

    descend(0, 0, [])
    return found


def _pinnable(targets, masks, limit):
    """Can some set of at most `limit` pairwise disjoint edges from `masks`
    meet every target edge?"""

    def descend(start, used, depth, remaining):
        if not remaining:
            return True
        if depth == limit:
            return False
        for j in range(start, len(masks)):
            e = masks[j]
            if e & used:
                continue
            thinned = [t for t in remaining if not (t & e)]
            if len(thinned) == len(remaining):
                continue
            if descend(j + 1, used | e, depth + 1, thinned):
                return True
        return False

    return descend(0, 0, 0, list(targets))


def ah_condition(
    fam: HypergraphFamily,
    *,
    max_subfamily: int = SUBFAMILY_CEILING,
    max_edges: int = EDGE_CEILING,
):
    """The matching-based sufficient condition for a hypergraph SDR.

    True when every subfamily of size b admits a matching in the union of
    its edges that no b-1 or fewer pairwise disjoint edges (from the same
    union) can pin.  Returns (True, None) or (False, witness index tuple).
    Only maximal matchings are inspected: a matching's supersets are at
    least as hard to pin, so nothing is lost.
    """
    _check_ceilings(fam, max_subfamily, max_edges)
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


def find_hyper_sdr(
    fam: HypergraphFamily,
    *,
    max_subfamily: int = SUBFAMILY_CEILING,
    max_edges: int = EDGE_CEILING,
):
    """Exhaustive backtracking over edge choices with disjointness pruning.

    Returns the lexicographically least selection (by listed edge order) or
    None after exhausting the search space.
    """
    _check_ceilings(fam, max_subfamily, max_edges)
    m = len(fam.members)

    def descend(i, used, chosen):
        if i == m:
            return tuple(chosen)
        member = fam.members[i]
        for edge, mask in zip(member.edges, member._masks):
            if mask & used:
                continue
            result = descend(i + 1, used | mask, chosen + [edge])
            if result is not None:
                return result
        return None

    selection = descend(0, 0, [])
    if selection is None:
        return None
    return HyperSdr(selection)


def validate_hyper_sdr(fam: HypergraphFamily, sdr: HyperSdr) -> tuple[bool, str | None]:
    """Each entry must be an edge of its hypergraph; entries must be disjoint."""
    selection = tuple(frozenset(e) for e in sdr.selection)
    if len(selection) != len(fam.members):
        return False, "selection length differs from the family size"
    for i, edge in enumerate(selection):
        if edge not in fam.members[i].edges:
            return False, f"entry {i} is not an edge of hypergraph {i}"
    for i in range(len(selection)):
        for j in range(i + 1, len(selection)):
            if selection[i] & selection[j]:
                return False, f"entries {i} and {j} share a vertex"
    return True, None


def verify_hyper_sdr(fam: HypergraphFamily, cert: dict) -> tuple[bool, str | None]:
    """Check a ``hyper-sdr`` certificate object: "selection" lists one edge
    per hypergraph."""
    return validate_hyper_sdr(fam, HyperSdr(tuple(core._cert_rows(cert, "selection", fam._index))))
