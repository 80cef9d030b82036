"""Independence-oracle matroids, ranks, and independent transversals.

The rank condition generalises the counting condition of the plain SDR
problem: a family has a system of independent representatives exactly when
every k of its sets jointly span rank at least k.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from . import _bitmatch, core
from .errors import ValidationError


class MatroidOracle:
    """A ground set plus a black-box independence predicate.

    Rank is always derived by greedy extension through the oracle, never
    trusted from the caller; the exchange property makes the greedy result
    well defined.
    """

    __slots__ = ("ground", "kind", "_indep", "_index")

    def __init__(self, ground, indep, kind="custom"):
        self._index = core._index_labels(ground, "ground")
        self.ground = tuple(self._index)
        self.kind = kind
        self._indep = indep

    def _within_ground(self, subset) -> frozenset:
        """`subset` as a frozenset, after checking that it lies in the ground."""
        subset = frozenset(subset)
        stray = [repr(x) for x in subset if x not in self._index]
        if stray:
            raise ValidationError(f"{min(stray)} is outside the ground set")
        return subset

    def independent(self, subset) -> bool:
        return bool(self._indep(self._within_ground(subset)))

    def rank_of(self, subset) -> int:
        subset = self._within_ground(subset)
        chosen: set = set()
        for x in self.ground:
            if x in subset and self._indep(frozenset(chosen | {x})):
                chosen.add(x)
        return len(chosen)


def rank(m: MatroidOracle, subset) -> int:
    """Size of a greedy maximal independent subset of `subset`."""
    return m.rank_of(subset)


# ---------------------------------------------------------------------------
# Built-in matroid kinds.


def free_matroid(ground) -> MatroidOracle:
    return MatroidOracle(ground, lambda s: True, kind="free")


def uniform_matroid(ground, k: int) -> MatroidOracle:
    if isinstance(k, bool) or not isinstance(k, int) or k < 0:
        raise ValidationError("uniform rank must be a nonnegative integer", field="rank")
    return MatroidOracle(ground, lambda s: len(s) <= k, kind="uniform")


def partition_matroid(blocks, caps) -> MatroidOracle:
    if not all(isinstance(x, (list, tuple)) for x in (blocks, caps)) or len(blocks) != len(caps):
        raise ValidationError("need a list with one capacity per block", field="caps")
    for c in caps:
        if isinstance(c, bool) or not isinstance(c, int) or c < 0:
            raise ValidationError("capacities must be nonnegative integers", field="caps")
    ground = []
    owner = []  # owner[pos]: the block holding ground[pos]
    for bi, block in enumerate(blocks):
        if not isinstance(block, (list, tuple)):
            raise ValidationError(f"block {bi} must be a list", field="blocks")
        ground.extend(block)
        owner.extend([bi] * len(block))
    index = core._index_labels(ground, "blocks")  # an element in two blocks repeats

    def indep(subset):
        counts = [0] * len(blocks)
        for x in subset:
            bi = owner[index[x]]
            counts[bi] += 1
            if counts[bi] > caps[bi]:
                return False
        return True

    return MatroidOracle(ground, indep, kind="partition")


def graphic_matroid(edges) -> MatroidOracle:
    """Edges of a simple graph; a subset is independent when it is acyclic.

    ``edges`` maps an edge id to its endpoint pair.
    """
    if not isinstance(edges, dict):
        raise ValidationError("'graph' must map edge ids to endpoint pairs", field="graph")
    ends = {}
    seen_pairs = set()
    for eid, pair in edges.items():
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise ValidationError(f"edge {eid!r} needs exactly two endpoints", field="graph")
        u, v = pair
        try:
            key = frozenset((u, v))
        except TypeError as exc:
            raise ValidationError(f"bad edge {eid!r}: {exc}", field="graph") from exc
        if u == v:
            raise ValidationError(f"edge {eid!r} is a loop; the graph must be simple",
                                  field="graph")
        if key in seen_pairs:
            raise ValidationError(f"edge {eid!r} duplicates an endpoint pair", field="graph")
        seen_pairs.add(key)
        ends[eid] = (u, v)

    edge_order = tuple(ends)

    def indep(subset):
        parent = {}

        def find(a):
            while parent.get(a, a) != a:
                parent[a] = parent.get(parent[a], parent[a])
                a = parent[a]
            return a

        for eid in subset:  # whether the edges are acyclic does not depend on the order
            u, v = ends[eid]
            ru, rv = find(u), find(v)
            if ru == rv:
                return False
            parent[ru] = rv
        return True

    return MatroidOracle(edge_order, indep, kind="graphic")


def _gf_rank(vectors, p) -> int:
    rows = [[x % p for x in v] for v in vectors]
    if not rows:
        return 0
    width = len(rows[0])
    r = 0
    for c in range(width):
        pivot = next((k for k in range(r, len(rows)) if rows[k][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = pow(rows[r][c], -1, p)
        rows[r] = [(x * inv) % p for x in rows[r]]
        for k in range(len(rows)):
            if k != r and rows[k][c]:
                f = rows[k][c]
                rows[k] = [(x - f * y) % p for x, y in zip(rows[k], rows[r])]
        r += 1
        if r == len(rows):
            break
    return r


def _is_prime(p) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def linear_matroid(columns, modulus: int) -> MatroidOracle:
    """Column labels of a matrix over a prime field; independence is linear."""
    if isinstance(modulus, bool) or not isinstance(modulus, int) or not _is_prime(modulus):
        raise ValidationError("modulus must be a prime number", field="modulus")
    if not isinstance(columns, dict):
        raise ValidationError("'columns' must map labels to vectors", field="columns")
    vecs = {}
    width = None
    for label, v in columns.items():
        try:
            v = tuple(int(x) for x in v)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValidationError(f"column {label!r}: {exc}", field="columns") from exc
        if width is None:
            width = len(v)
        elif len(v) != width:
            raise ValidationError(f"column {label!r} has the wrong length", field="columns")
        vecs[label] = v

    def indep(subset):
        chosen = [vecs[x] for x in subset]  # the rank does not depend on the order
        return _gf_rank(chosen, modulus) == len(chosen)

    return MatroidOracle(tuple(vecs), indep, kind="linear")


# Kind name -> (constructor, parameter names in argument order).  The names
# are the fields of the matroid file format.
_KINDS = {
    "free": (free_matroid, ("ground",)),
    "uniform": (uniform_matroid, ("ground", "rank")),
    "partition": (partition_matroid, ("blocks", "caps")),
    "graphic": (graphic_matroid, ("graph",)),
    "linear": (linear_matroid, ("columns", "modulus")),
}


def make_matroid(kind: str, **params) -> MatroidOracle:
    """Dispatch to a built-in matroid constructor by kind name.

    ``params`` are named as in the matroid file format; a missing one is
    reported as a ``ValidationError`` with that name as its field.
    """
    entry = _KINDS.get(kind) if isinstance(kind, str) else None
    if entry is None:
        raise ValidationError(f"unknown matroid kind {kind!r}", field="kind")
    build, names = entry
    for name in names:
        if name not in params:
            raise ValidationError(f"matroid kind {kind!r} needs {name!r}", field=name)
    return build(*(params[name] for name in names))


def matroid_from_json(obj: dict) -> MatroidOracle:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ValidationError("matroid file needs 'kind'", field="kind")
    return make_matroid(**obj)


# ---------------------------------------------------------------------------
# Rado's condition.


@dataclass(frozen=True)
class Sir:
    """Distinct representatives whose set is independent in the matroid."""

    reps: tuple


@dataclass(frozen=True)
class RadoViolator:
    """Sets whose union has rank below their count."""

    indices: tuple
    union: tuple
    rank: int

    def __post_init__(self):
        if self.rank >= len(self.indices):
            raise ValidationError("violator rank is not below its index count")


def rado_check(family: core.SetFamily, m: MatroidOracle):
    """Find a system of independent representatives or a rank violator.

    One polynomial path: a matroid-intersection exchange search grows the
    representatives, and when it stops short the elements its last search
    reached give a tight rank cut (Edmonds' min-max theorem), from which the
    violator is read off.  There is no size ceiling on either certificate,
    and the violator is not necessarily a smallest one.
    """
    if any(x not in m._index for x in family.ground):
        raise ValidationError("family ground is not contained in the matroid ground")
    reached: dict = {}
    reps = _sir_augmenting(family, m, reached)
    if reps is not None:
        return Sir(reps)
    return _violator_from_cut(family, m, reached)


def _sir_augmenting(family, m, reached):
    """Maximum common independent set of the matroid and the family's
    transversal structure, grown one exchange path at a time.

    Returns the representatives, or None; then ``reached`` holds every
    element the last, failed, exchange-path search reached.
    """
    n = family.n
    if n == 0:
        return ()
    containing = {}
    for i in range(n):
        for x in family.sets[i]:
            containing.setdefault(x, 0)
            containing[x] |= 1 << i
    candidates = [x for x in family.ground if x in containing]

    current: list = []
    while len(current) < n:
        reached.clear()
        path = _exchange_path(current, candidates, m, containing, n, reached)
        if path is None:
            break
        chosen = set(current)
        chosen ^= set(path)
        current = [x for x in candidates if x in chosen]
    if len(current) < n:
        return None
    masks = [containing[x] for x in current]
    match_row, match_col = _bitmatch.max_matching(masks, n)
    return tuple(current[match_col[i]] for i in range(n))


def _exchange_path(current, candidates, m, containing, n, parent):
    """Shortest augmenting path in the exchange graph, or None.

    Arcs leave an in-set element x for any outside y with I - x + y
    independent in the matroid, and leave an outside y for any in-set x
    with I - x + y matchable; sources are matroid-addable outsiders, sinks
    the matchable ones.  ``parent``, empty on entry, maps every element the
    search reaches to its predecessor (None for a source).

    The transversal side costs one maximum matching M of I into the n sets
    (``containing[x]`` masks the sets holding x) and one alternating search
    per outsider y, which steps from a set to the sets of the element M
    matches to it.  I + y is matchable exactly when the search reaches a
    set M leaves free; otherwise I - x + y is matchable exactly when it
    reaches M(x), the set matched to x.
    """
    inside = set(current)
    iset = frozenset(inside)
    outside = [y for y in candidates if y not in inside]
    match_row, match_col = _bitmatch.max_matching([containing[x] for x in current], n)
    through = [0] * n  # through[j]: the sets holding the element matched to set j
    free = 0
    for j, r in enumerate(match_col):
        if r == _bitmatch.UNMATCHED:
            free |= 1 << j
        else:
            through[j] = containing[current[r]]
    reach = {y: _alternating_sets(containing[y], through) for y in outside}
    queue = deque()
    for y in outside:
        if m._indep(iset | {y}):
            if reach[y] & free:
                return [y]
            parent[y] = None
            queue.append(y)
    while queue:
        u = queue.popleft()
        if u in inside:
            base = iset - {u}
            for y in outside:
                if y in parent:
                    continue
                if m._indep(base | {y}):
                    parent[y] = u
                    if reach[y] & free:
                        return _walk_back(parent, y)
                    queue.append(y)
        else:
            # u is no sink, or the search would have ended when it was reached.
            # ``current`` is in candidates order, and row k of M is current[k].
            for x, j in zip(current, match_row):
                if x not in parent and reach[u] >> j & 1:
                    parent[x] = u
                    queue.append(x)
    return None


def _alternating_sets(start, through):
    """Mask of the sets reachable from the sets in `start`, where reaching
    set j also reaches the sets in ``through[j]``.

    ``_bitmatch.reachable`` starts from one position; feeding it each
    outsider as an extra position took ``rado_check`` on the benchmark's
    30-set graphic case from 3.9 to 4.9 ms (2-vCPU Xeon)."""
    reach = todo = start
    while todo:
        low = todo & -todo
        todo ^= low
        step = through[low.bit_length() - 1] & ~reach
        reach |= step
        todo |= step
    return reach


def _walk_back(parent, end):
    path = [end]
    while parent[path[-1]] is not None:
        path.append(parent[path[-1]])
    path.reverse()
    return path


def _violator_from_cut(family, m, reached):
    """The violator read off the reached set R of a failed exchange search.

    With S the elements of the n sets, I the representatives found and r_T
    the transversal rank, r(S - R) + r_T(R) = |I| < n.  Cut every set down
    to R and let K be the sets alternating-reachable from the unmatched
    ones in a maximum matching; by Konig r_T(R) = n - |K| + |A(K) & R|,
    with A(K) the union of the sets in K.  So
    r(A(K)) <= r(S - R) + |A(K) & R| = |I| - n + |K| < |K|.
    """
    keep = 0
    for pos, x in enumerate(family.ground):
        if x in reached:
            keep |= 1 << pos
    masks = [family.mask(i) & keep for i in range(family.n)]
    match_row, match_col = _bitmatch.max_matching(masks, len(family.ground))
    free = [i for i, c in enumerate(match_row) if c == _bitmatch.UNMATCHED]
    rows, _ = _bitmatch.alternating_reachable(masks, match_row, match_col, free)
    indices = tuple(sorted(rows))
    union = family.union_of(indices)
    return RadoViolator(indices=indices, union=union, rank=m.rank_of(union))


def verify_rado_violator(family: core.SetFamily, m: MatroidOracle,
                         violator: RadoViolator) -> tuple[bool, str | None]:
    """Recompute the union of the named sets and its rank, and re-check both."""
    union, reason = core._violator_union(family, violator.indices, violator.union)
    if union is None:
        return False, reason
    rank = m.rank_of(union)
    if rank != violator.rank:
        return False, f"stated rank differs from the recomputed rank {rank}"
    if rank >= len(violator.indices):
        return False, "union rank is not below the index count"
    return True, None


def validate_sir(family: core.SetFamily, m: MatroidOracle, reps) -> tuple[bool, str | None]:
    """Membership, distinctness, and oracle-checked independence."""
    ok, reason = core.validate_sdr(family, reps)
    if not ok:
        return False, reason
    if not m.independent(frozenset(reps)):
        return False, "representatives are not independent in the matroid"
    return True, None


def verify_rado(family: core.SetFamily, m: MatroidOracle, cert: dict) -> tuple[bool, str | None]:
    """Check a ``rado`` certificate object: independent representatives
    under "reps", or else a violator under "indices", "union" and "rank"."""
    if "reps" in cert:
        return validate_sir(family, m, core._cert_field(cert, "reps", index=family._index))
    indices, union = core._cert_field(cert, "indices"), core._cert_field(cert, "union")
    violator = RadoViolator(tuple(indices), tuple(union), core._cert_field(cert, "rank", int))
    return verify_rado_violator(family, m, violator)
