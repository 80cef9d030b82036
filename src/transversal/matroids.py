"""Independence-oracle matroids, ranks, and independent transversals.

The rank condition generalises the counting condition of the plain SDR
problem: a family has a system of independent representatives exactly when
every k of its sets jointly span rank at least k.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import combinations

from . import _bitmatch, core
from .errors import ResourceLimitError, ValidationError

VALIDATE_CEILING = 10


class MatroidOracle:
    """A ground set plus a black-box independence predicate.

    Rank is always derived by greedy extension through the oracle, never
    trusted from the caller; the exchange property makes the greedy result
    well defined.
    """

    __slots__ = ("ground", "kind", "_indep")

    def __init__(self, ground, indep, kind="custom"):
        ground = tuple(ground)
        seen = set()
        for x in ground:
            if x in seen:
                raise ValidationError(f"duplicate ground element {x!r}", field="ground")
            seen.add(x)
        self.ground = ground
        self.kind = kind
        self._indep = indep

    def independent(self, subset) -> bool:
        subset = frozenset(subset)
        stray = subset - set(self.ground)
        if stray:
            raise ValidationError(f"{sorted(map(repr, stray))[0]} is outside the ground set")
        return bool(self._indep(subset))

    def rank_of(self, subset) -> int:
        subset = frozenset(subset)
        stray = subset - set(self.ground)
        if stray:
            raise ValidationError(f"{sorted(map(repr, stray))[0]} is outside the ground set")
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
        raise ValidationError("uniform rank must be a nonnegative integer")
    return MatroidOracle(ground, lambda s: len(s) <= k, kind="uniform")


def partition_matroid(blocks, caps) -> MatroidOracle:
    blocks = [tuple(b) for b in blocks]
    caps = list(caps)
    if len(blocks) != len(caps):
        raise ValidationError("need one capacity per block")
    for c in caps:
        if isinstance(c, bool) or not isinstance(c, int) or c < 0:
            raise ValidationError("capacities must be nonnegative integers")
    ground = []
    owner = {}
    for bi, block in enumerate(blocks):
        for x in block:
            if x in owner:
                raise ValidationError(f"element {x!r} appears in two blocks")
            owner[x] = bi
            ground.append(x)

    def indep(subset):
        counts = [0] * len(blocks)
        for x in subset:
            bi = owner[x]
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

        for eid in edge_order:
            if eid not in subset:
                continue
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
        raise ValidationError("modulus must be a prime number")
    vecs = {}
    width = None
    for label, v in columns.items():
        v = tuple(int(x) for x in v)
        if width is None:
            width = len(v)
        elif len(v) != width:
            raise ValidationError(f"column {label!r} has the wrong length")
        vecs[label] = v

    order = {label: k for k, label in enumerate(vecs)}

    def indep(subset):
        chosen = [vecs[x] for x in sorted(subset, key=order.get)]
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
# Axiom checking.


def validate_matroid(m: MatroidOracle, *, ceiling: int = VALIDATE_CEILING):
    """Exhaustively check nonemptiness, downward closure, and exchange.

    Returns (True, None) or (False, witness) where the witness names the
    failing axiom and the offending set or pair.
    """
    ground = m.ground
    if len(ground) > ceiling:
        raise ResourceLimitError(f"{len(ground)} elements is above the ceiling {ceiling}")
    subsets = []
    for k in range(len(ground) + 1):
        subsets.extend(frozenset(c) for c in combinations(ground, k))
    status = {s: bool(m._indep(s)) for s in subsets}
    if not status[frozenset()]:
        return False, {"axiom": "nonempty", "set": ()}
    order = {x: k for k, x in enumerate(ground)}
    for s in subsets:
        if not status[s]:
            continue
        for x in s:
            if not status[s - {x}]:
                return False, {
                    "axiom": "downward-closure",
                    "set": tuple(sorted(s, key=order.get)),
                    "element": x,
                }
    independent = [s for s in subsets if status[s]]
    for a in independent:
        for b in independent:
            if len(b) <= len(a):
                continue
            if not any(status[a | {x}] for x in b - a):
                return False, {
                    "axiom": "exchange",
                    "a": tuple(sorted(a, key=order.get)),
                    "b": tuple(sorted(b, key=order.get)),
                }
    return True, None


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
    stray = set(family.ground) - set(m.ground)
    if stray:
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

    def transversal_ok(elements):
        masks = [containing[x] for x in elements]
        match_row, _ = _bitmatch.max_matching(masks, n)
        return all(c != _bitmatch.UNMATCHED for c in match_row)

    current: list = []
    while len(current) < n:
        reached.clear()
        path = _exchange_path(current, candidates, m, transversal_ok, reached)
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


def _exchange_path(current, candidates, m, transversal_ok, parent):
    """Shortest augmenting path in the exchange graph, or None.

    Arcs leave an in-set element x for any outside y with I - x + y
    independent in the matroid, and leave an outside y for any in-set x
    with I - x + y matchable; sources are matroid-addable outsiders, sinks
    the matchable ones.  ``parent``, empty on entry, maps every element the
    search reaches to its predecessor (None for a source).
    """
    inside = set(current)
    iset = frozenset(inside)
    outside = [y for y in candidates if y not in inside]
    sinks = {y for y in outside if transversal_ok(list(iset) + [y])}
    queue = deque()
    for y in outside:
        if m._indep(iset | {y}):
            if y in sinks:
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
                    if y in sinks:
                        parent[y] = u
                        return _walk_back(parent, y)
                    parent[y] = u
                    queue.append(y)
        else:
            rest = [x for x in candidates if x in inside and x not in parent]
            for x in rest:
                others = (iset - {x}) | {u}
                if transversal_ok(list(others)):
                    parent[x] = u
                    queue.append(x)
    return None


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


def validate_sir(family: core.SetFamily, m: MatroidOracle, reps) -> tuple[bool, str | None]:
    """Membership, distinctness, and oracle-checked independence."""
    ok, reason = core.validate_sdr(family, reps)
    if not ok:
        return False, reason
    if not m.independent(frozenset(reps)):
        return False, "representatives are not independent in the matroid"
    return True, None
