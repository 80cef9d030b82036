"""Independence-oracle matroids, ranks, and independent transversals.

The rank condition generalises the counting condition of the plain SDR
problem: a family has a system of independent representatives exactly when
every k of its sets jointly span rank at least k.
"""

from __future__ import annotations

from collections import deque
from functools import partial
from math import isqrt

from . import _bitmatch, core
from .errors import ResourceLimitError, ValidationError

# A linear matroid's modulus is tested prime by trial division, some 2^20
# divisions for the largest prime below this ceiling (0.09 s, 2-vCPU Xeon).
_MODULUS_CEILING = 1 << 40


class MatroidOracle:
    """A ground set plus a black-box independence predicate.

    Rank is derived by greedy extension of an incremental basis, never
    trusted from the caller; the exchange property makes the greedy result
    well defined.  A built-in kind passes its own basis, from which its
    predicate is derived too; a predicate alone gets `_OracleBasis`.
    """

    __slots__ = ("ground", "kind", "_indep", "_index", "_new_basis")

    def __init__(self, ground, indep=None, kind="custom", basis=None):
        self._index = core._index_labels(ground, "ground")
        self.ground = tuple(self._index)
        self.kind = kind
        self._new_basis = basis
        self._indep = indep if basis is None else partial(_grows, basis)

    def basis(self):
        """An empty basis, with the methods of `_OracleBasis`."""
        return _OracleBasis(self) if self._new_basis is None else self._new_basis()

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
        b = self.basis()
        for x in self.ground:
            if x in subset and b.independent_with(x):
                b.add(x)
        return len(b.members)


def _grows(new_basis, subset) -> bool:
    """Whether each element of `subset` in turn can join an empty basis."""
    b = new_basis()
    for x in subset:
        if not b.independent_with(x):
            return False
        b.add(x)
    return True


class _OracleBasis:
    """An independent set I, the list ``members``, grown by ``add(y)``.

    ``independent_with(y)`` says whether I + y is independent, and
    ``circuit(y)`` is None when it is, else y's fundamental circuit: what
    it holds is the x in I for which I - x + y is independent.  This one
    asks the predicate, and asks it about an x when ``x in circuit`` is.
    """

    __slots__ = ("m", "members")

    def __init__(self, m):
        self.m, self.members = m, []

    def independent_with(self, y):
        return bool(self.m._indep(frozenset([*self.members, y])))

    def add(self, y):
        self.members.append(y)

    def circuit(self, y):
        return None if self.independent_with(y) else _AskedCircuit((self, y))


class _AskedCircuit(tuple):
    """(basis, y); ``x in`` it asks whether I - x + y is independent."""

    def __contains__(self, x):
        basis, y = self
        return bool(basis.m._indep(frozenset([z for z in basis.members if z != x] + [y])))


class _CountBasis:
    """Partition, uniform and free kinds: I + y is independent while I
    holds fewer than ``caps[b]`` members of y's block b = ``block[y]``."""

    __slots__ = ("block", "room", "members")

    def __init__(self, block, caps):
        self.block, self.room, self.members = block, list(caps), []

    def independent_with(self, y):
        return self.room[self.block[y]] > 0

    def add(self, y):
        self.room[self.block[y]] -= 1
        self.members.append(y)

    def circuit(self, y):
        b = self.block[y]
        return None if self.room[b] else {x for x in self.members if self.block[x] == b}


class _GraphicBasis:
    """A forest: union-find with path halving over endpoint indices, and,
    for circuits, the forest rooted once after the last ``add``, so that a
    circuit is the tree path between y's ends."""

    __slots__ = ("ends", "parent", "members", "_up")

    def __init__(self, ends):
        self.ends, self.parent, self.members, self._up = ends, {}, [], None

    def _root(self, u):
        parent = self.parent  # an endpoint with no entry is a root
        while u in parent:  # halving: point u at its grandparent, and go there
            a = parent[u]
            if a in parent:
                a = parent[u] = parent[a]
            u = a
        return u

    def independent_with(self, y):
        u, v = self.ends[y]
        return self._root(u) != self._root(v)

    def add(self, y):
        u, v = self.ends[y]
        self.parent[self._root(u)] = self._root(v)
        self.members.append(y)
        self._up = None

    def circuit(self, y):
        if self.independent_with(y):
            return None
        if self._up is None:  # up[w]: parent vertex, edge to it, and depth in a BFS forest
            near, up = {}, {}
            for e in self.members:
                u, v = self.ends[e]
                near.setdefault(u, []).append((v, e))
                near.setdefault(v, []).append((u, e))
            for root in near:
                queue = [] if root in up else [root]
                up.setdefault(root, (root, None, 0))
                for w in queue:
                    for z, e in near[w]:
                        if z not in up:
                            up[z] = (w, e, up[w][2] + 1)
                            queue.append(z)
            self._up = up
        (u, v), path = self.ends[y], set()
        while u != v:
            if self._up[u][2] < self._up[v][2]:
                u, v = v, u
            u, edge, _ = self._up[u]
            path.add(edge)
        return path


class _LinearBasis:
    """Columns over GF(p) in echelon rows [vector | combination]: position
    width + k of a row holds the coefficient of the k-th member in the sum
    of member columns that equals its vector.  A row is zero at the pivots
    of the rows before it, so one pass in row order reduces a vector."""

    __slots__ = ("vecs", "p", "width", "rows", "members")

    def __init__(self, vecs, p, width):
        self.vecs, self.p, self.width, self.rows, self.members = vecs, p, width, [], []

    def _reduce(self, v):
        p = self.p
        for c, row in self.rows:
            f = v[c]
            if f:
                v = [(a - f * b) % p for a, b in zip(v, row)]
        return v

    def independent_with(self, y):
        return any(self._reduce(self.vecs[y]))  # the vector part alone: zip stops there

    def add(self, y):
        v = [*self.vecs[y], *[0] * self.width]
        v[self.width + len(self.members)] = 1
        v = self._reduce(v)
        c = next(i for i, a in enumerate(v) if a)
        inv = pow(v[c], -1, self.p)
        self.rows.append((c, [a * inv % self.p for a in v]))
        self.members.append(y)

    def circuit(self, y):
        v = self._reduce([*self.vecs[y], *[0] * self.width])
        return None if any(v[:self.width]) else {
            x for x, f in zip(self.members, v[self.width:]) if f}


def rank(m: MatroidOracle, subset) -> int:
    """Size of a greedy maximal independent subset of `subset`."""
    return m.rank_of(subset)


# ---------------------------------------------------------------------------
# Built-in matroid kinds.


def free_matroid(ground) -> MatroidOracle:
    return _one_block(ground, None, "free")


def uniform_matroid(ground, k: int) -> MatroidOracle:
    if isinstance(k, bool) or not isinstance(k, int) or k < 0:
        raise ValidationError("uniform rank must be a nonnegative integer", field="rank")
    return _one_block(ground, k, "uniform")


def _one_block(ground, k, kind):
    """Every element in block 0, whose cap is `k`, or the ground size for None."""
    index = core._index_labels(ground, "ground")
    block, caps = dict.fromkeys(index, 0), [len(index) if k is None else k]
    return MatroidOracle(index, kind=kind, basis=lambda: _CountBasis(block, caps))


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
    block = {x: owner[pos] for x, pos in index.items()}
    caps = list(caps)
    return MatroidOracle(ground, kind="partition", basis=lambda: _CountBasis(block, caps))


def graphic_matroid(edges) -> MatroidOracle:
    """Edges of a simple graph; a subset is independent when it is acyclic.

    ``edges`` maps an edge id to its endpoint pair.  Each endpoint gets an
    integer index once, here (labels that compare equal, such as 1 and
    True, share one), and ``ends`` holds each edge's pair of indices, over
    which `_GraphicBasis` runs.
    """
    if not isinstance(edges, dict):
        raise ValidationError("'graph' must map edge ids to endpoint pairs", field="graph")
    vertex = {}
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
        ends[eid] = (vertex.setdefault(u, len(vertex)), vertex.setdefault(v, len(vertex)))
    return MatroidOracle(tuple(ends), kind="graphic", basis=lambda: _GraphicBasis(ends))


def _is_prime(p) -> bool:
    """Trial division up to the square root of `p`, refused from
    `_MODULUS_CEILING` on."""
    if p >= _MODULUS_CEILING:
        raise ResourceLimitError(f"modulus {p} is not below the ceiling {_MODULUS_CEILING}")
    return p > 1 and all(p % d for d in range(2, isqrt(p) + 1))


def linear_matroid(columns, modulus: int) -> MatroidOracle:
    """Column labels of a matrix over a prime field; independence is linear.

    Each column is a list of integers, all of one length."""
    if isinstance(modulus, bool) or not isinstance(modulus, int) or not _is_prime(modulus):
        raise ValidationError("modulus must be a prime number", field="modulus")
    if not isinstance(columns, dict):
        raise ValidationError("'columns' must map labels to vectors", field="columns")
    vecs = {}
    width = None
    for label, v in columns.items():
        if not isinstance(v, (list, tuple)) or not {*map(type, v)} <= {int}:  # no bool
            raise ValidationError(f"column {label!r} must be a list of integers",
                                  field="columns")
        if width is None:
            width = len(v)
        elif len(v) != width:
            raise ValidationError(f"column {label!r} has the wrong length", field="columns")
        vecs[label] = [x % modulus for x in v]
    return MatroidOracle(tuple(vecs), kind="linear",
                         basis=lambda: _LinearBasis(vecs, modulus, width or 0))


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
    core._label_list(obj, "ground")
    return make_matroid(**obj)


# ---------------------------------------------------------------------------
# Rado's condition.


def check_ground(family: core.SetFamily, m: MatroidOracle) -> None:
    """Raise ``ValidationError`` unless the family's ground lies in the
    matroid's: neither a search nor a certificate check is defined then."""
    if any(x not in m._index for x in family.ground):
        raise ValidationError("family ground is not contained in the matroid ground",
                              field="ground")


def rado_check(family: core.SetFamily, m: MatroidOracle) -> tuple[str, dict, str]:
    """Find a system of independent representatives or a rank violator, as
    (status, payload, diagnostics), the payload being what `verify_rado`
    reads: "found" with "reps", one member of each set in set order, all
    distinct and independent in `m`; or "not-found" with "indices", sets
    whose "union" has "rank" below their count.

    One polynomial path: a greedy pass takes every representative that an
    exchange path of length one would add (Cunningham's greedy start), then
    matroid-intersection exchange searches grow the representatives, and
    when they stop short the elements the last search reached give a tight
    rank cut (Edmonds' min-max theorem), from which the violator is read
    off.  There is no size ceiling on either certificate, and the violator
    is not necessarily a smallest one.  Both run on the matroid's
    incremental basis (`MatroidOracle.basis`), so a built-in kind makes no
    call to its independence predicate.
    """
    check_ground(family, m)
    reached: dict = {}
    reps = _sir_augmenting(family, m, reached)
    if reps is not None:
        return "found", {"reps": reps}, "independent representatives found"
    violator = _violator_from_cut(family, m, reached)
    return ("not-found", violator,
            f"rank {violator['rank']} below {len(violator['indices'])} sets")


def _sir_augmenting(family, m, reached):
    """Maximum common independent set of the matroid and the family's
    transversal structure: `_greedy_start`, then grown one exchange path at
    a time.  The greedy pass adds what the searches would add one path of
    length one each, so the result is that of the searches alone.

    Returns the representatives, or None; then ``reached`` holds every
    element the last, failed, exchange-path search reached.
    """
    n = family.n
    if n == 0:
        return []
    containing = {}
    for i in range(n):
        for x in family.sets[i]:
            containing.setdefault(x, 0)
            containing[x] |= 1 << i
    candidates = [x for x in family.ground if x in containing]

    current = _greedy_start(candidates, m, containing, n)
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
    return [current[match_col[i]] for i in range(n)]


def _greedy_start(candidates, m, containing, n):
    """The representatives that exchange paths of length one add, found in
    one pass in `candidates` order.

    An outsider y joins I when I + y is independent and an augmenting
    search from the sets holding y, through a matching of I into the n sets
    kept across the pass, reaches a set the matching leaves free.  Both
    tests are monotone in I, so an outsider refused once stays refused: the
    pass adds the same elements, in the same order, as one exchange search
    each, and no exchange path of length one is left after it.  The search
    runs first, so an outsider that cannot be matched costs no independence
    test.
    """
    basis = m.basis()
    holder = [None] * n  # holder[j]: the element matched to set j
    free = (1 << n) - 1
    for y in candidates:
        via = {}  # via[j]: the set whose element the search stepped from to j; none for y's sets
        reach = todo = containing[y]
        while todo and not reach & free:
            low = todo & -todo
            todo ^= low
            j = low.bit_length() - 1
            step = containing[holder[j]] & ~reach
            reach |= step
            todo |= step
            for k in _bitmatch.bits_of(step):
                via[k] = j
        if not reach & free:
            continue
        if not basis.independent_with(y):
            continue
        j = (reach & free & -(reach & free)).bit_length() - 1
        free ^= 1 << j
        while j in via:  # shift each element on the path one set along it
            holder[j] = holder[via[j]]
            j = via[j]
        holder[j] = y
        basis.add(y)
    return basis.members


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

    The matroid side costs one fundamental circuit C(y) per outsider y,
    from a basis holding I: y is a source when C(y) is None, and otherwise
    I - x + y is independent exactly when x is in C(y).
    """
    inside = set(current)
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
    basis = m.basis()
    for x in current:
        basis.add(x)
    circuit = {}  # circuit[y]: y's fundamental circuit, for an outsider that is no source
    queue = deque()
    for y in outside:
        circuit[y] = basis.circuit(y)
        if circuit[y] is None:
            if reach[y] & free:
                return [y]
            parent[y] = None
            queue.append(y)
    while queue:
        u = queue.popleft()
        if u in inside:
            for y in outside:
                if y not in parent and u in circuit[y]:
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
    outsider as an extra position made ``rado_check`` slower."""
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
    """The violator read off the reached set R of a failed exchange search,
    as the payload fields "indices", "union" and "rank".

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
    rows, _ = _bitmatch.alternating_reachable(masks, match_row, match_col)
    indices = sorted(rows)
    union = family.union_of(indices)
    return {"indices": indices, "union": list(union), "rank": m.rank_of(union)}


def verify_rado(family: core.SetFamily, m: MatroidOracle, cert: dict) -> tuple[bool, str | None]:
    """Check a ``rado`` certificate object: distinct representatives,
    independent in `m`, under "reps"; or else a violator, sets under
    "indices" whose "union" has the stated "rank", below their count."""
    if "reps" in cert:
        reps = core._cert_field(cert, "reps", index=family._index)
        ok, reason = core._validate_sdr(family, reps)
        if ok and not m.independent(frozenset(reps)):
            ok, reason = False, "representatives are not independent in the matroid"
        return ok, reason
    indices, stated = core._cert_field(cert, "indices"), core._cert_field(cert, "union")
    stated_rank = core._cert_field(cert, "rank", int)
    union, reason = core._violator_union(family, indices, stated)
    if union is None:
        return False, reason
    rank = m.rank_of(union)
    if rank != stated_rank:
        return False, f"stated rank differs from the recomputed rank {rank}"
    if rank >= len(indices):
        return False, "union rank is not below the index count"
    return True, None
