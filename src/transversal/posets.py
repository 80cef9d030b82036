"""Finite partial orders, chain and antichain decompositions, and the
perfect-graph check that sits behind them: a search for the smallest odd
hole or odd antihole."""

from __future__ import annotations

from . import _bitmatch, core
from .errors import ResourceLimitError, ValidationError
from .graphs import Graph

PERFECT_CEILING = 24
# Paths the odd-hole search may enter: about 0.3 s (2-vCPU Xeon).
PERFECT_BUDGET = 1 << 18


class Poset:
    """A finite strict partial order.

    The constructor accepts any acyclic set of (smaller, larger) pairs,
    takes the transitive closure, and rejects inputs whose closure would
    relate an element to itself.  Hasse-diagram input therefore works
    directly.
    """

    __slots__ = ("elements", "_index", "_above")

    def __init__(self, elements, pairs):
        index = core._index_labels(elements, "elements")
        elements = tuple(index)
        succ = [[] for _ in elements]  # succ[i]: the j with a pair (elements[i], elements[j])
        for pair in pairs:
            try:
                a, b = pair
                succ[index[a]].append(index[b])
            except (KeyError, TypeError, ValueError) as exc:
                raise ValidationError(f"{pair!r} is not a pair of elements",
                                      field="less_than") from exc
        for positions in succ:
            positions.sort()
        self.elements = elements
        self._index = index
        self._above = _closure(succ, elements)  # _above[i]: the j with elements[i] < elements[j]

    @property
    def n(self) -> int:
        return len(self.elements)

    def lt(self, a, b) -> bool:
        return (self._above[self._index[a]] >> self._index[b]) & 1 == 1

    def comparable(self, a, b) -> bool:
        return self.lt(a, b) or self.lt(b, a)

    @classmethod
    def from_json(cls, obj: dict) -> "Poset":
        for key in ("elements", "less_than"):
            if not isinstance(obj, dict) or key not in obj:
                raise ValidationError(f"poset file needs '{key}'", field=key)
        if not isinstance(obj["less_than"], list):
            raise ValidationError("'less_than' must be a list of pairs", field="less_than")
        return cls(core._label_list(obj, "elements"), obj["less_than"])


def _closure(succ, elements):
    """Transitive closure of the ascending successor lists `succ`, as masks,
    in topological order.

    A depth-first search on an explicit stack closes each element after all
    of its successors: above[v] is the union of w and above[w] over the w
    in succ[v].  Reaching an element that is still open on the stack closes
    a cycle, and that element lies on it.  Successors are entered in
    ascending order, so the element named does not depend on the order of
    the pairs.
    """
    n = len(succ)
    above = [0] * n  # above[v] | 1 << v until the end: closing v shifts no successor bit
    state = [0] * n  # 0: not reached, 1: open on the stack, 2: closed
    for root in range(n):
        if state[root]:
            continue
        state[root] = 1
        stack = [root]
        pending = [iter(succ[root])]  # pending[k]: successors of stack[k] not yet entered
        while stack:
            for w in pending[-1]:
                if state[w] == 1:
                    raise ValidationError(
                        f"relation has a cycle through {elements[w]!r}", field="less_than"
                    )
                if state[w] == 0:
                    state[w] = 1
                    stack.append(w)
                    pending.append(iter(succ[w]))
                    break
            else:
                v = stack.pop()
                pending.pop()
                closed = 1 << v
                for w in succ[v]:
                    closed |= above[w]
                above[v] = closed
                state[v] = 2
    for v in range(n):
        above[v] ^= 1 << v
    return above


def dilworth(p: Poset) -> tuple[str, dict, str]:
    """Minimum chain partition with a maximum antichain of matching size, as
    ("found", payload, diagnostics), the payload being what
    `verify_dilworth` reads: "chains", each listed from the bottom up, and
    "antichain", as many elements.

    Built from a maximum matching on the split graph (one copy of the poset
    on each side, an edge for every strict relation); the antichain is the
    set of elements both of whose copies avoid the matching's vertex cover.
    """
    n = p.n
    above = _bitmatch.column_lists(p._above, n) or p._above  # the lists where they serve better
    match_row, match_col = _bitmatch.max_matching(above, n)
    rows, cols = _bitmatch.alternating_reachable(above, match_row, match_col)
    # Cover: matched left copies outside `rows`, right copies inside `cols`.
    antichain = [
        p.elements[i]
        for i in range(n)
        if not (match_row[i] != _bitmatch.UNMATCHED and i not in rows)
        and i not in cols
    ]
    successor = {i: c for i, c in enumerate(match_row) if c != _bitmatch.UNMATCHED}
    has_predecessor = set(successor.values())
    chains = []
    for i in range(n):
        if i in has_predecessor:
            continue
        chain = [p.elements[i]]
        j = i
        while j in successor:
            j = successor[j]
            chain.append(p.elements[j])
        chains.append(chain)
    return "found", {"chains": chains, "antichain": antichain}, f"{len(chains)} chains"


def mirsky(p: Poset) -> tuple[str, dict, str]:
    """Antichain levels by stripping maximal elements, plus a longest chain,
    as ("found", payload, diagnostics), the payload being what
    `verify_mirsky` reads: "antichains", the levels from the top down, and
    "chain", as many elements, listed from the bottom up."""
    n = p.n
    remaining = (1 << n) - 1
    levels = []
    while remaining:
        level = 0
        for i in _bitmatch.bits_of(remaining):
            if not (p._above[i] & remaining):
                level |= 1 << i
        levels.append([p.elements[i] for i in _bitmatch.bits_of(level)])
        remaining &= ~level
    # height[i]: longest chain starting at i.  Anything above i has strictly
    # fewer elements above it, so increasing |above| is a valid DP order.
    height = [0] * n
    for i in sorted(range(n), key=lambda i: p._above[i].bit_count()):
        best = 0
        for j in _bitmatch.bits_of(p._above[i]):
            if height[j] > best:
                best = height[j]
        height[i] = 1 + best
    chain = []
    if n:
        current = max(range(n), key=lambda i: (height[i], -i))
        chain.append(p.elements[current])
        while height[current] > 1:
            current = next(
                j for j in _bitmatch.bits_of(p._above[current])
                if height[j] == height[current] - 1
            )
            chain.append(p.elements[current])
    payload = {"antichains": levels, "chain": chain}
    return "found", payload, f"{len(levels)} antichain levels"


def _positions(p: Poset, items):
    """The positions of `items` in the poset, or None if one is not an element."""
    try:
        positions = [p._index.get(x) for x in items]
    except TypeError:  # an unhashable item is no element either
        return None
    return None if None in positions else positions


def _validate_chain(p: Poset, chain) -> tuple[bool, str | None]:
    """Every entry of `chain` is an element below the next one."""
    chain = tuple(chain)
    positions = _positions(p, chain)
    if positions is None:
        return False, "chain names something that is not an element"
    for k, (i, j) in enumerate(zip(positions, positions[1:])):
        if not (p._above[i] >> j) & 1:
            return False, f"chain entries {chain[k]!r},{chain[k + 1]!r} are out of order"
    return True, None


def _validate_antichain(p: Poset, antichain) -> tuple[bool, str | None]:
    """No two entries of `antichain` are comparable: one mask test per entry."""
    antichain = tuple(antichain)
    positions = _positions(p, antichain)
    if positions is None:
        return False, "antichain names something that is not an element"
    mask = sum(1 << i for i in set(positions))
    if mask.bit_count() != len(antichain):
        return False, "antichain repeats an element"
    for x, i in zip(antichain, positions):
        if above := p._above[i] & mask:
            y = p.elements[above.bit_length() - 1]
            return False, f"elements {x!r},{y!r} are comparable"
    return True, None


def _validate_partition(p, parts, validate_part, name):
    """Every part passes `validate_part`, and each element is in one part."""
    seen: set = set()
    for part in parts:
        ok, reason = validate_part(p, part)
        if not ok:
            return False, reason
        for x in part:
            if x in seen:
                return False, f"element {x!r} appears in two {name}s"
            seen.add(x)
    if seen != set(p.elements):
        return False, f"{name}s do not cover every element"
    return True, None


def verify_dilworth(p: Poset, cert: dict) -> tuple[bool, str | None]:
    """Check a ``dilworth`` certificate object: "chains" partition `p` and
    "antichain" is an antichain of as many elements."""
    chains, antichain = core._cert_rows(cert, "chains"), core._cert_field(cert, "antichain")
    ok, reason = _validate_partition(p, chains, _validate_chain, "chain")
    if ok:
        ok, reason = _validate_antichain(p, antichain)
    if ok and len(chains) != len(antichain):
        ok, reason = False, "chain count differs from the antichain size"
    return ok, reason


def verify_mirsky(p: Poset, cert: dict) -> tuple[bool, str | None]:
    """Check a ``mirsky`` certificate object: "antichains" partition `p` and
    "chain" is a chain of as many elements."""
    levels, chain = core._cert_rows(cert, "antichains"), core._cert_field(cert, "chain")
    ok, reason = _validate_partition(p, levels, _validate_antichain, "level")
    if ok:
        ok, reason = _validate_chain(p, chain)
    if ok and len(levels) != len(chain):
        ok, reason = False, "level count differs from the chain length"
    return ok, reason


# ---------------------------------------------------------------------------
# Perfection by the smallest odd hole or odd antihole.


def is_perfect(g: Graph, *, ceiling: int = PERFECT_CEILING) -> tuple[str, dict, str]:
    """Whether `g` is perfect, as (status, payload, diagnostics), the
    payload being what `verify_perfect` reads: "perfect", and "berge" equal
    to it (a graph is Berge, with no odd hole or antihole, exactly when it
    is perfect); and "witness".  A perfect graph is "found" with no
    witness; an imperfect one is "not-found" with the vertices of the
    smallest induced subgraph whose clique number is below its chromatic
    number, the least vertex mask among ties.

    Such a subgraph is minimally imperfect, so by the strong perfect graph
    theorem it is an odd hole or an odd antihole, and `_least_odd_hole`
    finds it without any table.  Raises ResourceLimitError above `ceiling`
    vertices or past the search's node budget.
    """
    n = len(g.vertices)
    if n > ceiling:
        raise ResourceLimitError(f"graph has {n} vertices, above the ceiling {ceiling}")
    adj = g.adjacency_masks()
    full = (1 << n) - 1
    co_adj = [full & ~adj[i] & ~(1 << i) for i in range(n)]
    hole = _least_odd_hole((adj, co_adj), n)
    if not hole:
        return "found", {"perfect": True, "berge": True, "witness": None}, "graph is perfect"
    witness = [g.vertices[i] for i in _bitmatch.bits_of(hole)]
    payload = {"perfect": False, "berge": False, "witness": witness}
    return "not-found", payload, "imperfect; witness subgraph attached"


def _least_odd_hole(adjs, n):
    """The mask of the least (size, mask) induced odd cycle of 5 or more
    vertices in any of the graphs with neighbour masks `adjs`, or 0.

    An explicit-stack search over chordless paths from each vertex v that
    grow only through higher vertices.  A path's `blocked` mask holds its
    inner vertices and their neighbours; a step to a neighbour of v closes
    the cycle.  A path stops growing once it reaches the best size found.
    Past PERFECT_BUDGET paths entered it raises ResourceLimitError.
    """
    best = (n + 1, 0)
    nodes = 0
    for adj in adjs:
        for v in range(n):
            higher = ~((2 << v) - 1)
            stack = [(p, 1 << v | 1 << p, 0, 2) for p in _bitmatch.bits_of(adj[v] & higher)]
            while stack:
                last, path, blocked, size = stack.pop()
                if size >= best[0]:
                    continue
                nodes += 1
                if nodes > PERFECT_BUDGET:
                    raise ResourceLimitError(f"the odd-hole search entered {nodes} paths,"
                                             f" over the node budget of {PERFECT_BUDGET}")
                step = adj[last] & higher & ~blocked
                close = step & adj[v]
                if close and size % 2 == 0 and size >= 4:
                    best = min(best, (size + 1, path | (close & -close)))
                blocked |= adj[last] | 1 << last
                for u in _bitmatch.bits_of(step & ~close):
                    stack.append((u, path | 1 << u, blocked, size + 1))
    return best[1]


def verify_perfect(g: Graph, cert: dict) -> tuple[bool, str | None]:
    """Check a ``perfect`` certificate object: the "witness" vertices induce
    an odd cycle of 5 or more vertices in the graph or in its complement,
    so their clique number is below their chromatic number; "perfect" is
    false, and so is "berge" if it is given.  A perfect answer has no
    witness, and nothing else a checker could read."""
    perfect = cert.get("perfect")
    if perfect is True:
        return False, "a perfect answer carries no certificate a checker can read"
    if perfect is not False:
        raise ValidationError("'perfect' must be false beside a witness", field="perfect")
    if cert.get("berge", False) is not False:
        raise ValidationError("'berge' must equal 'perfect'", field="berge")
    witness = core._cert_field(cert, "witness", index=g._index)
    core._index_labels(witness, "witness")
    if len(witness) < 5 or len(witness) % 2 == 0:
        return False, f"witness has {len(witness)} vertices, not an odd number of 5 or more"
    positions = [g._index[x] for x in witness]
    adj = g.adjacency_masks()
    inside = sum(1 << i for i in positions)
    co_adj = [inside & ~adj[i] & ~(1 << i) for i in range(len(adj))]
    if not (_is_cycle(adj, positions) or _is_cycle(co_adj, positions)):
        return False, "witness induces no odd hole and no odd antihole"
    return True, None


def _is_cycle(adj, subset_bits):
    inside = 0
    for b in subset_bits:
        inside |= 1 << b
    for b in subset_bits:
        if (adj[b] & inside).bit_count() != 2:
            return False
    return _bitmatch.reachable(adj, subset_bits[0], ~inside) == inside
