"""Finite partial orders, chain and antichain decompositions, and the
desk-scale perfect-graph checks that sit behind them."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from . import _bitmatch, core
from .errors import ResourceLimitError, ValidationError
from .graphs import Graph

PERFECT_CEILING = 10
TABLE_CEILING = 1 << 20  # entries in each subset table of is_perfect


class Poset:
    """A finite strict partial order.

    The constructor accepts any acyclic set of (smaller, larger) pairs,
    takes the transitive closure, and rejects inputs whose closure would
    relate an element to itself.  Hasse-diagram input therefore works
    directly.
    """

    __slots__ = ("elements", "less", "_index", "_below", "_above")

    def __init__(self, elements, pairs):
        index = core._index_labels(elements, "elements")
        elements = tuple(index)
        n = len(elements)
        succ = [0] * n  # succ[i]: mask of the j with a pair (elements[i], elements[j])
        for pair in pairs:
            try:
                a, b = pair
                ia, ib = index[a], index[b]
            except (KeyError, TypeError, ValueError) as exc:
                raise ValidationError(f"{pair!r} is not a pair of elements",
                                      field="less_than") from exc
            succ[ia] |= 1 << ib
        above = _closure(succ, elements)  # above[i]: the j with elements[i] < elements[j]
        below = [0] * n
        for i in range(n):
            for j in _bitmatch.bits_of(above[i]):
                below[j] |= 1 << i
        self.elements = elements
        self._index = index
        self._above = above
        self._below = below
        self.less = frozenset(
            (elements[i], elements[j])
            for i in range(n)
            for j in _bitmatch.bits_of(above[i])
        )

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
        return cls(obj["elements"], obj["less_than"])


def _closure(succ, elements):
    """Transitive closure of the successor masks `succ`, in topological order.

    A depth-first search on an explicit stack closes each element after all
    of its successors: above[v] = succ[v] | OR(above[w] for w in succ[v]).
    Reaching an element that is still open on the stack closes a cycle, and
    that element lies on it.
    """
    n = len(succ)
    above = [0] * n
    state = [0] * n  # 0: not reached, 1: open on the stack, 2: closed
    for root in range(n):
        if state[root]:
            continue
        state[root] = 1
        stack = [root]
        pending = [succ[root]]  # pending[k]: successors of stack[k] not yet entered
        while stack:
            todo = pending[-1]
            if todo:
                low = todo & -todo
                pending[-1] = todo ^ low
                w = low.bit_length() - 1
                if state[w] == 1:
                    raise ValidationError(
                        f"relation has a cycle through {elements[w]!r}", field="less_than"
                    )
                if state[w] == 0:
                    state[w] = 1
                    stack.append(w)
                    pending.append(succ[w])
                continue
            v = stack.pop()
            pending.pop()
            closed = succ[v]
            for w in _bitmatch.bits_of(succ[v]):
                closed |= above[w]
            above[v] = closed
            state[v] = 2
    return above


@dataclass(frozen=True)
class ChainPartition:
    """Disjoint totally ordered sequences covering every element."""

    chains: tuple

    def __len__(self):
        return len(self.chains)


@dataclass(frozen=True)
class AntichainPartition:
    """Disjoint pairwise-incomparable sets covering every element."""

    antichains: tuple

    def __len__(self):
        return len(self.antichains)


def dilworth(p: Poset) -> tuple[ChainPartition, tuple]:
    """Minimum chain partition with a maximum antichain of matching size.

    Built from a maximum matching on the split graph (one copy of the poset
    on each side, an edge for every strict relation); the antichain is the
    set of elements both of whose copies avoid the matching's vertex cover.
    """
    n = p.n
    above = _bitmatch.column_lists(p._above, n)  # None where the masks serve better
    match_row, match_col = _bitmatch.max_matching(p._above, n, row_cols=above)
    free = [i for i in range(n) if match_row[i] == _bitmatch.UNMATCHED]
    rows, cols = _bitmatch.alternating_reachable(p._above, match_row, match_col, free, above)
    # Cover: matched left copies outside `rows`, right copies inside `cols`.
    antichain = tuple(
        p.elements[i]
        for i in range(n)
        if not (match_row[i] != _bitmatch.UNMATCHED and i not in rows)
        and i not in cols
    )
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
        chains.append(tuple(chain))
    return ChainPartition(tuple(chains)), antichain


def mirsky(p: Poset) -> tuple[AntichainPartition, tuple]:
    """Antichain levels by stripping maximal elements, plus a longest chain."""
    n = p.n
    remaining = (1 << n) - 1
    levels = []
    while remaining:
        level = 0
        for i in _bitmatch.bits_of(remaining):
            if not (p._above[i] & remaining):
                level |= 1 << i
        levels.append(tuple(p.elements[i] for i in _bitmatch.bits_of(level)))
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
    return AntichainPartition(tuple(levels)), tuple(chain)


def _positions(p: Poset, items):
    """The positions of `items` in the poset, or None if one is not an element."""
    try:
        positions = [p._index.get(x) for x in items]
    except TypeError:  # an unhashable item is no element either
        return None
    return None if None in positions else positions


def validate_chain(p: Poset, chain) -> tuple[bool, str | None]:
    """Every entry of `chain` is an element below the next one."""
    chain = tuple(chain)
    positions = _positions(p, chain)
    if positions is None:
        return False, "chain names something that is not an element"
    for k, (i, j) in enumerate(zip(positions, positions[1:])):
        if not (p._above[i] >> j) & 1:
            return False, f"chain entries {chain[k]!r},{chain[k + 1]!r} are out of order"
    return True, None


def validate_chain_partition(p: Poset, partition: ChainPartition) -> tuple[bool, str | None]:
    return _validate_partition(p, partition.chains, validate_chain, "chain")


def validate_antichain(p: Poset, antichain) -> tuple[bool, str | None]:
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


def validate_antichain_partition(p: Poset, partition: AntichainPartition) -> tuple[bool, str | None]:
    return _validate_partition(p, partition.antichains, validate_antichain, "level")


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
    ok, reason = validate_chain_partition(p, ChainPartition(tuple(map(tuple, chains))))
    if ok:
        ok, reason = validate_antichain(p, antichain)
    if ok and len(chains) != len(antichain):
        ok, reason = False, "chain count differs from the antichain size"
    return ok, reason


def verify_mirsky(p: Poset, cert: dict) -> tuple[bool, str | None]:
    """Check a ``mirsky`` certificate object: "antichains" partition `p` and
    "chain" is a chain of as many elements."""
    levels, chain = core._cert_rows(cert, "antichains"), core._cert_field(cert, "chain")
    ok, reason = validate_antichain_partition(p, AntichainPartition(tuple(map(tuple, levels))))
    if ok:
        ok, reason = validate_chain(p, chain)
    if ok and len(levels) != len(chain):
        ok, reason = False, "level count differs from the chain length"
    return ok, reason


# ---------------------------------------------------------------------------
# Tiny-scale perfection checks.


def _clique_table(adj, n):
    size = 1 << n
    table = [0] * size
    for x in range(1, size):
        low = x & -x
        v = low.bit_length() - 1
        without = table[x ^ low]
        with_v = 1 + table[x & adj[v]]
        table[x] = with_v if with_v > without else without
    return table


def _chromatic_table(adj, n):
    size = 1 << n
    table = [0] * size
    for x in range(1, size):
        v = (x & -x).bit_length() - 1
        best = n + 1
        # Colour class of v: any independent subset of x containing v.
        stack = [(1 << v, x & ~adj[v] & ~(1 << v))]
        while stack:
            chosen, candidates = stack.pop()
            rest = table[x & ~chosen]
            if rest + 1 < best:
                best = rest + 1
            while candidates:
                low = candidates & -candidates
                candidates ^= low
                u = low.bit_length() - 1
                stack.append((chosen | low, candidates & ~adj[u]))
        table[x] = best
    return table


def is_perfect(g: Graph, *, ceiling: int = PERFECT_CEILING):
    """Exhaustive clique-number / chromatic-number comparison.

    Returns (True, None), or (False, witness vertices) for the smallest
    induced subgraph on which the two numbers differ.  The clique and
    chromatic tables hold 2^n entries each, so a graph is refused by
    `TABLE_CEILING` before they are allocated, whatever `ceiling` allows.
    """
    n = len(g.vertices)
    if n > ceiling:
        raise ResourceLimitError(f"graph has {n} vertices, above the ceiling {ceiling}")
    if 1 << n > TABLE_CEILING:
        raise ResourceLimitError(f"{n} vertices need two tables of 2^{n} entries each,"
                                 f" above the table ceiling of {TABLE_CEILING} entries")
    adj = g.adjacency_masks()
    cliques = _clique_table(adj, n)
    chromatics = _chromatic_table(adj, n)
    bad = [x for x in range(1 << n) if cliques[x] != chromatics[x]]
    if not bad:
        return True, None
    witness = min(bad, key=lambda x: (x.bit_count(), x))
    return False, tuple(g.vertices[i] for i in _bitmatch.bits_of(witness))


def verify_perfect(g: Graph, cert: dict, *,
                   ceiling: int = PERFECT_CEILING) -> tuple[bool, str | None]:
    """Check a ``perfect`` certificate object: the "witness" vertices induce
    a subgraph whose clique number is below its chromatic number.  The
    witness goes through `is_perfect`, so its size ceilings apply."""
    witness = core._cert_field(cert, "witness", index=g._index)
    members = core._index_labels(witness, "witness")
    sub = Graph(members, [e for e in g.edges if e[0] in members and e[1] in members])
    if is_perfect(sub, ceiling=ceiling)[0]:
        return False, "witness subgraph has equal clique and chromatic numbers"
    return True, None


def _is_cycle(adj, subset_bits):
    inside = 0
    for b in subset_bits:
        inside |= 1 << b
    for b in subset_bits:
        if (adj[b] & inside).bit_count() != 2:
            return False
    return _bitmatch.reachable(adj, subset_bits[0], ~inside) == inside


def berge_check(g: Graph, *, ceiling: int = PERFECT_CEILING) -> bool:
    """True when the graph has no induced odd hole and no odd antihole."""
    n = len(g.vertices)
    if n > ceiling:
        raise ResourceLimitError(f"graph has {n} vertices, above the ceiling {ceiling}")
    adj = g.adjacency_masks()
    full = (1 << n) - 1
    co_adj = [(~adj[i]) & full & ~(1 << i) for i in range(n)]
    for k in range(5, n + 1, 2):
        for subset in combinations(range(n), k):
            if _is_cycle(adj, subset) or _is_cycle(co_adj, subset):
                return False
    return True
