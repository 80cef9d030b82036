"""Set families, distinct representatives, and Hall-style certificates.

The central object is the :class:`SetFamily`: an ordered tuple of subsets of
a finite ground set.  Solvers either produce a system of distinct
representatives (:class:`Sdr`) or a :class:`HallViolator`, a group of sets
whose union is too small; both sides are independently checkable.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import accumulate
from math import comb, perm, prod
from operator import add, sub

from . import _bitmatch
from .errors import ResourceLimitError, ValidationError

RYSER_CEILING = 20
ARRAY_CELL_CEILING = 16

# Work guard of the permanent kernel, and so of every count through it
# (`count_sdrs`, `birkhoff.permanent`, `latin.count_extensions`): the column
# sets the Ryser walk of `_permanent_of` would visit, summed over the
# components of the matrix (`_sets_walked`), each set weighed by the 64-bit
# machine words of its component's largest entry (1 for any entry under 64
# bits), since the products of big entries cost in proportion to their
# size.  A wide component visits sum(C(c, k) for 1 <= k <= r) sets, which
# explodes when it has far more columns than its r rows.  The guard counts
# the walk's sets by shape, not after grouping, nor wall time, and whichever
# route then counts a component, so what it refuses is deterministic: at
# about 1.2-1.4 microseconds a set with distinct small columns (J - I of
# order 20 and 21 on the walk, 2-vCPU Xeon), the largest walk admitted takes
# some 11 s, and less when it has equal columns or goes by the complement.
_COUNT_TERM_GUARD = 1 << 23

# Entries of the grouped table of tail-column sets that `_column_set_sums`
# joins with each head set (`_tail_table`).  A walk over at most 8 columns,
# at most this many sets, is not worth a table: on 6-by-6 and 7-by-7
# components, building one cost more than it saved.
_TABLE_ENTRIES = 1 << 8

# A 0/1 component whose walk has more than `_TABLE_ENTRIES` column sets by
# shape is counted from the rook numbers of its complement instead when the
# row expansion's state updates (`_expansion_work`) are fewer than this many
# times the walk's column sets once equal columns are grouped
# (`_grouped_sets`).  On random dense 12-by-12 to 16-by-16 blocks (2-vCPU
# Xeon), a column set of the walk cost 0.9-1.5 microseconds and an
# estimated state update 0.09-0.16.
_UPDATES_PER_SET = 4


def _index_labels(labels, field) -> dict:
    """Map each of `labels`, distinct hashable values, to its position.

    The dict keeps the input order, so ``tuple(index)`` is the label tuple.
    Raises ``ValidationError`` naming `field` when `labels` cannot be
    iterated, or holds an unhashable or a repeated label.  A sized input is
    indexed in one bulk pass; the walk below names a refusal, and indexes
    an unsized one.
    """
    try:
        index = dict(zip(labels, range(len(labels))))
        if len(index) == len(labels):
            return index
    except TypeError:
        pass
    index = {}
    try:
        for pos, x in enumerate(labels):
            if x in index:
                raise ValidationError(f"{field} repeats {x!r}", field=field)
            index[x] = pos
    except TypeError as exc:
        raise ValidationError(f"{field} must be a list of labels: {exc}", field=field) from exc
    return index


def _all_lists(items) -> bool:
    """Whether every one of `items` is a list or a tuple, so that a bulk pass
    may read them: no string, and no iterator that can be read only once."""
    return all(issubclass(t, (list, tuple)) for t in {*map(type, items)})


def _label_list(obj, key):
    """``obj.get(key, ())``, a file's list of labels, refused when it is a
    string, whose characters would each be taken as a label.  The
    constructors keep taking any iterable of labels."""
    labels = obj.get(key, ())
    if isinstance(labels, str):
        raise ValidationError(f"{key} must be a list, not a string", field=key)
    return labels


def _positions_of(members, index, field, k=None) -> list:
    """The positions that `index` gives to one list of members, in its
    order.

    Raises ``ValidationError`` naming `field`, or ``field[k]`` when `k` is
    given, when `members` is a string or cannot be iterated, or holds an
    unhashable value or one not in `index`.  The name is formatted only
    for a refusal.
    """
    cause = None
    try:
        if not isinstance(members, str):
            return [index[x] for x in members]
        problem = "must be a list, not a string"
    except KeyError as exc:
        problem = f"holds {exc.args[0]!r}, which is not a label"
    except TypeError as exc:
        problem, cause = f"must be a list of labels: {exc}", exc
    if k is not None:
        field = f"{field}[{k}]"
    raise ValidationError(f"{field} {problem}", field=field) from cause


def _mask_at(positions) -> int:
    """Bitmask with the bits at `positions` set."""
    mask = 0
    for pos in positions:
        mask |= 1 << pos
    return mask


def _mask_of(members, index, field) -> int:
    """Bitmask of the positions that `index` gives to one list of members.

    Raises the ``ValidationError`` of `_positions_of` for members that it
    refuses; valid members are read in one pass, with no list of positions.
    """
    mask = 0
    try:
        if isinstance(members, str):
            raise TypeError
        for x in members:
            mask |= 1 << index[x]
    except (KeyError, TypeError):
        _positions_of(members, index, field)
        raise
    return mask


def _cert_field(cert, key, kind=list, index=None):
    """``cert[key]``, checked to be a `kind` (a bool is no int) and, when
    `index` is given, a list of its labels.  Raises ``ValidationError``."""
    value = cert.get(key)
    if not isinstance(value, kind) or isinstance(value, bool):
        raise ValidationError(f"{key!r} must be of type {kind.__name__}", field=key)
    if index is not None:
        _positions_of(value, index, key)
    return value


def _cert_rows(cert, key, index=None, width=None):
    """``cert[key]`` as a list of lists, each of length `width` and a list of
    labels of `index` when these are given.  Raises ``ValidationError``."""
    rows = _cert_field(cert, key)
    for k, row in enumerate(rows):
        field = f"{key}[{k}]"
        if not isinstance(row, list) or width not in (None, len(row)):
            raise ValidationError(f"{field} is not a list of the right size", field=field)
        if index is not None:
            _positions_of(row, index, field)
    return rows


class SetFamily:
    """An ordered tuple of subsets of a finite ground set.

    Element ids are opaque hashable values (strings in the JSON format).
    The order of ``ground`` fixes the deterministic scan order used by every
    solver, and members of each set are stored in that order.

    Each set is stored as its ascending list of ground positions, the rows
    the matching engine walks for every family, so a matching does not
    depend on how wide the ground is.  The bitmasks, which counting and the
    Rado search read, and the ``sets`` label tuples are made from those
    lists on first read and then kept.
    """

    __slots__ = ("ground", "_index", "_cols", "_mask_list", "_label_sets")

    def __init__(self, ground, sets):
        if isinstance(ground, str):
            raise ValidationError("the ground set must be a list, not a string", field="ground")
        index = _index_labels(ground, "ground")
        self.ground = tuple(index)
        self._index = index
        sets = sets if isinstance(sets, list) else list(sets)
        try:
            if not _all_lists(sets):
                raise TypeError
            at = index.__getitem__
            self._cols = [sorted({*map(at, s)}) for s in sets]
        except (KeyError, TypeError):
            self._cols = [sorted(set(_positions_of(s, index, "sets", i)))
                          for i, s in enumerate(sets)]
        self._mask_list = self._label_sets = None

    @property
    def sets(self) -> tuple:
        if self._label_sets is None:
            label = self.ground.__getitem__
            self._label_sets = tuple(tuple(map(label, c)) for c in self._cols)
        return self._label_sets

    @property
    def _masks(self) -> list:
        if self._mask_list is None:
            self._mask_list = [_mask_at(c) for c in self._cols]
        return self._mask_list

    @property
    def n(self) -> int:
        return len(self._cols)

    def mask(self, i: int) -> int:
        return self._masks[i]

    def union_of(self, indices) -> tuple:
        positions = set()
        for i in indices:
            positions.update(self._cols[i])
        return tuple(map(self.ground.__getitem__, sorted(positions)))

    def __eq__(self, other):
        return (
            isinstance(other, SetFamily)
            and self.ground == other.ground
            and self._cols == other._cols
        )

    def __hash__(self):
        return hash((self.ground, self.sets))

    def __repr__(self):
        return f"SetFamily(ground={self.ground!r}, sets={self.sets!r})"

    def to_json(self) -> dict:
        return {"ground": list(self.ground), "sets": [list(s) for s in self.sets]}

    @classmethod
    def from_json(cls, obj: dict) -> "SetFamily":
        if not isinstance(obj, dict) or "ground" not in obj or "sets" not in obj:
            raise ValidationError("family file needs 'ground' and 'sets'", field="ground")
        if not isinstance(obj["sets"], list):
            raise ValidationError("'sets' must be a list of lists", field="sets")
        return cls(obj["ground"], obj["sets"])


@dataclass(frozen=True)
class Sdr:
    """A tuple of distinct representatives aligned with the family's sets."""

    reps: tuple

    @property
    def transversal(self) -> frozenset:
        return frozenset(self.reps)


@dataclass(frozen=True)
class HallViolator:
    """A nonempty group of set indices whose union is strictly smaller."""

    indices: tuple
    union: tuple

    def __post_init__(self):
        if not self.indices:
            raise ValidationError("violator must name at least one set")
        if len(self.union) >= len(self.indices):
            raise ValidationError("violator union is not smaller than its index set")


@dataclass(frozen=True)
class DefectReport:
    """Largest-possible partial assignment, the shortfall it leaves and, if
    any, a violator whose union falls short by it, proving it maximum."""

    defect: int
    partial: dict
    violator: HallViolator | None = None

    def __post_init__(self):
        if self.defect < 0:
            raise ValidationError("defect must be nonnegative")


class ArrayFamily:
    """A rectangular grid of subsets of a shared ground set."""

    __slots__ = ("ground", "grid", "_index", "_masks")

    def __init__(self, ground, grid):
        index = _index_labels(ground, "ground")
        ground = tuple(index)
        rows = []
        mask_rows = []
        for r, row in enumerate(grid):
            if not isinstance(row, (list, tuple)):
                raise ValidationError(f"grid row {r} must be a list of cells", field=f"grid[{r}]")
            if mask_rows and len(row) != len(mask_rows[0]):
                raise ValidationError("grid rows have unequal lengths", field=f"grid[{r}]")
            cell_masks = [_mask_of(cell, index, f"grid[{r}][{c}]") for c, cell in enumerate(row)]
            mask_rows.append(cell_masks)
            rows.append(tuple(tuple(ground[p] for p in _bitmatch.bits_of(m)) for m in cell_masks))
        self.ground = ground
        self.grid = tuple(rows)
        self._index = index
        self._masks = mask_rows

    @property
    def shape(self) -> tuple:
        if not self.grid:
            return (0, 0)
        return (len(self.grid), len(self.grid[0]))

    @classmethod
    def from_json(cls, obj: dict) -> "ArrayFamily":
        if not isinstance(obj, dict) or "ground" not in obj or "grid" not in obj:
            raise ValidationError("array file needs 'ground' and 'grid'", field="ground")
        if not isinstance(obj["grid"], list):
            raise ValidationError("'grid' must be a list of rows", field="grid")
        return cls(_label_list(obj, "ground"), obj["grid"])


def _validate_sdr(family: SetFamily, candidate) -> tuple[bool, str | None]:
    """Check membership and distinctness of a candidate representative tuple
    (for `verify_sdr` and `matroids.verify_rado`).  Returns (True, None), or
    (False, reason) naming the violated clause and the first offending index.
    """
    candidate = tuple(candidate)
    if len(candidate) != family.n:
        raise ValidationError(
            f"candidate has {len(candidate)} entries for {family.n} sets", field="reps"
        )
    index, cols = family._index, family._cols
    seen: dict = {}
    for i, a in enumerate(candidate):
        if index.get(a) not in cols[i]:  # a label not in the ground is None, in no list
            return False, f"membership fails at index {i}: {a!r} is not in set {i}"
        if a in seen:
            return False, f"distinctness fails at indices ({seen[a]}, {i})"
        seen[a] = i
    return True, None


def verify_sdr(family: SetFamily, cert: dict) -> tuple[bool, str | None]:
    """Check an ``sdr`` certificate object: an SDR under "reps", or else a
    violator under "indices" and "union"."""
    if "reps" in cert:
        return _validate_sdr(family, _cert_field(cert, "reps", index=family._index))
    indices, stated = _cert_field(cert, "indices"), _cert_field(cert, "union")
    union, reason = _violator_union(family, indices, stated)
    if union is None:
        return False, reason
    if len(union) >= len(indices):
        return False, "union is not smaller than the index set"
    return True, None


def hall_check(family: SetFamily) -> Sdr | HallViolator:
    """Find an SDR or a certificate that none exists.

    Takes one maximum matching of sets to elements.  If it leaves sets
    unassigned, the violator is every set reachable by alternating paths
    from the unassigned ones: the Dulmage-Mendelsohn set, the same for every
    maximum matching, whose union falls short of it by the defect.
    """
    match_row, match_col = _bitmatch.max_matching(family._cols, len(family.ground))
    if all(c != _bitmatch.UNMATCHED for c in match_row):
        return Sdr(tuple(family.ground[c] for c in match_row))
    return _hall_violator(family, match_row, match_col)


def _hall_violator(family: SetFamily, match_row, match_col) -> HallViolator:
    """The canonical violator read off a maximum matching that is not full.

    `match_row`/`match_col` are the engine's (row -> column, column -> row)
    lists.  Every set reachable by alternating paths from an unassigned set
    is named; the result does not depend on which maximum matching is given.
    """
    reached, _ = _bitmatch.alternating_reachable(family._cols, match_row, match_col)
    indices = tuple(sorted(reached))
    return HallViolator(indices=indices, union=family.union_of(indices))


def _violator_union(family: SetFamily, indices, stated_union):
    """The checks every violator certificate shares: the indices are
    distinct, nonempty and in range, and `stated_union` lists the union of
    the sets they name, each element once.  Returns (recomputed union, None)
    or (None, reason)."""
    indices = tuple(indices)
    if not indices:
        return None, "violator names no sets"
    for i in indices:
        if not isinstance(i, int) or not 0 <= i < family.n:
            return None, f"index {i!r} is out of range"
    if len(set(indices)) != len(indices):
        return None, "violator repeats an index"
    union = family.union_of(indices)
    try:
        stated = set(stated_union)
    except TypeError:  # an unhashable entry is no element
        stated = None
    if stated != set(union):
        return None, "stated union differs from the recomputed union"
    if len(stated) != len(stated_union):
        return None, "stated union repeats an element"
    return union, None


def partial_sdr(family: SetFamily) -> DefectReport:
    """Largest partial assignment, with the defect it cannot avoid and the
    canonical violator that proves it."""
    match_row, match_col = _bitmatch.max_matching(family._cols, len(family.ground))
    partial = {
        i: family.ground[c]
        for i, c in enumerate(match_row)
        if c != _bitmatch.UNMATCHED
    }
    defect = family.n - len(partial)
    violator = _hall_violator(family, match_row, match_col) if defect else None
    return DefectReport(defect, partial, violator)


def verify_defect(family: SetFamily, cert: dict) -> tuple[bool, str | None]:
    """Check a ``defect`` certificate object: "partial" maps set indices, as
    decimal strings, to distinct members, for all but "defect" sets.  A
    defect above 0 needs a witness that no assignment does better: sets
    under "indices" whose "union" has exactly "defect" fewer elements."""
    defect, partial = _cert_field(cert, "defect", int), _cert_field(cert, "partial", dict)
    if len(partial) != family.n - defect:
        return False, "partial size does not match n - defect"
    _index_labels(partial.values(), "partial")  # hashable and distinct
    numbers = {str(i): i for i in range(family.n)}
    index, cols = family._index, family._cols
    for key, x in partial.items():
        i = numbers.get(key)
        if i is None or index.get(x) not in cols[i]:
            return False, f"assignment {key} -> {x!r} is not a membership"
    if defect:
        indices, union = _cert_field(cert, "indices"), _cert_field(cert, "union")
        union, reason = _violator_union(family, indices, union)
        if union is None:
            return False, reason
        if len(indices) - len(union) != defect:
            return False, (f"'indices' and 'union' fall short by {len(indices) - len(union)}, "
                           f"not by the defect {defect}")
    return True, None


def _components(masks) -> list:
    """Connected components of the rows of a 0/1 pattern, one bitmask of
    columns per row: two rows meet when they share a column, directly or
    through other rows.  Returns (row indices, column mask) pairs in the
    order of their lowest rows; an all-zero row is its own component with
    no columns.

    One pass over the rows keeps a forest of rows, each root holding its
    component's column mask, and, for each column seen so far, a row that
    has it.  A row joins, under itself, each component its mask meets in a
    column seen before: one step per component met, not per column, and
    one per new column.  A second pass groups the rows by their root.
    """
    parent = list(range(len(masks)))
    cols = list(masks)  # at each root, the column mask of its component
    owner = {}  # 1 << column -> a row that has the column
    seen = 0
    for i, mask in enumerate(masks):
        met = mask & seen
        while met:
            r = owner[met & -met]
            while parent[r] != r:
                parent[r] = r = parent[parent[r]]
            parent[r] = i
            cols[i] |= cols[r]
            met &= ~cols[r]
        new = mask & ~seen
        while new:
            low = new & -new
            owner[low] = i
            new ^= low
        seen |= mask
    blocks = {}  # root -> (row indices, column mask), by lowest row
    for i, r in enumerate(parent):
        while parent[r] != r:
            parent[r] = r = parent[parent[r]]
        if r in blocks:
            blocks[r][0].append(i)
        else:
            blocks[r] = ([i], cols[r])
    return list(blocks.values())


def _sets_walked(r: int, c: int) -> int:
    """Column sets `_permanent_of` visits on an r-by-c component, r <= c,
    counted by shape: equal columns are not grouped here."""
    return 1 << (r - 1) if r == c else sum(comb(c, k) for k in range(1, r + 1))


def _tail_table(cols, limit):
    """Split `cols` into head columns and a table of the column sets of the
    rest, the tail.  Returns (head, levels): levels[k] lists (q, w) for the
    k-sets of the tail, q a sum of k tail columns and w the number of
    k-sets with that sum.

    Equal columns are grouped: a class of mu equal columns gives C(mu, t)
    sets that take t of them, all with one sum.  The tail takes the most
    repeated classes first, while the table stays within `_TABLE_ENTRIES`
    entries; the head keeps each column of the other classes.
    """
    counts = Counter(cols)
    classes = sorted(counts, key=counts.__getitem__)  # most repeated last
    levels = [[((0,) * len(cols[0]), 1)]]
    while classes:
        mu = counts[classes[-1]]
        if sum(len(level) * (min(mu, limit - s) + 1)
               for s, level in enumerate(levels)) > _TABLE_ENTRIES:
            break
        v = classes.pop()
        top = len(levels) - 1
        levels += [[] for _ in range(min(mu, limit - top))]
        for s in range(top, -1, -1):  # levels[s] is read before it grows
            step = v
            for t in range(1, min(mu, limit - s) + 1):
                c = comb(mu, t)
                levels[s + t] += [(tuple(map(add, q, step)), w * c) for q, w in levels[s]]
                step = tuple(map(add, step, v))
    return [v for v in classes for _ in range(counts[v])], levels


def _column_set_sums(start, cols, limit) -> list:
    """by_size[k]: the sum, over the k-sets T of `cols` with k <= `limit`,
    of the product of the row sums `start` + (sum of the columns in T).

    When `cols` has more than `_TABLE_ENTRIES` subsets, it is split into
    head columns and a grouped table of the sets of the tail (`_tail_table`).
    The sets of the head are walked depth first on an explicit stack, each
    child's row sums being its parent's plus one column, and each is joined
    with every table entry whose size still fits under `limit`, in one list
    comprehension per size; so the cost of a step is paid once per head
    set, not once per set.
    """
    head, levels = cols, None
    if 1 << len(cols) > _TABLE_ENTRIES:
        head, levels = _tail_table(cols, limit)
    m = len(head)
    by_size = [0] * (limit + 1)
    if levels is None:
        by_size[0] = prod(start)
    else:
        for k, level in enumerate(levels):
            by_size[k] = sum([w * prod(map(add, start, q)) for q, w in level])
    # (row sums of a head set S, first column S may add, |S|)
    stack = [(start, 0, 0)] if limit and m else []
    while stack:
        sums, first, size = stack.pop()
        size += 1
        total = 0
        for j in range(first, m):
            child = list(map(add, sums, head[j]))
            if levels is None:
                total += prod(child)
            else:
                for k, level in enumerate(levels[:limit - size + 1], size):
                    by_size[k] += sum([w * prod(map(add, child, q)) for q, w in level])
            if size < limit and j + 1 < m:
                stack.append((child, j + 1, size))
        by_size[size] += total
    return by_size


def _grouped_sets(cols, limit) -> int:
    """Column sets of at most `limit` of `cols`, where the sets that take
    the same number of columns from each class of equal columns count once:
    the size of the walk once equal columns are grouped."""
    ways = [1] + [0] * limit  # ways[k]: choices of k columns from the classes so far
    for mu in Counter(cols).values():
        # ways'[k] = ways[k - mu] + ... + ways[k], a difference of prefix sums
        sums = [0] * (mu + 1) + list(accumulate(ways))
        ways = list(map(sub, sums[mu + 1:], sums[:limit + 1]))
    return sum(ways)


def _permanent_rows(rows) -> int:
    """Permanent of an n-by-m matrix of integers (`_permanent_of`)."""
    masks = [sum(1 << j for j, x in enumerate(row) if x) for row in rows]
    words = [(max(map(int.bit_length, row), default=0) + 63) // 64 for row in rows]
    return _permanent_of(masks, lambda members, j: tuple(rows[i][j] for i in members), words)


def _live_after(rows) -> list:
    """later[t]: the columns, as a bitmask, of the rows after row t."""
    later, acc = [], 0
    for row in reversed(rows):
        later.append(acc)
        acc |= row
    return later[::-1]


def _expansion_work(rows) -> int:
    """State updates `_matching_counts(rows)` makes at most: before row t,
    its states are the subsets of the columns seen so far that row t or a
    later row still has, and each state makes one update per column of
    row t plus one that leaves row t out."""
    work, seen = 0, 0
    for row, later in zip(rows, _live_after(rows)):
        work += (1 << (seen & (row | later)).bit_count()) * (row.bit_count() + 1)
        seen |= row
    return work


def _expand_row(states, row, later, width) -> dict:
    """One row of `_matching_counts`: each state (the used columns that
    this row or a later one has, to its packed counts) either leaves the
    row out or matches it to a free column, one size up; then the columns
    no row after this one has, outside `later`, are dropped from the keys,
    merging the states that differ only there."""
    grown = {}
    for used, counts in states.items():
        key = used & later
        grown[key] = grown.get(key, 0) + counts
        counts <<= width  # one more row matched
        free = row & ~used
        while free:
            low = free & -free
            free ^= low
            key = (used | low) & later
            grown[key] = grown.get(key, 0) + counts
    return grown


def _matching_counts(rows, width) -> int:
    """The k-matchings of the 0/1 pattern `rows`, one bitmask of columns per
    row, for each k: the ways to pick k of the rows and a distinct column
    in each.  The counts come packed into one int, the count for k in bits
    [k * width, (k + 1) * width); `width` must exceed the bit length of
    every count.  One expansion row by row (`_expand_row`), whose states
    are the used columns that later rows still have.
    """
    states = {0: 1}
    for row, later in zip(rows, _live_after(rows)):
        states = _expand_row(states, row, later, width)
    return states[0]


def _complement_plan(masks, members, cols):
    """The components of the complement B of a 0/1 component's pattern
    within its columns `cols`, gaps[i] = cols - row i, as lists of gap
    masks; rows with no gap are left out.  Returns (components, the state
    updates their expansions make at most, `_expansion_work`)."""
    gaps = [cols & ~masks[i] for i in members]
    parts = [[gaps[i] for i in rows] for rows, seen in _components(gaps) if seen]
    return parts, sum(map(_expansion_work, parts))


def _complement_permanent(parts, r, c) -> int:
    """Permanent of an r-by-c 0/1 component, r <= c, from the rook numbers
    N_k of the complement B of its pattern (Kaplansky-Riordan): each k-set
    of forbidden cells in distinct rows and columns extends to
    (c-k)!/(c-r)! injective maps of the other rows, so

        per = sum over k of (-1)^k N_k (c-k)!/(c-r)!

    N is the product of the matching-count polynomials of B's components
    `parts` (`_matching_counts`), each packed into one int, so the product
    is one of ints.  No coefficient of any factor or partial product
    exceeds the product over B's rows of (row degree + 1), the ways to
    pick a column or none in each row, so fields that wide never carry.
    """
    width = prod(row.bit_count() + 1 for part in parts for row in part).bit_length()
    packed = prod(_matching_counts(part, width) for part in parts)
    field = (1 << width) - 1
    return sum((-1) ** k * (packed >> (k * width) & field) * perm(c - k, r - k)
               for k in range(r + 1))


def _permanent_of(masks, column, words=None) -> int:
    """Permanent of an integer matrix given by its nonzero pattern `masks`,
    one bitmask of columns per row, and by `column(members, j)`, the
    entries of column j in the rows `members`, in that order.  `words[i]`,
    if given, is the number of 64-bit words in row i's largest entry;
    without it every entry fits in one.

    The rows are split into the connected components of the pattern
    (`_components`); an injective map of the rows to nonzero entries never
    leaves a component, so the permanent is the product of the components'
    permanents, and 0 when one has more rows than columns.  An r-by-c
    component with r < c is summed by inclusion-exclusion over its column
    sets T with |T| <= r:

        per = sum over T of (-1)^(r-|T|) C(c-|T|, r-|T|) prod_i sum_{j in T} a_ij

    and a square one by Ryser's formula in the Nijenhuis-Wilf form, over the
    sets S of its first r-1 columns only:

        per = (-1)^(r-1) 2^(1-r) sum over S of (-1)^|S| prod_i (v_i + 2 sum_{j in S} a_ij)

    with v_i = 2 a_ir - sum_j a_ij; the division is exact.  So a component
    visits `_sets_walked(r, c)` column sets, counted by shape, each weighed
    by the words of the component's largest entry (at least 1), and a
    matrix whose components weigh `_COUNT_TERM_GUARD` or more is refused
    with ``ResourceLimitError`` before any column is read.

    A component whose entries are all 1 on its pattern, and whose walk has
    more than `_TABLE_ENTRIES` sets by shape, has a second route: the rook
    numbers of the complement of its pattern within its columns
    (`_complement_permanent`), one row expansion per component of the
    complement.  The route is chosen per component before any walk: the
    complement is taken when the expansion's state updates
    (`_expansion_work`) are fewer than `_UPDATES_PER_SET` times the column
    sets of the walk once equal columns are grouped (`_grouped_sets`).  So
    J - I, whose complement is a diagonal, and an all-ones block, whose
    complement is empty, are counted without a walk; the guard above still
    counts the walk's sets by shape, whichever route runs.
    """
    blocks = _components(masks)
    if any(len(members) > cols.bit_count() for members, cols in blocks):
        return 0
    walked = [_sets_walked(len(members), cols.bit_count()) for members, cols in blocks]
    work = sets = sum(walked)
    if words is not None:
        work = sum(shape * max(1, *(words[i] for i in members))
                   for (members, _), shape in zip(blocks, walked))
    if work >= _COUNT_TERM_GUARD:
        weighed = "" if work == sets else f", {work} weighed by the words of their entries"
        raise ResourceLimitError(
            f"a permanent of {len(masks)} rows walks {sets} column sets{weighed}, "
            f"not below the work ceiling {_COUNT_TERM_GUARD}"
        )
    result = 1
    for (members, mask), shape in zip(blocks, walked):
        picked = list(_bitmatch.bits_of(mask))
        r, c = len(members), len(picked)
        cols = [column(members, j) for j in picked]
        if shape > _TABLE_ENTRIES and {x for col in cols for x in col} <= {0, 1}:
            parts, work = _complement_plan(masks, members, mask)
            sets = _grouped_sets(cols, r) if r < c else _grouped_sets(cols[:-1], r - 1)
            if work < _UPDATES_PER_SET * sets:
                result *= _complement_permanent(parts, r, c)
                continue
        if r < c:
            by_size = _column_set_sums((0,) * r, cols, r)
            result *= sum((-1) ** (r - k) * comb(c - k, r - k) * by_size[k]
                          for k in range(1, r + 1))
        else:
            start = tuple(2 * x - sum(row) for x, row in zip(cols[-1], zip(*cols)))
            cols = [tuple(2 * x for x in col) for col in cols[:-1]]
            by_size = _column_set_sums(start, cols, r - 1)
            signed = (-1) ** (r - 1) * sum((-1) ** k * t for k, t in enumerate(by_size))
            result *= signed // (1 << (r - 1))
    return result


def count_sdrs(family: SetFamily, *, ceiling: int = RYSER_CEILING) -> int:
    """Exact number of distinct representative tuples: the permanent of the
    0/1 incidence matrix of sets and elements.  The kernel reads it from the
    sets' masks, one component at a time, so no n-by-|union| matrix is
    made.  Refused above `ceiling` sets, and by the kernel's work guard (see
    `_permanent_of`)."""
    n = family.n
    if n > ceiling:
        raise ResourceLimitError(f"family has {n} sets, above the counting ceiling {ceiling}")
    masks = family._masks
    return _permanent_of(masks, lambda members, j: tuple(masks[i] >> j & 1 for i in members))


def array_sdr(arr: ArrayFamily, *, ceiling: int = ARRAY_CELL_CEILING):
    """Distinct representatives per row and per column of a grid, or None.

    Exhaustive search in row-major order (the problem is NP-hard in
    general, hence the cell ceiling and the search's node budget); the first
    solution in ground order is returned, so output is deterministic.
    """
    n_rows, n_cols = arr.shape
    cells = n_rows * n_cols
    if cells > ceiling:
        raise ResourceLimitError(f"grid has {cells} cells, above the ceiling {ceiling}")
    choice = next(_grid_fillings(arr._masks, arr.ground), None)
    if choice is None:
        return None
    return tuple(choice[r * n_cols:(r + 1) * n_cols] for r in range(n_rows))


def _grid_fillings(cell_masks, labels):
    """Each row-major filling of a grid, one label per cell from its mask of
    positions in `labels`, with no label twice in a row or a column; in
    lexicographic order of those positions."""
    width = len(labels)
    col_base = len(cell_masks) * width
    return _bitmatch.disjoint_choices([
        [(1 << (r * width + p) | 1 << (col_base + c * width + p), labels[p])
         for p in _bitmatch.bits_of(mask)]
        for r, row in enumerate(cell_masks) for c, mask in enumerate(row)
    ])


def verify_array_sdr(arr: ArrayFamily, cert: dict) -> tuple[bool, str | None]:
    """Check an ``array-sdr`` certificate object: "grid" is a filled grid,
    each cell holding a member of its set, with no value twice in a row or a
    column."""
    grid = _cert_rows(cert, "grid", arr._index)
    n_rows, n_cols = arr.shape
    if len(grid) != n_rows or any(len(row) != n_cols for row in grid):
        return False, "grid shape does not match the array family"
    for r in range(n_rows):
        for c in range(n_cols):
            if not (arr._masks[r][c] >> arr._index[grid[r][c]]) & 1:
                return False, f"membership fails at cell ({r},{c})"
    for r in range(n_rows):
        if len(set(grid[r])) != n_cols:
            return False, f"row {r} repeats a value"
    for c, column in enumerate(zip(*grid)):
        if len(set(column)) != n_rows:
            return False, f"column {c} repeats a value"
    return True, None
