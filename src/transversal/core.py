"""Set families, distinct representatives, and Hall-style certificates.

The central object is the :class:`SetFamily`: an ordered tuple of subsets of
a finite ground set.  Solvers either produce a system of distinct
representatives (:class:`Sdr`) or a :class:`HallViolator`, a group of sets
whose union is too small; both sides are independently checkable.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from math import comb, prod
from operator import add, or_

from . import _bitmatch
from .errors import ResourceLimitError, ValidationError

RYSER_CEILING = 20
ARRAY_CELL_CEILING = 16

# Work guard for counting: the column sets the permanent kernel visits,
# summed over the components of the family (`_sets_walked`).  A wide
# component visits sum(C(c, k) for 1 <= k <= r) sets, which explodes when its
# union is far larger than its r sets.  At about 2 microseconds a set
# (2-vCPU Xeon), the largest count admitted takes some 18 s.
_COUNT_TERM_GUARD = 1 << 23


def _index_labels(labels, field) -> dict:
    """Map each of `labels`, distinct hashable values, to its position.

    The dict keeps the input order, so ``tuple(index)`` is the label tuple.
    Raises ``ValidationError`` naming `field` when `labels` cannot be
    iterated, or holds an unhashable or a repeated label.
    """
    index: dict = {}
    try:
        for pos, x in enumerate(labels):
            if x in index:
                raise ValidationError(f"{field} repeats {x!r}", field=field)
            index[x] = pos
    except TypeError as exc:
        raise ValidationError(f"{field} must be a list of labels: {exc}", field=field) from exc
    return index


def _positions_of(members, index, field) -> list:
    """The positions that `index` gives to one list of members, in its
    order.

    Raises ``ValidationError`` naming `field` when `members` is a string or
    cannot be iterated, or holds an unhashable value or one not in `index`.
    """
    if isinstance(members, str):
        raise ValidationError(f"{field} must be a list, not a string", field=field)
    try:
        return [index[x] for x in members]
    except KeyError as exc:
        raise ValidationError(f"{field} holds {exc.args[0]!r}, which is not a label",
                              field=field) from None
    except TypeError as exc:
        raise ValidationError(f"{field} must be a list of labels: {exc}", field=field) from exc


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
        _mask_of(value, index, key)
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
            _mask_of(row, index, field)
    return rows


class SetFamily:
    """An ordered tuple of subsets of a finite ground set.

    Element ids are opaque hashable values (strings in the JSON format).
    The order of ``ground`` fixes the deterministic scan order used by every
    solver, and members of each set are stored in that order.
    """

    __slots__ = ("ground", "sets", "_index", "_masks", "_cols")

    def __init__(self, ground, sets):
        if isinstance(ground, str):
            raise ValidationError("the ground set must be a list, not a string", field="ground")
        index = _index_labels(ground, "ground")
        ground = tuple(index)
        cols = [sorted(set(_positions_of(subset, index, f"sets[{i}]")))
                for i, subset in enumerate(sets)]
        masks = [_mask_at(positions) for positions in cols]
        self.ground = ground
        self.sets = tuple(tuple(ground[p] for p in c) for c in cols)
        self._index = index
        self._masks = masks
        self._cols = cols  # each set's positions, ascending, for the matching engine

    @property
    def n(self) -> int:
        return len(self.sets)

    def mask(self, i: int) -> int:
        return self._masks[i]

    def elements_of(self, mask: int) -> tuple:
        return tuple(self.ground[p] for p in _bitmatch.bits_of(mask))

    def union_of(self, indices) -> tuple:
        mask = 0
        for i in indices:
            mask |= self._masks[i]
        return self.elements_of(mask)

    def __eq__(self, other):
        return (
            isinstance(other, SetFamily)
            and self.ground == other.ground
            and self.sets == other.sets
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
        return cls(obj["ground"], obj["grid"])


def validate_sdr(family: SetFamily, candidate) -> tuple[bool, str | None]:
    """Check membership and distinctness of a candidate representative tuple.

    Returns (True, None) on success, else (False, reason) where the reason
    names the violated clause and the first offending index.
    """
    candidate = tuple(candidate)
    if len(candidate) != family.n:
        raise ValidationError(
            f"candidate has {len(candidate)} entries for {family.n} sets", field="reps"
        )
    seen: dict = {}
    for i, a in enumerate(candidate):
        pos = family._index.get(a)
        if pos is None or not (family._masks[i] >> pos) & 1:
            return False, f"membership fails at index {i}: {a!r} is not in set {i}"
        if a in seen:
            return False, f"distinctness fails at indices ({seen[a]}, {i})"
        seen[a] = i
    return True, None


def verify_sdr(family: SetFamily, cert: dict) -> tuple[bool, str | None]:
    """Check an ``sdr`` certificate object: an SDR under "reps", or else a
    violator under "indices" and "union"."""
    if "reps" in cert:
        return validate_sdr(family, _cert_field(cert, "reps", index=family._index))
    indices, union = _cert_field(cert, "indices"), _cert_field(cert, "union")
    return verify_hall_violator(family, HallViolator(tuple(indices), tuple(union)))


def hall_check(family: SetFamily) -> Sdr | HallViolator:
    """Find an SDR or a certificate that none exists.

    Takes one maximum matching of sets to elements.  If it leaves sets
    unassigned, the violator is every set reachable by alternating paths
    from the unassigned ones: the Dulmage-Mendelsohn set, the same for every
    maximum matching, whose union falls short of it by the defect.
    """
    match_row, match_col = _bitmatch.max_matching(family._masks, len(family.ground),
                                                  row_cols=family._cols)
    if all(c != _bitmatch.UNMATCHED for c in match_row):
        return Sdr(tuple(family.ground[c] for c in match_row))
    return _hall_violator(family, match_row, match_col)


def _hall_violator(family: SetFamily, match_row, match_col) -> HallViolator:
    """The canonical violator read off a maximum matching that is not full.

    `match_row`/`match_col` are the engine's (row -> column, column -> row)
    lists.  Every set reachable by alternating paths from an unassigned set
    is named; the result does not depend on which maximum matching is given.
    """
    free = [i for i, c in enumerate(match_row) if c == _bitmatch.UNMATCHED]
    rows, _ = _bitmatch.alternating_reachable(family._masks, match_row, match_col, free,
                                              family._cols)
    indices = tuple(sorted(rows))
    return HallViolator(indices=indices, union=family.union_of(indices))


def verify_hall_violator(family: SetFamily, violator: HallViolator) -> tuple[bool, str | None]:
    """Recompute the union of the named sets and re-check the counting gap."""
    union, reason = _violator_union(family, violator.indices, violator.union)
    if union is None:
        return False, reason
    if len(union) >= len(violator.indices):
        return False, "union is not smaller than the index set"
    return True, None


def _violator_union(family: SetFamily, indices, stated_union):
    """The checks every violator certificate shares: the indices are
    distinct, nonempty and in range, and `stated_union` is the union of the
    sets they name.  Returns (recomputed union, None) or (None, reason)."""
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
        same = set(union) == set(stated_union)
    except TypeError:  # an unhashable entry is no element
        same = False
    if not same:
        return None, "stated union differs from the recomputed union"
    return union, None


def partial_sdr(family: SetFamily) -> DefectReport:
    """Largest partial assignment, with the defect it cannot avoid and the
    canonical violator that proves it."""
    match_row, match_col = _bitmatch.max_matching(family._masks, len(family.ground),
                                                  row_cols=family._cols)
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
    sets = {str(i): members for i, members in enumerate(family.sets)}
    for key, x in partial.items():
        if x not in sets.get(key, ()):
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
    through other rows.  Returns (row indices, column mask) pairs, each
    grown from the lowest unplaced row; an all-zero row is its own
    component with no columns.
    """
    out = []
    left = list(range(len(masks)))
    while left:
        members, cols = [left[0]], masks[left[0]]
        left, grew = left[1:], True
        while grew:
            grew, rest = False, []
            for i in left:
                if masks[i] & cols:
                    members.append(i)
                    cols |= masks[i]
                    grew = True
                else:
                    rest.append(i)
            left = rest
        out.append((sorted(members), cols))
    return out


def _sets_walked(r: int, c: int) -> int:
    """Column sets `_permanent_rows` visits on an r-by-c component, r <= c."""
    return 1 << (r - 1) if r == c else sum(comb(c, k) for k in range(1, r + 1))


def _column_set_sums(start, cols, limit) -> list:
    """by_size[k]: the sum, over the k-sets T of `cols` with k <= `limit`,
    of the product of the row sums `start` + (sum of the columns in T).

    The sets are walked depth first on an explicit stack, each child's row
    sums being its parent's plus one column.
    """
    m = len(cols)
    by_size = [0] * (limit + 1)
    by_size[0] = prod(start)
    # (row sums of T, first column T may add, |T|)
    stack = [(start, 0, 0)] if limit else []
    while stack:
        sums, first, size = stack.pop()
        size += 1
        total = 0
        for j in range(first, m):
            child = list(map(add, sums, cols[j]))
            total += prod(child)
            if size < limit and j + 1 < m:
                stack.append((child, j + 1, size))
        by_size[size] += total
    return by_size


def _permanent_rows(rows):
    """Permanent of an n-by-m matrix of exact numbers (int or Fraction).

    The rows are split into the connected components of their nonzero
    pattern (`_components`); an injective map of the rows to nonzero
    entries never leaves a component, so the permanent is the product of
    the components' permanents, and 0 when one has more rows than columns.
    An r-by-c component with r < c is summed by inclusion-exclusion
    over its column sets T with |T| <= r:

        per = sum over T of (-1)^(r-|T|) C(c-|T|, r-|T|) prod_i sum_{j in T} a_ij

    and a square one by Ryser's formula in the Nijenhuis-Wilf form, over the
    sets S of its first r-1 columns only:

        per = (-1)^(r-1) 2^(1-r) sum over S of (-1)^|S| prod_i (v_i + 2 sum_{j in S} a_ij)

    with v_i = 2 a_ir - sum_j a_ij; the division is exact.  So a component
    visits `_sets_walked(r, c)` column sets.
    """
    masks = [sum(1 << j for j, x in enumerate(row) if x) for row in rows]
    blocks = [(members, list(_bitmatch.bits_of(cols))) for members, cols in _components(masks)]
    if any(len(members) > len(picked) for members, picked in blocks):
        return 0
    result = 1
    for members, picked in blocks:
        r, c = len(members), len(picked)
        cols = [tuple(rows[i][j] for i in members) for j in picked]
        if r < c:
            by_size = _column_set_sums((0,) * r, cols, r)
            result *= sum((-1) ** (r - k) * comb(c - k, r - k) * by_size[k]
                          for k in range(1, r + 1))
            continue
        start = tuple(2 * x - sum(row) for x, row in zip(cols[-1], zip(*cols)))
        doubled = [tuple(2 * x for x in col) for col in cols[:-1]]
        by_size = _column_set_sums(start, doubled, r - 1)
        signed = (-1) ** (r - 1) * sum((-1) ** k * t for k, t in enumerate(by_size))
        scale = 1 << (r - 1)
        result *= signed // scale if isinstance(signed, int) else signed / scale
    return result


def count_sdrs(family: SetFamily, *, ceiling: int = RYSER_CEILING) -> int:
    """Exact number of distinct representative tuples: the permanent of the
    n-by-|union| 0/1 incidence matrix over the support union of the sets."""
    n = family.n
    if n > ceiling:
        raise ResourceLimitError(f"family has {n} sets, above the counting ceiling {ceiling}")
    if n == 0:
        return 1
    cols = list(_bitmatch.bits_of(reduce(or_, family._masks)))
    m = len(cols)
    shapes = [(len(rows), mask.bit_count()) for rows, mask in _components(family._masks)]
    if any(r > c for r, c in shapes):
        return 0
    terms = sum(_sets_walked(r, c) for r, c in shapes)
    if terms >= _COUNT_TERM_GUARD:
        raise ResourceLimitError(
            f"{n} sets over a {m}-element union need {terms} terms to count, "
            f"not below the term ceiling {_COUNT_TERM_GUARD}"
        )
    return _permanent_rows([[(mask >> p) & 1 for p in cols] for mask in family._masks])


def array_sdr(arr: ArrayFamily, *, ceiling: int = ARRAY_CELL_CEILING):
    """Distinct representatives per row and per column of a grid, or None.

    Exhaustive backtracking in row-major order (the problem is NP-hard in
    general, hence the cell ceiling); the first solution in ground order is
    returned, so output is deterministic.
    """
    n_rows, n_cols = arr.shape
    cells = n_rows * n_cols
    if cells > ceiling:
        raise ResourceLimitError(f"grid has {cells} cells, above the ceiling {ceiling}")
    if cells == 0:
        return tuple(() for _ in arr.grid)
    row_used = [0] * n_rows
    col_used = [0] * n_cols
    chosen = [[None] * n_cols for _ in range(n_rows)]

    def descend(pos):
        if pos == cells:
            return True
        r, c = divmod(pos, n_cols)
        avail = arr._masks[r][c] & ~row_used[r] & ~col_used[c]
        while avail:
            low = avail & -avail
            avail ^= low
            row_used[r] |= low
            col_used[c] |= low
            chosen[r][c] = arr.ground[low.bit_length() - 1]
            if descend(pos + 1):
                return True
            row_used[r] ^= low
            col_used[c] ^= low
        chosen[r][c] = None
        return False

    if descend(0):
        return tuple(tuple(row) for row in chosen)
    return None


def validate_array_sdr(arr: ArrayFamily, grid) -> tuple[bool, str | None]:
    """Check membership plus row and column distinctness of a filled grid."""
    n_rows, n_cols = arr.shape
    grid = tuple(tuple(row) for row in grid)
    if len(grid) != n_rows or any(len(row) != n_cols for row in grid):
        return False, "grid shape does not match the array family"
    for r in range(n_rows):
        for c in range(n_cols):
            x = grid[r][c]
            pos = arr._index.get(x)
            if pos is None or not (arr._masks[r][c] >> pos) & 1:
                return False, f"membership fails at cell ({r},{c})"
    for r in range(n_rows):
        if len(set(grid[r])) != n_cols:
            return False, f"row {r} repeats a value"
    for c in range(n_cols):
        column = [grid[r][c] for r in range(n_rows)]
        if len(set(column)) != n_rows:
            return False, f"column {c} repeats a value"
    return True, None


def verify_array_sdr(arr: ArrayFamily, cert: dict) -> tuple[bool, str | None]:
    """Check an ``array-sdr`` certificate object: "grid" is a filled grid."""
    return validate_array_sdr(arr, _cert_rows(cert, "grid", arr._index))
