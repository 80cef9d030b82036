"""Set families, distinct representatives, and Hall-style certificates.

The central object is the :class:`SetFamily`: an ordered tuple of subsets of
a finite ground set.  Solvers either produce a system of distinct
representatives (:class:`Sdr`) or a :class:`HallViolator`, a group of sets
whose union is too small; both sides are independently checkable.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb

from . import _bitmatch
from .errors import ResourceLimitError, ValidationError

RYSER_CEILING = 20
ARRAY_CELL_CEILING = 16

# Work guard for counting: the column inclusion-exclusion may touch up to
# sum(C(|union|, k) for k <= n) terms, which explodes when the ground set is
# far larger than the family.
_COUNT_TERM_GUARD = 1 << 26


class SetFamily:
    """An ordered tuple of subsets of a finite ground set.

    Element ids are opaque hashable values (strings in the JSON format).
    The order of ``ground`` fixes the deterministic scan order used by every
    solver, and members of each set are stored in that order.
    """

    __slots__ = ("ground", "sets", "_index", "_masks")

    def __init__(self, ground, sets):
        if isinstance(ground, str):
            raise ValidationError("the ground set must be a list, not a string", field="ground")
        index: dict = {}
        try:
            ground = tuple(ground)
            for pos, x in enumerate(ground):
                if x in index:
                    raise ValidationError(f"duplicate ground element {x!r}", field="ground")
                index[x] = pos
        except TypeError as exc:
            raise ValidationError(f"bad ground set: {exc}", field="ground") from exc
        masks = []
        members = []
        for i, subset in enumerate(sets):
            if isinstance(subset, str):
                raise ValidationError(f"set {i} must be a list, not a string", field=f"sets[{i}]")
            mask = 0
            try:
                for x in subset:
                    pos = index.get(x)
                    if pos is None:
                        raise ValidationError(
                            f"set {i} contains {x!r}, which is not in the ground set",
                            field=f"sets[{i}]",
                        )
                    mask |= 1 << pos
            except TypeError as exc:
                raise ValidationError(f"bad set {i}: {exc}", field=f"sets[{i}]") from exc
            masks.append(mask)
            members.append(tuple(ground[p] for p in _bitmatch.bits_of(mask)))
        self.ground = ground
        self.sets = tuple(members)
        self._index = index
        self._masks = masks

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
    """Largest-possible partial assignment and the shortfall it leaves."""

    defect: int
    partial: dict

    def __post_init__(self):
        if self.defect < 0:
            raise ValidationError("defect must be nonnegative")


class ArrayFamily:
    """A rectangular grid of subsets of a shared ground set."""

    __slots__ = ("ground", "grid", "_index", "_masks")

    def __init__(self, ground, grid):
        ground = tuple(ground)
        index: dict = {}
        for pos, x in enumerate(ground):
            if x in index:
                raise ValidationError(f"duplicate ground element {x!r}", field="ground")
            index[x] = pos
        rows = []
        mask_rows = []
        width = None
        for r, row in enumerate(grid):
            row = tuple(row)
            if width is None:
                width = len(row)
            elif len(row) != width:
                raise ValidationError("grid rows have unequal lengths", field=f"grid[{r}]")
            cells = []
            cell_masks = []
            for c, cell in enumerate(row):
                mask = 0
                for x in cell:
                    pos = index.get(x)
                    if pos is None:
                        raise ValidationError(
                            f"cell ({r},{c}) contains {x!r}, which is not in the ground set",
                            field=f"grid[{r}][{c}]",
                        )
                    mask |= 1 << pos
                cell_masks.append(mask)
                cells.append(tuple(ground[p] for p in _bitmatch.bits_of(mask)))
            rows.append(tuple(cells))
            mask_rows.append(cell_masks)
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
        return cls(obj["ground"], obj["grid"])


def validate_sdr(family: SetFamily, candidate) -> tuple[bool, str | None]:
    """Check membership and distinctness of a candidate representative tuple.

    Returns (True, None) on success, else (False, reason) where the reason
    names the violated clause and the first offending index.
    """
    candidate = tuple(candidate)
    if len(candidate) != family.n:
        raise ValidationError(
            f"candidate has {len(candidate)} entries for {family.n} sets"
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


def hall_check(family: SetFamily) -> Sdr | HallViolator:
    """Find an SDR or a certificate that none exists.

    Runs the augmenting-path search, one set at a time; on failure the
    violator is the group of set indices reachable by alternating paths from
    the first unassigned set, whose union is provably one element short.
    """
    match_row, match_col = _bitmatch.max_matching(family._masks, len(family.ground))
    if all(c != _bitmatch.UNMATCHED for c in match_row):
        return Sdr(tuple(family.ground[c] for c in match_row))
    start = next(i for i, c in enumerate(match_row) if c == _bitmatch.UNMATCHED)
    rows, _ = _bitmatch.alternating_reachable(family._masks, match_row, match_col, [start])
    indices = tuple(sorted(rows))
    return HallViolator(indices=indices, union=family.union_of(indices))


def verify_hall_violator(family: SetFamily, violator: HallViolator) -> tuple[bool, str | None]:
    """Recompute the union of the named sets and re-check the counting gap."""
    indices = tuple(violator.indices)
    if not indices:
        return False, "violator names no sets"
    if len(set(indices)) != len(indices):
        return False, "violator repeats an index"
    for i in indices:
        if not isinstance(i, int) or not 0 <= i < family.n:
            return False, f"index {i!r} is out of range"
    union = family.union_of(indices)
    if set(union) != set(violator.union):
        return False, "stated union differs from the recomputed union"
    if len(union) >= len(indices):
        return False, "union is not smaller than the index set"
    return True, None


def partial_sdr(family: SetFamily) -> DefectReport:
    """Largest partial assignment, with the defect it cannot avoid."""
    match_row, _ = _bitmatch.max_matching(family._masks, len(family.ground))
    partial = {
        i: family.ground[c]
        for i, c in enumerate(match_row)
        if c != _bitmatch.UNMATCHED
    }
    return DefectReport(defect=family.n - len(partial), partial=partial)


def count_sdrs(family: SetFamily, *, ceiling: int = RYSER_CEILING) -> int:
    """Exact number of distinct representative tuples.

    Computed as the permanent of the n-by-|ground| 0/1 incidence structure
    by inclusion-exclusion over column subsets T of the support union:

        per = sum over |T| <= n of (-1)^(n-|T|) C(m-|T|, n-|T|) prod_i |T_i & T|

    which reduces to the classical n-set alternating sum when the union has
    exactly n elements.
    """
    n = family.n
    if n > ceiling:
        raise ResourceLimitError(f"family has {n} sets, above the counting ceiling {ceiling}")
    if n == 0:
        return 1
    union_mask = 0
    for m in family._masks:
        union_mask |= m
    cols = list(_bitmatch.bits_of(union_mask))
    m = len(cols)
    if m < n:
        return 0
    if sum(comb(m, k) for k in range(n + 1)) > _COUNT_TERM_GUARD:
        raise ResourceLimitError(
            "support union is too large relative to the family for exact counting"
        )
    masks = family._masks
    total = 0
    for k in range(1, n + 1):
        sign = -1 if (n - k) % 2 else 1
        scale = comb(m - k, n - k)
        for subset in combinations(cols, k):
            tmask = 0
            for p in subset:
                tmask |= 1 << p
            prod = 1
            for rm in masks:
                hits = (rm & tmask).bit_count()
                if not hits:
                    prod = 0
                    break
                prod *= hits
            if prod:
                total += sign * scale * prod
    return total


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
