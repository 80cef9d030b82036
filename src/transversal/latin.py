"""Latin rectangles and squares: row extension, completion, exhaustive
counting, and Youden squares built from block designs."""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from . import _bitmatch, core
from .core import _permanent_rows
from .errors import AlreadyCompleteError, ResourceLimitError, ValidationError

EXTENSION_COUNT_CEILING = 8
SQUARE_COUNT_CEILING = 6
WIDTH_CEILING = 1 << 14  # a rectangle holds n column masks of n bits
# Work `complete` and `youden_from_design` take on, rounds * width^2 for the
# rows they add (n - m rows of width n; k rows of width v): some 32 to 36 ns a
# unit on one-row rectangles of width 200 to 400, so about 1.2 s (2-vCPU Xeon).
COMPLETION_BUDGET = 1 << 25


class LatinRectangle:
    """An m-by-n array over symbols 1..n, each symbol once per row and at
    most once per column.  Square when m equals n."""

    __slots__ = ("m", "n", "rows", "_col_masks")

    def __init__(self, n, rows):
        if isinstance(n, bool) or not isinstance(n, int) or n < 0:
            raise ValidationError("width must be a nonnegative integer", field="n")
        if n > WIDTH_CEILING:
            raise ResourceLimitError(f"width {n} is over the ceiling of {WIDTH_CEILING}")
        rows = tuple(tuple(row) for row in rows)
        if len(rows) > n:
            raise ValidationError(f"{len(rows)} rows will not fit width {n}", field="rows")
        col_masks = [0] * n
        for r, row in enumerate(rows):
            _add_row(col_masks, r, row)
        self.m, self.n, self.rows, self._col_masks = len(rows), n, rows, col_masks

    def _with_row(self, row) -> "LatinRectangle":
        """This rectangle with `row` below it; only the new row is checked."""
        grown = object.__new__(LatinRectangle)
        grown.m, grown.n, grown.rows = self.m + 1, self.n, (*self.rows, tuple(row))
        grown._col_masks = list(self._col_masks)
        _add_row(grown._col_masks, self.m, grown.rows[-1])
        return grown

    @property
    def is_square(self) -> bool:
        return self.m == self.n

    def column_deficiencies(self) -> list[int]:
        """Per column, the bitmask of symbols not yet used in it."""
        full = (1 << self.n) - 1
        return [full & ~mask for mask in self._col_masks]

    def to_json(self) -> dict:
        return {"n": self.n, "rows": [list(row) for row in self.rows]}

    @classmethod
    def from_json(cls, obj: dict) -> "LatinRectangle":
        rows = _rows_in(obj)
        return cls(obj["n"], rows)


def _rows_in(obj) -> list:
    """The rows of a rectangle file, an "alphabet"'s letters read as 1..n in
    its order.  Raises ``ValidationError`` for a malformed file."""
    if not isinstance(obj, dict) or "n" not in obj or "rows" not in obj:
        raise ValidationError("rectangle file needs 'n' and 'rows'", field="n")
    rows = obj["rows"]
    if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
        raise ValidationError("'rows' must be a list of lists", field="rows")
    if "alphabet" in obj:
        order = core._index_labels(core._label_list(obj, "alphabet"), "alphabet")
        try:
            rows = [[order[x] + 1 for x in row] for row in rows]
        except (KeyError, TypeError) as exc:
            raise ValidationError(f"a letter is not in the alphabet: {exc}",
                                  field="rows") from exc
    return rows


def _add_row(col_masks, r, row):
    """Check row `r` of a rectangle whose columns hold the symbols of
    `col_masks`, one bit per symbol, and add it to them.  Raises
    ``ValidationError`` naming ``rows[r]``."""
    n = len(col_masks)
    if len(row) != n:
        raise ValidationError(f"row {r} has {len(row)} entries, expected {n}", field=f"rows[{r}]")
    row_mask = 0
    for c, symbol in enumerate(row):
        if not isinstance(symbol, int) or not 1 <= symbol <= n:
            raise ValidationError(f"row {r} holds {symbol!r}, not a symbol in 1..{n}",
                                  field=f"rows[{r}]")
        bit = 1 << (symbol - 1)
        if row_mask & bit:
            raise ValidationError(f"row {r} repeats symbol {symbol}", field=f"rows[{r}]")
        if col_masks[c] & bit:
            raise ValidationError(f"column {c} repeats symbol {symbol}", field=f"rows[{r}]")
        row_mask |= bit
        col_masks[c] |= bit


def verify_extension(rect: LatinRectangle, cert: dict) -> tuple[bool, str | None]:
    """Check a ``latin-extend`` certificate object: `rect` plus one row."""
    return _verify_grown(rect, cert, rect.m + 1, "certificate does not add one row to the input")


def verify_completion(rect: LatinRectangle, cert: dict) -> tuple[bool, str | None]:
    """Check a ``latin-complete`` certificate object: a square that begins
    with `rect`'s rows."""
    return _verify_grown(rect, cert, rect.n, "certificate is not a completion of the input")


def _verify_grown(rect, cert, m, reason):
    """(True, None) if `cert` is a Latin rectangle, in the input format, of
    `rect`'s width with `m` rows, the first of them `rect`'s; else (False,
    reason).  The width, then the row count and the first rows are compared,
    so that only the new rows are checked, on a copy of `rect`'s columns."""
    if cert.get("n") != rect.n:  # a huge width allocates nothing
        return False, reason
    n, rows = cert["n"], _rows_in(cert)
    head = rows[:rect.m]
    # A float equal to a symbol is no symbol: the sum is an int if none is one.
    if (isinstance(n, bool) or not isinstance(n, int) or len(rows) != m
            or not all(map(tuple.__eq__, rect.rows, map(tuple, head)))
            or type(sum(map(sum, head))) is not int):
        return False, reason
    col_masks = list(rect._col_masks)
    for r in range(rect.m, m):
        _add_row(col_masks, r, rows[r])
    return True, None


def extend_row(rect: LatinRectangle) -> LatinRectangle:
    """Add one more valid row; always possible while m < n.

    The new row is a system of distinct representatives for the column
    deficiency sets, which form an (n-m)-regular family, so the search
    cannot fail; the lexicographically least row is chosen.
    """
    if rect.is_square:
        raise AlreadyCompleteError("rectangle is already a square", field="rows")
    assignment = _bitmatch.lex_least_assignment(rect.column_deficiencies(), rect.n)
    return rect._with_row(c + 1 for c in assignment)


def complete(rect: LatinRectangle) -> LatinRectangle:
    """Extend row by row until square, each row the lexicographically least
    (`_bitmatch.peel` on the column deficiency masks); the square is built
    and validated once.  Refused past `COMPLETION_BUDGET` units of work."""
    if rect.is_square:
        return rect
    _check_budget("completing", rect.n - rect.m, rect.n)
    peeled = _bitmatch.peel(rect.column_deficiencies(), rect.n)
    return LatinRectangle(rect.n, rect.rows + tuple(tuple(c + 1 for c in a) for _, a in peeled))


def _check_budget(doing, rounds, width):
    """Refuse, before any round of `_bitmatch.peel`, `rounds` rows of
    `width` columns whose work, rounds * width^2, is over `COMPLETION_BUDGET`:
    raise ``ResourceLimitError`` stating the work and the budget."""
    work = rounds * width ** 2
    if work > COMPLETION_BUDGET:
        raise ResourceLimitError(f"{doing} {rounds} rows of width {width} is {work} units"
                                 f" of work, over the budget of {COMPLETION_BUDGET}")


def count_extensions(rect: LatinRectangle, *, ceiling: int = EXTENSION_COUNT_CEILING) -> int:
    """Exact number of valid next rows, as a permanent of the availability
    matrix (column against symbol).  Refused above width `ceiling`, and by
    the permanent kernel's work guard."""
    if rect.is_square:
        raise AlreadyCompleteError("rectangle is already a square", field="rows")
    if rect.n > ceiling:
        raise ResourceLimitError(f"width {rect.n} is above the counting ceiling {ceiling}")
    masks = rect.column_deficiencies()
    rows = [[(mask >> s) & 1 for s in range(rect.n)] for mask in masks]
    return _permanent_rows(rows)


def count_latin_squares(n: int, *, ceiling: int = SQUARE_COUNT_CEILING) -> int:
    """Exact number of n-by-n Latin squares over symbols 1..n.

    Counts the reduced squares, whose first row and first column are
    1..n in order, and multiplies by n!(n-1)!: permuting the symbols and
    then the rows other than the first maps the reduced squares onto all
    of them, each square reached once.
    """
    if n < 1:
        raise ValidationError("n must be positive", field="n")
    if n > ceiling:
        raise ResourceLimitError(f"order {n} is above the counting ceiling {ceiling}")
    full = (1 << n) - 1
    cells = [[1 << max(r, c) if r == 0 or c == 0 else full for c in range(n)]
             for r in range(n)]
    reduced = sum(1 for _ in core._grid_fillings(cells, range(n)))
    return reduced * factorial(n) * factorial(n - 1)


def latin_lower_bound(n: int) -> Fraction:
    """The counting bound (n!)^(2n) / n^(n^2)."""
    if n < 1:
        raise ValidationError("n must be positive", field="n")
    return Fraction(factorial(n) ** (2 * n), n ** (n * n))


class BlockDesign:
    """Points and blocks; the raw material for Youden squares.

    ``replication`` is the common number of blocks through each point when
    the design is equireplicate, else None; ``block_size`` likewise for the
    common block cardinality.  The design with no point has no block, and
    both are 0 for it, so its Youden square is the empty array.  The
    ``blocks`` label tuples are made from the masks on first read.
    """

    __slots__ = ("points", "_index", "_block_masks", "_label_blocks")

    def __init__(self, points, blocks):
        index = core._index_labels(points, "points")
        block_masks = [core._mask_of(block, index, f"blocks[{b}]")
                       for b, block in enumerate(blocks)]
        for b, mask in enumerate(block_masks):
            if mask == 0:
                raise ValidationError(f"block {b} is empty", field=f"blocks[{b}]")
        self.points = tuple(index)
        self._index = index
        self._block_masks = block_masks
        self._label_blocks = None

    @property
    def blocks(self) -> tuple:
        if self._label_blocks is None:
            points = self.points
            self._label_blocks = tuple(tuple(points[p] for p in _bitmatch.bits_of(m))
                                       for m in self._block_masks)
        return self._label_blocks

    @property
    def v(self) -> int:
        return len(self.points)

    @property
    def b(self) -> int:
        return len(self._block_masks)

    @property
    def block_size(self) -> int | None:
        sizes = {mask.bit_count() for mask in self._block_masks} or {0}
        if len(sizes) == 1:
            return sizes.pop()
        return None

    @property
    def replication(self) -> int | None:
        counts = set(_bitmatch.column_counts(self._block_masks, self.v)) or {0}
        if len(counts) == 1:
            return counts.pop()
        return None

    @classmethod
    def from_json(cls, obj: dict) -> "BlockDesign":
        if not isinstance(obj, dict) or "points" not in obj or "blocks" not in obj:
            raise ValidationError("design file needs 'points' and 'blocks'", field="points")
        for key in ("points", "blocks"):
            if not isinstance(obj[key], list):
                raise ValidationError(f"'{key}' must be a list", field=key)
        if not all(isinstance(block, list) for block in obj["blocks"]):
            raise ValidationError("every block must be a list of points", field="blocks")
        return cls(obj["points"], obj["blocks"])


def youden_from_design(d: BlockDesign):
    """A k-by-v array whose column j holds exactly the letters of block j
    and whose every row uses each letter once.

    Needs an equireplicate design with constant block size and as many
    blocks as points.  Each row is a distinct-representative system for the
    unused block remainders, which stay regular, so all k rows exist.
    Refused past `COMPLETION_BUDGET` units of work, k * v^2.
    """
    if d.v != d.b:
        raise ValidationError(f"need as many blocks as points, got v={d.v}, b={d.b}",
                              field="blocks")
    k = d.block_size
    if k is None:
        raise ValidationError("blocks must share one size", field="blocks")
    if d.replication is None:
        raise ValidationError("design must be equireplicate", field="blocks")
    _check_budget("building", k, d.v)
    peeled = _bitmatch.peel(list(d._block_masks), d.v)
    return tuple(tuple(d.points[p] for p in assignment) for _, assignment in peeled)


def verify_youden(d: BlockDesign, cert: dict) -> tuple[bool, str | None]:
    """Check a ``youden`` certificate object: "array" lists the rows, which
    repeat no letter, and column j holds the letters of block j."""
    array = core._cert_rows(cert, "array", d._index)
    k = d.block_size
    if k is None or len(array) != k:
        return False, "array height differs from the block size"
    for r, row in enumerate(array):
        if len(row) != d.b:
            return False, f"row {r} has {len(row)} entries, expected {d.b}"
        if len(set(row)) != len(row):
            return False, f"row {r} repeats a letter"
    for j in range(d.b):
        column = {array[r][j] for r in range(k)}
        if column != set(d.blocks[j]):
            return False, f"column {j} does not equal its block"
    return True, None
