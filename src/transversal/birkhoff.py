"""Exact rational matrices: doubly stochastic checks, constructive convex
decomposition into permutation matrices, permanents, and counting bounds.

Everything here is exact: a matrix holds each row as integers over the
row's own least common denominator, decomposition and the doubly stochastic
check run on integers, and bounds and permanents are Fractions.  There is
deliberately no floating point, because decomposition termination and the
equality cases of the bounds are exact claims.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial, gcd, lcm, prod

from . import _bitmatch, core
from .core import _permanent_rows
from .errors import ResourceLimitError, ValidationError

PERMANENT_CEILING = 20
# A rational string with more digits than this, or a larger exponent, is
# refused before its integers are built.  It is CPython's own default
# limit for converting a decimal string to an int, but it is checked here by
# length, whatever `sys.set_int_max_str_digits` says.
_DIGIT_CEILING = 4300
_PRINT_LIMIT = 10**_DIGIT_CEILING


def _to_fraction(value, where: str) -> Fraction:
    """`value` as a Fraction: an int, a Fraction, or a string that
    `Fraction` parses with at most `_DIGIT_CEILING` digits and exponent."""
    if isinstance(value, bool):
        raise ValidationError(f"{where}: booleans are not rationals", field=where)
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    if isinstance(value, str):
        exponent = value.replace("_", "").lower().partition("e")[2].strip().lstrip("+-")
        # A string no longer than the ceiling holds no more digits than it.
        many = len(value) > _DIGIT_CEILING and sum(c.isdecimal() for c in value) > _DIGIT_CEILING
        if many or (exponent.isdecimal() and int(exponent) > _DIGIT_CEILING):
            raise ResourceLimitError(
                f"{where}: {value[:20]!r}... has over {_DIGIT_CEILING} digits or exponent"
            )
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValidationError(f"{where}: cannot parse {value!r}", field=where) from exc
    raise ValidationError(f"{where}: unsupported type {type(value).__name__}", field=where)


def _plain_pair(value) -> tuple[int, int] | None:
    """(numerator, denominator) in lowest terms of an int, or of a "p" or
    "p/q" string of ASCII digits with an optional sign and a nonzero q,
    within the digit ceiling; None for every other value."""
    if type(value) is int:
        return value, 1
    if type(value) is not str or not value.isascii():
        return None
    num, bar, den = value.partition("/")
    digits = num[1:] if num[:1] in ("+", "-") else num
    if not digits.isdigit() or len(digits) + len(den) > _DIGIT_CEILING:
        return None
    if not bar:
        return int(num), 1
    if not den.isdigit():
        return None
    p, q = int(num), int(den)
    if not q:
        return None
    g = gcd(p, q)
    return p // g, q // g


def _to_pair(value, where: str) -> tuple[int, int]:
    """`_to_fraction(value, where)` as (numerator, denominator), with no
    Fraction built for the values `_plain_pair` reads."""
    pair = _plain_pair(value)
    if pair is None:
        x = _to_fraction(value, where)
        pair = x.numerator, x.denominator
    return pair


def _row_pairs(row: list, i: int) -> tuple[list, list | None]:
    """The numerators and denominators of row `i`; None for denominators
    that are all 1."""
    try:
        text = "".join(row)  # a TypeError unless every entry is a string
    except TypeError:
        text = None
    # A row of ASCII integer strings is read in one pass: int() reads a
    # subset of what Fraction reads, to the same values, and a row no longer
    # than the digit ceiling holds no entry past it.  A row int() refuses is
    # read entry by entry.
    if text is not None and len(text) <= _DIGIT_CEILING and text.isascii() and "/" not in text:
        try:
            return list(map(int, row)), None
        except ValueError:
            pass
    pairs = [_plain_pair(x) or _to_pair(x, f"entries[{i}][{j}]") for j, x in enumerate(row)]
    return [p for p, _ in pairs], [q for _, q in pairs]


class RationalMatrix:
    """A square matrix of exact rationals, held row by row: `rows[i]` is
    row i's integers over `dens[i]`, the least common denominator of its
    entries, so entry (i, j) is rows[i][j] / dens[i].  Entries are reduced
    as they are parsed, so equal matrices hold equal rows."""

    __slots__ = ("n", "rows", "dens")

    def __init__(self, rows):
        parsed = self._parsed(rows)
        self.n = len(parsed)
        self.dens = tuple(1 if dens is None else lcm(*dens) for _, dens in parsed)
        self.rows = tuple(
            tuple(nums) if d == 1 else tuple(p * (d // q) for p, q in zip(nums, dens))
            for (nums, dens), d in zip(parsed, self.dens)
        )

    @property
    def entries(self) -> tuple:
        """The entries as rows of Fractions."""
        return tuple(tuple(Fraction(x, d) for x in row) for row, d in zip(self.rows, self.dens))

    def __eq__(self, other):
        return (isinstance(other, RationalMatrix) and self.rows == other.rows
                and self.dens == other.dens)

    def __hash__(self):
        return hash((self.rows, self.dens))

    def __repr__(self):
        return f"RationalMatrix({[[str(x) for x in row] for row in self.entries]})"

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "entries": [[str(x) for x in row] for row in self.entries],
        }

    @staticmethod
    def _parsed(rows) -> list:
        """`_row_pairs` of each row of a square matrix; a row of the wrong
        length is refused first."""
        rows = [list(r) for r in rows]
        n = len(rows)
        for i, row in enumerate(rows):
            if len(row) != n:
                raise ValidationError(f"row {i} has {len(row)} entries in an order-{n} matrix",
                                      field=f"entries[{i}]")
        return [_row_pairs(row, i) for i, row in enumerate(rows)]

    @staticmethod
    def _json_rows(obj) -> list:
        """The rows of a matrix file, checked for shape but not yet parsed."""
        if not isinstance(obj, dict) or "entries" not in obj:
            raise ValidationError("matrix file needs 'entries'", field="entries")
        rows = obj["entries"]
        if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
            raise ValidationError("'entries' must be a list of rows", field="entries")
        if "n" in obj and len(rows) != obj["n"]:
            raise ValidationError("'n' does not match the number of rows", field="n")
        return rows

    @classmethod
    def from_json(cls, obj: dict) -> "RationalMatrix":
        return cls(cls._json_rows(obj))


@dataclass(frozen=True)
class BirkhoffDecomposition:
    """Convex combination of permutations: ((coefficient, permutation), ...)."""

    terms: tuple

    def __len__(self):
        return len(self.terms)


def term_bound(m: RationalMatrix) -> int:
    """The most terms a decomposition of `m` needs: nnz - n + 1."""
    return sum(1 for row in m.rows for x in row if x) - m.n + 1


def verify_birkhoff(m: RationalMatrix, cert: dict) -> tuple[bool, str | None]:
    """Check a ``birkhoff`` certificate object: "terms" with positive
    rational "coefficient"s summing to 1 whose "permutation"s (the column
    of each row) rebuild `m`, at most "term_bound", ``term_bound(m)``, of
    them.  The sums run on integers over the least common denominator D of
    the coefficients: the coefficients times D must sum to D, and row i of
    the rebuilt matrix times D must equal `m.rows[i]` times D / `m.dens[i]`."""
    columns = {j: j for j in range(m.n)}
    terms = []
    for k, term in enumerate(core._cert_field(cert, "terms")):
        if not isinstance(term, dict):
            raise ValidationError(f"terms[{k}] must be an object", field=f"terms[{k}]")
        perm = core._cert_field(term, "permutation", index=columns)
        if len(perm) != m.n or len(set(perm)) != m.n:
            return False, f"term {k} is not a permutation of 0..{m.n - 1}"
        p, q = _to_pair(term.get("coefficient"), f"terms[{k}]")
        terms.append((p, q, tuple(columns[j] for j in perm)))
    if any(p <= 0 for p, _, _ in terms):
        return False, "coefficients must be positive"
    scale = lcm(*(q for _, q, _ in terms))
    weights = [p * (scale // q) for p, q, _ in terms]
    if sum(weights) != scale:
        return False, "coefficients do not sum to 1"
    acc = [[0] * m.n for _ in range(m.n)]
    for weight, (_, _, perm) in zip(weights, terms):
        for i, j in enumerate(perm):
            acc[i][j] += weight
    for row, target, d in zip(acc, m.rows, m.dens):
        for x, y in zip(row, target):
            if x * d != y * scale:
                return False, "terms do not reconstruct the matrix"
    bound = term_bound(m)
    if core._cert_field(cert, "term_bound", int) != bound:
        return False, "term_bound differs from the bound of the matrix"
    if len(terms) > bound:
        return False, "more terms than the support allows"
    return True, None


def is_doubly_stochastic(m: RationalMatrix) -> tuple[bool, str | None]:
    """Exact nonnegativity and unit row/column sum check."""
    reason, _, _ = _stochastic_failure(m)
    return reason is None, reason


def _stochastic_failure(m: RationalMatrix) -> tuple:
    """Why `m` is not doubly stochastic, or None; then, if it is, its least
    common denominator D and its rows times D, else None and None.  Each row
    sum is checked over the row's own denominator, and D is built only once
    every row sums to 1.  The sums are integers; a Fraction is built only
    for a failure."""
    for i, row in enumerate(m.rows):
        for j, x in enumerate(row):
            if x < 0:
                return f"entry ({i},{j}) is negative", None, None
    for i, (row, d) in enumerate(zip(m.rows, m.dens)):
        total = sum(row)
        if total != d:
            return _sum_failure(f"row {i}", total, d), None, None
    scale = lcm(*m.dens)
    work = [[x * k for x in row] if (k := scale // d) > 1 else list(row)
            for row, d in zip(m.rows, m.dens)]
    for j, column in enumerate(zip(*work)):
        total = sum(column)
        if total != scale:
            return _sum_failure(f"column {j}", total, scale), None, None
    return None, scale, work


def _sum_failure(what: str, total: int, scale: int) -> str:
    """Why a row or column whose entries sum to `total` / `scale` fails.
    The sum is printed unless it is too long to print."""
    x = Fraction(total, scale)
    if _printable(x):
        return f"{what} sums to {x}"
    return f"{what} does not sum to 1: its sum has over {_DIGIT_CEILING} digits"


def _printable(x) -> bool:
    """Whether str() and json.dumps can print `x`, an int or a Fraction:
    CPython prints no int of more than `_DIGIT_CEILING` digits (see
    `sys.get_int_max_str_digits`), so each side of the bar must be below
    `_PRINT_LIMIT`."""
    return max(abs(x.numerator), x.denominator) < _PRINT_LIMIT


def birkhoff_decompose(m: RationalMatrix) -> BirkhoffDecomposition:
    """Write a doubly stochastic matrix as a convex sum of permutations.

    Each round takes the lexicographically least permutation supported on
    the positive entries, scaled by its minimum entry (`_bitmatch.peel`);
    every round kills at least one entry, so at most nnz - n + 1 terms
    appear and the reconstruction is exact.  The rounds run on the entries
    times their least common denominator D, the rows that the doubly
    stochastic check builds, and each coefficient is mu / D.  The order-0
    matrix has no entry to peel and is its own permutation matrix, the one
    term with coefficient 1.
    """
    reason, scale, work = _stochastic_failure(m)
    if reason is not None:
        raise ValidationError(f"matrix is not doubly stochastic: {reason}", field="entries")
    if not m.n:
        return BirkhoffDecomposition(((Fraction(1), ()),))
    masks = [sum(1 << j for j, x in enumerate(row) if x) for row in work]
    return BirkhoffDecomposition(tuple(
        (Fraction(mu, scale), perm) for mu, perm in _bitmatch.peel(masks, m.n, work)))


def permanent(m: RationalMatrix, *, ceiling: int = PERMANENT_CEILING) -> Fraction:
    """Exact permanent of a rational matrix.

    The permanent is linear in each row, so it is the permanent of the
    integer rows `m.rows` over the product of their denominators `m.dens`.
    No row needs dividing first: a prime power that exactly divides
    `m.dens[i]` divides the reduced denominator of some entry of row i, and
    so not that entry's integer.  The integer kernel `core._permanent_rows`
    splits the nonzero pattern into its connected blocks and runs Ryser's
    inclusion-exclusion on each, at 2^(k-1) products for a k-by-k block
    (2^(n-1) for a dense matrix), hence the order ceiling; the determinant
    shortcut does not exist for permanents.  The kernel's work guard
    refuses blocks that would walk too many column sets, weighed by the
    size of their entries, whatever the ceiling.  A dense 0/1 block may
    instead be counted from the rook numbers of its complement, when that
    is estimated to be cheaper (`core._permanent_of`).
    """
    _check_order(m.n, ceiling)
    return Fraction(_permanent_rows([list(row) for row in m.rows]), prod(m.dens))


def _check_order(n: int, ceiling: int) -> None:
    if n > ceiling:
        raise ResourceLimitError(f"order {n} is above the permanent ceiling {ceiling}")


def file_permanent(obj: dict, *, ceiling: int = PERMANENT_CEILING) -> Fraction:
    """`permanent` of the matrix in a matrix file's object.  A file whose
    order is above `ceiling` is refused after its shape is checked and
    before any entry is parsed, so a huge matrix costs no parsing."""
    rows = RationalMatrix._json_rows(obj)
    _check_order(len(rows), ceiling)
    return permanent(RationalMatrix(rows), ceiling=ceiling)


def vdw_bound(n: int) -> Fraction:
    """The doubly stochastic permanent lower bound n!/n^n."""
    if n < 1:
        raise ValidationError("n must be positive", field="n")
    return Fraction(factorial(n), n**n)


def regular_matching_bound(n: int, r: int) -> Fraction:
    """Matching-count lower bound (r/n)^n n! for r-regular bipartite graphs.
    A refusal of `r` names the field "regular", the option of ``bounds``."""
    if n < 1:
        raise ValidationError("n must be positive", field="n")
    if not 1 <= r <= n:
        raise ValidationError("r must satisfy 1 <= r <= n", field="regular")
    return Fraction(r, n) ** n * factorial(n)
