"""Exact rational matrices: doubly stochastic checks, constructive convex
decomposition into permutation matrices, permanents, and counting bounds.

Everything here is exact: entries, bounds and permanents are Fractions,
and decomposition runs on integers over one common denominator.  There is
deliberately no floating point, because decomposition termination and the
equality cases of the bounds are exact claims.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial, lcm

from . import _bitmatch, core
from .core import _permanent_rows
from .errors import ResourceLimitError, ValidationError

PERMANENT_CEILING = 20
# A rational string with more digits than this, or a larger exponent, is
# refused before Fraction builds its integers.  It is CPython's own default
# limit for converting a decimal string to an int.
_DIGIT_CEILING = 4300


def _to_fraction(value, where: str) -> Fraction:
    if isinstance(value, bool):
        raise ValidationError(f"{where}: booleans are not rationals", field=where)
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    if isinstance(value, str):
        digits = value[1:] if value[:1] in ("+", "-") else value
        if digits.isascii() and digits.isdigit() and len(digits) <= _DIGIT_CEILING:
            return Fraction(int(value))  # a plain integer skips Fraction's parse
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


class RationalMatrix:
    """A square matrix of exact rationals."""

    __slots__ = ("n", "entries")

    def __init__(self, rows):
        rows = [list(r) for r in rows]
        n = len(rows)
        for i, row in enumerate(rows):
            if len(row) != n:
                raise ValidationError(f"row {i} has {len(row)} entries in an order-{n} matrix",
                                      field=f"entries[{i}]")
        self.n = n
        self.entries = tuple(
            tuple(_to_fraction(x, f"entries[{i}][{j}]") for j, x in enumerate(row))
            for i, row in enumerate(rows)
        )

    def __eq__(self, other):
        return isinstance(other, RationalMatrix) and self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        return f"RationalMatrix({[[str(x) for x in row] for row in self.entries]})"

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "entries": [[str(x) for x in row] for row in self.entries],
        }

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

    def scaled(self, n: int) -> tuple[int, int, list]:
        """(D, the coefficient sum times D, the rebuilt n x n matrix times D),
        all integers, for D the least common denominator of the coefficients."""
        scale = lcm(*(c.denominator for c, _ in self.terms))
        acc = [[0] * n for _ in range(n)]
        total = 0
        for coefficient, perm in self.terms:
            weight = coefficient.numerator * (scale // coefficient.denominator)
            total += weight
            for i in range(n):
                acc[i][perm[i]] += weight
        return scale, total, acc


def term_bound(m: RationalMatrix) -> int:
    """The most terms a decomposition of `m` needs: nnz - n + 1."""
    return sum(1 for row in m.entries for x in row if x) - m.n + 1


def verify_birkhoff(m: RationalMatrix, cert: dict) -> tuple[bool, str | None]:
    """Check a ``birkhoff`` certificate object: "terms" with positive
    rational "coefficient"s summing to 1 whose "permutation"s (the column
    of each row) rebuild `m`, at most ``term_bound(m)`` of them."""
    columns = {j: j for j in range(m.n)}
    terms = []
    for k, term in enumerate(core._cert_field(cert, "terms")):
        if not isinstance(term, dict):
            raise ValidationError(f"terms[{k}] must be an object", field=f"terms[{k}]")
        perm = core._cert_field(term, "permutation", index=columns)
        if len(perm) != m.n or len(set(perm)) != m.n:
            return False, f"term {k} is not a permutation of 0..{m.n - 1}"
        terms.append((_to_fraction(term.get("coefficient"), f"terms[{k}]"),
                      tuple(columns[j] for j in perm)))
    if any(c <= 0 for c, _ in terms):
        return False, "coefficients must be positive"
    scale, total, acc = BirkhoffDecomposition(tuple(terms)).scaled(m.n)
    if total != scale:
        return False, "coefficients do not sum to 1"
    for row, target in zip(acc, m.entries):
        for x, y in zip(row, target):
            if x * y.denominator != y.numerator * scale:
                return False, "terms do not reconstruct the matrix"
    if len(terms) > term_bound(m):
        return False, "more terms than the support allows"
    return True, None


def is_doubly_stochastic(m: RationalMatrix) -> tuple[bool, str | None]:
    """Exact nonnegativity and unit row/column sum check."""
    reason = _stochastic_failure(*_scaled(m))
    return reason is None, reason


def _scaled(m: RationalMatrix) -> tuple[int, list]:
    """(D, the entries times D as integer rows), for D the least common
    denominator of the entries."""
    scale = lcm(*(x.denominator for row in m.entries for x in row))
    return scale, [[x.numerator * (scale // x.denominator) for x in row] for row in m.entries]


def _stochastic_failure(scale: int, work: list) -> str | None:
    """Why the matrix `work` / `scale` is not doubly stochastic, or None.
    The sums are integers; a Fraction is built only for a failure."""
    for i, row in enumerate(work):
        for j, x in enumerate(row):
            if x < 0:
                return f"entry ({i},{j}) is negative"
    for i, row in enumerate(work):
        total = sum(row)
        if total != scale:
            return f"row {i} sums to {Fraction(total, scale)}"
    for j, column in enumerate(zip(*work)):
        total = sum(column)
        if total != scale:
            return f"column {j} sums to {Fraction(total, scale)}"
    return None


def birkhoff_decompose(m: RationalMatrix) -> BirkhoffDecomposition:
    """Write a doubly stochastic matrix as a convex sum of permutations.

    Each round finds the lexicographically least permutation supported on
    the positive entries, subtracts it scaled by its minimum entry, and
    repeats; every round kills at least one entry, so at most
    nnz - n + 1 terms appear and the reconstruction is exact.  The rounds
    run on integers: the matrix is scaled once by the least common
    denominator D of its entries, and each coefficient is mu / D.  The
    support masks and their column-to-rows table are built once; a round
    clears the bit of each entry it brings to zero in both, and the next
    round's assignment starts from this round's permutation less those
    entries.
    """
    scale, work = _scaled(m)
    reason = _stochastic_failure(scale, work)
    if reason is not None:
        raise ValidationError(f"matrix is not doubly stochastic: {reason}")
    n = m.n
    if n == 0:
        return BirkhoffDecomposition(())
    masks = [sum(1 << j for j, x in enumerate(row) if x) for row in work]
    col_rows = _bitmatch._column_rows(masks, n)
    terms = []
    remaining = scale
    start = None
    while remaining:
        perm = _bitmatch.lex_least_assignment(masks, n, start, col_rows)
        if perm is None:  # impossible for a doubly stochastic remainder
            raise AssertionError("no permutation on the positive support")
        mu = min(work[i][perm[i]] for i in range(n))
        terms.append((Fraction(mu, scale), tuple(perm)))
        for i, j in enumerate(perm):
            work[i][j] -= mu
            if not work[i][j]:
                masks[i] &= ~(1 << j)
                col_rows[j] &= ~(1 << i)
                perm[i] = _bitmatch.UNMATCHED
        remaining -= mu
        start = perm
    return BirkhoffDecomposition(tuple(terms))


def permanent(m: RationalMatrix, *, ceiling: int = PERMANENT_CEILING) -> Fraction:
    """Exact permanent of a rational matrix.

    Rows are rescaled to integers first (the permanent is linear in each
    row), and the integer kernel `core._permanent_rows` splits the nonzero
    pattern into its connected blocks and runs Ryser's inclusion-exclusion
    on each, at 2^(k-1) products for a k-by-k block (2^(n-1) for a dense
    matrix), hence the order ceiling; the determinant shortcut does not
    exist for permanents.  The kernel's work guard refuses blocks that
    would walk too many column sets, whatever the ceiling.  A dense 0/1
    block may instead be counted from the rook numbers of its complement,
    when that is estimated to be cheaper (`core._permanent_of`).
    """
    _check_order(m.n, ceiling)
    scale = 1
    rows = []
    for row in m.entries:
        d = lcm(*(x.denominator for x in row)) if row else 1
        scale *= d
        rows.append([x.numerator * (d // x.denominator) for x in row])
    return Fraction(_permanent_rows(rows), scale)


def _check_order(n: int, ceiling: int) -> None:
    if n > ceiling:
        raise ResourceLimitError(f"order {n} is above the permanent ceiling {ceiling}")


def matrix_for_permanent(obj: dict, *, ceiling: int = PERMANENT_CEILING) -> RationalMatrix:
    """`RationalMatrix.from_json` for `permanent`: a file whose order is
    above `ceiling` is refused after its shape is checked and before any
    entry is parsed, so a huge matrix costs no Fractions."""
    rows = RationalMatrix._json_rows(obj)
    _check_order(len(rows), ceiling)
    return RationalMatrix(rows)


def vdw_bound(n: int) -> Fraction:
    """The doubly stochastic permanent lower bound n!/n^n."""
    if n < 1:
        raise ValidationError("n must be positive")
    return Fraction(factorial(n), n**n)


def regular_matching_bound(n: int, r: int) -> Fraction:
    """Matching-count lower bound (r/n)^n n! for r-regular bipartite graphs."""
    if n < 1:
        raise ValidationError("n must be positive")
    if not 1 <= r <= n:
        raise ValidationError("r must satisfy 1 <= r <= n")
    return Fraction(r, n) ** n * factorial(n)
