"""Exact rational matrices: doubly stochastic checks, constructive convex
decomposition into permutation matrices, permanents, and counting bounds.

Everything here is exact Fraction arithmetic; there is deliberately no
floating point, because decomposition termination and the equality cases of
the bounds are exact claims.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial, lcm

from . import _bitmatch
from .errors import ResourceLimitError, ValidationError

PERMANENT_CEILING = 20


def _to_fraction(value, where: str) -> Fraction:
    if isinstance(value, bool):
        raise ValidationError(f"{where}: booleans are not matrix entries")
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValidationError(f"{where}: cannot parse rational {value!r}") from exc
    raise ValidationError(f"{where}: unsupported entry type {type(value).__name__}")


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
            tuple(_to_fraction(x, f"entry ({i},{j})") for j, x in enumerate(row))
            for i, row in enumerate(rows)
        )

    def __eq__(self, other):
        return isinstance(other, RationalMatrix) and self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        return f"RationalMatrix({[[str(x) for x in row] for row in self.entries]})"

    @classmethod
    def uniform(cls, n: int) -> "RationalMatrix":
        cell = Fraction(1, n)
        return cls([[cell] * n for _ in range(n)])

    @classmethod
    def identity(cls, n: int) -> "RationalMatrix":
        return cls([[Fraction(int(i == j)) for j in range(n)] for i in range(n)])

    @classmethod
    def from_permutation(cls, perm) -> "RationalMatrix":
        perm = tuple(perm)
        n = len(perm)
        if sorted(perm) != list(range(n)):
            raise ValidationError(f"{perm!r} is not a permutation of 0..{n - 1}")
        return cls([[Fraction(int(perm[i] == j)) for j in range(n)] for i in range(n)])

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "entries": [[str(x) for x in row] for row in self.entries],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "RationalMatrix":
        if not isinstance(obj, dict) or "entries" not in obj:
            raise ValidationError("matrix file needs 'entries'", field="entries")
        rows = obj["entries"]
        if "n" in obj and len(rows) != obj["n"]:
            raise ValidationError("'n' does not match the number of rows", field="n")
        return cls(rows)


@dataclass(frozen=True)
class BirkhoffDecomposition:
    """Convex combination of permutations: ((coefficient, permutation), ...)."""

    terms: tuple

    def __len__(self):
        return len(self.terms)

    def coefficient_sum(self) -> Fraction:
        return sum((c for c, _ in self.terms), Fraction(0))

    def as_matrix(self, n: int) -> RationalMatrix:
        acc = [[Fraction(0)] * n for _ in range(n)]
        for coefficient, perm in self.terms:
            for i in range(n):
                acc[i][perm[i]] += coefficient
        return RationalMatrix(acc)


def is_doubly_stochastic(m: RationalMatrix) -> tuple[bool, str | None]:
    """Exact nonnegativity and unit row/column sum check."""
    one = Fraction(1)
    for i, row in enumerate(m.entries):
        for j, x in enumerate(row):
            if x < 0:
                return False, f"entry ({i},{j}) is negative"
    for i, row in enumerate(m.entries):
        total = sum(row, Fraction(0))
        if total != one:
            return False, f"row {i} sums to {total}"
    for j in range(m.n):
        total = sum((row[j] for row in m.entries), Fraction(0))
        if total != one:
            return False, f"column {j} sums to {total}"
    return True, None


def birkhoff_decompose(m: RationalMatrix) -> BirkhoffDecomposition:
    """Write a doubly stochastic matrix as a convex sum of permutations.

    Each round finds the lexicographically least permutation supported on
    the positive entries, subtracts it scaled by its minimum entry, and
    repeats; every round kills at least one entry, so at most
    nnz - n + 1 terms appear and the reconstruction is exact.  The support
    masks are built once; a round clears the bit of each entry it brings
    to zero.
    """
    ok, reason = is_doubly_stochastic(m)
    if not ok:
        raise ValidationError(f"matrix is not doubly stochastic: {reason}")
    n = m.n
    if n == 0:
        return BirkhoffDecomposition(())
    work = [list(row) for row in m.entries]
    masks = [sum(1 << j for j, x in enumerate(row) if x) for row in work]
    terms = []
    remaining = Fraction(1)
    while remaining > 0:
        perm = _bitmatch.lex_least_assignment(masks, n)
        if perm is None:  # impossible for a doubly stochastic remainder
            raise AssertionError("no permutation on the positive support")
        mu = min(work[i][perm[i]] for i in range(n))
        terms.append((mu, tuple(perm)))
        for i, j in enumerate(perm):
            work[i][j] -= mu
            if not work[i][j]:
                masks[i] &= ~(1 << j)
        remaining -= mu
    return BirkhoffDecomposition(tuple(terms))


def _permanent_rows(rows) -> Fraction | int:
    """Alternating-sum permanent over column subsets (Gray-code order).

    Works on any exact numeric entries (int or Fraction); cost 2^n products.
    """
    n = len(rows)
    if n == 0:
        return 1
    sums = [0] * n
    total = 0
    previous = 0
    for g in range(1, 1 << n):
        gray = g ^ (g >> 1)
        changed = gray ^ previous
        previous = gray
        j = changed.bit_length() - 1
        if gray & changed:
            for i in range(n):
                sums[i] += rows[i][j]
        else:
            for i in range(n):
                sums[i] -= rows[i][j]
        prod = 1
        for s in sums:
            if not s:
                prod = 0
                break
            prod *= s
        if prod:
            if (n - gray.bit_count()) % 2:
                total -= prod
            else:
                total += prod
    return total


def permanent(m: RationalMatrix, *, ceiling: int = PERMANENT_CEILING) -> Fraction:
    """Exact permanent of a rational matrix.

    The inclusion-exclusion method costs 2^n products, hence the ceiling;
    the determinant shortcut does not exist for permanents.  Rows are
    rescaled to integers first (the permanent is linear in each row), which
    keeps the inner loop on machine arithmetic.
    """
    if m.n > ceiling:
        raise ResourceLimitError(f"order {m.n} is above the permanent ceiling {ceiling}")
    scale = 1
    rows = []
    for row in m.entries:
        d = lcm(*(x.denominator for x in row)) if row else 1
        scale *= d
        rows.append([int(x * d) for x in row])
    return Fraction(_permanent_rows(rows), scale)


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
