import random
import time
from fractions import Fraction
from itertools import product
from math import prod

import pytest

from oracles import brute_permanent, fraction_birkhoff, fraction_verify_birkhoff
from transversal import birkhoff
from transversal.errors import ResourceLimitError, ValidationError

M = birkhoff.RationalMatrix


def random_doubly_stochastic(rng, n, terms=None):
    """Normalised positive combination of random permutation matrices."""
    if terms is None:
        terms = rng.randint(1, n * n)
    perms = []
    for _ in range(terms):
        p = list(range(n))
        rng.shuffle(p)
        perms.append(tuple(p))
    weights = [rng.randint(1, 12) for _ in perms]
    total = sum(weights)
    acc = [[Fraction(0)] * n for _ in range(n)]
    for w, p in zip(weights, perms):
        for i in range(n):
            acc[i][p[i]] += Fraction(w, total)
    return M(acc)


class TestMatrix:
    def test_from_json_strings(self):
        m = M.from_json({"n": 2, "entries": [["1/2", "1/2"], ["1", "0"]]})
        assert m.entries[0][0] == Fraction(1, 2)

    def test_rejects_ragged(self):
        with pytest.raises(ValidationError):
            M([[1, 2], [3]])

    def test_rejects_junk_entry(self):
        with pytest.raises(ValidationError):
            M([["x"]])


class TestDoublyStochastic:
    def test_identity(self):
        assert birkhoff.is_doubly_stochastic(M.identity(3)) == (True, None)

    def test_uniform(self):
        assert birkhoff.is_doubly_stochastic(M.uniform(3)) == (True, None)

    def test_bad_column(self):
        ok, reason = birkhoff.is_doubly_stochastic(M([["1/2", "1/2"], ["1", "0"]]))
        assert not ok
        assert "column 0" in reason

    def test_negative_entry(self):
        ok, reason = birkhoff.is_doubly_stochastic(M([["-1", "2"], ["2", "-1"]]))
        assert not ok and "negative" in reason


class TestDecomposition:
    def test_identity(self):
        dec = birkhoff.birkhoff_decompose(M.identity(3))
        assert dec.terms == ((Fraction(1), (0, 1, 2)),)

    def test_two_by_two_half(self):
        dec = birkhoff.birkhoff_decompose(M([["1/2", "1/2"], ["1/2", "1/2"]]))
        assert len(dec) == 2
        assert all(c == Fraction(1, 2) for c, _ in dec.terms)

    def test_banded_three(self):
        m = M([["2/3", "1/3", "0"], ["1/3", "1/3", "1/3"], ["0", "1/3", "2/3"]])
        dec = birkhoff.birkhoff_decompose(m)
        assert len(dec) <= 7 - 3 + 1
        assert dec.coefficient_sum() == 1
        assert dec.as_matrix(3) == m

    def test_rejects_non_stochastic(self):
        with pytest.raises(ValidationError):
            birkhoff.birkhoff_decompose(M([["1", "1"], ["0", "0"]]))

    def test_random_matrices_reconstruct(self):
        rng = random.Random(424242)
        for _ in range(60):
            n = rng.randint(1, 5)
            m = random_doubly_stochastic(rng, n)
            nnz = sum(1 for row in m.entries for x in row if x)
            dec = birkhoff.birkhoff_decompose(m)
            assert dec.coefficient_sum() == 1
            assert all(c > 0 for c, _ in dec.terms)
            assert dec.as_matrix(n) == m
            assert len(dec) <= nnz - n + 1


def tampered(rng, terms, n):
    """A copy of certificate terms with one random fault, or none."""
    terms = [dict(t, permutation=list(t["permutation"])) for t in terms]
    k = rng.randrange(len(terms))
    kind = rng.choice(("none", "coefficient", "swap", "drop", "repeat", "split", "negate"))
    if kind == "coefficient":
        terms[k]["coefficient"] = str(Fraction(terms[k]["coefficient"]) + Fraction(1, rng.randint(2, 9)))
    elif kind == "swap" and n > 1:
        perm = terms[k]["permutation"]
        i, j = rng.sample(range(n), 2)
        perm[i], perm[j] = perm[j], perm[i]
    elif kind == "drop" and len(terms) > 1:
        del terms[k]
    elif kind == "repeat":
        terms.append(dict(terms[k]))
    elif kind == "split":
        # Two halves of one term: the same matrix and sum, one term more.
        half = str(Fraction(terms[k]["coefficient"]) / 2)
        terms[k]["coefficient"] = half
        terms.append(dict(terms[k], permutation=list(terms[k]["permutation"])))
    elif kind == "negate":
        terms[k]["coefficient"] = "-" + terms[k]["coefficient"]
    return terms


def test_verify_agrees_with_fraction_sums():
    """The integer check gives the Fraction check's verdict and reason on
    valid certificates and on each kind of tampered one."""
    rng = random.Random(8128)
    verdicts = set()
    for _ in range(300):
        n = rng.randint(1, 6)
        m = random_doubly_stochastic(rng, n)
        terms = [{"coefficient": str(c), "permutation": list(p)}
                 for c, p in birkhoff.birkhoff_decompose(m).terms]
        cert = {"terms": tampered(rng, terms, n)}
        got = birkhoff.verify_birkhoff(m, cert)
        assert got == fraction_verify_birkhoff(m, cert), (m, cert)
        verdicts.add(got)
    assert len(verdicts) == 5, verdicts


PRIMES = [p for p in range(2, 98) if all(p % q for q in range(2, p))]


def mixed_weights(rng, denominators):
    """Weights that sum to 1: one Fraction(a, b) for each denominator b that
    still fits under 1, and the rest of 1 last."""
    weights = []
    for b in denominators:
        w = Fraction(rng.randint(1, max(1, b // (len(denominators) + 1))), b)
        if sum(weights) + w < 1:
            weights.append(w)
    return weights + [1 - sum(weights)]


def weighted_permutations(rng, n, weights):
    acc = [[Fraction(0)] * n for _ in range(n)]
    for w in weights:
        perm = list(range(n))
        rng.shuffle(perm)
        for i in range(n):
            acc[i][perm[i]] += w
    return acc


def decimal_string(rng, x, places):
    """`x`, whose denominator divides 10**places, as a decimal string with a
    point or with an exponent."""
    scaled = x * 10**places
    assert scaled.denominator == 1
    if rng.random() < 0.5:
        return f"{scaled.numerator}e-{places}"
    whole, part = divmod(scaled.numerator, 10**places)
    return f"{whole}.{part:0{places}d}"


class TestIntegerRounds:
    """The integer rounds, warm-started, give the terms of the Fraction
    round loop: the same coefficients and permutations in the same order."""

    def test_prime_denominators(self):
        rng = random.Random(9797)
        sizes = set()
        for _ in range(80):
            n = rng.randint(1, 9)
            weights = mixed_weights(rng, rng.sample(PRIMES, rng.randint(0, 11)))
            entries = [[str(x) for x in row] for row in weighted_permutations(rng, n, weights)]
            m = M(entries)
            assert birkhoff.birkhoff_decompose(m).terms == fraction_birkhoff(m.entries)
            sizes.add(len(weights))
        assert max(sizes) >= 8

    def test_decimal_strings(self):
        rng = random.Random(1010)
        places = 4
        for _ in range(80):
            n = rng.randint(1, 9)
            weights = mixed_weights(rng, rng.choices([10, 100, 1000, 10**places],
                                                      k=rng.randint(0, 11)))
            acc = weighted_permutations(rng, n, weights)
            m = M([[decimal_string(rng, x, places) for x in row] for row in acc])
            assert m.entries == tuple(map(tuple, acc))
            assert birkhoff.birkhoff_decompose(m).terms == fraction_birkhoff(m.entries)

    def test_sixteen(self):
        m = random_doubly_stochastic(random.Random(1616), 16, 40)
        assert birkhoff.birkhoff_decompose(m).terms == fraction_birkhoff(m.entries)


class TestPermanent:
    def test_all_ones(self):
        assert birkhoff.permanent(M([[1, 1, 1]] * 3)) == 6

    def test_identity(self):
        for n in range(1, 7):
            assert birkhoff.permanent(M.identity(n)) == 1

    def test_banded(self):
        m = M([[1, 1, 0], [1, 1, 1], [0, 1, 1]])
        assert birkhoff.permanent(m) == 3
        assert brute_permanent(m.entries) == 3

    def test_zero_by_zero(self):
        assert birkhoff.permanent(M([])) == 1

    def test_exhaustive_binary_three(self):
        for bits in product((0, 1), repeat=9):
            rows = [list(bits[0:3]), list(bits[3:6]), list(bits[6:9])]
            assert birkhoff.permanent(M(rows)) == brute_permanent(rows)

    def test_random_rational_five(self):
        rng = random.Random(31337)
        for _ in range(30):
            rows = [
                [Fraction(rng.randint(-6, 6), rng.randint(1, 6)) for _ in range(5)]
                for _ in range(5)
            ]
            assert birkhoff.permanent(M(rows)) == brute_permanent(rows)

    def test_hidden_blocks_are_fast(self):
        # four 5-by-5 blocks under random row and column permutations: the
        # dense 20-by-20 walk would take seconds
        rng = random.Random(1729)
        blocks = [[[rng.randint(1, 9) if i == j or rng.random() < 0.7 else 0
                    for j in range(5)] for i in range(5)] for _ in range(4)]
        dense = [[0] * 20 for _ in range(20)]
        for b, block in enumerate(blocks):
            for i in range(5):
                dense[5 * b + i][5 * b:5 * b + 5] = block[i]
        row_perm, col_perm = list(range(20)), list(range(20))
        rng.shuffle(row_perm)
        rng.shuffle(col_perm)
        rows = [[dense[row_perm[i]][col_perm[j]] for j in range(20)] for i in range(20)]
        start = time.perf_counter()
        got = birkhoff.permanent(M(rows))
        assert time.perf_counter() - start < 1
        assert got == prod(brute_permanent(block) for block in blocks) > 0

    def test_ceiling(self):
        with pytest.raises(ResourceLimitError):
            birkhoff.permanent(M.identity(21))
        with pytest.raises(ResourceLimitError):
            birkhoff.permanent(M.identity(8), ceiling=7)
        assert birkhoff.permanent(M.identity(8), ceiling=8) == 1


class TestBounds:
    def test_vdw_values(self):
        assert birkhoff.vdw_bound(1) == 1
        assert birkhoff.vdw_bound(3) == Fraction(6, 27)

    def test_vdw_uniform_equality(self):
        for n in range(1, 6):
            assert birkhoff.permanent(M.uniform(n)) == birkhoff.vdw_bound(n)

    def test_regular_bound_values(self):
        assert birkhoff.regular_matching_bound(3, 3) == 6
        assert birkhoff.regular_matching_bound(3, 2) == Fraction(16, 9)

    def test_six_cycle_matching_count(self):
        # biadjacency of the 6-cycle: 2-regular on parts of size 3
        rows = [[1, 0, 1], [1, 1, 0], [0, 1, 1]]
        count = brute_permanent(rows)
        assert count == 2
        assert count >= birkhoff.regular_matching_bound(3, 2)

    def test_bad_arguments(self):
        with pytest.raises(ValidationError):
            birkhoff.vdw_bound(0)
        with pytest.raises(ValidationError):
            birkhoff.regular_matching_bound(3, 4)
