import ast
import importlib
import inspect
import pkgutil
import random
import re
import sys
import time
from fractions import Fraction
from itertools import product
from math import lcm, prod

import pytest

from oracles import (brute_permanent, coefficient_sum, decomposition_matrix, decomposition_terms,
                     fraction_birkhoff, fraction_entry, fraction_is_doubly_stochastic,
                     fraction_verify_birkhoff, identity_matrix, uniform_matrix)
import transversal
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

    @pytest.mark.parametrize("value", ["7", "+7", "-7", "-0", "007", "1" * 4300, " 3", "3 ",
                                       "1_000", "\u0663", "-\u0663", "2/4", "1.5", "1e3"])
    def test_integer_strings_parse_as_fraction_does(self, value):
        got = birkhoff._to_fraction(value, "x")
        assert type(got) is Fraction and got == Fraction(value)

    @pytest.mark.parametrize("value", ["", "+", "-", "+-1", "--1", "1 2", "\u00b2"])
    def test_near_integer_junk_rejected(self, value):
        with pytest.raises(ValidationError):
            birkhoff._to_fraction(value, "x")

    def test_integer_past_the_digit_ceiling_refused(self):
        with pytest.raises(ResourceLimitError):
            birkhoff._to_fraction("-" + "1" * 4301, "x")
        # A "p/q" string counts the digits on both sides of the bar.
        with pytest.raises(ResourceLimitError):
            birkhoff._to_fraction("1" * 2151 + "/" + "3" * 2150, "x")
        assert birkhoff._to_fraction("1" * 2150 + "/" + "3" * 2150, "x") == \
            Fraction(int("1" * 2150), int("3" * 2150))


def outcome(parse, value):
    """The Fraction `parse(value, "x")` gives, or its error's class, message
    and field."""
    try:
        return parse(value, "x")
    except (ValidationError, ResourceLimitError) as exc:
        return type(exc), str(exc), getattr(exc, "field", None)


def pair_fraction(value, where):
    p, q = birkhoff._to_pair(value, where)
    x = Fraction(p, q)
    assert (p, q) == (x.numerator, x.denominator), value  # lowest terms, q > 0
    return x


def long_digits(rng, count):
    return str(rng.randint(1, 9)) + "".join(rng.choice("0123456789") for _ in range(count - 1))


def parser_corpus(rng):
    """Strings around each branch of the pair parser and its fallback:
    signs, whitespace (also around the bar), underscores, Unicode digits,
    zero denominators, decimals and exponents, all at random, then digit
    counts at the ceiling on either side of the bar."""
    corpus = ["+3/6", "-0/5", "1/0", "-3/0", "0/0", " 2/3", "2/3 ", "2 /3", "2/ 3", "1_0/3",
              "1/3_0", "1.5", "-1.5/2", "1e3", "1E-3", "1/2e3", "\u0663/2", "2/\u0663",
              "\u0663", "", "/", "1/", "/2", "+/2", "1//2", "1/2/3", "3/-5", "1/+2", "+-1/2",
              "007/014", "1 2", "\u00b2", "\x1c3", "\u20003", "1__0", "_1", "1_", "inf", "nan",
              "0x10", "\uff13/4"]
    signs = ["", "", "", "+", "-", "-", "--"]
    spaces = ["", "", "", "", "", "", " ", "\t", "\u2000"]
    parts = ["0", "1", "7", "12", "600", "0", "1", "35", "", "1_0", "\u0663", "1.5", "2e1", "-2",
             "0_0"]
    for _ in range(1500):
        text = rng.choice(spaces) + rng.choice(signs) + rng.choice(parts) + rng.choice(spaces)
        if rng.random() < 0.7:
            text += "/" + rng.choice(spaces) + rng.choice(parts) + rng.choice(spaces)
        corpus.append(text)
    for left, right in ((4300, 0), (4301, 0), (4299, 1), (4300, 1), (1, 4299), (1, 4300),
                        (2150, 2150), (2151, 2150), (4300, 4300), (4301, 4301)):
        num = long_digits(rng, left)
        text = num if not right else num + "/" + long_digits(rng, right)
        corpus += [text, "-" + text, "+" + text, " " + text, text.replace("1", "\u0661")]
    return corpus


NON_STRINGS = [True, False, 0, -7, 10**50, 1.5, float("nan"), None, Fraction(3, 6), [1], {}]


class TestPairParser:
    """`_to_pair` reads every entry as the Fraction-per-entry parser did:
    the same value, or the same refusal."""

    def test_corpus_parses_as_fraction_entry_does(self):
        for value in parser_corpus(random.Random(2718)) + NON_STRINGS:
            got = outcome(pair_fraction, value)
            assert got == outcome(fraction_entry, value), repr(value)[:60]
            if isinstance(value, str) and isinstance(got, Fraction):
                assert got == Fraction(value), repr(value)[:60]

    def test_ceiling_does_not_follow_the_int_limit(self):
        """With int()'s own limit lifted, the digit ceiling still refuses
        past 4300 digits, on either side of the bar and across it."""
        rng = random.Random(4301)
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            for left, right, ok in ((4300, 0, True), (4301, 0, False), (4299, 1, True),
                                    (1, 4300, False), (4300, 4300, False)):
                text = long_digits(rng, left) + ("/" + long_digits(rng, right) if right else "")
                for value in (text, "-" + text, text + " "):
                    got = outcome(pair_fraction, value)
                    assert got == outcome(fraction_entry, value)
                    assert isinstance(got, Fraction) if ok else got[0] is ResourceLimitError
        finally:
            sys.set_int_max_str_digits(limit)

    def test_plain_forms_build_no_fraction(self):
        assert birkhoff._plain_pair("+3/6") == (1, 2)
        assert birkhoff._plain_pair("-0/5") == (0, 1)
        assert birkhoff._plain_pair("-12") == (-12, 1)
        assert birkhoff._plain_pair(-12) == (-12, 1)
        for value in (" 2/3", "1/0", "1_0/3", "\u0663/2", "1.5", True, Fraction(1, 2), None):
            assert birkhoff._plain_pair(value) is None

    def test_matrices_parse_as_fraction_entries_do(self):
        """Whole matrices, so integer rows take the one-pass read: the same
        entries, or the first refusal in row order."""
        rng = random.Random(6174)
        pool = ["0", "1", "-2", "+3", " 4", "5 ", "1_0", "007", "\u0663", "\x1c3", "3/6", "-0/5",
                "1.5", 2, 0, "1/0", "x", "", None, True, "1" * 4300, "-" + "1" * 4301]
        weights = [12, 12, 4, 4, 2, 2, 2, 2, 2, 1, 4, 2, 2, 4, 4, 1, 1, 1, 1, 1, 1, 1]
        for _ in range(400):
            n = rng.randint(0, 4)
            rows = [rng.choices(pool, weights, k=n) for _ in range(n)]
            try:
                expected = [[fraction_entry(x, f"entries[{i}][{j}]") for j, x in enumerate(row)]
                            for i, row in enumerate(rows)]
            except (ValidationError, ResourceLimitError) as exc:
                with pytest.raises(type(exc), match=re.escape(str(exc))):
                    M(rows)
                continue
            m = M(rows)
            assert m.entries == tuple(map(tuple, expected)) and m == M(expected)


class TestCanonicalForm:
    def test_equal_matrices_hold_equal_rows(self):
        a, b = M([["2/4"]]), M([[Fraction(1, 2)]])
        assert a == b and hash(a) == hash(b)
        assert (a.rows, a.dens) == (((1,),), (2,))
        assert M([["1/2", "1/3"], ["1/6", "0"]]).rows == ((3, 2), (1, 0))
        assert M([["1/2", "1/3"], ["1/6", "0"]]).dens == (6, 6)
        assert M([["1", "0"], ["0", "1"]]) != M([["1", "0"], ["0", "1/2"]])

    def test_entries_are_fractions(self):
        m = M([["2/4", 3], ["-0/5", "1e-2"]])
        assert m.entries == ((Fraction(1, 2), Fraction(3)), (Fraction(0), Fraction(1, 100)))
        assert all(type(x) is Fraction for row in m.entries for x in row)

    def test_text_forms(self):
        m = M([["2/4", "-0/5"], ["3", "1_0/4"]])
        assert m.to_json() == {"n": 2, "entries": [["1/2", "0"], ["3", "5/2"]]}
        assert repr(m) == "RationalMatrix([['1/2', '0'], ['3', '5/2']])"
        assert M([]).to_json() == {"n": 0, "entries": []} and repr(M([])) == "RationalMatrix([])"
        zero = M([["0", "-0/3"], [0, "0.0"]])
        assert zero.to_json() == {"n": 2, "entries": [["0", "0"], ["0", "0"]]}
        assert repr(zero) == "RationalMatrix([['0', '0'], ['0', '0']])"
        assert (M([]).rows, M([]).dens, zero.rows, zero.dens) == ((), (), ((0, 0), (0, 0)), (1, 1))


class TestOneReader:
    def test_entries_are_parsed_only_by_the_matrix(self):
        """`RationalMatrix._parsed` and `_row_pairs` are named nowhere in the
        package outside `RationalMatrix`, so every matrix reaches the
        kernels in the one stored form and no second reader can come back."""
        readers = {"_parsed", "_row_pairs"}
        named = []
        for info in pkgutil.iter_modules(transversal.__path__):
            tree = ast.parse(inspect.getsource(importlib.import_module(f"transversal.{info.name}")))
            inside = set()
            for node in tree.body:
                if isinstance(node, ast.ClassDef) and node.name == "RationalMatrix":
                    inside = {id(n) for n in ast.walk(node)}
            named += [(info.name, id(n) in inside) for n in ast.walk(tree)
                      if isinstance(n, ast.Name) and n.id in readers
                      or isinstance(n, ast.Attribute) and n.attr in readers]
        assert named and set(named) == {("birkhoff", True)}


class TestDoublyStochastic:
    def test_identity(self):
        assert birkhoff.is_doubly_stochastic(identity_matrix(3)) == (True, None)

    def test_uniform(self):
        assert birkhoff.is_doubly_stochastic(uniform_matrix(3)) == (True, None)

    def test_bad_column(self):
        ok, reason = birkhoff.is_doubly_stochastic(M([["1/2", "1/2"], ["1", "0"]]))
        assert not ok
        assert "column 0" in reason

    def test_negative_entry(self):
        ok, reason = birkhoff.is_doubly_stochastic(M([["-1", "2"], ["2", "-1"]]))
        assert not ok and "negative" in reason

    def test_reasons_match_fraction_sums(self):
        """The integer sums over the common denominator give the Fraction
        check's verdict and reason, word for word, on doubly stochastic
        matrices and on ones with an entry moved, negated or scaled; the
        decomposition refuses with the same reason."""
        rng = random.Random(3131)
        reasons = set()
        for _ in range(300):
            n = rng.randint(1, 6)
            rows = [list(row) for row in random_doubly_stochastic(rng, n).entries]
            fault = rng.choice(("none", "move", "negate", "scale"))
            i, j = rng.randrange(n), rng.randrange(n)
            if fault == "move":
                delta = Fraction(rng.randint(1, 9), rng.choice((2, 3, 7, 10)))
                rows[i][j] += delta
                rows[rng.randrange(n)][rng.randrange(n)] -= delta
            elif fault == "negate":
                rows[i][j] = -rows[i][j] or Fraction(-1, 5)
            elif fault == "scale":
                rows[i] = [x * Fraction(rng.randint(1, 5), rng.randint(1, 5)) for x in rows[i]]
            m = M(rows)
            expected = fraction_is_doubly_stochastic(m)
            assert birkhoff.is_doubly_stochastic(m) == expected, rows
            if expected[0]:
                assert decomposition_matrix(birkhoff.birkhoff_decompose(m)[1], n) == m
            else:
                reasons.add(expected[1].split()[0])
                with pytest.raises(ValidationError, match=re.escape(expected[1])):
                    birkhoff.birkhoff_decompose(m)
        assert reasons == {"entry", "row", "column"}, reasons


class TestDecomposition:
    def test_identity(self):
        assert birkhoff.birkhoff_decompose(identity_matrix(3)) == (
            "found", {"terms": [{"coefficient": "1", "permutation": [0, 1, 2]}], "term_bound": 1},
            "1 terms")

    def test_two_by_two_half(self):
        dec = birkhoff.birkhoff_decompose(M([["1/2", "1/2"], ["1/2", "1/2"]]))[1]
        assert len(dec["terms"]) == 2
        assert all(c == Fraction(1, 2) for c, _ in decomposition_terms(dec))

    def test_banded_three(self):
        m = M([["2/3", "1/3", "0"], ["1/3", "1/3", "1/3"], ["0", "1/3", "2/3"]])
        dec = birkhoff.birkhoff_decompose(m)[1]
        assert len(dec["terms"]) <= 7 - 3 + 1 == dec["term_bound"]
        assert coefficient_sum(dec) == 1
        assert decomposition_matrix(dec, 3) == m

    def test_rejects_non_stochastic(self):
        with pytest.raises(ValidationError):
            birkhoff.birkhoff_decompose(M([["1", "1"], ["0", "0"]]))

    def test_random_matrices_reconstruct(self):
        rng = random.Random(424242)
        for _ in range(60):
            n = rng.randint(1, 5)
            m = random_doubly_stochastic(rng, n)
            nnz = sum(1 for row in m.entries for x in row if x)
            dec = birkhoff.birkhoff_decompose(m)[1]
            assert coefficient_sum(dec) == 1
            assert all(c > 0 for c, _ in decomposition_terms(dec))
            assert decomposition_matrix(dec, n) == m
            assert len(dec["terms"]) <= nnz - n + 1


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
        terms = birkhoff.birkhoff_decompose(m)[1]["terms"]
        cert = {"terms": tampered(rng, terms, n), "term_bound": birkhoff.term_bound(m)}
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
            terms = decomposition_terms(birkhoff.birkhoff_decompose(m)[1])
            assert terms == fraction_birkhoff(m.entries)
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
            terms = decomposition_terms(birkhoff.birkhoff_decompose(m)[1])
            assert terms == fraction_birkhoff(m.entries)

    def test_sixteen(self):
        m = random_doubly_stochastic(random.Random(1616), 16, 40)
        terms = decomposition_terms(birkhoff.birkhoff_decompose(m)[1])
        assert terms == fraction_birkhoff(m.entries)


class TestPermanent:
    def test_all_ones(self):
        assert birkhoff.permanent(M([[1, 1, 1]] * 3)) == 6

    def test_identity(self):
        for n in range(1, 7):
            assert birkhoff.permanent(identity_matrix(n)) == 1

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

    def test_rescaled_rows(self):
        # each row is scaled by the lcm of its denominators, exactly
        rows = [[Fraction(1, 6), Fraction(-3, 4)], [Fraction(10**30, 7), Fraction(2)]]
        assert birkhoff.permanent(M(rows)) == brute_permanent(rows)

    def test_kernel_gets_the_rows_rescaled_by_their_denominators(self, monkeypatch):
        """Row i reaches the kernel as row i times the least common
        denominator of its entries, and that denominator divides the answer."""
        seen = []
        monkeypatch.setattr(birkhoff, "_permanent_rows", lambda rows: seen.append(rows) or 1)
        rng = random.Random(5050)
        for _ in range(100):
            n = rng.randint(0, 5)
            rows = [[Fraction(rng.choice((0, 0, 1, -3, 4)), rng.choice((1, 2, 6, 9, 35)))
                     for _ in range(n)] for _ in range(n)]
            got = birkhoff.permanent(M(rows))
            scales = [lcm(*(x.denominator for x in row)) for row in rows]
            assert seen.pop() == [[int(x * d) for x in row] for row, d in zip(rows, scales)]
            assert got == Fraction(1, prod(scales))

    def test_file_rows_match_the_matrix_rows(self, monkeypatch):
        """`file_permanent` puts each row over its own denominator with no
        common one: the kernel gets the rows `permanent` hands it, and the
        answer is the same, on every entry form.  A ragged row is refused
        with the same field."""
        seen = []
        kernel = birkhoff._permanent_rows
        monkeypatch.setattr(birkhoff, "_permanent_rows",
                            lambda rows: seen.append(rows) or kernel(rows))
        rng = random.Random(6060)
        forms = (0, 3, -2, "7", "-4/6", "0/5", "1/" + "9" * 40, "2.5", " 1/3", Fraction(5, 9))
        for _ in range(200):
            n = rng.randint(0, 5)
            entries = [[rng.choice(forms) for _ in range(n)] for _ in range(n)]
            expected = birkhoff.permanent(M(entries))
            assert birkhoff.file_permanent({"entries": entries}) == expected
            assert seen[-1] == seen[-2]
        with pytest.raises(ValidationError) as info:
            birkhoff.file_permanent({"entries": [["1", "2"], ["3"]]})
        assert info.value.field == "entries[1]"

    def test_one_fraction_per_permanent(self, monkeypatch):
        """Parsing a 19-by-19 matrix of "p/q" strings and taking its
        permanent builds one Fraction: the answer."""
        built = []

        class Counted(Fraction):
            def __new__(cls, *args, **kwargs):
                built.append(args)
                return super().__new__(cls, *args, **kwargs)

        rng = random.Random(1919)
        blocks, cols = [range(0, 6), range(6, 12), range(12, 19)], list(range(19))
        rng.shuffle(cols)
        block_of = {j: b for b, block in enumerate(blocks) for j in block}
        entries = [[f"{rng.randint(1, 9)}/{rng.randint(1, 6)}"
                    if block_of[i] == block_of[cols[j]] and rng.random() < 0.8 else "0/5"
                    for j in range(19)] for i in range(19)]
        expected = birkhoff.permanent(M(entries))
        monkeypatch.setattr(birkhoff, "Fraction", Counted)
        assert birkhoff.permanent(M(entries)) == expected
        assert len(built) == 1

    def test_ceiling(self):
        with pytest.raises(ResourceLimitError):
            birkhoff.permanent(identity_matrix(21))
        with pytest.raises(ResourceLimitError):
            birkhoff.permanent(identity_matrix(8), ceiling=7)
        assert birkhoff.permanent(identity_matrix(8), ceiling=8) == 1


class TestBounds:
    def test_vdw_values(self):
        assert birkhoff.vdw_bound(1) == 1
        assert birkhoff.vdw_bound(3) == Fraction(6, 27)

    def test_vdw_uniform_equality(self):
        for n in range(1, 6):
            assert birkhoff.permanent(uniform_matrix(n)) == birkhoff.vdw_bound(n)

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
