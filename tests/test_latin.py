import random
import time
from fractions import Fraction
from itertools import permutations

import pytest

from oracles import count_latin_squares_by_rows, is_symmetric_bibd
from transversal import latin
from transversal.errors import AlreadyCompleteError, ResourceLimitError, ValidationError

R = latin.LatinRectangle


def all_rectangles(m, n):
    """Every m-by-n Latin rectangle, by direct row enumeration."""
    perms = [tuple(x + 1 for x in p) for p in permutations(range(n))]
    out = []

    def descend(rows):
        if len(rows) == m:
            out.append(R(n, rows))
            return
        for p in perms:
            if all(p[c] != prior[c] for prior in rows for c in range(n)):
                descend(rows + [p])

    descend([])
    return out


class TestRectangle:
    def test_row_repeat_rejected(self):
        with pytest.raises(ValidationError):
            R(2, [[1, 1]])

    def test_column_repeat_rejected(self):
        with pytest.raises(ValidationError):
            R(2, [[1, 2], [1, 2]])

    def test_symbol_range_enforced(self):
        with pytest.raises(ValidationError):
            R(2, [[0, 1]])

    def test_too_many_rows(self):
        with pytest.raises(ValidationError):
            R(1, [[1], [1]])

    def test_alphabet_json(self):
        rect = R.from_json({"n": 3, "alphabet": ["x", "y", "z"], "rows": [["y", "z", "x"]]})
        assert rect.rows == ((2, 3, 1),)


class TestExtendRow:
    def test_forced_row(self):
        rect = latin.extend_row(R(3, [[1, 2, 3], [2, 3, 1]]))
        assert rect.rows[-1] == (3, 1, 2)

    def test_one_row_start(self):
        rect = latin.extend_row(R(3, [[1, 2, 3]]))
        assert rect.m == 2
        # brute force: exactly two candidate rows exist
        candidates = [
            p
            for p in permutations((1, 2, 3))
            if all(p[c] != (1, 2, 3)[c] for c in range(3))
        ]
        assert len(candidates) == 2
        assert rect.rows[-1] in candidates

    def test_empty_rectangle(self):
        rect = latin.extend_row(R(4, []))
        assert rect.rows == ((1, 2, 3, 4),)

    def test_square_rejected(self):
        with pytest.raises(AlreadyCompleteError):
            latin.extend_row(R(1, [[1]]))

    def test_never_fails_small(self):
        for n in range(1, 5):
            for m in range(n):
                for rect in all_rectangles(m, n):
                    extended = latin.extend_row(rect)
                    assert extended.m == m + 1  # the new row is checked
                    assert extended._col_masks == R(n, extended.rows)._col_masks

    def test_checks_only_the_new_row(self, monkeypatch):
        """Extending m rows of width n checks the new row against the kept
        column masks: O(n) steps, not the O(nm) of checking the rectangle
        again, which took about 0.4 s here at n = 1000."""
        n = 1000
        rect = R(n, [[(i + j) % n + 1 for j in range(n)] for i in range(n - 1)])
        checked, add_row = [], latin._add_row
        monkeypatch.setattr(latin, "_add_row",
                            lambda masks, r, row: checked.append(r) or add_row(masks, r, row))
        start = time.perf_counter()
        square = latin.extend_row(rect)
        assert time.perf_counter() - start < 0.2
        assert checked == [n - 1] and square.is_square
        assert square.rows == (*rect.rows, tuple((n - 1 + j) % n + 1 for j in range(n)))
        assert square.column_deficiencies() == [0] * n and rect.m == n - 1

    def test_bad_new_row_refused(self):
        rect = R(3, [[1, 2, 3]])
        with pytest.raises(ValidationError, match="column 0 repeats symbol 1") as info:
            rect._with_row((1, 3, 2))
        assert info.value.field == "rows[1]" and rect.m == 1


class TestComplete:
    def test_forced(self):
        square = latin.complete(R(3, [[1, 2, 3], [2, 3, 1]]))
        assert square.rows == ((1, 2, 3), (2, 3, 1), (3, 1, 2))

    def test_empty_gives_lex_least(self):
        square = latin.complete(R(3, []))
        assert square.rows == ((1, 2, 3), (2, 3, 1), (3, 1, 2))

    def test_equals_row_by_row_and_validates_once(self, monkeypatch):
        rng = random.Random(12)
        row = list(range(1, 13))
        rng.shuffle(row)
        rect = R(12, [row])
        stepwise = rect
        while not stepwise.is_square:
            stepwise = latin.extend_row(stepwise)
        built = []

        class Counted(R):
            __slots__ = ()

            def __init__(self, n, rows):
                built.append(len(rows))
                super().__init__(n, rows)

        monkeypatch.setattr(latin, "LatinRectangle", Counted)
        square = latin.complete(rect)
        assert square.rows == stepwise.rows and built == [12]

    def test_work_over_the_budget_refused_before_solving(self):
        """(n - m) * n^2 past the budget is refused at once; the one-row
        rectangles of the benchmark (n <= 45) are far below it."""
        start = time.perf_counter()
        with pytest.raises(ResourceLimitError) as info:
            latin.complete(R(600, [range(1, 601)]))
        assert time.perf_counter() - start < 1
        assert str(info.value) == (f"completing 599 rows of width 600 is {599 * 600**2} units of"
                                   f" work, over the budget of {latin.COMPLETION_BUDGET}")
        widest = max(n for n in range(1, 1000) if (n - 1) * n * n <= latin.COMPLETION_BUDGET)
        with pytest.raises(ResourceLimitError):
            latin.complete(R(widest + 1, [range(1, widest + 2)]))
        assert latin.complete(R(45, [range(1, 46)])).is_square

    def test_square_is_returned(self):
        square = latin.complete(R(3, [[1, 2, 3], [2, 3, 1], [3, 1, 2]]))
        assert latin.complete(square) is square

    def test_all_three_by_four(self):
        for rect in all_rectangles(3, 4):
            square = latin.complete(rect)
            assert square.is_square
            assert square.rows[:3] == rect.rows


def rebuilt_verdict(rect, cert, m):
    """The check by rebuilding the whole certificate: a Latin rectangle in
    the input format, of `rect`'s width, with `m` rows, `rect`'s first."""
    if cert.get("n") != rect.n:
        return False
    try:
        grown = R.from_json(cert)
    except ValidationError:
        return False
    return grown.m == m and grown.rows[:rect.m] == rect.rows


class TestGrownCheck:
    """`verify_extension` and `verify_completion` compare the width, the
    row count and the first rows, then check only the rows the certificate
    adds, on a copy of the input's column masks."""

    CHECKS = [("latin-extend", latin.verify_extension, lambda rect: rect.m + 1),
              ("latin-complete", latin.verify_completion, lambda rect: rect.n)]
    GROW = {"latin-extend": latin.extend_row, "latin-complete": latin.complete}

    @pytest.mark.parametrize("name, check, m", CHECKS)
    def test_add_row_runs_once_per_new_row(self, monkeypatch, name, check, m):
        n = 300
        rect = R(n, [[(i + j) % n + 1 for j in range(n)] for i in range(n - 3)])
        payload = self.GROW[name](rect).to_json()
        checked, add_row = [], latin._add_row
        monkeypatch.setattr(latin, "_add_row",
                            lambda masks, r, row: checked.append(r) or add_row(masks, r, row))
        assert check(rect, payload) == (True, None)
        assert checked == list(range(rect.m, m(rect)))
        assert rect._col_masks == R(n, rect.rows)._col_masks

    @pytest.mark.parametrize("name, check, m", CHECKS)
    def test_forgeries_refused(self, name, check, m):
        rect = R(4, [[1, 2, 3, 4], [2, 1, 4, 3]])
        payload = self.GROW[name](rect).to_json()
        rows = payload["rows"]
        column_repeat = {**payload, "rows": [*rows[:-1], rows[0]]}
        swapped = {**payload, "rows": [rows[1], rows[0], *rows[2:]]}  # still Latin
        for forged in (column_repeat, swapped, {**payload, "n": 5}, {**payload, "n": 4.0},
                       {**payload, "rows": [*rows, rows[-1]]}, {**payload, "rows": rows[:-1]},
                       {**payload, "rows": [[1.0, 2, 3, 4], *rows[1:]]}):
            try:
                verdict = check(rect, forged)[0]
            except ValidationError:
                verdict = False
            assert verdict is False, forged
        with pytest.raises(ValidationError, match="column 0 repeats symbol 1"):
            check(rect, column_repeat)

    @pytest.mark.parametrize("name, check, m", CHECKS)
    def test_same_verdicts_as_rebuilding_the_certificate(self, name, check, m):
        """On random edits of valid certificates, some with an alphabet, the
        check accepts and refuses just what rebuilding the whole
        certificate does."""
        rng = random.Random(314)
        verdicts = set()
        for trial in range(400):
            n = rng.randint(1, 5)
            rect = R(n, [rng.sample(range(1, n + 1), n)] if n > 1 else [])
            cert = self.GROW[name](rect).to_json()
            pool = [0, 1, 2, n, n + 1, True, 1.0, "a", None, [1]]
            if trial % 4 == 0:
                letters = rng.sample("bcdefgh", n)
                cert["alphabet"] = letters
                cert["rows"] = [[letters[x - 1] for x in row] for row in cert["rows"]]
                pool += letters
            rows, edit = cert["rows"], rng.randrange(5)
            if edit == 1:
                rng.choice(rows)[rng.randrange(n)] = rng.choice(pool)
            elif edit == 2:
                cert["n"] = rng.choice([n - 1, n + 1, float(n), True, str(n)])
            elif edit == 3:
                rows.insert(rng.randrange(len(rows)), list(rows[-1]))
            elif edit == 4:
                del rows[rng.randrange(len(rows))]
            try:
                verdict = check(rect, cert)[0]
            except ValidationError:
                verdict = False
            assert verdict == rebuilt_verdict(rect, cert, m(rect)), (rect.rows, cert)
            verdicts.add(verdict)
        assert verdicts == {True, False}


class TestCountExtensions:
    def test_forced(self):
        assert latin.count_extensions(R(3, [[1, 2, 3], [2, 3, 1]])) == 1

    def test_derangements(self):
        assert latin.count_extensions(R(3, [[1, 2, 3]])) == 2

    def test_empty(self):
        assert latin.count_extensions(R(3, [])) == 6

    def test_matches_row_enumeration(self):
        for n in range(1, 5):
            for m in range(n):
                for rect in all_rectangles(m, n):
                    brute = sum(
                        1
                        for p in permutations(range(1, n + 1))
                        if all(p[c] != row[c] for row in rect.rows for c in range(n))
                    )
                    assert latin.count_extensions(rect) == brute

    def test_square_rejected(self):
        with pytest.raises(AlreadyCompleteError):
            latin.count_extensions(R(1, [[1]]))

    def test_ceiling(self):
        with pytest.raises(ResourceLimitError):
            latin.count_extensions(R(9, []))

    def test_work_guard_above_a_raised_ceiling(self):
        # The empty width-28 rectangle is a 28-by-28 all-ones permanent:
        # 2^27 column sets, refused by the kernel before any is walked.
        start = time.perf_counter()
        with pytest.raises(ResourceLimitError) as info:
            latin.count_extensions(R(28, []), ceiling=30)
        assert time.perf_counter() - start < 1
        assert str(1 << 27) in str(info.value)


class TestCountSquares:
    def test_tiny(self):
        assert latin.count_latin_squares(1) == 1
        assert latin.count_latin_squares(2) == 2

    def test_three(self):
        assert latin.count_latin_squares(3) == 12
        assert count_latin_squares_by_rows(3) == 12

    def test_four(self):
        assert latin.count_latin_squares(4) == 576
        assert count_latin_squares_by_rows(4) == 576

    def test_six(self):
        # 6!5! times the 9408 reduced squares (McKay & Wanless 2005)
        assert latin.count_latin_squares(6) == 812_851_200

    def test_ceiling(self):
        with pytest.raises(ResourceLimitError):
            latin.count_latin_squares(7)
        with pytest.raises(ValidationError):
            latin.count_latin_squares(0)


class TestLowerBound:
    def test_values(self):
        assert latin.latin_lower_bound(1) == 1
        assert latin.latin_lower_bound(3) == Fraction(46656, 19683)

    def test_counts_beat_bound(self):
        for n in range(1, 5):
            assert latin.count_latin_squares(n) >= latin.latin_lower_bound(n)


FANO = latin.BlockDesign(
    range(1, 8),
    [[1, 2, 4], [2, 3, 5], [3, 4, 6], [4, 5, 7], [5, 6, 1], [6, 7, 2], [7, 1, 3]],
)


class TestBlockDesign:
    def test_fano_is_symmetric_bibd(self):
        assert FANO.v == FANO.b == 7
        assert FANO.block_size == 3
        assert FANO.replication == 3
        assert is_symmetric_bibd(FANO)

    def test_cyclic_pairs_not_bibd(self):
        d = latin.BlockDesign([1, 2, 3, 4], [[1, 2], [2, 3], [3, 4], [4, 1]])
        assert d.replication == 2
        assert not is_symmetric_bibd(d)

    def test_unknown_point_rejected(self):
        with pytest.raises(ValidationError):
            latin.BlockDesign([1], [[2]])

    def test_replication_counts_blocks_through_each_point(self):
        """Random designs, some over 256 blocks, some with one point left
        out of a block or put into one more, against a count by hand."""
        rng = random.Random(71)
        kinds = {"equireplicate": 0, "not": 0}
        for _ in range(200):
            v = rng.choice((rng.randint(1, 12), rng.randint(250, 300)))
            base = rng.sample(range(v), rng.randint(1, v))
            blocks = [[(x + s) % v for x in base] for s in range(v)]
            if rng.random() < 0.5:
                blocks[rng.randrange(v)].append(rng.randrange(v))
            d = latin.BlockDesign(list(range(v)), blocks)
            sets = [set(block) for block in blocks]
            counts = {sum(p in block for block in sets) for p in range(v)}
            assert d.replication == (counts.pop() if len(counts) == 1 else None)
            kinds["not" if d.replication is None else "equireplicate"] += 1
        assert min(kinds.values()) >= 30, kinds

    def test_blocks_are_made_on_first_read(self):
        d = latin.BlockDesign(["a", "b", "c"], [["c", "a"], ["b"]])
        assert d._label_blocks is None and d.b == 2 and d._label_blocks is None
        assert d.blocks == (("a", "c"), ("b",)) and d.blocks is d.blocks


class TestYouden:
    def test_trivial(self):
        d = latin.BlockDesign([1, 2, 3], [[1], [2], [3]])
        assert latin.youden_from_design(d) == ((1, 2, 3),)

    def test_fano(self):
        payload = {"array": [list(row) for row in latin.youden_from_design(FANO)]}
        assert len(payload["array"]) == 3
        assert latin.verify_youden(FANO, payload) == (True, None)

    def test_cyclic_equireplicate_non_bibd(self):
        d = latin.BlockDesign([1, 2, 3, 4], [[1, 2], [2, 3], [3, 4], [4, 1]])
        payload = {"array": [list(row) for row in latin.youden_from_design(d)]}
        assert len(payload["array"]) == 2
        assert latin.verify_youden(d, payload) == (True, None)

    def test_empty_design(self):
        """No point and no block: block size and replication are 0, and the
        Youden square is the empty array, which its checker accepts."""
        d = latin.BlockDesign([], [])
        assert (d.block_size, d.replication) == (0, 0)
        assert latin.youden_from_design(d) == ()
        assert latin.verify_youden(d, {"array": []}) == (True, None)
        assert latin.verify_youden(d, {"array": [[]]})[0] is False

    @staticmethod
    def cyclic(v, k):
        """The v shifts mod v of one random k-set of 0..v-1."""
        base = random.Random(v * k).sample(range(v), k)
        return latin.BlockDesign(list(range(v)), [[(b + j) % v for b in base] for j in range(v)])

    @pytest.mark.parametrize("v, k", [(2001, 20), (3001, 40), (5793, 1)])
    def test_work_over_the_budget_refused_before_solving(self, v, k):
        """k * v^2 past the budget is refused before any round: 2001 by 20
        took 4 s and 3001 by 40 took 28 s to solve, and 5793^2 is just over."""
        d = self.cyclic(v, k)
        start = time.perf_counter()
        with pytest.raises(ResourceLimitError) as info:
            latin.youden_from_design(d)
        assert time.perf_counter() - start < 1
        assert str(info.value) == (f"building {k} rows of width {v} is {k * v * v} units of"
                                   f" work, over the budget of {latin.COMPLETION_BUDGET}")

    @pytest.mark.parametrize("v, k", [(1001, 10), (5792, 1)])
    def test_work_within_the_budget_answers(self, v, k):
        """1001 by 10 (10^7 units) still answers, and so does 5792 by 1, the
        widest single round within the budget."""
        assert k * v * v <= latin.COMPLETION_BUDGET
        d = self.cyclic(v, k)
        payload = {"array": [list(row) for row in latin.youden_from_design(d)]}
        assert len(payload["array"]) == k
        assert latin.verify_youden(d, payload) == (True, None)

    def test_rejects_rectangular_design(self):
        d = latin.BlockDesign([1, 2, 3], [[1, 2], [2, 3]])
        with pytest.raises(ValidationError):
            latin.youden_from_design(d)

    def test_rejects_unequal_blocks(self):
        d = latin.BlockDesign([1, 2], [[1, 2], [2]])
        with pytest.raises(ValidationError):
            latin.youden_from_design(d)

    def test_rejects_non_equireplicate(self):
        d = latin.BlockDesign([1, 2, 3], [[1, 2], [2, 3], [2, 1]])
        with pytest.raises(ValidationError):
            latin.youden_from_design(d)
