import random
from fractions import Fraction

from oracles import brute_lex_least, rematch_lex_least
from transversal import _bitmatch, birkhoff, latin


def random_masks(rng, n_rows, n_cols, density):
    return [sum(1 << c for c in range(n_cols) if rng.random() < density)
            for _ in range(n_rows)]


def paley_43():
    """The Paley difference set design: translates of the squares mod 43."""
    squares = sorted({x * x % 43 for x in range(1, 43)})
    points = [f"p{k}" for k in range(43)]
    blocks = [[points[(d + s) % 43] for d in squares] for s in range(43)]
    return latin.BlockDesign(points, blocks)


def agree_on_every_call(monkeypatch):
    """Route every lex-least call through both algorithms; count the calls."""
    incremental = _bitmatch.lex_least_assignment
    calls = []

    def both(row_masks, n_cols):
        got = incremental(row_masks, n_cols)
        assert got == rematch_lex_least(row_masks, n_cols), (row_masks, n_cols)
        calls.append(len(row_masks))
        return got

    monkeypatch.setattr(_bitmatch, "lex_least_assignment", both)
    return calls


class TestLexLeast:
    def test_matches_brute_force_random(self):
        rng = random.Random(20260)
        kinds = {"square": 0, "wide": 0, "empty-row": 0, "none": 0, "zero-rows": 0}
        for _ in range(3000):
            n_rows = rng.randint(0, 7)
            n_cols = rng.randint(n_rows, 8) if rng.random() < 0.8 else rng.randint(0, 8)
            masks = random_masks(rng, n_rows, n_cols, rng.choice((0.2, 0.4, 0.6, 0.9)))
            got = _bitmatch.lex_least_assignment(masks, n_cols)
            assert got == brute_lex_least(masks, n_cols), (masks, n_cols)
            kinds["square"] += n_rows == n_cols > 0
            kinds["wide"] += 0 < n_rows < n_cols
            kinds["empty-row"] += 0 in masks
            kinds["none"] += got is None
            kinds["zero-rows"] += n_rows == 0
        assert all(count >= 20 for count in kinds.values()), kinds

    def test_examples(self):
        assert _bitmatch.lex_least_assignment([], 3) == []
        assert _bitmatch.lex_least_assignment([0b1, 0b1], 1) is None
        assert _bitmatch.lex_least_assignment([0b11, 0b01], 2) == [1, 0]
        assert _bitmatch.lex_least_assignment([0b11, 0b11, 0b11], 2) is None
        assert _bitmatch.lex_least_assignment([0b110, 0b011], 3) == [1, 0]

    def test_one_full_matching_per_call(self, monkeypatch):
        engine = _bitmatch.max_matching
        calls = []

        def counted(*args, **kwargs):
            calls.append(len(args[0]))
            return engine(*args, **kwargs)

        monkeypatch.setattr(_bitmatch, "max_matching", counted)
        rng = random.Random(3)
        row = list(range(1, 31))
        rng.shuffle(row)
        masks = latin.LatinRectangle(30, [row]).column_deficiencies()
        assert _bitmatch.lex_least_assignment(masks, 30) == rematch_lex_least(masks, 30)
        calls.clear()
        _bitmatch.lex_least_assignment(masks, 30)
        assert calls == [30]


class TestAgreesWithRematching:
    def test_latin_complete(self, monkeypatch):
        rng = random.Random(30)
        row = list(range(1, 31))
        rng.shuffle(row)
        calls = agree_on_every_call(monkeypatch)
        square = latin.complete(latin.LatinRectangle(30, [row]))
        assert square.is_square and len(calls) == 29

    def test_youden_paley_43(self, monkeypatch):
        calls = agree_on_every_call(monkeypatch)
        rows = latin.youden_from_design(paley_43())
        assert len(rows) == len(calls) == 21

    def test_birkhoff_16(self, monkeypatch):
        rng = random.Random(16)
        acc = [[0] * 16 for _ in range(16)]
        total = 0
        for _ in range(40):
            perm = list(range(16))
            rng.shuffle(perm)
            w = rng.randint(1, 30)
            total += w
            for i in range(16):
                acc[i][perm[i]] += w
        m = birkhoff.RationalMatrix([[Fraction(x, total) for x in row] for row in acc])
        calls = agree_on_every_call(monkeypatch)
        decomposition = birkhoff.birkhoff_decompose(m)
        assert len(decomposition) == len(calls) >= 1
        assert decomposition.as_matrix(16) == m
