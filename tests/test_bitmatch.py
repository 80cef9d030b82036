import ast
import inspect
import random
from fractions import Fraction

from oracles import bfs_max_matching, brute_lex_least, probe_lex_least, rematch_lex_least
from transversal import _bitmatch, birkhoff, core, graphs, latin, matroids


def random_masks(rng, n_rows, n_cols, density):
    return [sum(1 << c for c in range(n_cols) if rng.random() < density)
            for _ in range(n_rows)]


def random_doubly_stochastic(rng, n, terms):
    """A weighted sum of `terms` random permutation matrices, normalised."""
    acc = [[0] * n for _ in range(n)]
    total = 0
    for _ in range(terms):
        perm = list(range(n))
        rng.shuffle(perm)
        w = rng.randint(1, 30)
        total += w
        for i in range(n):
            acc[i][perm[i]] += w
    return birkhoff.RationalMatrix([[Fraction(x, total) for x in row] for row in acc])


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

    def both(row_masks, n_cols, *rest):
        got = incremental(row_masks, n_cols, *rest)
        assert got == rematch_lex_least(row_masks, n_cols), (row_masks, n_cols)
        calls.append(len(row_masks))
        return got

    monkeypatch.setattr(_bitmatch, "lex_least_assignment", both)
    return calls


def check_matching(row_masks, n_cols, match_row, match_col):
    assert len(match_row) == len(row_masks) and len(match_col) == n_cols
    for r, c in enumerate(match_row):
        if c != _bitmatch.UNMATCHED:
            assert (row_masks[r] >> c) & 1 and match_col[c] == r
    for c, r in enumerate(match_col):
        if r != _bitmatch.UNMATCHED:
            assert match_row[r] == c


class TestMaxMatching:
    def test_agrees_with_bfs_oracle(self):
        rng = random.Random(4051)
        kinds = {"square": 0, "wide": 0, "tall": 0, "empty-row": 0, "dense": 0, "sparse": 0}
        for _ in range(2500):
            n_rows, n_cols = rng.randint(0, 12), rng.randint(0, 12)
            density = rng.choice((0.05, 0.15, 0.3, 0.6, 0.9))
            masks = random_masks(rng, n_rows, n_cols, density)
            match_row, match_col = _bitmatch.max_matching(masks, n_cols)
            check_matching(masks, n_cols, match_row, match_col)
            expected, _ = bfs_max_matching(masks, n_cols)
            assert match_row.count(-1) == expected.count(-1), (masks, n_cols)
            kinds["square"] += n_rows == n_cols > 0
            kinds["wide"] += 0 < n_rows < n_cols
            kinds["tall"] += n_rows > n_cols
            kinds["empty-row"] += 0 in masks
            kinds["dense"] += density >= 0.6
            kinds["sparse"] += density <= 0.15
        assert all(count >= 100 for count in kinds.values()), kinds

    def test_agrees_on_sparse_large(self):
        rng = random.Random(4052)
        for n_rows, n_cols, degree in ((300, 300, 2), (300, 250, 3), (200, 400, 1)):
            masks = [sum(1 << c for c in rng.sample(range(n_cols), degree))
                     for _ in range(n_rows)]
            match_row, match_col = _bitmatch.max_matching(masks, n_cols)
            check_matching(masks, n_cols, match_row, match_col)
            expected, _ = bfs_max_matching(masks, n_cols)
            assert match_row.count(-1) == expected.count(-1)


def random_starts(rng, masks, n_cols):
    """Partial matchings to start from: empty, a maximum one, and a maximum
    one with random rows dropped."""
    full, _ = _bitmatch.max_matching(masks, n_cols)
    dropped = [_bitmatch.UNMATCHED if rng.random() < 0.4 else c for c in full]
    return {"empty": [_bitmatch.UNMATCHED] * len(masks), "full": full, "dropped": dropped}


class TestWarmStart:
    def test_max_matching_extends_start(self):
        rng = random.Random(1313)
        for _ in range(1500):
            n_rows, n_cols = rng.randint(0, 12), rng.randint(0, 12)
            masks = random_masks(rng, n_rows, n_cols, rng.choice((0.1, 0.3, 0.6, 0.9)))
            expected, _ = bfs_max_matching(masks, n_cols)
            for kind, start in random_starts(rng, masks, n_cols).items():
                kept = list(start)
                match_row, match_col = _bitmatch.max_matching(masks, n_cols, start)
                assert start == kept, "the start is not changed"
                check_matching(masks, n_cols, match_row, match_col)
                assert match_row.count(-1) == expected.count(-1), (kind, masks, n_cols)
                assert all(c != -1 for c, s in zip(match_row, start) if s != -1)
                if kind == "full":
                    assert match_row == start

    def test_lex_least_ignores_start(self):
        rng = random.Random(1314)
        for _ in range(1500):
            n_rows = rng.randint(0, 7)
            n_cols = rng.randint(n_rows, 8) if rng.random() < 0.8 else rng.randint(0, 8)
            masks = random_masks(rng, n_rows, n_cols, rng.choice((0.2, 0.4, 0.6, 0.9)))
            cold = _bitmatch.lex_least_assignment(masks, n_cols)
            assert cold == brute_lex_least(masks, n_cols), (masks, n_cols)
            for start in random_starts(rng, masks, n_cols).values():
                assert _bitmatch.lex_least_assignment(masks, n_cols, start) == cold

    def test_lex_least_ignores_start_large(self):
        rng = random.Random(1315)
        for _ in range(60):
            n_rows = rng.randint(10, 40)
            n_cols = rng.randint(n_rows, n_rows + 5)
            masks = pinned_masks(rng, n_rows, n_cols, rng.choice((0.1, 0.2, 0.5)))
            cold = _bitmatch.lex_least_assignment(masks, n_cols)
            assert cold == probe_lex_least(masks, n_cols), (masks, n_cols)
            for start in random_starts(rng, masks, n_cols).values():
                assert _bitmatch.lex_least_assignment(masks, n_cols, start) == cold


def assert_no_self_call(obj):
    tree = ast.parse(inspect.getsource(obj))
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            called = {
                call.func.id
                for call in ast.walk(node)
                if isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
            }
            assert node.name not in called, f"{node.name} calls itself"


def test_no_recursion_in_bitmatch():
    """No function in the engine calls itself, so no input size can exhaust
    the interpreter stack."""
    assert_no_self_call(_bitmatch)


def test_no_recursion_in_the_permanent_kernel():
    for helper in (core._permanent_rows, core._components, core._sets_walked,
                   core._column_set_sums):
        assert_no_self_call(helper)


def test_no_recursion_in_the_rado_search():
    for helper in (matroids._sir_augmenting, matroids._exchange_path,
                   matroids._alternating_sets, matroids._walk_back):
        assert_no_self_call(helper)


def test_no_recursion_in_graphs():
    """Covers the flow engine, `_net_flows` and `_decompose_paths`."""
    assert_no_self_call(graphs)


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


def refused_rows(row_masks, assignment):
    """The number of rows that did not get their least unused column,
    because its holder could not move in any completion."""
    used = 0
    refused = 0
    for mask, c in zip(row_masks, assignment):
        free = mask & ~used
        refused += free & -free != 1 << c
        used |= 1 << c
    return refused


def pinned_masks(rng, n_rows, n_cols, density):
    """Random masks in which some later rows keep only the least column of
    an earlier row, so that row's least candidate is held by a row that
    cannot move."""
    masks = random_masks(rng, n_rows, n_cols, density)
    for _ in range(rng.randint(1, max(1, n_rows // 3))):
        i = rng.randrange(n_rows)
        if masks[i] and i + 1 < n_rows:
            j = rng.randrange(i + 1, n_rows)
            masks[j] = masks[i] & -masks[i]
    return masks


def agree_on_shapes(rng, trials, max_rows, densities, oracle):
    """Compare the sweep with `oracle` on random wide, square and tall
    masks, half of them with pinned rows; count the kinds drawn."""
    kinds = {"wide": 0, "tall": 0, "infeasible": 0, "refused": 0, "wide-refused": 0}
    for _ in range(trials):
        n_rows = rng.randint(1, max_rows)
        n_cols = rng.choice((rng.randint(n_rows, max_rows + max_rows // 5 + 1),
                             rng.randint(n_rows // 2, n_rows)))
        draw = pinned_masks if rng.random() < 0.5 else random_masks
        masks = draw(rng, n_rows, n_cols, rng.choice(densities))
        got = _bitmatch.lex_least_assignment(masks, n_cols)
        assert got == oracle(masks, n_cols), (masks, n_cols)
        refused = refused_rows(masks, got) if got else 0
        kinds["wide"] += n_rows < n_cols
        kinds["tall"] += n_rows > n_cols
        kinds["infeasible"] += got is None and n_rows <= n_cols
        kinds["refused"] += refused > 0
        kinds["wide-refused"] += refused > 0 and n_rows < n_cols
    return kinds


def test_column_rows_transposes_across_blocks():
    """The table is read 256 rows at a time; shapes on both sides of a block
    boundary, and wide ones, give the transpose of the row masks."""
    rng = random.Random(256)
    for n_rows, n_cols in ((1, 1), (255, 3), (256, 9), (257, 9), (600, 70), (5, 300)):
        masks = random_masks(rng, n_rows, n_cols, 0.3)
        expected = [sum(1 << r for r, mask in enumerate(masks) if (mask >> c) & 1)
                    for c in range(n_cols)]
        assert _bitmatch._column_rows(masks, n_cols) == expected


class TestLexLeastShapes:
    """Random agreement on the shapes the Latin, Youden and Birkhoff callers
    never build: wide ones, whose free columns seed the sweep, tall and
    infeasible ones, and rows whose least candidate is held by a row that
    cannot move."""

    def test_matches_brute_force(self):
        kinds = agree_on_shapes(random.Random(7120), 2000, 7, (0.2, 0.4, 0.7), brute_lex_least)
        assert all(count >= 50 for count in kinds.values()), kinds

    def test_matches_probe_search(self):
        kinds = agree_on_shapes(random.Random(7121), 400, 40, (0.05, 0.1, 0.2, 0.5),
                                probe_lex_least)
        assert all(count >= 20 for count in kinds.values()), kinds

    def test_pinned_holders(self):
        # Row 1 keeps only column 0 and row 3 only column 3, which pins row 2
        # to column 1, so row 0 passes over both to column 2.
        masks = [0b0111, 0b0001, 0b1010, 0b1000]
        assert _bitmatch.lex_least_assignment(masks, 4) == [2, 0, 1, 3]
        assert brute_lex_least(masks, 4) == [2, 0, 1, 3]


def agree_with_probe_search(monkeypatch):
    """Route every lex-least call through the sweep and the probe search;
    count the calls."""
    sweep = _bitmatch.lex_least_assignment
    calls = []

    def both(row_masks, n_cols, *rest):
        got = sweep(row_masks, n_cols, *rest)
        assert got == probe_lex_least(row_masks, n_cols), (row_masks, n_cols)
        calls.append(len(row_masks))
        return got

    monkeypatch.setattr(_bitmatch, "lex_least_assignment", both)
    return calls


class TestAgreesWithProbeSearch:
    def test_latin_complete_60(self, monkeypatch):
        rng = random.Random(60)
        row = list(range(1, 61))
        rng.shuffle(row)
        calls = agree_with_probe_search(monkeypatch)
        square = latin.complete(latin.LatinRectangle(60, [row]))
        assert square.is_square and len(calls) == 59

    def test_youden_paley_43(self, monkeypatch):
        calls = agree_with_probe_search(monkeypatch)
        assert len(latin.youden_from_design(paley_43())) == len(calls) == 21

    def test_birkhoff_24(self, monkeypatch):
        m = random_doubly_stochastic(random.Random(24), 24, 120)
        calls = agree_with_probe_search(monkeypatch)
        decomposition = birkhoff.birkhoff_decompose(m)
        assert len(decomposition) == len(calls) >= 24
        assert decomposition.as_matrix(24) == m


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
        m = random_doubly_stochastic(random.Random(16), 16, 40)
        calls = agree_on_every_call(monkeypatch)
        decomposition = birkhoff.birkhoff_decompose(m)
        assert len(decomposition) == len(calls) >= 1
        assert decomposition.as_matrix(16) == m
