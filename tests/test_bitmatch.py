import ast
import importlib
import inspect
import pkgutil
import random
from fractions import Fraction

from oracles import bfs_max_matching, brute_lex_least, probe_lex_least, rematch_lex_least
import transversal
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


def sparse_masks(rng, n_rows, n_cols, degree):
    """Rows of 0..degree random columns each, about one in ten empty, with a
    few rows crowded into a small pool so that the greedy pass leaves work
    for the phases."""
    pool = rng.sample(range(n_cols), min(n_cols, rng.randint(1, 8)))
    masks = []
    for _ in range(n_rows):
        source = pool if rng.random() < 0.1 else range(n_cols)
        k = 0 if rng.random() < 0.1 else rng.randint(1, min(degree, len(source)))
        masks.append(sum(1 << c for c in rng.sample(source, k)))
    return masks


def draw_rows(rng):
    """(shape, row masks, n_cols): wide and sparse, wide and dense, or
    narrow, each tall, square or wide in its row count."""
    shape = rng.choice(("wide-sparse", "wide-dense", "narrow-sparse", "narrow-dense"))
    if shape.startswith("wide"):
        n_cols = rng.randint(200, 3000) if shape == "wide-sparse" else rng.randint(256, 400)
    else:
        n_cols = rng.randint(1, 40)
    n_rows = round(n_cols * rng.choice((0.1, 0.5, 1, 1.3)))
    if shape.startswith("wide"):
        n_rows = min(n_rows, 600 if shape == "wide-sparse" else 60)
    if shape.endswith("sparse"):
        masks = sparse_masks(rng, n_rows, n_cols, rng.choice((1, 2, 3, 6)))
    else:
        masks = random_masks(rng, n_rows, n_cols, rng.choice((0.1, 0.3, 0.8)))
    return shape, masks, n_cols


class TestRowForms:
    def test_forms_agree(self):
        """The mask and list forms give the same matching from every start
        and the same reach, of the size `bfs_max_matching` finds."""
        rng = random.Random(6174)
        sides = set()
        for _ in range(120):
            shape, masks, n_cols = draw_rows(rng)
            cols = [list(_bitmatch.bits_of(m)) for m in masks]
            lists = _bitmatch.column_lists(masks, n_cols) is not None
            kinds = [shape, "tall" if len(masks) > n_cols else "wide" if len(masks) < n_cols
                     else "square"] + ["empty-row"] * (0 in masks)
            sides.update((kind, lists) for kind in kinds)
            expected, _ = bfs_max_matching(masks, n_cols)
            starts = [None, *random_starts(rng, masks, n_cols).values()]
            for start in starts:
                got = _bitmatch._match_masks(masks, n_cols, start)
                assert _bitmatch._match_lists(cols, n_cols, start) == got, (shape, start)
                assert _bitmatch.max_matching(masks, n_cols, start) == got
                assert _bitmatch.max_matching(masks, n_cols, start, cols) == got
                match_row, match_col = got
                check_matching(masks, n_cols, match_row, match_col)
                assert match_row.count(-1) == expected.count(-1), shape
                free = [r for r, c in enumerate(match_row) if c == _bitmatch.UNMATCHED]
                reach = _bitmatch.alternating_reachable(masks, *got, free)
                assert _bitmatch._reach_lists(cols, match_col, free) == reach
                assert _bitmatch._reach_masks(masks, match_col, free) == reach
                assert _bitmatch.alternating_reachable(masks, *got, free, cols) == reach
        # Every row-count shape, rows with empty ones, and sparse rows over
        # 200 to 3000 columns, on both sides of the rule; narrow or dense
        # rows on the mask side only.
        for kind in ("tall", "square", "wide", "empty-row", "wide-sparse"):
            assert {(kind, False), (kind, True)} <= sides, kind
        for shape in ("wide-dense", "narrow-sparse", "narrow-dense"):
            assert (shape, False) in sides and (shape, True) not in sides, shape

    def test_selection_rule(self):
        width, degree = _bitmatch.LIST_MIN_COLS, _bitmatch.LIST_MAX_DEGREE
        at_most = [(1 << degree) - 1] * 10  # `degree` columns a row
        assert _bitmatch.column_lists(at_most, width) == [list(range(degree))] * 10
        assert _bitmatch.column_lists(at_most, width - 1) is None
        assert _bitmatch.column_lists(at_most[:9] + [(1 << (degree + 1)) - 1], width) is None
        cols = [tuple(range(degree))] * 10
        assert _bitmatch.column_lists(at_most, width, cols) is cols
        assert _bitmatch.column_lists([], width) is None

    def test_masks_without_lists(self, monkeypatch):
        """A caller that hands over no column lists stays on the masks, even
        on rows the rule puts on lists."""
        masks = [0b11 << (2 * i) for i in range(200)] + [1, 1, 1]  # 400 columns
        assert _bitmatch.column_lists(masks, 400) is not None
        monkeypatch.setattr(_bitmatch, "_match_lists", None)
        monkeypatch.setattr(_bitmatch, "_reach_lists", None)
        match_row, match_col = _bitmatch.max_matching(masks, 400)
        free = [r for r, c in enumerate(match_row) if c == _bitmatch.UNMATCHED]
        assert len(free) == 2
        rows, cols = _bitmatch.alternating_reachable(masks, match_row, match_col, free)
        assert rows == {200, 201, 202} and cols == {0}

    def test_chain_runs_on_lists(self, monkeypatch):
        """The 1500-step chain: set i holds elements i and i + 1, and a last
        set holds element 0, so the final augmenting path runs through the
        whole chain, on the list path with no interpreter stack."""
        n = 1500
        family = core.SetFamily(range(n + 1), [[i, i + 1] for i in range(n)] + [[0]])
        monkeypatch.setattr(_bitmatch, "_match_masks", None)
        assert core.hall_check(family).reps == tuple(range(1, n + 1)) + (0,)
        report = core.partial_sdr(family)
        assert report.defect == 0 and len(report.partial) == n + 1


# The backtrackers that still recurse, each to a depth that only a size
# ceiling bounds.  Making one iterative must take it off this list.
RECURSIVE = {
    "core.array_sdr.descend",
    "latin.count_latin_squares.fill",
    "hypersdr.find_hyper_sdr.descend",
    "hypersdr._maximal_matchings.descend",
    "hypersdr._pinnable.descend",
}


def self_calls(source, prefix):
    """Qualified names (under `prefix`) of the functions in `source` that
    call themselves by name, or as a method through ``self`` or ``cls``."""
    found = set()

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}.{child.name}")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for call in ast.walk(child):
                    if not isinstance(call, ast.Call):
                        continue
                    func = call.func
                    if isinstance(func, ast.Name) and func.id == child.name or (
                        isinstance(func, ast.Attribute) and func.attr == child.name
                        and isinstance(func.value, ast.Name) and func.value.id in ("self", "cls")
                    ):
                        found.add(f"{prefix}.{child.name}")
                visit(child, f"{prefix}.{child.name}")
            else:
                visit(child, prefix)

    visit(ast.parse(source), prefix)
    return found


def test_no_recursion_in_the_package():
    """Outside the listed backtrackers no function of the package calls
    itself, so no input size can exhaust the interpreter stack there: the
    matching engine in both row forms, the flow engine, the permanent kernel
    and the Rado search included."""
    names = [info.name for info in pkgutil.iter_modules(transversal.__path__)]
    assert {"_bitmatch", "core", "graphs", "matroids", "cli"} <= set(names)
    found = set()
    for name in names:
        module = importlib.import_module(f"transversal.{name}")
        found |= self_calls(inspect.getsource(module), name)
    assert found == RECURSIVE


def assert_no_self_call(obj):
    assert self_calls(inspect.getsource(obj), obj.__name__) == set()


def test_no_recursion_in_bitmatch():
    """No function in the engine calls itself, in either row form, so no
    input size can exhaust the interpreter stack."""
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


def test_self_calls_sees_closures_and_methods():
    source = (
        "def outer():\n"
        "    def inner(k):\n"
        "        return inner(k - 1) if k else 0\n"
        "    return inner(3)\n"
        "class Walker:\n"
        "    def walk(self, k):\n"
        "        return self.walk(k - 1) if k else 0\n"
        "    def step(self, other):\n"
        "        return other.step(self) or outer()\n"
    )
    assert self_calls(source, "m") == {"m.outer.inner", "m.Walker.walk"}


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
