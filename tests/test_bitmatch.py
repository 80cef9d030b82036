import ast
import importlib
import inspect
import pathlib
import pkgutil
import random
from fractions import Fraction
from itertools import combinations, product

import pytest

from oracles import (bfs_max_matching, brute_lex_least, decomposition_matrix, probe_lex_least,
                     rematch_lex_least)
import transversal
from transversal import _bitmatch, birkhoff, core, graphs, latin, matroids, posets
from transversal.errors import ResourceLimitError


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
    def test_lex_least_extends_partial_start(self):
        """Every partial start, the empty one, a maximum matching and one
        with rows dropped, is kept as given and leads to the probe search's
        answer, None included when no matching covers the rows."""
        rng = random.Random(1313)
        kinds = {"square": 0, "wide": 0, "tall": 0, "none-from-full-start": 0}
        for _ in range(1500):
            n_rows, n_cols = rng.randint(0, 12), rng.randint(0, 12)
            masks = random_masks(rng, n_rows, n_cols, rng.choice((0.1, 0.3, 0.6, 0.9)))
            expected = probe_lex_least(masks, n_cols)
            for kind, start in random_starts(rng, masks, n_cols).items():
                kept = list(start)
                got = _bitmatch.lex_least_assignment(masks, n_cols, start)
                assert got == expected, (kind, masks, n_cols, start)
                assert start == kept, "the start is not changed"
                kinds["none-from-full-start"] += kind == "full" and got is None and n_rows <= n_cols
            kinds["square"] += n_rows == n_cols > 0
            kinds["wide"] += 0 < n_rows < n_cols
            kinds["tall"] += n_rows > n_cols
        assert all(count >= 50 for count in kinds.values()), kinds

    def test_start_that_cannot_cover_the_rows(self):
        assert _bitmatch.lex_least_assignment([0b1, 0b1], 1, [0, -1]) is None
        assert _bitmatch.lex_least_assignment([0b1, 0b1], 2, [0, -1]) is None
        assert _bitmatch.lex_least_assignment([0b11, 0b01, 0b10], 3, [0, -1, -1]) is None
        assert _bitmatch.lex_least_assignment([0b11, 0b01, 0b110], 3, [0, -1, -1]) == [1, 0, 2]

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
        """The mask and list forms each give a valid matching of the size
        `bfs_max_matching` finds.  The list form starts from Karp-Sipser and
        the mask form from the greedy pass, so the two matchings may differ,
        but the reach from each form's own free rows may not: those are the
        Dulmage-Mendelsohn sets, the same for every maximum matching.  The
        lex-least assignment is the same from every start on these shapes
        too."""
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
            by_masks = _bitmatch._match_masks(masks, n_cols)
            by_lists = _bitmatch._match_lists(cols, n_cols)
            assert _bitmatch.max_matching(masks, n_cols) == by_masks
            assert _bitmatch.max_matching(cols, n_cols) == by_lists
            picked = _bitmatch.column_lists(masks, n_cols) or masks
            assert _bitmatch.max_matching(picked, n_cols) == (by_lists if lists else by_masks)
            reaches = []
            for (match_row, match_col), reach_form, rows in (
                    (by_masks, _bitmatch._reach_masks, masks),
                    (by_lists, _bitmatch._reach_lists, cols)):
                check_matching(masks, n_cols, match_row, match_col)
                assert match_row.count(-1) == expected.count(-1), shape
                free = [r for r, c in enumerate(match_row) if c == _bitmatch.UNMATCHED]
                reach = reach_form(rows, match_col, free)
                assert _bitmatch.alternating_reachable(masks, match_row, match_col) == reach
                assert _bitmatch.alternating_reachable(cols, match_row, match_col) == reach
                reaches.append(reach)
            assert reaches[0] == reaches[1], shape
            cold = _bitmatch.lex_least_assignment(masks, n_cols)
            for start in random_starts(rng, masks, n_cols).values():
                assert _bitmatch.lex_least_assignment(masks, n_cols, start) == cold, shape
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
        assert _bitmatch.column_lists([], width) is None

    def test_masks_without_lists(self, monkeypatch):
        """Rows handed over as masks stay masks, even on rows the rule puts
        on lists."""
        masks = [0b11 << (2 * i) for i in range(200)] + [1, 1, 1]  # 400 columns
        assert _bitmatch.column_lists(masks, 400) is not None
        monkeypatch.setattr(_bitmatch, "_match_lists", None)
        monkeypatch.setattr(_bitmatch, "_reach_lists", None)
        match_row, match_col = _bitmatch.max_matching(masks, 400)
        assert match_row.count(_bitmatch.UNMATCHED) == 2
        rows, cols = _bitmatch.alternating_reachable(masks, match_row, match_col)
        assert rows == {200, 201, 202} and cols == {0}

    def test_one_form_choice_per_solve(self, monkeypatch):
        """Families and bipartite graphs hand the engine the column lists
        they store, `_cols` itself, on narrow and dense rows as on wide and
        sparse ones, and pick no form: `hall_check`, `partial_sdr` with a
        defect, `max_matching` and `konig_cover` make no `column_lists` call.
        `dilworth` makes one, on its order's masks, and the matching and the
        reach both run on the lists it returns."""
        picks, handed = [], []
        column_lists = _bitmatch.column_lists

        def counted(*args):
            picks.append(column_lists(*args))
            return picks[-1]

        def spy(name):
            engine = getattr(_bitmatch, name)

            def spied(rows, *rest):
                handed.append(rows)
                return engine(rows, *rest)
            monkeypatch.setattr(_bitmatch, name, spied)

        monkeypatch.setattr(_bitmatch, "column_lists", counted)
        spy("max_matching")
        spy("alternating_reachable")
        wide = [[2 * i, 2 * i + 1] for i in range(200)] + [[0]] * 3  # 400 elements
        dense = [list(range(6))] * 3 + [[0]] * 3  # 6 elements
        for sets, width in ((wide, 400), (dense, 6)):
            family = core.SetFamily(range(width), sets)
            graph = graphs.BipartiteGraph(range(len(sets)), range(width),
                                          [(i, x) for i, s in enumerate(sets) for x in s])
            for solve, owner, calls in ((core.hall_check, family, 2),
                                        (core.partial_sdr, family, 2),
                                        (graphs.max_matching, graph, 1),
                                        (graphs.konig_cover, graph, 2)):
                handed.clear()
                solve(owner)
                assert not picks, solve.__name__
                assert len(handed) == calls, solve.__name__
                assert all(rows is owner._cols for rows in handed), solve.__name__
            assert core.partial_sdr(family).defect == 2
        poset = posets.Poset(range(300), [(i, i + 150) for i in range(150)])
        handed.clear()
        posets.dilworth(poset)
        assert len(picks) == 1 and picks[0] is not None
        assert len(handed) == 2 and all(rows is picks[0] for rows in handed)

    def test_padding_changes_no_answer(self):
        """Labels that no set or edge uses change no answer: families and
        bipartite graphs match on the same lists whatever the width of their
        ground or part B, so 300 unused labels pick no other form."""
        sets = [[0, 1, 2], [0, 1, 2]]
        edges = [(0, 0), (0, 2), (2, 0), (2, 1), (2, 2)]
        answers = []
        for width in (3, 303):
            family = core.SetFamily(range(width), sets)
            graph = graphs.BipartiteGraph(range(3), range(width), edges)
            answers.append((core.hall_check(family), core.partial_sdr(family),
                            graphs.max_matching(graph), graphs.konig_cover(graph)))
        assert answers[0] == answers[1]

    def test_chain_runs_on_lists(self, monkeypatch):
        """The 1500-step chain: set i holds elements i and i + 1, and a last
        set holds element 0, on the list path.  The last set has one
        element, so the Karp-Sipser start settles the whole chain from it
        and no augmenting path runs; `test_long_augmenting_path` runs one."""
        n = 1500
        family = core.SetFamily(range(n + 1), [[i, i + 1] for i in range(n)] + [[0]])
        monkeypatch.setattr(_bitmatch, "_match_masks", None)
        assert core.hall_check(family).reps == tuple(range(1, n + 1)) + (0,)
        report = core.partial_sdr(family)
        assert report.defect == 0 and len(report.partial) == n + 1

    def test_long_augmenting_path(self):
        """From the greedy start on the chain (row i on column i, the last
        row free), both phase engines run the 1500-step augmenting path to
        the one perfect matching with no interpreter stack."""
        masks, cols, _ = chain_rows(1500)
        for phases, rows in ((_bitmatch._hopcroft_karp, masks),
                             (_bitmatch._hopcroft_karp_lists, cols)):
            match_row = list(range(1500)) + [_bitmatch.UNMATCHED]
            match_col = list(range(1500)) + [_bitmatch.UNMATCHED]
            phases(rows, match_row, match_col)
            assert match_row == list(range(1, 1501)) + [0]
            assert match_col == [1500] + list(range(1500))

    def test_start_settles_forests(self, monkeypatch):
        """A forest with an edge has a leaf, and matching a leaf to its one
        neighbour leaves a forest, so on a forest the Karp-Sipser start
        takes no greedy step and is maximum on its own.  These forests, and
        the chain, match every row, so the list form runs no phase."""
        def no_phase(*args):
            raise AssertionError("Hopcroft-Karp ran")

        monkeypatch.setattr(_bitmatch, "_hopcroft_karp_lists", no_phase)
        rng = random.Random(9127)
        cases = [chain_rows(1500)]
        for _ in range(40):
            n_cols = rng.randint(256, 600)
            cases.append(random_forest(rng, rng.randint(40, n_cols), n_cols))
        for masks, cols, n_cols in cases:
            assert _bitmatch.column_lists(masks, n_cols) == cols
            match_row, match_col = _bitmatch.max_matching(cols, n_cols)
            check_matching(masks, n_cols, match_row, match_col)
            expected, _ = bfs_max_matching(masks, n_cols)
            assert match_row.count(-1) == expected.count(-1) == 0


def chain_rows(n):
    """(masks, column lists, n_cols) of the chain: row i holds columns i and
    i + 1, and a last row holds column 0."""
    cols = [[i, i + 1] for i in range(n)] + [[0]]
    return [sum(1 << c for c in row) for row in cols], cols, n + 1


def random_forest(rng, n_rows, n_cols):
    """(masks, column lists, n_cols) of a random bipartite forest over n_cols
    columns with a matching of every row: each row takes a column of its
    own, then up to 7 more, each from a different tree."""
    tree = list(range(n_cols))

    def root(c):
        while tree[c] != c:
            tree[c] = tree[tree[c]]
            c = tree[c]
        return c

    own = rng.sample(range(n_cols), n_rows)
    cols = []
    for r in range(n_rows):
        row = [own[r]]
        for c in rng.sample(range(n_cols), rng.randint(0, 7)):
            if root(c) not in {root(d) for d in row}:
                row.append(c)
        for c in row[1:]:
            tree[root(c)] = root(own[r])
        cols.append(sorted(row))
    return [sum(1 << c for c in row) for row in cols], cols, n_cols


class TestDisjointChoices:
    def test_against_product_filter(self):
        rng = random.Random(2718)
        for _ in range(600):
            options = [[(rng.getrandbits(6) & rng.getrandbits(6), (level, k))
                        for k in range(rng.randint(0, 4))]
                       for level in range(rng.randint(0, 5))]
            brute = [tuple(value for _, value in picks) for picks in product(*options)
                     if all(not a[0] & b[0] for a, b in combinations(picks, 2))]
            assert list(_bitmatch.disjoint_choices(options)) == brute, options

    def test_zero_levels_yield_one_empty_choice(self):
        assert list(_bitmatch.disjoint_choices([])) == [()]

    def test_empty_level_yields_nothing(self):
        assert list(_bitmatch.disjoint_choices([[(1, "a")], [], [(2, "b")]])) == []

    def test_node_budget(self, monkeypatch):
        monkeypatch.setattr(_bitmatch, "NODE_BUDGET", 10)
        options = [[(0, k) for k in range(3)]] * 4
        with pytest.raises(ResourceLimitError) as info:
            list(_bitmatch.disjoint_choices(options))
        text = str(info.value)
        assert "node budget of 10" in text
        assert int(text.split("entered ")[1].split(" nodes")[0]) > 10


# Functions of the package that call themselves: none.  The exhaustive
# searches run on `_bitmatch.disjoint_choices`, which keeps its own stack, so
# no input size can exhaust the interpreter stack anywhere in the package.
RECURSIVE = set()


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
    """No function of the package calls itself, so no input size can
    exhaust the interpreter stack: the matching engine in both row forms,
    the flow engine, the permanent kernel, the Rado search and the
    exhaustive searches included."""
    names = [info.name for info in pkgutil.iter_modules(transversal.__path__)]
    assert {"_bitmatch", "core", "graphs", "matroids", "cli"} <= set(names)
    found = set()
    for name in names:
        module = importlib.import_module(f"transversal.{name}")
        found |= self_calls(inspect.getsource(module), name)
    assert found == RECURSIVE


def test_no_line_over_100_characters_in_the_package():
    """So that a line count of the package measures code, not how tightly
    it is joined."""
    root = pathlib.Path(transversal.__file__).parent
    long = [f"{path.name}:{k}" for path in sorted(root.glob("*.py"))
            for k, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
            if len(line) > 100]
    assert long == []


def engine_references():
    """{(module.function, name)} for every reference in the package to
    `column_lists` or to a form-specific engine (`_match_*`, `_reach_*`),
    with the function that holds it ("<module>" outside any function)."""
    found = set()

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, f"{where.split('.')[0]}.{child.name}")
                continue
            name = getattr(child, "id", None) if isinstance(child, ast.Name) else (
                child.attr if isinstance(child, ast.Attribute) else None)
            if name == "column_lists" or name and name.startswith(("_match_", "_reach_")):
                found.add((where, name))
            visit(child, where)

    for info in pkgutil.iter_modules(transversal.__path__):
        module = importlib.import_module(f"transversal.{info.name}")
        visit(ast.parse(inspect.getsource(module)), f"{info.name}.<module>")
    return found


def test_form_rule_applied_by_the_row_owners_only():
    """Posets are the one row owner with a form rule: `posets.dilworth` is
    the only caller of `column_lists`, `core` and `graphs` never name it
    (families and bipartite graphs hand the engine their stored lists), and
    only `_bitmatch` itself reaches the form-specific engines."""
    found = engine_references()
    assert {where for where, name in found if name == "column_lists"} == {"posets.dilworth"}
    private = {where for where, name in found if name != "column_lists"}
    assert private and all(where.startswith("_bitmatch.") for where in private), private


def label_refusals():
    """{module.function} for every function of the package that raises
    ``ValidationError`` and spells out a label refusal: a string that says
    a value "is not a label" or that something "repeats"."""
    found = set()
    for info in pkgutil.iter_modules(transversal.__path__):
        module = importlib.import_module(f"transversal.{info.name}")
        for node in ast.walk(ast.parse(inspect.getsource(module))):
            if not isinstance(node, ast.FunctionDef):
                continue
            raises = any(isinstance(n, ast.Raise) and isinstance(n.exc, ast.Call)
                         and getattr(n.exc.func, "id", None) == "ValidationError"
                         for n in ast.walk(node))
            words = [n.value for n in ast.walk(node)
                     if isinstance(n, ast.Constant) and isinstance(n.value, str)]
            if raises and any("which is not a label" in w or " repeats " in w for w in words):
                found.add(f"{info.name}.{node.name}")
    return found


def test_one_label_reader():
    """Labels are indexed and looked up by one helper each: only
    `core._index_labels` refuses a repeated label and only
    `core._positions_of` one that is not a label, so every constructor's
    bulk pass and the walk that names its refusal share their wording.
    `latin._add_row` checks the symbols 1..n of a Latin rectangle, which
    are numbers checked by row and column, not labels."""
    assert label_refusals() == {"core._index_labels", "core._positions_of", "latin._add_row"}


def assert_no_self_call(obj):
    assert self_calls(inspect.getsource(obj), obj.__name__) == set()


def test_no_recursion_in_bitmatch():
    """No function in the engine calls itself, in either row form, so no
    input size can exhaust the interpreter stack."""
    assert_no_self_call(_bitmatch)


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

    def test_no_maximum_matching_call(self, monkeypatch):
        """The rows are matched by the greedy pass and the sweep's repairs,
        with no Hopcroft-Karp phase, cold or from a partial start."""
        calls = []

        def counted(*args, **kwargs):
            calls.append(len(args[0]))
            raise AssertionError("a maximum matching was run")

        for name in ("max_matching", "_match_masks", "_match_lists", "_hopcroft_karp"):
            monkeypatch.setattr(_bitmatch, name, counted)
        rng = random.Random(3)
        row = list(range(1, 31))
        rng.shuffle(row)
        masks = latin.LatinRectangle(30, [row]).column_deficiencies()
        assert _bitmatch.lex_least_assignment(masks, 30) == rematch_lex_least(masks, 30)
        m = random_doubly_stochastic(rng, 12, 30)
        assert decomposition_matrix(birkhoff.birkhoff_decompose(m), 12) == m
        assert calls == []


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


def shrinking_rounds(rng, n_rows, n_cols, oracle):
    """Run lex-least rounds on masks that lose bits, as the Birkhoff, Latin
    and Youden callers do: each round starts from the last answer less its
    cleared entries and reads one kept table, cleared bit for bit with the
    masks.  Returns the number of rounds that had an answer."""
    masks = pinned_masks(rng, n_rows, n_cols, rng.choice((0.3, 0.5, 0.8)))
    table = _bitmatch._column_rows(masks, n_cols)
    start = None
    answered = 0
    while True:
        got = _bitmatch.lex_least_assignment(masks, n_cols, start, table)
        assert table == _bitmatch._column_rows(masks, n_cols), "the table is not changed"
        assert got == oracle(masks, n_cols), (masks, n_cols, start)
        if got is None:
            return answered
        answered += 1
        start = list(got)
        for r in rng.sample(range(n_rows), rng.randint(1, max(1, n_rows // 4))):
            c = got[r] if rng.random() < 0.7 else rng.randrange(n_cols)
            masks[r] &= ~(1 << c)
            table[c] &= ~(1 << r)
            if c == got[r]:
                start[r] = _bitmatch.UNMATCHED


class TestKeptTable:
    def test_shrinking_rounds_brute_force(self):
        rng = random.Random(8800)
        answered = [shrinking_rounds(rng, rng.randint(1, 7), rng.randint(7, 8), brute_lex_least)
                    for _ in range(150)]
        assert sum(answered) >= 300 and answered.count(0) < 50, answered

    def test_shrinking_rounds_probe_search(self):
        rng = random.Random(8801)
        answered = []
        for _ in range(25):
            n_rows = rng.randint(10, 40)
            answered.append(shrinking_rounds(rng, n_rows, n_rows + rng.randint(0, 4),
                                             probe_lex_least))
        assert sum(answered) >= 50, answered

    def test_one_table_per_solve(self, monkeypatch):
        """Birkhoff, Latin completion and Youden each build the table once
        and keep it across their rounds; a Latin row extension, one round,
        builds it only if a sweep needs it."""
        transpose = _bitmatch._column_rows
        built = []

        def counted(row_masks, n_cols):
            built.append(n_cols)
            return transpose(row_masks, n_cols)

        monkeypatch.setattr(_bitmatch, "_column_rows", counted)
        m = random_doubly_stochastic(random.Random(20), 20, 60)
        assert len(birkhoff.birkhoff_decompose(m)) > 20 and built == [20]
        built.clear()
        rng = random.Random(40)
        row = list(range(1, 41))
        rng.shuffle(row)
        assert latin.complete(latin.LatinRectangle(40, [row])).is_square and built == [40]
        built.clear()
        assert len(latin.youden_from_design(paley_43())) == 21 and built == [43]
        square = latin.complete(latin.LatinRectangle(40, [row]))
        for m, tables in ((1, []), (5, [40]), (20, [40]), (39, [])):
            built.clear()
            assert latin.extend_row(latin.LatinRectangle(40, square.rows[:m])).m == m + 1
            assert built == tables, m


def disjoint_permutations(rng, n, k):
    """k random permutations of range(n) that share no (row, column) pair:
    row r of the t-th takes column cols[(rows[r] + shifts[t]) % n]."""
    rows, cols = rng.sample(range(n), n), rng.sample(range(n), n)
    return [[cols[(rows[r] + s) % n] for r in range(n)] for s in rng.sample(range(n), k)]


class TestPeel:
    def test_regular_masks_split_into_perfect_matchings(self):
        """König: a k-regular bipartite graph is k disjoint perfect
        matchings, and each round is the lex-least of what is left."""
        rng = random.Random(3200)
        for _ in range(40):
            n = rng.randint(5, 40)
            k = rng.randint(1, min(n, 5))
            masks = [0] * n
            for perm in disjoint_permutations(rng, n, k):
                for r, c in enumerate(perm):
                    masks[r] |= 1 << c
            left = list(masks)
            rounds = []
            for mu, assignment in _bitmatch.peel(list(masks), n):
                assert mu == 1
                assert list(assignment) == rematch_lex_least(left, n), (left, n)
                for r, c in enumerate(assignment):
                    left[r] &= ~(1 << c)
                rounds.append(assignment)
            assert len(rounds) == k and not any(left)
            edges = {(r, c) for assignment in rounds for r, c in enumerate(assignment)}
            assert len(edges) == k * n
            assert all((masks[r] >> c) & 1 for r, c in edges)

    def test_weighted_rounds_rebuild_the_weights(self):
        rng = random.Random(3201)
        for _ in range(30):
            n = rng.randint(1, 12)
            weights = [[0] * n for _ in range(n)]
            for _ in range(rng.randint(1, 3 * n)):
                w = rng.randint(1, 9)
                for r, c in enumerate(rng.sample(range(n), n)):
                    weights[r][c] += w
            masks = [sum(1 << c for c, x in enumerate(row) if x) for row in weights]
            rebuilt = [[0] * n for _ in range(n)]
            terms = list(_bitmatch.peel(list(masks), n, [list(row) for row in weights]))
            for mu, assignment in terms:
                assert mu > 0
                for r, c in enumerate(assignment):
                    rebuilt[r][c] += mu
            assert rebuilt == weights
            assert len(terms) <= sum(map(int.bit_count, masks)) - n + 1

    def test_unpeelable_masks(self):
        """Row 1 loses its one column to the first round, while row 0
        keeps one: no second assignment exists."""
        with pytest.raises(AssertionError):
            list(_bitmatch.peel([0b11, 0b01], 2))

    def test_nothing_to_peel(self):
        assert list(_bitmatch.peel([], 0)) == list(_bitmatch.peel([0, 0], 3)) == []


def test_rounds_run_only_in_bitmatch():
    """The round loop lives in `_bitmatch.peel`: outside `_bitmatch`, no
    module builds the column-to-rows table or hands `lex_least_assignment`
    a start or a table."""
    found = []
    for info in pkgutil.iter_modules(transversal.__path__):
        if info.name == "_bitmatch":
            continue
        module = importlib.import_module(f"transversal.{info.name}")
        for call in ast.walk(ast.parse(inspect.getsource(module))):
            if not isinstance(call, ast.Call):
                continue
            func = call.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name == "_column_rows" or (
                    name == "lex_least_assignment" and len(call.args) + len(call.keywords) > 2):
                found.append((info.name, call.lineno, name))
    assert found == []


def agree_with_probe_search(monkeypatch):
    """Route every lex-least call through the sweep and the probe search,
    checking that a table handed over is the transpose of the masks; count
    the calls."""
    sweep = _bitmatch.lex_least_assignment
    calls = []

    def both(row_masks, n_cols, start=None, col_rows=None):
        if col_rows is not None:
            assert col_rows == _bitmatch._column_rows(row_masks, n_cols)
        kept = list(col_rows or ())
        got = sweep(row_masks, n_cols, start, col_rows)
        assert list(col_rows or ()) == kept, "the table is not changed"
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
        assert decomposition_matrix(decomposition, 24) == m


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
        assert decomposition_matrix(decomposition, 16) == m
