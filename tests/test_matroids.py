import random
from itertools import combinations

import pytest

from oracles import all_families, brute_sdr_exists, brute_sir_exists, validate_matroid
from transversal import _bitmatch, core, matroids
from transversal.errors import ResourceLimitError, ValidationError


def triangle():
    return matroids.graphic_matroid({"e1": ("u", "v"), "e2": ("v", "w"), "e3": ("w", "u")})


class TestBuilders:
    def test_uniform(self):
        m = matroids.uniform_matroid("abcd", 2)
        assert m.independent({"a", "b"})
        assert not m.independent({"a", "b", "c"})

    def test_free_is_full_uniform(self):
        m = matroids.free_matroid("abc")
        assert m.independent({"a", "b", "c"})

    def test_graphic_triangle(self):
        m = triangle()
        assert all(m.independent(set(pair)) for pair in combinations(m.ground, 2))
        assert not m.independent({"e1", "e2", "e3"})

    def test_graphic_rejects_loop(self):
        with pytest.raises(ValidationError):
            matroids.graphic_matroid({"e": ("u", "u")})

    def test_linear_over_f5(self):
        m = matroids.linear_matroid({"a": (1, 0), "b": (0, 1), "c": (1, 1)}, 5)
        assert all(m.independent(set(pair)) for pair in combinations("abc", 2))
        assert not m.independent({"a", "b", "c"})

    def test_linear_rejects_composite_modulus(self):
        with pytest.raises(ValidationError):
            matroids.linear_matroid({"a": (1,)}, 6)

    def test_partition(self):
        m = matroids.partition_matroid([["a", "b"], ["c", "d"]], [1, 2])
        assert m.independent({"a", "c", "d"})
        assert not m.independent({"a", "b"})

    def test_partition_rejects_overlap(self):
        with pytest.raises(ValidationError):
            matroids.partition_matroid([["a"], ["a"]], [1, 1])

    def test_make_matroid_dispatch(self):
        m = matroids.make_matroid("uniform", ground="ab", rank=1)
        assert m.kind == "uniform"
        with pytest.raises(ValidationError):
            matroids.make_matroid("mystery")
        m = matroids.make_matroid("graphic", graph={"e1": ["u", "v"]})
        assert m.kind == "graphic"
        with pytest.raises(ValidationError) as err:
            matroids.make_matroid("uniform", ground="ab")
        assert err.value.field == "rank"
        with pytest.raises(ValidationError) as err:
            matroids.matroid_from_json({"kind": "graphic"})
        assert err.value.field == "graph"


class TestRank:
    def test_empty(self):
        assert matroids.rank(matroids.uniform_matroid("abcd", 2), set()) == 0

    def test_full_uniform(self):
        assert matroids.rank(matroids.uniform_matroid("abcd", 2), set("abcd")) == 2

    def test_triangle_edges(self):
        assert matroids.rank(triangle(), {"e1", "e2", "e3"}) == 2

    def test_outside_ground_rejected(self):
        with pytest.raises(ValidationError):
            matroids.rank(triangle(), {"nope"})

    def test_monotone_and_submodular(self):
        fixtures = [
            matroids.uniform_matroid("abcdef", 3),
            matroids.partition_matroid([["a", "b", "c"], ["d", "e", "f"]], [1, 2]),
            matroids.graphic_matroid(
                {"1": ("u", "v"), "2": ("v", "w"), "3": ("w", "u"), "4": ("w", "x")}
            ),
            matroids.linear_matroid(
                {"a": (1, 0, 0), "b": (0, 1, 0), "c": (1, 1, 0), "d": (0, 0, 1)}, 3
            ),
        ]
        rng = random.Random(2024)
        for m in fixtures:
            ground = list(m.ground)
            for _ in range(120):
                x = {g for g in ground if rng.random() < 0.5}
                y = {g for g in ground if rng.random() < 0.5}
                rx, ry = m.rank_of(x), m.rank_of(y)
                if x <= y:
                    assert rx <= ry
                assert m.rank_of(x | y) + m.rank_of(x & y) <= rx + ry


class TestValidateMatroid:
    def test_uniform_passes(self):
        assert validate_matroid(matroids.uniform_matroid("abcd", 2)) == (True, None)

    def test_free_passes(self):
        assert validate_matroid(matroids.free_matroid("ab")) == (True, None)

    def test_exchange_failure_witnessed(self):
        collection = {
            frozenset(),
            frozenset("a"),
            frozenset("b"),
            frozenset("ab"),
            frozenset("c"),
        }
        m = matroids.MatroidOracle("abc", lambda s: s in collection)
        ok, witness = validate_matroid(m)
        assert not ok
        assert witness["axiom"] == "exchange"
        assert witness["a"] == ("c",)
        assert set(witness["b"]) == {"a", "b"}

    def test_downward_failure_witnessed(self):
        m = matroids.MatroidOracle("ab", lambda s: len(s) != 1)
        ok, witness = validate_matroid(m)
        assert not ok
        assert witness["axiom"] == "downward-closure"

    def test_empty_collection_witnessed(self):
        m = matroids.MatroidOracle("a", lambda s: False)
        ok, witness = validate_matroid(m)
        assert not ok and witness["axiom"] == "nonempty"

    def test_ceiling(self):
        with pytest.raises(ResourceLimitError):
            validate_matroid(matroids.free_matroid(range(11)))


class TestRadoCheck:
    def test_free_matroid_reduces_to_hall(self):
        fam = core.SetFamily([1, 2, 3], [[1, 2], [2, 3], [3, 1]])
        result = matroids.rado_check(fam, matroids.free_matroid([1, 2, 3]))
        assert isinstance(result, matroids.Sir)
        assert matroids.validate_sir(fam, matroids.free_matroid([1, 2, 3]), result.reps) == (
            True,
            None,
        )

    def test_triangle_three_copies(self):
        fam = core.SetFamily(["e1", "e2", "e3"], [["e1", "e2", "e3"]] * 3)
        result = matroids.rado_check(fam, triangle())
        assert isinstance(result, matroids.RadoViolator)
        assert result.indices == (0, 1, 2)
        assert result.rank == 2
        assert triangle().rank_of(result.union) == result.rank

    def test_triangle_two_copies(self):
        fam = core.SetFamily(["e1", "e2", "e3"], [["e1", "e2", "e3"]] * 2)
        result = matroids.rado_check(fam, triangle())
        assert isinstance(result, matroids.Sir)
        assert matroids.validate_sir(fam, triangle(), result.reps) == (True, None)

    def test_ground_mismatch_rejected(self):
        fam = core.SetFamily(["x"], [["x"]])
        with pytest.raises(ValidationError):
            matroids.rado_check(fam, triangle())

    def test_strategies_agree_random(self):
        rng = random.Random(808)
        oracles = [
            matroids.free_matroid("abcde"),
            matroids.uniform_matroid("abcde", 2),
            matroids.partition_matroid([["a", "b"], ["c", "d", "e"]], [1, 1]),
            matroids.graphic_matroid(
                {"a": (1, 2), "b": (2, 3), "c": (3, 1), "d": (3, 4), "e": (4, 1)}
            ),
            matroids.linear_matroid(
                {"a": (1, 0), "b": (0, 1), "c": (1, 1), "d": (2, 2), "e": (0, 2)}, 5
            ),
        ]
        for m in oracles:
            ground = list(m.ground)
            for _ in range(120):
                n = rng.randint(0, 4)
                sets = [
                    rng.sample(ground, rng.randint(1, len(ground))) for _ in range(n)
                ]
                fam = core.SetFamily(ground, sets)
                fast = matroids.rado_check(fam, m)
                assert isinstance(fast, matroids.Sir) == brute_sir_exists(fam.sets, m)
                if isinstance(fast, matroids.Sir):
                    assert matroids.validate_sir(fam, m, fast.reps) == (True, None)
                else:
                    assert fast.rank < len(fast.indices)
                    assert m.rank_of(fast.union) == fast.rank
                    recomputed = fam.union_of(fast.indices)
                    assert set(recomputed) == set(fast.union)

    def test_free_agrees_with_hall_exhaustive(self):
        ground = (1, 2, 3)
        free = matroids.free_matroid(ground)
        for n in range(4):
            for sets in all_families(n, ground):
                fam = core.SetFamily(ground, sets)
                result = matroids.rado_check(fam, free)
                assert isinstance(result, matroids.Sir) == brute_sdr_exists(sets)


def random_matroid(rng, kind, n_elements):
    """A seeded graphic, linear or partition matroid on `n_elements` labels."""
    labels = [f"x{k}" for k in range(n_elements)]
    if kind == "graphic":
        n_vertices = rng.randint(6, 8)
        pairs = [(u, v) for u in range(n_vertices) for v in range(u + 1, n_vertices)]
        return matroids.graphic_matroid(dict(zip(labels, rng.sample(pairs, n_elements))))
    if kind == "linear":
        p, width = rng.choice((2, 3)), rng.randint(5, 8)
        return matroids.linear_matroid(
            {x: [rng.randrange(p) for _ in range(width)] for x in labels}, p)
    rng.shuffle(labels)
    cuts = sorted(rng.sample(range(1, n_elements), rng.randint(1, 4)))
    blocks = [labels[a:b] for a, b in zip([0, *cuts], [*cuts, n_elements])]
    return matroids.partition_matroid(blocks, [rng.randint(1, len(b)) for b in blocks])


def seeded_graphic_family(n_sets):
    """Sets of five random edges of a seeded random simple graph with 120
    vertices and 360 edges."""
    rng = random.Random(110)
    pairs = set()
    while len(pairs) < 360:
        u, v = rng.sample(range(120), 2)
        pairs.add((min(u, v), max(u, v)))
    edges = {f"e{k}": pair for k, pair in enumerate(sorted(pairs))}
    sets = [rng.sample(list(edges), 5) for _ in range(n_sets)]
    return core.SetFamily(list(edges), sets), matroids.graphic_matroid(edges)


def count_searches_and_matchings(monkeypatch):
    """Wrap the exchange search and the matching engine.  Returns three
    lists: the path each search found (None when it failed), the number of
    representatives each search reached over an exchange arc, and the row
    count of each matching."""
    search, engine = matroids._exchange_path, _bitmatch.max_matching
    paths, arcs, matchings = [], [], []

    def counted_search(current, *rest):
        paths.append(search(current, *rest))
        arcs.append(sum(x in rest[-1] for x in current))
        return paths[-1]

    def counted_engine(*args):
        matchings.append(len(args[0]))
        return engine(*args)

    monkeypatch.setattr(matroids, "_exchange_path", counted_search)
    monkeypatch.setattr(_bitmatch, "max_matching", counted_engine)
    return paths, arcs, matchings


class TestRadoAtScale:
    def test_sweep_agrees_with_brute_force(self, monkeypatch):
        """5-8 sets over 8-12 elements, enough for exchange searches to walk
        arcs and for paths to swap representatives; every verdict against
        backtracking, every certificate re-checked."""
        paths, arcs, _ = count_searches_and_matchings(monkeypatch)
        rng = random.Random(5812)
        verdicts = {(kind, found): 0 for kind in ("graphic", "linear", "partition")
                    for found in (True, False)}
        for trial in range(600):
            kind = ("graphic", "linear", "partition")[trial % 3]
            m = random_matroid(rng, kind, rng.randint(8, 12))
            ground = list(m.ground)
            sets = [rng.sample(ground, rng.randint(2, 3)) for _ in range(rng.randint(5, 8))]
            fam = core.SetFamily(ground, sets)
            result = matroids.rado_check(fam, m)
            found = isinstance(result, matroids.Sir)
            assert found == brute_sir_exists(fam.sets, m), (kind, sets)
            if found:
                assert matroids.validate_sir(fam, m, result.reps) == (True, None)
            else:
                assert matroids.verify_rado_violator(fam, m, result) == (True, None)
            verdicts[kind, found] += 1
        assert all(count >= 50 for count in verdicts.values()), verdicts
        assert sum(len(p) >= 3 for p in paths if p) >= 25
        assert sum(count > 0 for count in arcs) >= 40

    def test_one_matching_per_exchange_search(self, monkeypatch):
        """A matching per search, one for the representatives and one for a
        violator: no matching per exchange arc."""
        paths, _, matchings = count_searches_and_matchings(monkeypatch)
        fam, m = seeded_graphic_family(110)
        result = matroids.rado_check(fam, m)
        assert isinstance(result, matroids.Sir)
        assert matroids.validate_sir(fam, m, result.reps) == (True, None)
        assert len(paths) == 110 and len(matchings) <= len(paths) + 2 <= 112
        rng = random.Random(7)
        for _ in range(40):
            m = random_matroid(rng, rng.choice(("graphic", "linear", "partition")), 10)
            ground = list(m.ground)
            fam = core.SetFamily(ground, [rng.sample(ground, 3) for _ in range(7)])
            paths.clear()
            matchings.clear()
            matroids.rado_check(fam, m)
            assert len(matchings) <= len(paths) + 2
