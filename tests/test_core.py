import os
import random
import time
import tracemalloc
from fractions import Fraction
from itertools import combinations
from math import comb, factorial, lcm, prod

import pytest

from oracles import (EagerFamily, EagerGraph, all_families, bfs_max_matching, brute_all_sdrs,
                     brute_defect, brute_matching_counts, brute_permanent, brute_sdr_exists,
                     column_set_sums, hall_via_menger, payload_of)
from transversal import _bitmatch, core, graphs, latin
from transversal.errors import ResourceLimitError, ValidationError


def fam(ground, sets):
    return core.SetFamily(ground, sets)


class TestSetFamily:
    def test_members_stored_in_ground_order(self):
        f = fam([3, 1, 2], [[2, 3]])
        assert f.sets == ((3, 2),)

    def test_duplicate_ground_rejected(self):
        with pytest.raises(ValidationError):
            fam([1, 1], [])

    def test_element_outside_ground_rejected(self):
        with pytest.raises(ValidationError):
            fam([1, 2], [[3]])

    def test_json_round_trip(self):
        f = fam(["a", "b", "c"], [["a", "b"], ["c"]])
        assert core.SetFamily.from_json(f.to_json()) == f


def seeded_sets(rng, ground):
    """Sets drawn from `ground`, narrow and dense or wide and sparse by its
    size: members listed in any order, some repeated, and some sets empty."""
    most = 8 if len(ground) >= 256 else len(ground)
    sets = []
    for _ in range(rng.randint(0, 60 if most == 8 else 12)):
        members = rng.sample(ground, rng.randint(0, most))
        if members and rng.random() < 0.3:
            members += rng.choices(members, k=rng.randint(1, 3))
        rng.shuffle(members)
        sets.append(members)
    return sets


class TestLazyForms:
    """Families store column lists and make masks and label tuples on first
    read, and bipartite graphs store only the lists; every reader agrees
    with `EagerFamily` and `EagerGraph`, which make them all at
    construction, whatever is read first."""

    def test_family_readers_match_the_eager_reference(self):
        rng = random.Random(2718)
        for _ in range(80):
            ground = [f"g{k}" for k in rng.sample(range(5000), rng.choice((1, 6, 30, 300, 900)))]
            sets = seeded_sets(rng, ground)
            ref = EagerFamily(ground, sets)
            f = fam(ground, sets)
            readers = [
                lambda: f.sets == ref.sets,
                lambda: [f.mask(i) for i in range(f.n)] == ref.masks,
                lambda: repr(f) == repr(ref),
                lambda: f.to_json() == ref.to_json(),
                lambda: hash(f) == hash(ref),
            ]
            rng.shuffle(readers)
            assert all(read() for read in readers), (ground, sets)
            for _ in range(5):
                indices = rng.sample(range(f.n), rng.randint(0, f.n))
                assert f.union_of(indices) == ref.union_of(indices)
            twin = fam(ground, [list(reversed(s)) for s in sets])
            assert twin == f and hash(twin) == hash(f)
            if sets and len(ground) > 1:
                other = [list(s) for s in sets]
                other[-1] = [x for x in ground if x not in other[-1]][:1]
                assert fam(ground, other) != f

    def test_graph_edges_match_the_eager_reference(self):
        rng = random.Random(1618)
        for _ in range(40):
            part_b = [f"b{k}" for k in range(rng.choice((3, 20, 400)))]
            sets = seeded_sets(rng, part_b)
            part_a = list(range(len(sets)))
            edges = [(a, b) for a, members in zip(part_a, sets) for b in members]
            ref = EagerGraph(part_a, part_b, edges)
            g = graphs.BipartiteGraph(part_a, part_b, edges)
            probes = [(rng.choice(part_a + [-1]), rng.choice(part_b + ["zz"]))
                      for _ in range(30)] + edges[:30]
            assert [g.has_edge(a, b) for a, b in probes] == [ref.has_edge(a, b)
                                                            for a, b in probes]
            assert g._cols == [list(_bitmatch.bits_of(ref.masks[a])) for a in part_a]

    def test_wide_sparse_solves_make_no_mask(self):
        """Every solver and checker of families and bipartite graphs runs on
        the column lists, over 400 columns as over 12: a family makes no
        mask list and no label tuples, and a bipartite graph has no masks."""
        for n in (400, 12):
            ground = list(range(n))
            sets = [[i, (i + 1) % n, (i + 7) % n] for i in range(n - 10)]
            sets += [[3], [3], [5, 6]]  # two sets on one element: a violator
            for name, check in (("sdr", core.verify_sdr), ("defect", core.verify_defect)):
                f = fam(ground, sets)
                payload = payload_of(name, f)
                assert "reps" not in payload and payload.get("defect", 1) == 1
                assert check(f, payload) == (True, None)
                assert f._mask_list is None and f._label_sets is None
            f = fam(ground, sets[:-3])
            assert core.verify_sdr(f, payload_of("sdr", f)) == (True, None)
            assert f._mask_list is None and f._label_sets is None
            edges = [(i, x) for i, members in enumerate(sets) for x in members]
            g = graphs.BipartiteGraph(range(len(sets)), ground, edges)
            assert graphs.verify_matching(g, payload_of("matching", g)) == (True, None)
            payload = payload_of("cover", g)
            assert payload["size"] == len(sets) - 1
            assert graphs.verify_cover(g, payload) == (True, None)
        assert not {"_masks", "_mask_list"} & set(dir(g))


class TestValidateSdr:
    """The representatives side of `core.verify_sdr`."""

    def test_accepts_valid(self):
        assert core.verify_sdr(fam([1, 2, 3], [[1, 2], [2, 3]]), {"reps": [1, 2]}) == (True, None)

    def test_distinctness_failure_names_indices(self):
        ok, reason = core.verify_sdr(fam([1, 2, 3], [[1, 2], [2, 3]]), {"reps": [2, 2]})
        assert not ok
        assert "distinctness" in reason and "(0, 1)" in reason

    def test_membership_failure_names_index(self):
        ok, reason = core.verify_sdr(fam([1, 2, 3], [[1, 2], [2, 3]]), {"reps": [3, 2]})
        assert not ok
        assert "membership" in reason and "index 0" in reason

    def test_length_mismatch_raises(self):
        with pytest.raises(ValidationError):
            core.verify_sdr(fam([1], [[1]]), {"reps": [1, 1]})


class TestHallCheck:
    def test_two_sets_one_element(self):
        result = core.hall_check(fam([1], [[1], [1]]))
        assert isinstance(result, core.HallViolator)
        assert result.indices == (0, 1)
        assert result.union == (1,)

    def test_three_cycle_family_has_sdr(self):
        f = fam([1, 2, 3], [[1, 2], [2, 3], [3, 1]])
        result = core.hall_check(f)
        assert isinstance(result, core.Sdr)
        assert core.verify_sdr(f, payload_of("sdr", f)) == (True, None)
        # brute force confirms at least one SDR exists
        assert brute_sdr_exists(f.sets)

    def test_finite_marshall_hall_truncation(self):
        # one full set plus one singleton per element: 6 sets, 5 elements
        ground = [1, 2, 3, 4, 5]
        f = fam(ground, [ground] + [[x] for x in ground])
        result = core.hall_check(f)
        assert isinstance(result, core.HallViolator)
        assert len(result.union) == 5
        assert len(result.indices) == 6
        assert core.verify_sdr(f, payload_of("sdr", f)) == (True, None)

    def test_verify_rejects_unhashable_union(self):
        forged = {"indices": [0, 1], "union": [[1]]}
        assert core.verify_sdr(fam([1], [[1], [1]]), forged) == (
            False, "stated union differs from the recomputed union")

    def test_empty_family(self):
        result = core.hall_check(fam([1], []))
        assert result == core.Sdr(())

    def test_deterministic(self):
        f = fam([1, 2, 3, 4], [[1, 2, 3], [2, 3], [3, 4], [1, 4]])
        assert core.hall_check(f) == core.hall_check(f)

    def test_violator_does_not_depend_on_matching(self):
        # The reference engine's maximum matching, often a different one, and
        # the flow reduction's give the same violator: every set reachable
        # from an unassigned set.
        rng = random.Random(1935)
        deficient = differ = 0
        for _ in range(300):
            n = rng.randint(2, 60)
            ground = list(range(rng.randint(1, n)))
            sets = [[x for x in ground if rng.random() < rng.choice((0.05, 0.1, 0.3))]
                    for _ in range(n)]
            f = fam(ground, sets)
            result = core.hall_check(f)
            if isinstance(result, core.Sdr):
                continue
            deficient += 1
            reference = bfs_max_matching([f.mask(i) for i in range(f.n)], len(ground))
            differ += reference != _bitmatch.max_matching(f._cols, len(ground))
            assert result == core._hall_violator(f, *reference)
            assert result == hall_via_menger(f)
        assert deficient >= 200 and differ >= 50, (deficient, differ)

    def test_violator_is_least_of_largest_gap(self):
        # Among the index sets whose union falls shortest, by the defect,
        # the violator is the one contained in all the others.
        rng = random.Random(1936)
        deficient = 0
        for _ in range(300):
            n = rng.randint(1, 7)
            ground = list(range(rng.randint(1, 6)))
            sets = [[x for x in ground if rng.random() < 0.35] for _ in range(n)]
            f = fam(ground, sets)
            result = core.hall_check(f)
            if isinstance(result, core.Sdr):
                continue
            deficient += 1
            gaps = {
                group: len(group) - len(f.union_of(group))
                for k in range(1, n + 1)
                for group in combinations(range(n), k)
            }
            defect = brute_defect(sets, ground)
            assert len(result.indices) - len(result.union) == defect
            assert all(set(result.indices) <= set(group)
                       for group, gap in gaps.items() if gap == defect)
        assert deficient >= 100, deficient


class TestPartialSdr:
    def test_defect_one(self):
        f = fam([1, 2], [[1], [1], [1, 2]])
        report = core.partial_sdr(f)
        assert report.defect == 1
        assert len(report.partial) == 2
        values = list(report.partial.values())
        assert len(set(values)) == 2
        for i, x in report.partial.items():
            assert x in f.sets[i]

    def test_defect_zero(self):
        assert core.partial_sdr(fam([1, 2, 3], [[1, 2], [2, 3], [3, 1]])).defect == 0

    def test_empty_family(self):
        report = core.partial_sdr(fam([], []))
        assert report.defect == 0 and report.partial == {}


class TestCountSdrs:
    def test_all_equal_sets(self):
        assert core.count_sdrs(fam([1, 2, 3], [[1, 2, 3]] * 3)) == 6

    def test_three_cycle(self):
        f = fam([1, 2, 3], [[1, 2], [2, 3], [3, 1]])
        assert core.count_sdrs(f) == 2
        assert sorted(brute_all_sdrs(f.sets)) == [(1, 2, 3), (2, 3, 1)]

    def test_hall_failure_counts_zero(self):
        assert core.count_sdrs(fam([1], [[1], [1]])) == 0

    def test_empty_family_counts_one(self):
        assert core.count_sdrs(fam([1, 2], [])) == 1

    def test_wide_ground(self):
        # union strictly larger than the family
        f = fam(list(range(10)), [[0, 1, 2, 3], [2, 3, 4, 5], [6, 7]])
        assert core.count_sdrs(f) == len(brute_all_sdrs(f.sets))

    def test_ceiling(self):
        f = fam(list(range(21)), [[i] for i in range(21)])
        with pytest.raises(ResourceLimitError):
            core.count_sdrs(f)
        assert core.count_sdrs(f, ceiling=21) == 1

    def test_term_guard_states_its_work(self):
        # 20 sets over a 30-element union: sum(C(30, k) for 1 <= k <= 20) terms.
        f = fam(list(range(30)), [list(range(30))] * 20)
        with pytest.raises(ResourceLimitError) as info:
            core.count_sdrs(f)
        terms = sum(comb(30, k) for k in range(1, 21))
        assert str(terms) in str(info.value) and str(core._COUNT_TERM_GUARD) in str(info.value)

    def test_dense_wide_family_is_refused_at_once(self):
        # 20 sets of density 1/2 over 24 elements: one wide component.
        rng = random.Random(2024)
        sets = [[x for x in range(24) if rng.random() < 0.5] for _ in range(20)]
        f = fam(list(range(24)), sets)
        assert len(set().union(*sets)) == 24
        start = time.perf_counter()
        with pytest.raises(ResourceLimitError) as info:
            core.count_sdrs(f)
        assert time.perf_counter() - start < 1
        terms = sum(comb(24, k) for k in range(1, 21))
        assert str(terms) in str(info.value) and "8388608" in str(info.value)

    def test_disjoint_blocks_count_as_a_product(self):
        # Four 5-set blocks over disjoint 10-element grounds: one 20-by-40
        # matrix, but four components of sum(C(10, k) for k <= 5) sets each.
        rng = random.Random(4242)
        blocks = [[rng.sample(range(10 * b, 10 * b + 10), rng.randint(2, 6)) for _ in range(5)]
                  for b in range(4)]
        f = fam(list(range(40)), [s for block in blocks for s in block])
        start = time.perf_counter()
        got = core.count_sdrs(f)
        assert time.perf_counter() - start < 1
        assert got == prod(len(brute_all_sdrs(block)) for block in blocks) > 0

    def test_one_component_pass_per_count(self, monkeypatch):
        passes, components = [], core._components
        monkeypatch.setattr(core, "_components", lambda masks: passes.append(masks) or
                            components(masks))
        f = fam(list(range(6)), [[0, 1], [1, 2], [3, 4], [4, 5], [5]])
        assert core.count_sdrs(f) == len(brute_all_sdrs(f.sets)) > 0
        assert len(passes) == 1

    def test_many_singletons_need_no_dense_matrix(self):
        # 2000 singleton sets are 2000 one-by-one components: the count
        # reads each from its mask, with no 2000-by-2000 matrix (32 MB of
        # entries alone) and no pass that is quadratic in the components.
        f = fam(list(range(2000)), [[x] for x in range(2000)])
        start = time.perf_counter()
        assert core.count_sdrs(f, ceiling=5000) == 1
        assert time.perf_counter() - start < 1
        tracemalloc.start()
        try:
            assert core.count_sdrs(f, ceiling=5000) == 1
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 << 20, peak

    def test_guard_refuses_before_any_column_is_read(self, monkeypatch):
        # Above a raised ceiling, a dense 40-set family walks 2^39 sets and
        # is refused on its shape alone: no column of the matrix is made.
        read, kernel = [], core._permanent_of
        monkeypatch.setattr(core, "_permanent_of", lambda masks, column: kernel(
            masks, lambda members, j: read.append(j) or column(members, j)))
        f = fam(list(range(40)), [list(range(40))] * 40)
        start = time.perf_counter()
        with pytest.raises(ResourceLimitError) as info:
            core.count_sdrs(f, ceiling=100)
        assert time.perf_counter() - start < 1
        assert str(1 << 39) in str(info.value) and read == []
        assert core.count_sdrs(fam(range(3), [[0, 1], [1, 2]]), ceiling=100) == 3
        assert read == [0, 1, 2]

    def test_components_in_one_pass(self):
        # Rows joined only through a chain of later rows, zero rows, and
        # components listed by their lowest row, each with sorted members.
        masks = [0b1, 0, 0b100, 0b1000, 0b110, 0b11, 0, 0b10000 << 60]
        assert core._components(masks) == [([0, 2, 4, 5], 0b111), ([1], 0), ([3], 0b1000),
                                           ([6], 0), ([7], 0b10000 << 60)]
        assert core._components([]) == []
        rng = random.Random(77)
        for _ in range(300):
            masks = [rng.getrandbits(12) & rng.getrandbits(12) & rng.getrandbits(12)
                     for _ in range(rng.randint(0, 12))]
            # grow each component from its lowest unplaced row until no row joins
            expected, left = [], list(range(len(masks)))
            while left:
                members = [left.pop(0)]
                cols = masks[members[0]]
                while joined := [i for i in left if masks[i] & cols]:
                    members += joined
                    left = [i for i in left if i not in joined]
                    for i in joined:
                        cols |= masks[i]
                expected.append((sorted(members), cols))
            assert core._components(masks) == expected

    def test_union_smaller_than_the_family_counts_zero(self):
        rng = random.Random(5150)
        for _ in range(200):
            n = rng.randint(1, 7)
            union = rng.sample(range(9), rng.randint(0, n - 1))
            sets = [rng.sample(union, rng.randint(0, len(union))) for _ in range(n)]
            assert core.count_sdrs(fam(range(9), sets)) == 0 == len(brute_all_sdrs(sets))


class TestPermanentKernel:
    def test_matches_brute_force(self):
        rng = random.Random(6174)
        kinds = {"square": 0, "wide": 0, "empty": 0, "negative": 0, "zero-row": 0}
        for _ in range(600):
            n = rng.randint(0, 7)
            m = rng.randint(n, 7)
            rows = [[rng.randint(-4, 4) if rng.random() < 0.7 else 0 for _ in range(m)]
                    for _ in range(n)]
            if n and rng.random() < 0.15:
                rows[rng.randrange(n)] = [0] * m
            assert core._permanent_rows(rows) == brute_permanent(rows), rows
            kinds["square"] += 0 < n == m
            kinds["wide"] += 0 < n < m
            kinds["empty"] += n == 0
            kinds["negative"] += any(x < 0 for row in rows for x in row)
            kinds["zero-row"] += [0] * m in rows
        assert all(count >= 20 for count in kinds.values()), kinds

    def test_fraction_entries(self):
        # The kernel takes integers: rational rows are rescaled by their
        # LCM first, as `birkhoff.permanent` does, and the scales divided out.
        rows = [[Fraction(1, 2), Fraction(-1, 3), 2], [1, Fraction(3, 4), Fraction(-5, 2)]]
        scales = [lcm(*(x.denominator for x in row)) for row in rows]
        scaled = [[int(x * d) for x in row] for row, d in zip(rows, scales)]
        got = core._permanent_rows(scaled)
        assert type(got) is int and Fraction(got, prod(scales)) == brute_permanent(rows)

    def test_work_guard_refuses_before_walking(self, monkeypatch):
        # A 24-by-24 all-ones matrix walks 2^23 sets, the guard itself, and
        # is refused before any set is walked.  The guard counts the sets of
        # the components, not the size of the matrix: six 8-by-8 blocks of a
        # 48-by-48 matrix walk 6 * 2^7 sets and are counted.
        monkeypatch.setattr(core, "_column_set_sums", None)
        with pytest.raises(ResourceLimitError) as info:
            core._permanent_rows([[1] * 24] * 24)
        assert str(1 << 23) in str(info.value) and str(core._COUNT_TERM_GUARD) in str(info.value)
        blocks = [[1 if i // 8 == j // 8 else 0 for j in range(48)] for i in range(48)]
        monkeypatch.undo()
        assert core._permanent_rows(blocks) == factorial(8) ** 6

    def test_hidden_blocks_match_brute_force(self):
        rng = random.Random(8128)
        kinds = {"split": 0, "tall-block": 0, "zero-row": 0, "zero-column": 0, "scaled": 0}
        for _ in range(300):
            n = rng.randint(0, 8)
            m = rng.randint(n, 8)
            scaled = rng.random() < 0.25
            rows, cols = list(range(n)), list(range(m))
            rng.shuffle(rows)
            rng.shuffle(cols)
            matrix = [[0] * m for _ in range(n)]
            while rows:
                block_rows = [rows.pop() for _ in range(rng.randint(1, len(rows)))]
                block_cols = [cols.pop() for _ in range(rng.randint(0, min(len(cols), 4)))]
                for i in block_rows:
                    for j in block_cols:
                        if rng.random() < 0.8:
                            x = rng.choice((-3, -2, -1, 1, 2, 3))
                            matrix[i][j] = x * rng.randint(1, 60) if scaled else x
            assert core._permanent_rows(matrix) == brute_permanent(matrix), matrix
            masks = [sum(1 << j for j, x in enumerate(row) if x) for row in matrix]
            shapes = [(len(r), c.bit_count()) for r, c in core._components(masks)]
            kinds["split"] += len(shapes) > 1
            kinds["tall-block"] += any(r > c > 0 for r, c in shapes)
            kinds["zero-row"] += 0 in masks
            kinds["zero-column"] += not all(any(row[j] for row in matrix) for j in range(m))
            kinds["scaled"] += scaled
        assert all(count >= 20 for count in kinds.values()), kinds

    def test_zero_rows_and_zero_columns(self):
        assert core._permanent_rows([[0, 0, 0], [1, 2, 3]]) == 0
        rows = [[0, 2, 0, 1, 0], [0, 3, 0, 0, 0], [0, 0, 0, 5, 7]]
        assert core._permanent_rows(rows) == brute_permanent(rows) == 21
        assert core._permanent_rows([[]]) == 0

    def test_block_with_more_rows_than_columns(self):
        # rows 0-2 share the two columns 0-1; rows 3-4 a 2-by-4 block
        rows = [[1, 2, 0, 0, 0, 0], [3, 0, 0, 0, 0, 0], [4, 5, 0, 0, 0, 0],
                [0, 0, 1, 1, 1, 1], [0, 0, 1, 1, 1, 1]]
        assert core._permanent_rows(rows) == 0 == brute_permanent(rows)

    def test_negative_block_with_zero_permanent(self):
        # [[1, 1], [1, -1]] and [[1, 1, 1], [1, 1, 1], [-1, -1, 2]] both
        # have permanent 0, beside a block of permanent 3
        for zero in ([[1, 1], [1, -1]], [[1, 1, 1], [1, 1, 1], [-1, -1, 2]]):
            assert brute_permanent(zero) == 0
            k = len(zero)
            rows = [row + [0, 0] for row in zero] + [[0] * k + [1, 1], [0] * k + [1, 2]]
            assert core._permanent_rows(rows) == 0 == brute_permanent(rows)
            assert core._permanent_rows(rows[k:]) == 3

    def test_square_blocks_of_odd_and_even_order(self):
        rng = random.Random(496)
        for k in range(1, 8):
            for scale in (1, 60, 1 << 70):
                block = [[rng.randint(-4, 4) * rng.randint(1, scale) for _ in range(k)]
                         for _ in range(k)]
                got = core._permanent_rows(block)
                assert got == brute_permanent(block), block
                assert type(got) is int
                # beside a 1-by-1 block of 3 the product is tripled
                rows = [row + [0] for row in block] + [[0] * k + [3]]
                assert core._permanent_rows(rows) == 3 * got

    def test_one_process_walks_every_component(self, monkeypatch):
        # J - I of order 17 with row 0 doubled: 2^16 sets over distinct
        # columns and entries 0/2, so no complement route, and no child
        # process however many CPUs the process may run on.
        forks = []

        def fork():
            forks.append(1)
            raise OSError("no process slots")
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)))
        monkeypatch.setattr(os, "fork", fork)
        derange = [[0 if i == j else 1 for j in range(17)] for i in range(17)]
        derange[0] = [2 * x for x in derange[0]]
        assert core._permanent_rows(derange) == 2 * derangement_numbers(17)[17]
        assert forks == []


class TestSplitWalk:
    """The walk that once split over child processes: the same integers
    however many CPUs are reported, and no child process."""

    @pytest.mark.parametrize("cpus", [1, 2, 4])
    def test_matches_serial_walk_and_brute_force(self, monkeypatch, cpus):
        forks = []

        def fork():
            forks.append(1)
            raise OSError("no process slots")
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        monkeypatch.setattr(os, "fork", fork)
        rng = random.Random(1009 + cpus)
        kinds = {"square": 0, "wide": 0, "negative": 0, "big": 0}
        for _ in range(30):
            n = rng.randint(1, 6)
            m = rng.randint(n, 7)
            rows = [[rng.randint(-3, 3) for _ in range(m)] for _ in range(n)]
            big = rng.random() < 0.4
            if big:  # past 64 bits
                rows = [[x << rng.randint(60, 90) for x in row] for row in rows]
            got = core._permanent_rows(rows)
            assert got == brute_permanent(rows), rows
            assert type(got) is int
            kinds["square"] += n == m
            kinds["wide"] += n < m
            kinds["negative"] += any(x < 0 for row in rows for x in row)
            kinds["big"] += big
        assert all(count >= 5 for count in kinds.values()), kinds
        assert forks == []


def repeated_columns(rng, r, m, n_classes, big=False):
    """m columns of length r, each of `n_classes` <= m random columns at
    least once, in random order, with entries in [-4, 4], or past 64 bits
    when `big`."""
    shift = 70 if big else 0
    classes = [tuple(rng.randint(-4, 4) << shift for _ in range(r)) for _ in range(n_classes)]
    cols = classes + [rng.choice(classes) for _ in range(m - n_classes)]
    rng.shuffle(cols)
    return cols


class TestColumnSetSums:
    """The grouped table walk against the one-set-at-a-time reference."""

    def test_matches_the_reference_walk(self):
        rng = random.Random(2718)
        kinds = {"all-equal": 0, "repeats": 0, "distinct": 0, "big": 0, "negative": 0,
                 "empty": 0, "head": 0, "table": 0}
        for _ in range(160):
            r = rng.randint(1, 5)
            m = 0 if rng.random() < 0.05 else rng.choice((rng.randint(1, 8), rng.randint(9, 13)))
            n_classes = min(m, rng.choice((1, rng.randint(1, max(1, m)), m)))
            big = rng.random() < 0.3
            cols = repeated_columns(rng, r, m, n_classes, big)
            start = tuple(rng.randint(-3, 3) for _ in range(r))
            for limit in range(m + 1):
                assert core._column_set_sums(start, cols, limit) == \
                    column_set_sums(start, cols, limit), (start, cols, limit)
            distinct = len(set(cols))
            kinds["all-equal"] += m > 1 and distinct == 1
            kinds["repeats"] += 1 < distinct < m
            kinds["distinct"] += m > 1 and distinct == m
            kinds["big"] += big and any(x for col in cols for x in col)
            kinds["negative"] += any(x < 0 for col in cols for x in col)
            kinds["empty"] += m == 0
            if 1 << m > core._TABLE_ENTRIES:
                head, levels = core._tail_table(cols, m)
                kinds["head"] += bool(head)
                kinds["table"] += sum(map(len, levels)) > 1
        assert all(count >= 5 for count in kinds.values()), kinds

    def test_table_holds_at_most_its_entries(self):
        # Thirteen distinct columns: the table takes eight (2^8 entries) and
        # the head walks the other five; one class of 300 equal columns is
        # all table, one entry of weight C(300, k) for each size k <= limit.
        cols = [(j, 1, -j, j * j) for j in range(13)]
        head, levels = core._tail_table(cols, 13)
        assert len(head) == 5 and sum(map(len, levels)) == 1 << 8
        assert [len(level) for level in levels] == [comb(8, k) for k in range(9)]
        head, levels = core._tail_table([(1, 2)] * 300, 6)
        assert head == [] and levels == [[((k, 2 * k), comb(300, k))] for k in range(7)]
        for limit in (0, 3, 6):
            assert core._column_set_sums((1, -1), [(1, 2)] * 300, limit) == [
                comb(300, k) * (1 + k) * (2 * k - 1) for k in range(limit + 1)]

    def test_grouped_sets(self):
        rng = random.Random(99)
        for _ in range(100):
            m = rng.randint(0, 9)
            cols = [(rng.randint(0, 2),) for _ in range(m)]
            limit = rng.randint(0, m)
            picks = {tuple(sorted(cols[j] for j in t))
                     for k in range(limit + 1) for t in combinations(range(m), k)}
            assert core._grouped_sets(cols, limit) == len(picks)
        ones = [(2,) * 16] * 15
        assert core._grouped_sets(ones, 15) == 16
        derange = [tuple(0 if i == j else 2 for i in range(17)) for j in range(16)]
        assert core._grouped_sets(derange, 16) == 1 << 16


def derangement_numbers(n):
    """D_0..D_n by D_k = (k - 1)(D_(k-1) + D_(k-2))."""
    d = [1, 0]
    for k in range(2, n + 1):
        d.append((k - 1) * (d[-1] + d[-2]))
    return d[:n + 1]


def menage_number(n):
    """Touchard's formula for the reduced menage number U_n, n >= 2."""
    return sum((-1) ** k * 2 * n * comb(2 * n - k, k) // (2 * n - k) * factorial(n - k)
               for k in range(n + 1))


class TestComplementRoute:
    """Dense 0/1 components counted from the rook numbers of the complement
    of their pattern, beside the Ryser walk."""

    def test_matching_counts_equal_brute_force(self):
        rng = random.Random(404)
        for _ in range(60):
            width = rng.randint(1, 6)
            rows = [rng.getrandbits(width) for _ in range(rng.randint(0, 5))]
            bits = prod(row.bit_count() + 1 for row in rows).bit_length()
            packed = core._matching_counts(rows, bits)
            counts = [packed >> (k * bits) & ((1 << bits) - 1) for k in range(len(rows) + 1)]
            assert counts == brute_matching_counts(rows, width), rows

    def test_complement_permanent_at_any_size(self):
        # The route itself, without the choice, on small 0/1 matrices; the
        # first has one row of 4 gaps, so its counts fill their fields.
        rng = random.Random(403)
        cases = [[[1, 1, 1, 1, 1, 1], [1, 0, 0, 0, 0, 1], [1, 1, 1, 1, 1, 1]]]
        for _ in range(80):
            c = rng.randint(1, 6)
            r = rng.randint(1, c)
            density = rng.uniform(0.3, 1)
            cases.append([[int(rng.random() < density) for _ in range(c)] for _ in range(r)])
        for rows in cases:
            masks = [sum(x << j for j, x in enumerate(row)) for row in rows]
            full = (1 << len(rows[0])) - 1
            parts, _ = core._complement_plan(masks, range(len(rows)), full)
            assert core._complement_permanent(parts, len(rows), len(rows[0])) == \
                brute_permanent(rows), rows

    def test_estimate_bounds_the_state_updates(self, monkeypatch):
        updates, expand = [], core._expand_row

        def counted(states, row, later, width):
            updates.append(sum(1 + (row & ~used).bit_count() for used in states))
            return expand(states, row, later, width)
        monkeypatch.setattr(core, "_expand_row", counted)
        rng = random.Random(405)
        tight = 0
        for _ in range(200):
            width = rng.randint(1, 10)
            rows = [rng.getrandbits(width) & rng.getrandbits(width)
                    for _ in range(rng.randint(0, 8))]
            updates.clear()
            core._matching_counts(rows, 64)
            assert sum(updates) <= core._expansion_work(rows), rows
            tight += sum(updates) == core._expansion_work(rows)
        assert tight >= 5

    @pytest.fixture
    def routes(self, monkeypatch):
        """Counts of the components each route counted, wide and with a
        complement of several components among them."""
        seen = {"complement": 0, "ryser": 0, "wide": 0, "several": 0}
        complement, walk = core._complement_permanent, core._column_set_sums

        def by_complement(parts, r, c):
            seen["complement"] += 1
            seen["wide"] += r < c
            seen["several"] += len(parts) > 1
            return complement(parts, r, c)

        def by_walk(*args):
            seen["ryser"] += 1
            return walk(*args)
        monkeypatch.setattr(core, "_complement_permanent", by_complement)
        monkeypatch.setattr(core, "_column_set_sums", by_walk)
        return seen

    def test_dense_zero_one_sweep(self, routes):
        rng = random.Random(406)
        for _ in range(50):
            c = rng.choice((rng.randint(1, 9), 9))  # 5 or 6 rows on 9 columns may take either route
            r = rng.randint(max(1, c - 4), min(c, 6))
            density = rng.uniform(0.6, 0.95)
            rows = [[int(rng.random() < density) for _ in range(c)] for _ in range(r)]
            assert core._permanent_rows(rows) == brute_permanent(rows), rows
            family = fam(range(c), [[j for j in range(c) if row[j]] for row in rows])
            assert core.count_sdrs(family) == len(brute_all_sdrs(family.sets)), rows
        assert all(count >= 5 for count in routes.values()), routes

    def test_derangement_numbers(self, routes):
        d = derangement_numbers(20)
        for n in range(1, 21):
            rows = [[int(i != j) for j in range(n)] for i in range(n)]
            assert core._permanent_rows(rows) == d[n]
            family = fam(range(n), [[j for j in range(n) if j != i] for i in range(n)])
            assert core.count_sdrs(family, ceiling=20) == d[n]
        assert routes["complement"] == routes["several"] == 2 * 11  # orders 10 to 20

    def test_menage_numbers(self, routes):
        for n in range(3, 21):
            rect = latin.LatinRectangle(n, [list(range(1, n + 1)), [*range(2, n + 1), 1]])
            assert latin.count_extensions(rect, ceiling=n) == menage_number(n), n
        assert routes["complement"] >= 10

    def test_derangements_of_order_17_walk_no_set(self, monkeypatch):
        walks = []
        monkeypatch.setattr(core, "_column_set_sums", lambda *args: walks.append(args))
        rows = [[int(i != j) for j in range(17)] for i in range(17)]
        assert core._permanent_rows(rows) == derangement_numbers(17)[17]
        assert walks == []

    def test_guard_weighs_sets_by_machine_words(self, monkeypatch):
        """Each walked set weighs the 64-bit words of its component's
        largest entry, and at least 1.  J of order 17 walks 2^16 sets by
        shape: entries under 64 bits are counted, and entries of 127 * 64 + 1
        bits weigh 128 words a set, 2^23 in all, and are refused before any
        set is walked.  The weight is per component: a big 2x2 block beside
        a small 17x17 one adds only its own 2 sets."""
        small = [[(1 << 63) - 1] * 17 for _ in range(17)]
        assert core._permanent_rows(small) == factorial(17) * ((1 << 63) - 1) ** 17
        huge = 1 << (127 * 64)
        monkeypatch.setattr(core, "_column_set_sums", None)
        with pytest.raises(ResourceLimitError, match=(
                f"walks {1 << 16} column sets, {1 << 23} weighed by the words of their entries, "
                f"not below the work ceiling {core._COUNT_TERM_GUARD}")):
            core._permanent_rows([[huge] * 17 for _ in range(17)])
        monkeypatch.undo()
        rows = [[1] * 17 + [0, 0] for _ in range(17)] + [[0] * 17 + [huge, huge]] * 2
        assert core._permanent_rows(rows) == factorial(17) * 2 * huge ** 2

    def test_guard_still_counts_by_shape(self):
        # J - I of order 24 is cheap by its complement, but its walk by
        # shape (2^23 sets) is refused with the same text as before.
        rows = [[int(i != j) for j in range(24)] for i in range(24)]
        with pytest.raises(ResourceLimitError, match=f"walks {1 << 23} column sets"):
            core._permanent_rows(rows)


class TestArraySdr:
    def test_single_cell(self):
        arr = core.ArrayFamily([1], [[[1]]])
        assert core.array_sdr(arr) == ((1,),)

    def test_two_by_two(self):
        arr = core.ArrayFamily([1, 2], [[[1, 2], [1, 2]], [[1, 2], [1, 2]]])
        assert core.verify_array_sdr(arr, payload_of("array-sdr", arr)) == (True, None)

    def test_impossible_row(self):
        arr = core.ArrayFamily([1], [[[1], [1]], [[1], [1]]])
        assert core.array_sdr(arr) is None

    def test_ceiling(self):
        arr = core.ArrayFamily([1], [[[1]] * 5 for _ in range(5)])
        with pytest.raises(ResourceLimitError):
            core.array_sdr(arr)

    def test_exhaustive_against_brute(self):
        # every 2x2 grid over ground {1,2}, then random 2x3 grids over four
        # symbols: the solver returns the first valid grid in row-major
        # ground order, as brute force finds it
        from itertools import product

        def first_valid(arr):
            n_cols = arr.shape[1]
            for cells in product(*(cell for row in arr.grid for cell in row)):
                grid = tuple(cells[r * n_cols:(r + 1) * n_cols] for r in range(arr.shape[0]))
                if core.verify_array_sdr(arr, {"grid": [list(row) for row in grid]})[0]:
                    return grid
            return None

        cells = [(), (1,), (2,), (1, 2)]
        arrays = [core.ArrayFamily([1, 2], [[a, b], [c, d]])
                  for a, b, c, d in product(cells, repeat=4)]
        rng = random.Random(31)
        ground = [4, 1, 3, 2]
        arrays += [core.ArrayFamily(ground, [[rng.sample(ground, rng.randint(1, 4))
                                              for _ in range(3)] for _ in range(2)])
                   for _ in range(150)]
        for arr in arrays:
            grid = core.array_sdr(arr)
            assert grid == first_valid(arr)
            if grid is not None:
                assert core.verify_array_sdr(arr, payload_of("array-sdr", arr)) == (True, None)


class TestInvariants:
    def test_oracle_equivalence_small(self):
        ground = (1, 2, 3)
        for n in range(4):
            for sets in all_families(n, ground):
                f = fam(ground, sets)
                result = core.hall_check(f)
                expected = brute_sdr_exists(sets)
                assert isinstance(result, core.Sdr) == expected
                assert core.verify_sdr(f, payload_of("sdr", f)) == (True, None)
                # defect consistency
                report = core.partial_sdr(f)
                assert (report.defect == 0) == expected
                assert report.defect == brute_defect(sets, ground)
                if report.defect:
                    violator = report.violator
                    assert core.verify_defect(f, payload_of("defect", f)) == (True, None)
                    assert len(violator.indices) - len(violator.union) == report.defect
                else:
                    assert report.violator is None
                # counting consistency
                count = core.count_sdrs(f)
                assert count == len(brute_all_sdrs(sets))
                assert (count > 0) == expected

    def test_monotonicity(self):
        rng = random.Random(20260808)
        ground = list(range(5))
        for _ in range(300):
            sets = [rng.sample(ground, rng.randint(0, 4)) for _ in range(rng.randint(1, 4))]
            f = fam(ground, sets)
            before = core.count_sdrs(f)
            i = rng.randrange(len(sets))
            missing = [x for x in ground if x not in sets[i]]
            if not missing:
                continue
            enlarged = [list(s) for s in sets]
            enlarged[i].append(rng.choice(missing))
            g = fam(ground, enlarged)
            after = core.count_sdrs(g)
            assert after >= before
            if isinstance(core.hall_check(f), core.Sdr):
                assert isinstance(core.hall_check(g), core.Sdr)
