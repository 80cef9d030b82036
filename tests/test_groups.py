import json
import random
import time
from itertools import islice, product

import pytest

from oracles import cyclic_group, dihedral_group, group_inverse, group_mul, symmetric_group
from transversal import core, groups
from transversal.errors import ResourceLimitError, ValidationError


def klein_table():
    # C2 x C2 as a table over letter labels
    table = [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]]
    return groups.FiniteGroup("eabc", table)


class TestFiniteGroup:
    def test_symmetric_group_order(self):
        assert symmetric_group(3).order == 6
        assert symmetric_group(4).order == 24

    def test_cyclic_order(self):
        assert cyclic_group(5).order == 5

    def test_dihedral_order(self):
        assert dihedral_group(4).order == 8

    def test_table_group(self):
        g = klein_table()
        assert g.identity == "e"
        assert group_mul(g, "a", "b") == "c"
        assert group_inverse(g, "a") == "a"

    def test_missing_inverse_rejected(self):
        with pytest.raises(ValidationError):
            groups.FiniteGroup("ea", [[0, 1], [1, 1]])

    def test_nonassociative_loop_rejected(self):
        table = [
            [0, 1, 2, 3, 4],
            [1, 0, 3, 4, 2],
            [2, 4, 0, 1, 3],
            [3, 2, 4, 0, 1],
            [4, 3, 1, 2, 0],
        ]
        with pytest.raises(ValidationError, match="associativity"):
            groups.FiniteGroup(range(5), table)

    def test_table_above_the_associativity_ceiling_is_too_large(self):
        n = groups.ASSOCIATIVITY_CEILING + 1
        table = [[(i + j) % n for j in range(n)] for i in range(n)]
        with pytest.raises(ResourceLimitError, match=f"order {n} .* ceiling 256"):
            groups.FiniteGroup(range(n), table)

    def test_json_table_and_permutations(self):
        g = groups.group_from_json(
            {"elements": ["e", "a"], "table": [[0, 1], [1, 0]]}
        )
        assert g.order == 2
        h = groups.group_from_json({"permutations": [[2, 1, 3]], "degree": 3})
        assert h.order == 2


def brute_closure(generators, degree):
    """The permutations that products of `generators` reach, by repeated
    composition from the identity."""
    found = {tuple(range(1, degree + 1))}
    frontier = list(found)
    while frontier:
        reached = {tuple(p[i - 1] for i in g) for p in frontier for g in generators}
        frontier = list(reached - found)
        found |= reached
    return found


class TestClose:
    def test_generators_that_add_nothing_get_no_step(self):
        rng = random.Random(300)
        gens = [tuple(rng.sample(range(1, 9), 8)) for _ in range(300)]
        start = time.perf_counter()
        assert groups.FiniteGroup.from_permutations(gens, 8).order == 40320
        assert time.perf_counter() - start < 2.0
        kept, closure = [], brute_closure([], 8)
        for g in gens:
            if g not in closure:
                kept.append(g)
                closure = brute_closure(kept, 8)
        found = list(groups._close(gens, 8))
        assert len(found) == len(set(found)) and set(found) == closure
        assert len(kept) < 5

    def test_elements_come_once_each_and_lazily(self):
        # S_10 is over the entry ceiling, so only a lazy closure yields these.
        s10 = [(2, 1, *range(3, 11)), (*range(2, 11), 1)]
        first = list(islice(groups._close(s10, 10), 1000))
        assert len(set(first)) == 1000 and first[0] == tuple(range(1, 11))
        d5 = [(2, 3, 4, 5, 1), (1, 5, 4, 3, 2), (2, 3, 4, 5, 1)]
        found = list(groups._close(d5, 5))
        assert len(found) == len(set(found)) == 10
        assert set(found) == brute_closure(d5, 5)


class TestSubgroupClosure:
    def test_empty_generators(self):
        s3 = symmetric_group(3)
        assert groups.subgroup_closure(s3, []) == (s3.identity,)

    def test_transposition(self):
        s3 = symmetric_group(3)
        assert len(groups.subgroup_closure(s3, [(2, 1, 3)])) == 2

    def test_two_generators_span(self):
        s3 = symmetric_group(3)
        assert len(groups.subgroup_closure(s3, [(2, 1, 3), (2, 3, 1)])) == 6

    def test_unknown_generator(self):
        with pytest.raises(ValidationError):
            groups.subgroup_closure(cyclic_group(3), [(9, 9, 9)])


class TestCosets:
    def test_normal_subgroup_gives_singletons(self):
        s3 = symmetric_group(3)
        a3 = groups.subgroup_closure(s3, [(2, 3, 1)])
        fam = groups.coset_family(s3, a3)
        assert all(len(t) == 1 for t in fam.sets)

    def test_trivial_subgroup_matches_indices(self):
        g = klein_table()
        fam = groups.coset_family(g, ["e"])
        assert fam.sets == tuple((i,) for i in range(4))

    def test_s3_nonnormal(self):
        s3 = symmetric_group(3)
        h = groups.subgroup_closure(s3, [(2, 1, 3)])
        fam = groups.coset_family(s3, h)
        assert fam.n == 3
        assert core.hall_check(fam)[0] == "found"

    def test_not_a_subgroup_rejected(self):
        s3 = symmetric_group(3)
        with pytest.raises(ValidationError):
            groups.coset_system(s3, [s3.identity, (2, 3, 1)])  # not closed


def brute_simultaneous_exists(g, subgroup) -> bool:
    """Exhaustive search over one pick per left coset."""
    system = groups.coset_system(g, subgroup)[1]
    for choice in product(*[list(c) for c in system["left"]]):
        hits = [sum(1 for x in choice if x in set(rc)) for rc in system["right"]]
        if all(h == 1 for h in hits):
            return True
    return False


class TestSimultaneousReps:
    def test_normal_subgroup(self):
        s3 = symmetric_group(3)
        a3 = groups.subgroup_closure(s3, [(2, 3, 1)])
        status, payload, diagnostics = groups.coset_system(s3, a3)
        assert (status, diagnostics) == ("found", "index 2")
        assert groups.verify_cosets(s3, a3, payload) == (True, None)

    def test_s3_transposition_subgroup(self):
        s3 = symmetric_group(3)
        h = groups.subgroup_closure(s3, [(2, 1, 3)])
        assert groups.verify_cosets(s3, h, groups.coset_system(s3, h)[1]) == (True, None)
        assert brute_simultaneous_exists(s3, h)

    def test_dihedral_nonnormal_order_two(self):
        d4 = dihedral_group(4)
        reflection = next(
            x for x in d4.elements
            if x != d4.identity and group_mul(d4, x, x) == d4.identity
            and len(groups.subgroup_closure(d4, [x])) == 2
        )
        h = groups.subgroup_closure(d4, [reflection])
        payload = groups.coset_system(d4, h)[1]
        assert len(payload["reps"]) == 4
        assert groups.verify_cosets(d4, h, payload) == (True, None)

    def test_wrong_reps_rejected_by_validator(self):
        s3 = symmetric_group(3)
        h = groups.subgroup_closure(s3, [(2, 1, 3)])
        system = groups.coset_system(s3, h)[1]
        bad = tuple(c[0] for c in system["left"])
        ok, _ = groups.verify_cosets(s3, h, with_reps(s3, h, bad))
        # a plain left transversal usually misses some right coset
        assert ok == brute_left_is_right(s3, h, bad)


    @pytest.mark.parametrize("stray", [[[1, 2, 3]], {"x": 1}, (9, 9, 9)])
    def test_unhashable_or_unknown_rep_rejected(self, stray):
        s3 = symmetric_group(3)
        h = groups.subgroup_closure(s3, [(2, 1, 3)])
        reps = list(groups.simultaneous_reps(s3, h))
        reps[1] = stray
        ok, reason = groups.verify_cosets(s3, h, with_reps(s3, h, reps))
        assert not ok and "reps" in reason

    def test_reps_do_not_depend_on_the_representation(self):
        s4 = symmetric_group(4)
        labels = s4.elements  # the sorted permutations
        table = [[labels.index(group_mul(s4, a, b)) for b in labels] for a in labels]
        as_table = groups.FiniteGroup(labels, table)
        assert all(group_mul(as_table, a, b) == group_mul(s4, a, b)
                   for a in labels for b in labels)
        assert all(group_inverse(as_table, a) == group_inverse(s4, a) for a in labels)
        subgroups = {groups.subgroup_closure(s4, [a, b]) for a in labels for b in labels}
        assert len(subgroups) == 30  # every subgroup of S_4 has two generators
        for h in subgroups:
            assert groups.subgroup_closure(as_table, h) == h
            assert groups.simultaneous_reps(as_table, h) == groups.simultaneous_reps(s4, h)

    def test_check_runs_no_solver(self, monkeypatch):
        """With `coset_system` and its coset helper made to raise,
        `verify_cosets` still accepts the payload and refuses it with reps
        that are a left transversal but not a right one."""
        s4 = symmetric_group(4)
        h = groups.subgroup_closure(s4, [(2, 1, 3, 4)])
        system = groups.coset_system(s4, h)[1]
        bad = tuple(c[0] for c in system["left"])
        assert not brute_left_is_right(s4, h, bad)
        as_json = json.loads(json.dumps(system))

        def solver(*args):
            raise AssertionError("the check ran the solver")

        monkeypatch.setattr(groups, "coset_system", solver)
        monkeypatch.setattr(groups, "_cosets", solver)
        assert groups.verify_cosets(s4, h, as_json) == (True, None)
        forged = {**as_json, "reps": [list(x) for x in bad]}
        ok, reason = groups.verify_cosets(s4, h, forged)
        assert not ok and reason.startswith("the right cosets of representatives ")

    def test_every_pick_checked_against_brute_force(self):
        d4 = dihedral_group(4)
        for x in d4.elements:
            h = groups.subgroup_closure(d4, [x])
            system = groups.coset_system(d4, h)[1]
            for choice in product(*[list(c) for c in system["left"]]):
                ok, _ = groups.verify_cosets(d4, h, with_reps(d4, h, choice))
                assert ok == brute_left_is_right(d4, h, choice)


def with_reps(g, subgroup, reps):
    """The payload of `cosets` for `subgroup` of `g`, with `reps` for its reps."""
    return {**groups.coset_system(g, subgroup)[1], "reps": list(reps)}


def brute_left_is_right(g, subgroup, reps):
    system = groups.coset_system(g, subgroup)[1]
    hits = [sum(1 for x in reps if x in set(rc)) for rc in system["right"]]
    return all(h == 1 for h in hits)
