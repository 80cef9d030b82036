"""Finite groups and simultaneous left/right coset representatives.

A subgroup of index n always admits n elements that represent every left
coset and every right coset at once; the counting argument puts the coset
intersection pattern under the SDR machinery, which does the search.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import _bitmatch, core
from .errors import ValidationError

ASSOCIATIVITY_CEILING = 256


class FiniteGroup:
    """A finite group given by its multiplication table.

    ``table[i][j]`` is the index of elements[i] * elements[j].  Identity and
    inverse laws are always verified; associativity is checked exhaustively
    up to order 256 and refused above (permutation input never needs it).
    """

    __slots__ = ("elements", "table", "identity", "_index", "_inverse")

    def __init__(self, elements, table, _trusted_associative=False):
        index = core._index_labels(elements, "elements")
        elements = tuple(index)
        n = len(elements)
        if not isinstance(table, (list, tuple)) or len(table) != n or any(
            not isinstance(row, (list, tuple)) or len(row) != n for row in table
        ):
            raise ValidationError("table must be square and match the element count",
                                  field="table")
        table = tuple(tuple(row) for row in table)
        for i, row in enumerate(table):
            for j, k in enumerate(row):
                if isinstance(k, bool) or not isinstance(k, int) or not 0 <= k < n:
                    raise ValidationError(f"table[{i}][{j}] is not an element index",
                                          field="table")
        identity = None
        for e in range(n):
            if all(table[e][j] == j and table[j][e] == j for j in range(n)):
                identity = e
                break
        if identity is None:
            raise ValidationError("table has no identity element", field="table")
        inverse = [None] * n
        for i in range(n):
            for j in range(n):
                if table[i][j] == identity and table[j][i] == identity:
                    inverse[i] = j
                    break
            if inverse[i] is None:
                raise ValidationError(f"element {elements[i]!r} has no inverse",
                                      field="table")
        if not _trusted_associative:
            if n > ASSOCIATIVITY_CEILING:
                raise ValidationError(
                    f"cannot verify associativity above order {ASSOCIATIVITY_CEILING}"
                )
            for i in range(n):
                row_i = table[i]
                for j in range(n):
                    ij = table[i][j]
                    row_ij = table[ij]
                    row_j = table[j]
                    for k in range(n):
                        if row_ij[k] != row_i[row_j[k]]:
                            raise ValidationError(
                                f"associativity fails at indices ({i},{j},{k})",
                                field="table",
                            )
        self.elements = elements
        self.table = table
        self.identity = elements[identity]
        self._index = index
        self._inverse = tuple(inverse)

    @property
    def order(self) -> int:
        return len(self.elements)

    def mul(self, a, b):
        return self.elements[self.table[self._index[a]][self._index[b]]]

    def inverse(self, a):
        return self.elements[self._inverse[self._index[a]]]

    @classmethod
    def from_permutations(cls, generators, degree: int) -> "FiniteGroup":
        """Close a list of permutations (1-based image tuples) under
        composition; elements are the sorted permutation tuples."""
        if isinstance(degree, bool) or not isinstance(degree, int) or degree < 1:
            raise ValidationError("degree must be a positive integer", field="degree")
        gens = []
        for g in generators:
            try:
                ok = sorted(g) == list(range(1, degree + 1))
            except TypeError:
                ok = False
            if not ok:
                raise ValidationError(f"{g!r} is not a permutation of 1..{degree}",
                                      field="permutations")
            gens.append(tuple(g))
        identity = tuple(range(1, degree + 1))

        def compose(p, q):  # apply q first, then p
            return tuple(p[q[i] - 1] for i in range(degree))

        seen = {identity}
        frontier = [identity]
        while frontier:
            nxt = []
            for g in frontier:
                for s in gens:
                    h = compose(g, s)
                    if h not in seen:
                        seen.add(h)
                        nxt.append(h)
            frontier = nxt
        elements = sorted(seen)
        pos = {g: k for k, g in enumerate(elements)}
        table = [[pos[compose(a, b)] for b in elements] for a in elements]
        return cls(elements, table, _trusted_associative=True)


def group_from_json(obj: dict) -> FiniteGroup:
    if not isinstance(obj, dict):
        raise ValidationError("group file must be an object", field="elements")
    if "table" in obj:
        if "elements" not in obj:
            raise ValidationError("table input needs 'elements'", field="elements")
        return FiniteGroup(obj["elements"], obj["table"])
    if "permutations" in obj:
        if "degree" not in obj:
            raise ValidationError("permutation input needs 'degree'", field="degree")
        if not isinstance(obj["permutations"], list):
            raise ValidationError("'permutations' must be a list", field="permutations")
        return FiniteGroup.from_permutations(obj["permutations"], obj["degree"])
    raise ValidationError("group file needs 'table' or 'permutations'", field="table")


def cyclic_group(n: int) -> FiniteGroup:
    shift = tuple(list(range(2, n + 1)) + [1])
    return FiniteGroup.from_permutations([shift], n)


def symmetric_group(n: int) -> FiniteGroup:
    if n == 1:
        return FiniteGroup.from_permutations([(1,)], 1)
    swap = tuple([2, 1] + list(range(3, n + 1)))
    cycle = tuple(list(range(2, n + 1)) + [1])
    return FiniteGroup.from_permutations([swap, cycle], n)


def dihedral_group(n: int) -> FiniteGroup:
    """Symmetries of an n-gon, as permutations of its corners (order 2n)."""
    rotation = tuple(list(range(2, n + 1)) + [1])
    reflection = tuple(((n - i) % n) + 1 for i in range(n))
    return FiniteGroup.from_permutations([rotation, reflection], n)


def elements_from_json(values, field: str) -> list:
    """Group elements as decoded from JSON: a list, in which each list (a
    permutation's image tuple) becomes a tuple."""
    if not isinstance(values, list):
        raise ValidationError(f"{field} must be a list of group elements", field=field)
    return [tuple(x) if isinstance(x, list) else x for x in values]


def subgroup_closure(g: FiniteGroup, generators) -> tuple:
    """Smallest subset containing the generators and the identity that is
    closed under the product (hence under inverses, the group being finite)."""
    mask = core._mask_of(generators, g._index, "generators")
    members = {g._index[g.identity], *_bitmatch.bits_of(mask)}
    table = g.table
    frontier = list(members)
    while frontier:
        fresh = []
        for a in list(members):
            for b in frontier:
                for prod in (table[a][b], table[b][a]):
                    if prod not in members:
                        members.add(prod)
                        fresh.append(prod)
        frontier = fresh
    return tuple(g.elements[i] for i in sorted(members))


def _subgroup_indices(g: FiniteGroup, subgroup) -> list[int]:
    index = g._index
    ids = []
    seen = set()
    for x in subgroup:
        if x not in index:
            raise ValidationError(f"{x!r} is not a group element")
        if index[x] in seen:
            raise ValidationError(f"subgroup repeats {x!r}")
        seen.add(index[x])
        ids.append(index[x])
    if index[g.identity] not in seen:
        raise ValidationError("subgroup must contain the identity")
    for a in ids:
        for b in ids:
            if g.table[a][b] not in seen:
                raise ValidationError("subgroup is not closed under the product")
    return sorted(seen)


@dataclass(frozen=True)
class CosetSystem:
    """Left and right coset partitions of a subgroup, in least-element order."""

    subgroup: tuple
    left: tuple
    right: tuple

    @property
    def index(self) -> int:
        return len(self.left)


def coset_system(g: FiniteGroup, subgroup) -> CosetSystem:
    h = _subgroup_indices(g, subgroup)
    h_set = set(h)
    n = g.order
    table = g.table

    def partition(left_side):
        assigned = [False] * n
        cosets = []
        for x in range(n):
            if assigned[x]:
                continue
            coset = sorted({table[x][b] if left_side else table[b][x] for b in h_set})
            for y in coset:
                assigned[y] = True
            cosets.append(tuple(g.elements[y] for y in coset))
        return tuple(cosets)

    return CosetSystem(
        subgroup=tuple(g.elements[i] for i in h),
        left=partition(True),
        right=partition(False),
    )


def coset_family(g: FiniteGroup, subgroup) -> core.SetFamily:
    """The family T_i = {j : left coset i meets right coset j}.

    Every union of k of these sets has at least k members, because k left
    cosets hold k|H| elements and cannot fit inside fewer than k right
    cosets, so an SDR always exists.
    """
    system = coset_system(g, subgroup)
    right_of = {}
    for j, coset in enumerate(system.right):
        for x in coset:
            right_of[x] = j
    sets = []
    for coset in system.left:
        sets.append(sorted({right_of[x] for x in coset}))
    return core.SetFamily(range(system.index), sets)


def simultaneous_reps(g: FiniteGroup, subgroup) -> tuple:
    """Elements hitting every left coset once and every right coset once."""
    system = coset_system(g, subgroup)
    family = coset_family(g, subgroup)
    result = core.hall_check(family)
    if not isinstance(result, core.Sdr):  # impossible by the counting argument
        raise AssertionError("coset family unexpectedly failed the check")
    reps = []
    for i, j in enumerate(result.reps):
        meet = set(system.left[i]) & set(system.right[j])
        reps.append(min(meet, key=g._index.get))
    return tuple(reps)


def validate_simultaneous_reps(g: FiniteGroup, subgroup, reps) -> tuple[bool, str | None]:
    """Each left coset and each right coset must hold exactly one entry."""
    system = coset_system(g, subgroup)
    reps = tuple(reps)
    if len(reps) != system.index:
        return False, f"expected {system.index} representatives, got {len(reps)}"
    try:
        chosen = core._mask_of(reps, g._index, "reps")
    except ValidationError as exc:  # an unhashable or unknown entry
        return False, str(exc)
    for name, cosets in (("left", system.left), ("right", system.right)):
        for k, coset in enumerate(cosets):
            hits = (core._mask_of(coset, g._index, name) & chosen).bit_count()
            if hits != 1:
                return False, f"{name} coset {k} holds {hits} representatives"
    return True, None


def verify_cosets(g: FiniteGroup, subgroup, cert: dict) -> tuple[bool, str | None]:
    """Check a ``cosets`` certificate object: its "reps" are simultaneous
    coset representatives of `subgroup`."""
    return validate_simultaneous_reps(g, subgroup, elements_from_json(cert.get("reps"), "reps"))
