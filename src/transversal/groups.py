"""Finite groups, held as permutations, and simultaneous coset representatives.

A subgroup of index n has n elements that represent every left coset and
every right coset at once (Hall 1935, by the marriage theorem).  Miller
(1910) reads them off the double cosets HxH, each a union of k left and k
right cosets, every left one meeting every right one."""

from __future__ import annotations

from operator import itemgetter

from . import core
from .errors import ResourceLimitError, ValidationError

ASSOCIATIVITY_CEILING = 256
ENTRY_CEILING = 1 << 20  # stored image entries: group order times degree


def _close(generators, degree):
    """Yield the group the 1-based image tuples `generators` generate,
    identity first, each element once as it is found.  A generator in the
    group of those before it (as the identity: itemgetter gives no tuple at
    degree 1) gets no step: one product per element and generator kept."""
    queue = [tuple(range(1, degree + 1))]
    seen = set(queue)
    yield queue[0]
    steps = []
    for s in generators:
        if s in seen:
            continue
        steps.append(itemgetter(*[i - 1 for i in s]))
        closed = len(queue)  # the group so far, closed under the earlier steps
        for k, p in enumerate(queue):
            for step in steps[-1:] if k < closed else steps:
                q = step(p)
                if q not in seen:
                    seen.add(q)
                    queue.append(q)
                    _check_entries(len(queue), degree)
                    yield q


def _check_entries(order, degree):
    if order * degree > ENTRY_CEILING:
        raise ResourceLimitError(f"group order reached {order} at degree {degree}, over "
                                 f"the ceiling of {ENTRY_CEILING} image entries")


class FiniteGroup:
    """A finite group, held as permutations multiplied by composition.

    Permutation groups keep their elements, 1-based image tuples, sorted.  A
    table (``table[i][j]`` the index of elements[i] * elements[j]) becomes
    its left-regular representation, row i being x -> i * x, once its
    identity and inverse laws hold and associativity is checked exhaustively.
    A table above order 256 is refused as too large (ResourceLimitError)
    once its shape is checked, before any law is."""

    __slots__ = ("elements", "identity", "_index", "_perms", "_at")

    def __init__(self, elements, table):
        index = core._index_labels(elements, "elements")
        elements = tuple(index)
        n = len(elements)
        if not isinstance(table, (list, tuple)) or len(table) != n or any(
            not isinstance(row, (list, tuple)) or len(row) != n for row in table
        ):
            raise ValidationError("table must be square and match the element count",
                                  field="table")
        if n > ASSOCIATIVITY_CEILING:
            raise ResourceLimitError(f"table group of order {n} is above the associativity "
                                     f"ceiling {ASSOCIATIVITY_CEILING}")
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
        for i in range(n):
            if not any(table[i][j] == identity and table[j][i] == identity for j in range(n)):
                raise ValidationError(f"element {elements[i]!r} has no inverse",
                                      field="table")
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
        self.identity = elements[identity]
        self._index = index
        self._perms = tuple(tuple(k + 1 for k in row) for row in table)
        self._at = {p: k for k, p in enumerate(self._perms)}

    @property
    def order(self) -> int:
        return len(self.elements)

    def _product(self, i: int, j: int) -> int:
        """Index of the product of the elements at indices i and j."""
        p = self._perms[i]
        return self._at[tuple([p[x - 1] for x in self._perms[j]])]

    def _generated(self, indices):
        """Yield the indices of the subgroup generated by those at `indices`."""
        gens = [self._perms[k] for k in indices]
        for p in _close(gens, len(self._perms[0])):
            yield self._at[p]

    @classmethod
    def from_permutations(cls, generators, degree: int) -> "FiniteGroup":
        """Close a list of permutations (1-based image tuples) under
        composition; elements are the sorted permutation tuples.  Refused
        once order times degree passes ``ENTRY_CEILING``."""
        if isinstance(degree, bool) or not isinstance(degree, int) or degree < 1:
            raise ValidationError("degree must be a positive integer", field="degree")
        _check_entries(1, degree)
        target = list(range(1, degree + 1))
        gens = []
        for g in generators:
            try:
                ok = sorted(g) == target
            except TypeError:
                ok = False
            if not ok:
                raise ValidationError(f"{g!r} is not a permutation of 1..{degree}",
                                      field="permutations")
            gens.append(tuple(g))
        group = cls.__new__(cls)
        group.elements = group._perms = tuple(sorted(_close(gens, degree)))
        group.identity = group.elements[0]
        group._index = group._at = {p: k for k, p in enumerate(group.elements)}
        return group


def group_from_json(obj: dict) -> FiniteGroup:
    if not isinstance(obj, dict):
        raise ValidationError("group file must be an object", field="elements")
    if "table" in obj:
        if "elements" not in obj:
            raise ValidationError("table input needs 'elements'", field="elements")
        return FiniteGroup(core._label_list(obj, "elements"), obj["table"])
    if "permutations" in obj:
        if "degree" not in obj:
            raise ValidationError("permutation input needs 'degree'", field="degree")
        if not isinstance(obj["permutations"], list):
            raise ValidationError("'permutations' must be a list", field="permutations")
        return FiniteGroup.from_permutations(obj["permutations"], obj["degree"])
    raise ValidationError("group file needs 'table' or 'permutations'", field="table")


def elements_from_json(values, field: str) -> list:
    """Group elements as decoded from JSON: a list, in which each list (a
    permutation's image tuple) becomes a tuple."""
    if not isinstance(values, list):
        raise ValidationError(f"{field} must be a list of group elements", field=field)
    return [tuple(x) if isinstance(x, list) else x for x in values]


def subgroup_closure(g: FiniteGroup, generators) -> tuple:
    """Smallest subset containing the generators and the identity that is
    closed under the product (hence under inverses, the group being finite)."""
    core._mask_of(generators, g._index, "generators")  # every generator is an element
    return tuple(g.elements[i] for i in sorted(g._generated(g._index[x] for x in generators)))


def _subgroup_indices(g: FiniteGroup, subgroup) -> list[int]:
    labels = core._index_labels(subgroup, "subgroup")
    core._mask_of(labels, g._index, "subgroup")  # every label is an element
    h = sorted(g._index[x] for x in labels)
    seen = set(h)
    if g._index[g.identity] not in seen:
        raise ValidationError("subgroup must contain the identity")
    if any(y not in seen for y in g._generated(h)):  # stops at the first one outside
        raise ValidationError("subgroup is not closed under the product")
    return h


def _cosets(g: FiniteGroup, subgroup):
    """Cosets as H-orbits, at one product per element and side, as element
    positions: (H, left cosets, right cosets, family, reps).  Each side is
    in least-element order; ``family[i]`` numbers the right cosets in left
    coset i's double coset, and ``reps[i]`` is left coset i's simultaneous
    representative.  A double coset HxH, x least, is the union of the left
    cosets hxH and of the right cosets Hxh (h in H), each left one meeting
    each right one; its k-th left and k-th right cosets give the least
    element of their meet as a rep."""
    h = _subgroup_indices(g, subgroup)
    sides = []
    for times in (g._product, lambda x, b: g._product(b, x)):
        number = [None] * g.order
        cosets = []
        for x in range(g.order):
            if number[x] is None:
                coset = sorted({times(x, b) for b in h})
                for y in coset:
                    number[y] = len(cosets)
                cosets.append(coset)
        sides.append((cosets, number))
    (left, left_of), (right, right_of) = sides
    family, reps = [None] * len(left), [None] * len(left)
    for x in range(g.order):
        if family[left_of[x]] is None:  # x is the least element of HxH
            lefts = sorted({left_of[g._product(b, x)] for b in h})
            rights = tuple(sorted({right_of[g._product(x, b)] for b in h}))
            for i, j in zip(lefts, rights):
                family[i] = rights
                reps[i] = next(y for y in left[i] if right_of[y] == j)
    return h, left, right, family, reps


def coset_system(g: FiniteGroup, subgroup) -> tuple[str, dict, str]:
    """The left and right cosets of `subgroup`, H, with simultaneous
    representatives, as ("found", payload, diagnostics), the payload being
    what `verify_cosets` reads: "subgroup", the elements of H; "left" and
    "right", the cosets of each side in least-element order, each in
    element order; "reps", one element of each left coset, hitting every
    right coset once; and "family", the set family over range(|G|/|H|)
    whose set i numbers the right cosets that left coset i meets."""
    h, left, right, family, reps = _cosets(g, subgroup)
    named = g.elements.__getitem__
    payload = {"subgroup": [*map(named, h)],
               "left": [[*map(named, c)] for c in left],
               "right": [[*map(named, c)] for c in right],
               "reps": [*map(named, reps)],
               "family": {"ground": list(range(len(left))), "sets": [*map(list, family)]}}
    return "found", payload, f"index {len(left)}"


def coset_family(g: FiniteGroup, subgroup) -> core.SetFamily:
    """T_i: the right cosets in left coset i's double coset, which are the
    ones left coset i meets.  A union of k of these sets has at least k
    members, as k left cosets hold k|H| elements, so an SDR always exists."""
    _, left, _, family, _ = _cosets(g, subgroup)
    return core.SetFamily(range(len(left)), family)


def simultaneous_reps(g: FiniteGroup, subgroup) -> tuple:
    """Elements hitting every left coset once and every right coset once."""
    return tuple(map(g.elements.__getitem__, _cosets(g, subgroup)[4]))


def verify_cosets(g: FiniteGroup, subgroup, cert: dict) -> tuple[bool, str | None]:
    """Check a ``cosets`` certificate object for `subgroup`, H: |G|/|H|
    "reps" whose left cosets rH are pairwise disjoint, and so are their right
    cosets Hr; "subgroup" lists H; "left" and "right" list each left and each
    right coset once, as blocks of |H| elements; and "family" is the family
    over range(|G|/|H|) whose set i holds the right blocks that left block i
    meets.  That takes 2|G| products and runs no solver."""
    h = _subgroup_indices(g, subgroup)
    size, index = len(h), g.order // len(h)
    reps = elements_from_json(cert.get("reps"), "reps")
    if len(reps) != index:
        return False, f"expected {index} representatives, got {len(reps)}"
    try:
        core._mask_of(reps, g._index, "reps")
    except ValidationError as exc:  # an unhashable or unknown entry
        return False, str(exc)
    owners = []
    for side, times in (("left", g._product), ("right", lambda r, b: g._product(b, r))):
        owner = [None] * g.order  # owner[x]: the representative whose coset holds x
        for k, r in enumerate(g._index[r] for r in reps):
            for b in h:
                x = times(r, b)
                if owner[x] is not None:
                    return False, f"the {side} cosets of representatives {owner[x]} and {k} meet"
                owner[x] = k
        owners.append(owner)
    listed = elements_from_json(cert.get("subgroup"), "subgroup")
    if sorted(core._positions_of(listed, g._index, "subgroup")) != h:
        return False, "subgroup lists other elements than the subgroup"
    blocks = []
    for side, owner in zip(("left", "right"), owners):
        rows = core._cert_rows(cert, side)
        listed = core._positions_of(elements_from_json([x for row in rows for x in row], side),
                                    g._index, side)
        held = [owner[x] for x in listed]  # the coset of each listed element
        # |G| distinct elements in blocks of |H|, each block inside one coset
        if (len(rows) != index or any(len(row) != size for row in rows)
                or len(set(listed)) != g.order or held != [k for k in held[::size] for _ in h]):
            return False, f"{side} does not list each {side} coset once"
        blocks.append(listed)
    right_block = {x: j // size for j, x in enumerate(blocks[1])}
    sets = [sorted({right_block[x] for x in blocks[0][i:i + size]})
            for i in range(0, g.order, size)]
    if cert.get("family") != {"ground": list(range(index)), "sets": sets}:
        return False, "family differs from the right blocks each left block meets"
    return True, None
