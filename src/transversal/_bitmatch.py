"""Bitmask bipartite matching engine shared by the solver modules.

Rows are numbered 0..len(row_masks)-1 and row_masks[i] has bit c set when
row i may be assigned column c.  Every scan runs in an order fixed by the
input, mostly ascending index order, so all results are deterministic.  No
function here recurses: every search keeps its own queue, stack or frontier
mask, so a path of any length costs no interpreter stack.

Three matching searches share the engine: Hopcroft-Karp phases for a
maximum matching, the forward alternating reach behind Hall violators and
König covers, and the backward reach sweep of the lex-least assignment
(`_take`).  That sweep both repairs the rows a greedy pass leaves unmatched
and fixes each row to its least column; it settles every candidate column
of a row at once, so the assignment runs no maximum matching, and fixing a
row runs no search that fails.  A repair holds the rows above the first
one the greedy pass leaves unmatched, which the answer keeps whenever the
other rows can be matched around them, and lets them go only as failed
sweeps show it must.  `peel` runs it round after round, taking each
answer out of the masks, for Birkhoff decomposition, Latin completion and
Youden squares; it alone keeps the sweep's column-to-rows table in step
with the masks.  A Birkhoff round holds the last answer's rows above the
first entry whose weight ran out instead, and stops fixing rows where the
last answer provably resumes.

The maximum matching and the forward reach each come in two forms.  The
mask form steps through a row's mask; the list form walks the row's columns
as a list.  The two reach forms scan in the same order and return the same
sets.  The two matching forms run the same Hopcroft-Karp phases from
different starts: the mask form from a greedy pass, the list form from a
Karp-Sipser start, which on sparse rows leaves far fewer rows for the
phases.  So they may return different maximum matchings, of one size, and
the reach out of either one's free rows is the same.  `max_matching` and
`alternating_reachable` read the form off the rows they are handed, ints
for masks and sequences for column lists.  Families and bipartite graphs
hand over the column lists they store, whatever their shape, so their
matchings do not depend on the width of the ground or of part B.  The mask
form serves the callers that hold only masks: the Rado search, and
`posets.dilworth`, whose closure can be quadratic in its input.  Dilworth
alone applies a shape rule, `column_lists`, once per solve: a mask
operation costs time in proportion to the mask's width, so on wide, sparse
rows (thousands of columns, a handful per row) the list form wins, and on
narrow or dense rows one mask operation settles many columns at once and
the mask form wins.

The exhaustive searches (SDRs of arrays, Latin-square counting, hypergraph
SDRs and the Aharoni-Haxell condition) all run `disjoint_choices`: one value
per level, masks pairwise disjoint, on a stack of untried positions.  It
counts the nodes it enters and raises ResourceLimitError past NODE_BUDGET,
so an input whose search is too large ends in a diagnostic (the CLI's exit
3), whatever size ceiling its caller admitted.
"""

from collections import deque

from .errors import ResourceLimitError

UNMATCHED = -1

# The Latin count at n=7 runs into it after about 2 s (2-vCPU Xeon).
NODE_BUDGET = 1 << 22

# The shape rule of `column_lists`, which only `posets.dilworth` applies,
# measured by running the matching calls recorded from the benchmark
# workloads, and random rows of each width and degree, through both forms
# (see CHANGES.md).  Both forms had the greedy start then; the list form's
# Karp-Sipser start came later, and the crossover was not measured again
# with it.
LIST_MIN_COLS = 256
LIST_MAX_DEGREE = 8


def column_lists(row_masks, n_cols):
    """The rows as ascending column lists when the list forms suit them,
    else None: for rows over at least LIST_MIN_COLS columns that hold at
    most LIST_MAX_DEGREE columns each on average."""
    if n_cols < LIST_MIN_COLS or not row_masks:
        return None
    if sum(mask.bit_count() for mask in row_masks) > LIST_MAX_DEGREE * len(row_masks):
        return None
    return [list(bits_of(mask)) for mask in row_masks]


def max_matching(rows, n_cols):
    """Return (match_of_row, match_of_col) for a maximum matching.

    `rows` are in the form the caller picked: masks (ints), or ascending
    column sequences.  A start matches most rows first: in the mask form a
    greedy pass gives each row its lowest free column, and in the list form
    a Karp-Sipser start first matches any row or column with one free
    neighbour (see `_match_lists`).
    Hopcroft-Karp phases then run while a row with columns is left
    unmatched: a breadth-first search layers the rows by their alternating
    distance from the free rows, and a depth-first search on an explicit
    stack augments out of each free row along paths that go one layer
    further at each step.
    Which maximum matching comes out depends on the engine and on the form;
    certificates that must not (Hall violators, König covers, antichains)
    are read off the Dulmage-Mendelsohn sets, which are the same for every
    maximum matching.
    """
    if rows and not isinstance(rows[0], int):
        return _match_lists(rows, n_cols)
    return _match_masks(rows, n_cols)


def _match_masks(row_masks, n_cols):
    """`max_matching` on the masks."""
    match_row = [UNMATCHED] * len(row_masks)
    match_col = [UNMATCHED] * n_cols
    taken = 0
    short = False
    for r, mask in enumerate(row_masks):
        mask &= ~taken
        if mask:
            low = mask & -mask
            c = low.bit_length() - 1
            match_row[r] = c
            match_col[c] = r
            taken |= low
        elif row_masks[r]:
            short = True
    if short:
        _hopcroft_karp(row_masks, match_row, match_col)
    return match_row, match_col


def _hopcroft_karp(row_masks, match_row, match_col):
    """Augment the matching in place until it is maximum.

    Each phase layers the rows by a breadth-first search out of the free
    rows; a column is entered once, so a row's layer is the length of its
    shortest alternating path from a free row.  A depth-first search from
    each free row then augments along rows one layer apart.  ``left[r]``
    holds the columns row r has yet to try in the phase, so no edge is tried
    twice in one phase, and a row with none left is dropped from the layers.
    """
    n_rows = len(row_masks)
    infinity = n_rows + 1
    while True:
        dist = [infinity] * n_rows
        queue = deque()
        for r in range(n_rows):
            if match_row[r] == UNMATCHED and row_masks[r]:
                dist[r] = 0
                queue.append(r)
        seen = 0
        reachable_free = False
        while queue:
            r = queue.popleft()
            mask = row_masks[r] & ~seen
            seen |= mask
            while mask:
                low = mask & -mask
                mask ^= low
                holder = match_col[low.bit_length() - 1]
                if holder == UNMATCHED:
                    reachable_free = True
                else:
                    dist[holder] = dist[r] + 1
                    queue.append(holder)
        if not reachable_free:
            return
        left = list(row_masks)
        for root in range(n_rows):
            if dist[root] != 0:
                continue
            # rows[k] reaches rows[k + 1] through column cols[k].
            rows = [root]
            cols = []
            while rows:
                r = rows[-1]
                mask = left[r]
                if not mask:
                    dist[r] = infinity
                    rows.pop()
                    if cols:
                        cols.pop()
                    continue
                low = mask & -mask
                left[r] = mask ^ low
                c = low.bit_length() - 1
                holder = match_col[c]
                if holder == UNMATCHED:
                    cols.append(c)
                    for r2, c2 in zip(rows, cols):
                        match_row[r2] = c2
                        match_col[c2] = r2
                    break
                if dist[holder] == dist[r] + 1:
                    cols.append(c)
                    rows.append(holder)


def _match_lists(row_cols, n_cols):
    """`max_matching` on the column lists, from a Karp-Sipser start.

    ``row_deg[r]`` and ``col_deg[c]`` count the free neighbours of each
    vertex.  While a free row or column has exactly one, it is matched to
    that one: such an edge lies in some maximum matching, so this step never
    costs size (Karp & Sipser 1981).  Otherwise the lowest free row with a
    free neighbour takes its lowest free column, the greedy step, which may.
    Degree-one vertices wait on a stack, rows as r and columns as ~c; it
    starts with the degree-one rows, lowest on top, above the degree-one
    columns, so the order, and the result, is fixed by the input.  A
    vertex's degree reaches one at most once, so the start costs O(edges).
    On sparse rows it leaves few rows for the Hopcroft-Karp phases, which
    still run while a row with columns is free and prove the result
    maximum.
    """
    n_rows = len(row_cols)
    match_row = [UNMATCHED] * n_rows
    match_col = [UNMATCHED] * n_cols
    col_rows = [[] for _ in range(n_cols)]
    for r, cols in enumerate(row_cols):
        for c in cols:
            col_rows[c].append(r)
    row_deg = list(map(len, row_cols))
    col_deg = list(map(len, col_rows))
    stack = [~c for c in range(n_cols - 1, -1, -1) if col_deg[c] == 1]
    stack += [r for r in range(n_rows - 1, -1, -1) if row_deg[r] == 1]
    low = 0
    while True:
        if stack:
            v = stack.pop()
            if v >= 0:
                r = v
                if match_row[r] != UNMATCHED or row_deg[r] != 1:
                    continue
                for c in row_cols[r]:
                    if match_col[c] == UNMATCHED:
                        break
            else:
                c = ~v
                if match_col[c] != UNMATCHED or col_deg[c] != 1:
                    continue
                for r in col_rows[c]:
                    if match_row[r] == UNMATCHED:
                        break
        else:
            while low < n_rows and (match_row[low] != UNMATCHED or not row_deg[low]):
                low += 1
            if low == n_rows:
                break
            r = low
            for c in row_cols[r]:
                if match_col[c] == UNMATCHED:
                    break
        match_row[r] = c
        match_col[c] = r
        for c2 in row_cols[r]:
            d = col_deg[c2] - 1
            col_deg[c2] = d
            if d == 1 and match_col[c2] == UNMATCHED:
                stack.append(~c2)
        for r2 in col_rows[c]:
            d = row_deg[r2] - 1
            row_deg[r2] = d
            if d == 1 and match_row[r2] == UNMATCHED:
                stack.append(r2)
    if any(c == UNMATCHED and cols for c, cols in zip(match_row, row_cols)):
        _hopcroft_karp_lists(row_cols, match_row, match_col)
    return match_row, match_col


def _hopcroft_karp_lists(row_cols, match_row, match_col):
    """`_hopcroft_karp` on the column lists.  ``seen`` marks the columns
    entered, and ``tried[r]`` counts the columns row r has tried in the
    phase, in place of the masks."""
    n_rows = len(row_cols)
    infinity = n_rows + 1
    while True:
        dist = [infinity] * n_rows
        queue = []
        for r in range(n_rows):
            if match_row[r] == UNMATCHED and row_cols[r]:
                dist[r] = 0
                queue.append(r)
        seen = bytearray(len(match_col))
        reachable_free = False
        for r in queue:  # the queue grows while it is read
            layer = dist[r] + 1
            for c in row_cols[r]:
                if seen[c]:
                    continue
                seen[c] = 1
                holder = match_col[c]
                if holder == UNMATCHED:
                    reachable_free = True
                else:
                    dist[holder] = layer
                    queue.append(holder)
        if not reachable_free:
            return
        tried = [0] * n_rows
        for root in range(n_rows):
            if dist[root] != 0:
                continue
            rows = [root]
            cols = []
            while rows:
                r = rows[-1]
                k = tried[r]
                if k == len(row_cols[r]):
                    dist[r] = infinity
                    rows.pop()
                    if cols:
                        cols.pop()
                    continue
                tried[r] = k + 1
                c = row_cols[r][k]
                holder = match_col[c]
                if holder == UNMATCHED:
                    cols.append(c)
                    for r2, c2 in zip(rows, cols):
                        match_row[r2] = c2
                        match_col[c2] = r2
                    break
                if dist[holder] == dist[r] + 1:
                    cols.append(c)
                    rows.append(holder)


def alternating_reachable(rows, match_row, match_col):
    """Rows and columns reachable from the unmatched rows by alternating
    paths.

    Paths leave a row along any incident edge and return from a column along
    its matching edge, the standard construction for Hall violators and
    minimum vertex covers.  Returns (row set, column set).  `rows` are in
    the form the caller picked, as for `max_matching`; the two forms give
    the same sets.  The search enters each row at most once, so reading
    column lists off the masks here would cost more than the mask form's
    whole search.
    """
    sources = [r for r, c in enumerate(match_row) if c == UNMATCHED]
    if rows and not isinstance(rows[0], int):
        return _reach_lists(rows, match_col, sources)
    return _reach_masks(rows, match_col, sources)


def _reach_masks(row_masks, match_col, sources):
    """`alternating_reachable` on the masks."""
    seen_rows = set(sources)
    seen_cols = set()
    stack = list(sources)
    while stack:
        r = stack.pop()
        mask = row_masks[r]
        while mask:
            low = mask & -mask
            mask ^= low
            c = low.bit_length() - 1
            if c in seen_cols:
                continue
            seen_cols.add(c)
            holder = match_col[c]
            if holder != UNMATCHED and holder not in seen_rows:
                seen_rows.add(holder)
                stack.append(holder)
    return seen_rows, seen_cols


def _reach_lists(row_cols, match_col, sources):
    """`alternating_reachable` on the column lists: the same scan order."""
    seen_rows = set(sources)
    seen_cols = set()
    stack = list(sources)
    while stack:
        for c in row_cols[stack.pop()]:
            if c in seen_cols:
                continue
            seen_cols.add(c)
            holder = match_col[c]
            if holder != UNMATCHED and holder not in seen_rows:
                seen_rows.add(holder)
                stack.append(holder)
    return seen_rows, seen_cols


def reachable(adj, start, blocked=0):
    """Mask of the positions reachable from `start` along the neighbour
    masks `adj`, never entering a position set in `blocked`."""
    reach = frontier = 1 << start
    while frontier:
        step = 0
        for u in bits_of(frontier):
            step |= adj[u]
        frontier = step & ~reach & ~blocked
        reach |= frontier
    return reach


def lex_least_assignment(row_masks, n_cols, col_rows=None):
    """Lexicographically least injective row-to-column assignment, or None.

    A matching on all the rows comes first, with no maximum-matching search.
    A greedy pass gives each row its lowest free column, so the rows above
    the first one it leaves unmatched each hold their least column outside
    the rows above them: they are the answer's prefix whenever the other
    rows can be matched around them.  The rows left over are repaired in
    ascending order with that prefix held, letting held rows go only when a
    repair fails around them (`_repair`).  A row that cannot be repaired
    with none held has no augmenting path, and no later augmentation gives
    it one, so no matching covers the rows and there is no assignment.

    The rows below the prefix still held are then fixed in ascending order
    (`_fix_rows`), each to the smallest column the later rows can still be
    matched around, and the matching stays perfect on the rows throughout.

    `col_rows`, if given, is the column-to-rows table of `row_masks` (see
    `_column_rows`), read and never changed; `peel` keeps one across its
    rounds.  Without it the table is built when a row needs repair.
    """
    n_rows = len(row_masks)
    match_row = [UNMATCHED] * n_rows
    match_col = [UNMATCHED] * n_cols
    full = free = (1 << n_cols) - 1
    unmatched = 0
    for r, mask in enumerate(row_masks):
        mask &= free
        if mask:
            low = mask & -mask
            c = low.bit_length() - 1
            match_row[r] = c
            match_col[c] = r
            free ^= low
        elif row_masks[r]:
            if not unmatched:
                held, used = r, full ^ free
            unmatched |= 1 << r
        else:
            return None
    if unmatched:
        if col_rows is None:
            col_rows = _column_rows(row_masks, n_cols)
        toward = [0] * n_rows
        held, used, free = _repair(row_masks, col_rows, match_row, match_col, unmatched, held,
                                   used, free, toward)
        if held < 0:
            return None
        _fix_rows(row_masks, col_rows, match_row, match_col, held, used, free, toward, None,
                  n_rows)
    return match_row


def peel(row_masks, n_cols, weights=None):
    """Yield (mu, assignment) while any mask is nonzero: `assignment` is
    the lex-least perfect assignment of what is left, as a tuple, and `mu`
    the least of ``weights[r][c]`` on it, or 1 without weights.

    Each weight on the assignment then drops by mu, and an entry that
    reaches 0 leaves its row's mask and its column's bit of the
    column-to-rows table; without weights every entry taken leaves.  The
    table is built once.  This is König's peeling of a regular bipartite
    graph into perfect matchings, and Birkhoff's of a doubly stochastic
    matrix: when every row and column sums to the same total an assignment
    is always left, so the AssertionError raised otherwise cannot happen.
    `row_masks` and `weights` are consumed.

    Without weights no entry outlives its round, so each round is a fresh
    `lex_least_assignment`.  With weights a round keeps the last answer,
    its column holders, its prefixes' column sets, and each of its
    entries' weight as ``due[r] - offset``, the offset being the sum of the
    mus so far.  Every assignment left was one of the last round too, so
    the new answer keeps the longest prefix of the last one that the other
    rows can still be matched around: the zeroed rows are repaired with the
    rows above the first of them held, letting held rows go only where a
    repair fails (`_repair`).  Rows are then fixed from the first
    one not held, up to the first row i past every zeroed row where rows
    0..i-1 hold their last columns as a set: rows i.. then face the last
    round's subproblem unchanged, and keep their last columns (`_fix_rows`).
    """
    col_rows = _column_rows(row_masks, n_cols)
    if weights is None:
        while any(row_masks):
            assignment = lex_least_assignment(row_masks, n_cols, col_rows)
            if assignment is None:
                raise AssertionError("no perfect assignment is left to peel")
            yield 1, tuple(assignment)
            for r, c in enumerate(assignment):
                row_masks[r] &= ~(1 << c)
                col_rows[c] &= ~(1 << r)
        return
    if not any(row_masks):
        return
    match_row = lex_least_assignment(row_masks, n_cols, col_rows)
    if match_row is None:
        raise AssertionError("no perfect assignment is left to peel")
    n_rows = len(row_masks)
    match_col = [UNMATCHED] * n_cols
    prefix = [0] * (n_rows + 1)  # prefix[i]: the columns of rows 0..i-1
    for r, c in enumerate(match_row):
        match_col[c] = r
        prefix[r + 1] = prefix[r] | 1 << c
    free = ((1 << n_cols) - 1) ^ prefix[n_rows]
    due = [row[c] for row, c in zip(weights, match_row)]
    offset = 0
    toward = [0] * n_rows
    while True:
        answer = tuple(match_row)
        least = min(due)
        yield least - offset, answer
        offset = least
        zeroed = 0
        r = -1
        for _ in range(due.count(least)):
            r = due.index(least, r + 1)
            c = answer[r]
            zeroed |= 1 << r
            row_masks[r] ^= 1 << c
            col_rows[c] ^= 1 << r
            match_row[r] = match_col[c] = UNMATCHED
            free |= 1 << c
        if not any(row_masks):
            return
        held = (zeroed & -zeroed).bit_length() - 1
        held, used, free = _repair(row_masks, col_rows, match_row, match_col, zeroed, held,
                                   prefix[held], free, toward)
        if held < 0:
            raise AssertionError("no perfect assignment is left to peel")
        i, free = _fix_rows(row_masks, col_rows, match_row, match_col, held, used, free, toward,
                            prefix, zeroed.bit_length())
        for r in range(i, n_rows):
            c = match_row[r]
            match_col[c] = UNMATCHED
            free |= 1 << c
        for r in range(i, n_rows):
            c = match_row[r] = answer[r]
            match_col[c] = r
            free ^= 1 << c
        for r in range(held, i):
            c, before = match_row[r], answer[r]
            prefix[r + 1] = prefix[r] | 1 << c
            if c != before:
                weights[r][before] = due[r] - offset
                due[r] = weights[r][c] + offset


def _repair(row_masks, col_rows, match_row, match_col, unmatched, held, held_cols, free, toward):
    """Match the rows of the row mask `unmatched`, in ascending order, with
    every matched row kept matched and rows 0..held-1 kept on their columns
    `held_cols` while that can be done, and return (held, held_cols, free):
    the rows still held, or -1 if a row cannot be matched with none held,
    their columns, and the free columns.

    A row takes its least free column outside `held_cols`, else what
    `_take` gives it.  When `_take` gives nothing, no matching on the rows
    keeps rows 0..held-1 on their columns, so held rows are let go, from
    row held-1 down to the first with an edge into the sweep's reach, and
    the row is tried again: a row with none would not change the sweep.
    """
    while unmatched:
        low = unmatched & -unmatched
        r = low.bit_length() - 1
        cols = row_masks[r] & ~held_cols
        c = cols & free
        if c:
            c = (c & -c).bit_length() - 1
            match_row[r] = c
            match_col[c] = r
        else:
            c = ~held_cols  # no sweep ran: let go one row
            if cols:
                c = _take(row_masks, col_rows, match_row, match_col, r, cols,
                          unmatched | ((1 << held) - 1), free, toward)
            if c < 0:
                while held:
                    held -= 1
                    held_cols ^= 1 << match_row[held]
                    if row_masks[held] & ~c:
                        break
                else:
                    return -1, held_cols, free
                continue
        free ^= 1 << c
        unmatched ^= low
    return held, held_cols, free


def _fix_rows(row_masks, col_rows, match_row, match_col, start, used, free, toward, resume,
              last):
    """Fix rows start, start+1, ... of a matching on every row, each to its
    least column outside `used`, the columns of the rows above it, that the
    later rows can still be matched around; return (i, free), where rows
    i.. were left as they are, or i is the number of rows.

    Row i lets go of its column, which joins the free columns, and takes
    its least unused column if that is free, else the least unused column
    `_take` can give it, with rows 0..i never moved.  From row `last` on,
    the rows stop before row i if rows 0..i-1 hold exactly the columns
    ``resume[i]``: `peel` hands over the column sets of the last answer's
    prefixes, with `last` past the last row whose mask changed, and rows
    i.. then keep their columns in the last answer.
    """
    n_rows = len(row_masks)
    for i in range(start, n_rows):
        if i >= last and used == resume[i]:
            return i, free
        own = match_row[i]
        match_col[own] = UNMATCHED
        free |= 1 << own
        candidates = row_masks[i] & ~used
        first = candidates & -candidates
        if first & free:
            c = first.bit_length() - 1
            match_row[i] = c
            match_col[c] = i
        else:
            c = _take(row_masks, col_rows, match_row, match_col, i, candidates, (2 << i) - 1,
                      free, toward)
            first = 1 << match_row[i]
        used |= first
        free ^= 1 << c
    return n_rows, free


def _take(row_masks, col_rows, match_row, match_col, row, cols, marked, free, toward):
    """Give `row`, which holds no column, the least column of `cols` that it
    can take with every other matched row kept matched, and return the free
    column the move uses up, or ~reach, the reach below, if it takes none.

    The least column of `cols` must be held.  One layered backward sweep
    from the free columns marks, layer by layer, every row outside `marked`
    that can give up its column: a row is marked when it has an edge into a
    free column or into the column of a row marked in an earlier layer, and
    toward[r] is the reach before r's layer.  `row` can take column c
    exactly when c is free or its holder is marked (an edge lies in some
    maximum matching iff it is matched or on an alternating path to a free
    column, Régin 1994).  The sweep stops once the holder of the least
    column has an edge into the reach; otherwise `row` takes the least
    column of `cols` in the whole reach.  Its holder then moves to its least
    column in the earlier layers, and so on down to a free column, so no
    search fails.  `col_rows` is the column-to-rows table (`_column_rows`).
    """
    first = cols & -cols
    holder = match_col[first.bit_length() - 1]
    reach = frontier = free
    while frontier:
        if row_masks[holder] & reach:
            toward[holder] = reach
            break
        rows = 0
        while frontier:
            low = frontier & -frontier
            frontier ^= low
            rows |= col_rows[low.bit_length() - 1]
        rows &= ~marked
        marked |= rows
        while rows:
            low = rows & -rows
            rows ^= low
            r = low.bit_length() - 1
            toward[r] = reach
            frontier |= 1 << match_row[r]
        reach |= frontier
    else:
        first = cols & reach
        if not first:
            return ~reach
        first &= -first
    c = first.bit_length() - 1
    r = match_col[c]
    match_row[row] = c
    match_col[c] = row
    while r != UNMATCHED:
        # r gives up c and moves one layer nearer the free columns.
        c = row_masks[r] & toward[r]
        c = (c & -c).bit_length() - 1
        following = match_col[c]
        match_row[r] = c
        match_col[c] = r
        r = following
    return c


def _column_rows(row_masks, n_cols):
    """The column-to-rows table: bit r of entry c is set when row r may take
    column c.  Each block of rows is written out as one string of binary
    digits, highest column first, and each column the block holds is read
    back as a stepped slice, far cheaper than visiting every set bit."""
    col_rows = [0] * n_cols
    width = f"0{n_cols}b"
    for start in range(0, len(row_masks), 256):
        block = row_masks[start:start + 256]
        text = "".join([format(mask, width) for mask in reversed(block)])
        held = 0
        for mask in block:
            held |= mask
        for c in bits_of(held):
            col_rows[c] |= int(text[n_cols - 1 - c::n_cols], 2) << start
    return col_rows


def column_counts(row_masks, n_cols):
    """How many rows may take each column."""
    return [rows.bit_count() for rows in _column_rows(row_masks, n_cols)]


def bits_of(mask):
    """Yield the set bit positions of `mask` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def disjoint_choices(options):
    """Yield, in lexicographic order of option positions, each tuple that
    takes one value per level and whose masks are pairwise disjoint.

    `options[i]` is level i's sequence of (mask, value) pairs.  Zero levels
    yield one empty tuple.  Each option entered counts one node and each
    choice yielded counts its length, the order of the caller's work on it;
    past NODE_BUDGET nodes the search raises ResourceLimitError.
    """
    depth = len(options)
    chosen = [None] * depth
    used = [0] * (depth + 1)
    untried = [0] * depth
    nodes = 0
    level = 0
    while level >= 0:
        if nodes > NODE_BUDGET:
            raise ResourceLimitError(
                f"the search entered {nodes} nodes, over the node budget of {NODE_BUDGET}")
        if level == depth:
            nodes += depth
            yield tuple(chosen)
            level -= 1
            continue
        level_options = options[level]
        taken = used[level]
        k = untried[level]
        while k < len(level_options) and level_options[k][0] & taken:
            k += 1
        if k == len(level_options):
            untried[level] = 0
            level -= 1
            continue
        untried[level] = k + 1
        mask, chosen[level] = level_options[k]
        used[level + 1] = taken | mask
        nodes += 1
        level += 1
