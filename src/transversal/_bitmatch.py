"""Bitmask bipartite matching engine shared by the solver modules.

Rows are numbered 0..len(row_masks)-1 and row_masks[i] has bit c set when
row i may be assigned column c.  Every scan runs in ascending index order,
so all results are deterministic for a fixed input.  No function here
recurses: every search keeps its own queue, stack or frontier mask, so a
path of any length costs no interpreter stack.

Three matching searches share the engine: Hopcroft-Karp phases for a
maximum matching, the forward alternating reach behind Hall violators and
König covers, and the backward reach sweep of the lex-least assignment.  That
sweep settles every candidate column of a row at once, so the assignment
never runs a search that fails.
"""

from collections import deque

UNMATCHED = -1


def max_matching(row_masks, n_cols, start=None):
    """Return (match_of_row, match_of_col) for a maximum matching.

    `start`, if given, is a matching to extend: a column per row, or
    UNMATCHED, with every pair allowed by `row_masks` and no column twice.
    It is copied, not changed, and every row it matches stays matched.  A
    greedy pass first gives each row that is not matched yet its lowest
    free column.  Hopcroft-Karp phases then run while a row with columns is
    left unmatched: a breadth-first search layers the rows by their
    alternating distance from the free rows, and a depth-first search on an
    explicit stack augments out of each free row along paths that go one
    layer further at each step.
    Which maximum matching comes out depends on the engine; certificates that
    must not (Hall violators, König covers, antichains) are read off the
    Dulmage-Mendelsohn sets, which are the same for every maximum matching.
    """
    match_col = [UNMATCHED] * n_cols
    taken = 0
    if start is None:
        match_row = [UNMATCHED] * len(row_masks)
        rows = enumerate(row_masks)
    else:
        match_row = list(start)
        for r, c in enumerate(match_row):
            if c != UNMATCHED:
                match_col[c] = r
                taken |= 1 << c
        rows = [(r, row_masks[r]) for r, c in enumerate(match_row) if c == UNMATCHED]
    short = False
    for r, mask in rows:
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


def alternating_reachable(row_masks, match_row, match_col, sources):
    """Rows and columns reachable from the source rows by alternating paths.

    Paths leave a row along any incident edge and return from a column along
    its matching edge, the standard construction for Hall violators and
    minimum vertex covers.  Returns (row set, column set).
    """
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


def lex_least_assignment(row_masks, n_cols, start=None):
    """Lexicographically least injective row-to-column assignment, or None.

    One maximum matching is found first, extending the partial matching
    `start` if one is given (see `max_matching`); if it leaves a row
    unmatched there is no assignment.  A start close to the answer, such as
    the last answer on masks that lost a few bits, leaves most rows already
    on their least column, and those rows need no sweep.  Rows are then
    fixed in ascending order, each to the smallest column the later rows can
    still be matched around, and the matching stays perfect on the rows
    throughout.  Row i lets go of its column, which joins the free columns,
    and takes its least unused column if that is free.  Otherwise one
    backward sweep from the free columns marks, layer by layer, every later
    row that can give up its column: a row is marked when it has an edge
    into a free column or into the column of a row marked in an earlier
    layer.  Row i can take column c exactly when c is free or its holder is
    marked (an edge lies in some maximum matching iff it is matched or on an
    alternating path to a free column, Régin 1994).  Row i takes the least
    such column; its holder moves to its least column in the earlier layers,
    and so on down to a free column, so no search fails.  The sweep stops
    once the holder of row i's least candidate is marked.  The answer is
    unique, so it does not depend on the first matching found.
    """
    n_rows = len(row_masks)
    match_row, match_col = max_matching(row_masks, n_cols, start)
    if UNMATCHED in match_row:
        return None
    col_rows = None  # built at the first sweep
    free = (1 << n_cols) - 1
    for c in match_row:
        free ^= 1 << c
    toward = [0] * n_rows
    used = 0
    for i in range(n_rows):
        own = match_row[i]
        match_col[own] = UNMATCHED
        free |= 1 << own
        candidates = row_masks[i] & ~used
        first = candidates & -candidates
        if not first & free:
            # Layered backward sweep: rows 0..i are never marked, every
            # later row at most once, and `reach` gathers the columns whose
            # holder can move (the free ones included).  toward[r] is the
            # reach before r's layer.  The sweep stops once the holder of
            # the least candidate has an edge into `reach`.
            holder = match_col[first.bit_length() - 1]
            if col_rows is None:
                col_rows = _column_rows(row_masks, n_cols)
            marked = (2 << i) - 1
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
                first = candidates & reach
                first &= -first
        c = first.bit_length() - 1
        r = match_col[c]
        match_row[i] = c
        match_col[c] = i
        used |= first
        while r != UNMATCHED:
            # r gives up c and moves one layer nearer the free columns.
            c = row_masks[r] & toward[r]
            c = (c & -c).bit_length() - 1
            following = match_col[c]
            match_row[r] = c
            match_col[c] = r
            r = following
        free ^= 1 << c
    return match_row


def _column_rows(row_masks, n_cols):
    """The column-to-rows table: bit r of entry c is set when row r may take
    column c.  A block of rows at a time is written out as one string of
    binary digits, highest column first, and each column is read back as a
    stepped slice, which costs far less than visiting every set bit."""
    col_rows = [0] * n_cols
    width = f"0{n_cols}b"
    for start in range(0, len(row_masks), 256):
        text = "".join([format(mask, width) for mask in reversed(row_masks[start:start + 256])])
        for c in range(n_cols):
            col_rows[c] |= int(text[n_cols - 1 - c::n_cols], 2) << start
    return col_rows


def bits_of(mask):
    """Yield the set bit positions of `mask` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low
