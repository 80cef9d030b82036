"""Bitmask bipartite matching engine shared by the solver modules.

Rows are numbered 0..len(row_masks)-1 and row_masks[i] has bit c set when
row i may be assigned column c.  Every scan runs in ascending index order,
so all results are deterministic for a fixed input.
"""

from collections import deque

UNMATCHED = -1


def max_matching(row_masks, n_cols, hopcroft_karp=False):
    """Return (match_of_row, match_of_col) for a maximum matching.

    The default strategy augments one shortest alternating path per round
    (breadth-first).  ``hopcroft_karp=True`` switches to layered phases that
    augment a maximal set of shortest paths per round; the result is still
    a maximum matching, found faster on large inputs.
    """
    n_rows = len(row_masks)
    match_row = [UNMATCHED] * n_rows
    match_col = [UNMATCHED] * n_cols
    if hopcroft_karp:
        _hopcroft_karp(row_masks, match_row, match_col)
    else:
        for r in range(n_rows):
            if row_masks[r]:
                _augment_bfs(row_masks, match_row, match_col, r)
    return match_row, match_col


def _augment_bfs(row_masks, match_row, match_col, start, allowed=None):
    """Grow the matching by one alternating path out of free row `start`.

    If `allowed` is given, only the columns set in it are entered.  On
    failure the matching is left unchanged.
    """
    parent = {}
    queue = deque([start])
    while queue:
        r = queue.popleft()
        mask = row_masks[r]
        if allowed is not None:
            mask &= allowed
        while mask:
            low = mask & -mask
            mask ^= low
            c = low.bit_length() - 1
            if c in parent:
                continue
            parent[c] = r
            holder = match_col[c]
            if holder == UNMATCHED:
                while True:
                    r2 = parent[c]
                    previous = match_row[r2]
                    match_row[r2] = c
                    match_col[c] = r2
                    if previous == UNMATCHED:
                        return True
                    c = previous
            queue.append(holder)
    return False


def _hopcroft_karp(row_masks, match_row, match_col):
    n_rows = len(row_masks)
    infinity = n_rows + 1

    def layer():
        dist = [infinity] * n_rows
        queue = deque()
        for r in range(n_rows):
            if match_row[r] == UNMATCHED and row_masks[r]:
                dist[r] = 0
                queue.append(r)
        reachable_free = False
        while queue:
            r = queue.popleft()
            mask = row_masks[r]
            while mask:
                low = mask & -mask
                mask ^= low
                holder = match_col[low.bit_length() - 1]
                if holder == UNMATCHED:
                    reachable_free = True
                elif dist[holder] == infinity:
                    dist[holder] = dist[r] + 1
                    queue.append(holder)
        return dist, reachable_free

    def advance(root, dist):
        # Depth-first search along the layers with an explicit stack:
        # rows[k] reaches rows[k + 1] through column cols[k], and masks[k]
        # holds the columns rows[k] has yet to try.
        rows = [root]
        cols = []
        masks = [row_masks[root]]
        while rows:
            r = rows[-1]
            mask = masks[-1]
            if not mask:
                dist[r] = infinity
                rows.pop()
                masks.pop()
                if cols:
                    cols.pop()
                continue
            low = mask & -mask
            masks[-1] = mask ^ low
            c = low.bit_length() - 1
            holder = match_col[c]
            if holder == UNMATCHED:
                cols.append(c)
                for r2, c2 in zip(rows, cols):
                    match_row[r2] = c2
                    match_col[c2] = r2
                return
            if dist[holder] == dist[r] + 1:
                cols.append(c)
                rows.append(holder)
                masks.append(row_masks[holder])

    while True:
        dist, reachable_free = layer()
        if not reachable_free:
            return
        for r in range(n_rows):
            if match_row[r] == UNMATCHED and row_masks[r]:
                advance(r, dist)


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


def lex_least_assignment(row_masks, n_cols):
    """Lexicographically least injective row-to-column assignment, or None.

    One maximum matching is found first; if it leaves a row unmatched there
    is no assignment.  Rows are then fixed in ascending order, each to the
    smallest column the later rows can still be matched around.  Rows before
    i hold their fixed columns; row i tries its unused columns c in
    ascending order.  A free c, or row i's own column, is taken at once; an
    occupied c is taken when the holder of c finds an alternating path,
    avoiding the fixed columns and c, to a free column or to the column row
    i gives up.  The matching stays perfect on the rows throughout, so each
    probe costs at most one breadth-first search and no re-matching.  The
    answer is unique, so it does not depend on the first matching found.
    """
    n_rows = len(row_masks)
    match_row, match_col = max_matching(row_masks, n_cols)
    if UNMATCHED in match_row:
        return None
    used = 0
    for i in range(n_rows):
        # Row i lets go of its column while it probes, so that column counts
        # as free; it is among the candidates, so the loop ends at a break.
        match_col[match_row[i]] = UNMATCHED
        mask = row_masks[i] & ~used
        while mask:
            low = mask & -mask
            mask ^= low
            c = low.bit_length() - 1
            holder = match_col[c]
            if holder == UNMATCHED:
                break
            match_row[holder] = match_col[c] = UNMATCHED
            if _augment_bfs(row_masks, match_row, match_col, holder, ~(used | low)):
                break
            match_row[holder] = c
            match_col[c] = holder
        match_row[i] = c
        match_col[c] = i
        used |= low
    return match_row


def bits_of(mask):
    """Yield the set bit positions of `mask` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low
