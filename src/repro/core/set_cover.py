"""Exact set-cover enumeration used by CoreCover and CoreCover*.

Step (4) of CoreCover (Figure 4) reduces finding GMRs to the classic
set-covering problem [8]: cover the minimal query's subgoals with the
fewest tuple-cores.  CoreCover* additionally needs every *irredundant*
cover (no member removable), which characterizes the minimal rewritings
using view tuples (Theorem 5.1).

Both enumerations branch on the first uncovered element in pivot order
(default: numeric).  Sets and the uncovered remainder are int bitmasks
whose bit positions follow the pivot order, so the pivot is the
remainder's lowest set bit.  Every cover holds a set containing the
pivot, so trying each such set reaches every cover.  **Exclusion
branching** makes that reach unique: a set tried at a pivot is banned
from the subtrees of its later siblings, so a cover is reached only
through its first pivot-holding set, at every pivot, and no result is
ever found twice.

:func:`minimum_covers` runs two passes.  The first memoizes, for each
uncovered mask the branching reaches, the fewest sets that cover it and
the ``(set, remainder)`` children that reach that minimum.  The second
walks only those optimal children, with exclusion branching, and so
reaches each minimum cover once.

Dominated-set pruning is deliberately **not** applied: a set strictly
contained in another can still participate in a minimum cover (e.g.
universe ``{1,2,3}``, sets ``A={1}``, ``B={1,2}``, ``D={2,3}`` — both
``{B,D}`` and ``{A,D}`` are minimum).
"""

from __future__ import annotations

from typing import Callable, Sequence

from ..testing.faults import fire


def minimum_covers(
    universe: frozenset[int],
    sets: Sequence[frozenset[int]],
    *,
    checkpoint: Callable[[], None] | None = None,
    pivot_order: Sequence[int] | None = None,
) -> list[tuple[int, ...]]:
    """All covers of *universe* with the minimum number of sets.

    Returns sorted index tuples into *sets*; empty list when no cover
    exists.  The empty universe is covered by the empty cover.
    ``checkpoint`` is called on every memo expansion and every
    enumeration node (cooperative cancellation under a resource budget).

    ``pivot_order`` ranks the universe elements the brancher pivots on
    (default: numeric order).  The acyclic fast path passes the query's
    join-tree traversal here so chosen sets grow along connected
    subtrees, which fails impossible branches earlier.  The *result* is
    order-independent: a minimum cover holds a set covering any pivot,
    and without that set the rest is a minimum cover of the remainder,
    so every minimum cover lies on a path of optimal children whatever
    the pivots; results are returned sorted — so a pivot order changes
    node counts, never answers.
    """
    if not universe:
        return [()]
    layout = _bit_layout(universe, sets, pivot_order)
    if layout is None:
        return []
    masks, options = layout

    # Uncovered mask -> (fewest sets, the optimal (set, remainder) children).
    memo: dict[int, tuple[int, list[tuple[int, int]]]] = {}

    def fewest(uncovered: int) -> int:
        """The fewest sets covering *uncovered*."""
        if not uncovered:
            return 0
        known = memo.get(uncovered)
        if known is not None:
            return known[0]
        fire("enumeration")
        if checkpoint is not None:
            checkpoint()
        best = len(universe) + 1  # more than any pivot branch takes
        children: list[tuple[int, int]] = []
        for index in options[(uncovered & -uncovered).bit_length() - 1]:
            remainder = uncovered & ~masks[index]
            size = fewest(remainder) + 1
            if size < best:
                best = size
                children = [(index, remainder)]
            elif size == best:
                children.append((index, remainder))
        memo[uncovered] = (best, children)
        return best

    covers: list[tuple[int, ...]] = []

    def descend(uncovered: int, chosen: tuple[int, ...], banned: int) -> None:
        fire("enumeration")
        if checkpoint is not None:
            checkpoint()
        if not uncovered:
            covers.append(tuple(sorted(chosen)))
            return
        for index, remainder in memo[uncovered][1]:
            if not banned >> index & 1:
                descend(remainder, chosen + (index,), banned)
            banned |= 1 << index

    full = (1 << len(universe)) - 1
    try:
        fewest(full)
        descend(full, (), 0)
    finally:
        # Each closure refers to itself: break the cycles, which would
        # otherwise hold the memo until the cyclic collector runs.
        del fewest, descend
    return sorted(covers)


def irredundant_covers(
    universe: frozenset[int],
    sets: Sequence[frozenset[int]],
    max_covers: int | None = None,
    *,
    checkpoint: Callable[[], None] | None = None,
    on_cover: Callable[[tuple[int, ...]], None] | None = None,
    pivot_order: Sequence[int] | None = None,
) -> list[tuple[int, ...]]:
    """All irredundant covers of *universe* (no member can be dropped).

    These are the covers in which every set contributes at least one
    element not covered by the others.  ``max_covers`` caps the search
    for pathological inputs (e.g. many identical views — Section 5.2
    motivates representatives precisely to avoid the ``2^n - 1`` blowup).
    ``checkpoint`` is called on every branch node; ``on_cover`` fires once
    for each irredundant cover as it is discovered, which is what lets
    the anytime planner keep best-so-far results when the search is
    cancelled mid-enumeration (irredundant covers are additive — a found
    cover is never retracted later).

    Exclusion branching only cuts subtrees whose covers hold a set tried
    earlier at some pivot, and an irredundant cover is found there
    first, so covers are discovered in the order of plain pivot
    branching, each once.

    ``pivot_order`` works as in :func:`minimum_covers`; the uncapped
    enumeration is exhaustive, so it changes traversal, not results.
    **Callers must not pass it together with ``max_covers``** — which
    covers survive a cap depends on discovery order, so the fast path
    only reorders uncapped enumerations (enforced here).
    """
    if pivot_order is not None and max_covers is not None:
        raise ValueError(
            "pivot_order with max_covers would change which covers are "
            "found before the cap; pass one or the other"
        )
    if not universe:
        return [()]
    layout = _bit_layout(universe, sets, pivot_order)
    if layout is None:
        return []
    masks, options = layout
    full = (1 << len(universe)) - 1

    covers: list[tuple[int, ...]] = []

    def is_irredundant(chosen: Sequence[int]) -> bool:
        for candidate in chosen:
            others = 0
            for index in chosen:
                if index != candidate:
                    others |= masks[index]
            if others == full:
                return False
        return True

    def branch(uncovered: int, chosen: tuple[int, ...], banned: int) -> None:
        if max_covers is not None and len(covers) >= max_covers:
            return
        fire("enumeration")
        if checkpoint is not None:
            checkpoint()
        if not uncovered:
            cover = tuple(sorted(chosen))
            if is_irredundant(cover):
                covers.append(cover)
                if on_cover is not None:
                    on_cover(cover)
            return
        for index in options[(uncovered & -uncovered).bit_length() - 1]:
            if not banned >> index & 1:
                branch(uncovered & ~masks[index], chosen + (index,), banned)
            banned |= 1 << index

    try:
        branch(full, (), 0)
    finally:
        del branch  # the closure refers to itself: break the cycle
    return sorted(covers)


def greedy_cover(
    universe: frozenset[int], sets: Sequence[frozenset[int]]
) -> tuple[int, ...] | None:
    """The classic ln(n)-approximate greedy cover, or ``None`` if impossible.

    Exposed for the scalability ablation: CoreCover itself uses the exact
    enumerations above.
    """
    uncovered = set(universe)
    chosen: list[int] = []
    while uncovered:
        best_index = max(
            range(len(sets)),
            key=lambda i: (len(uncovered & sets[i]), -i),
            default=None,
        )
        if best_index is None or not uncovered & sets[best_index]:
            return None
        chosen.append(best_index)
        uncovered -= sets[best_index]
    return tuple(sorted(chosen))


def _bit_layout(
    universe: frozenset[int],
    sets: Sequence[frozenset[int]],
    pivot_order: Sequence[int] | None,
) -> tuple[list[int], list[list[int]]] | None:
    """Bitmasks of *sets* over *universe*, bits numbered in pivot order.

    Elements are ranked by *pivot_order* (default: numeric order);
    elements missing from it rank after every listed one, in numeric
    order, so a partial order is still deterministic.  The element of
    rank ``i`` gets bit ``i``.  Returns ``(masks, options)``: each set's
    mask of the universe elements it holds, and per bit the indices of
    the sets holding that element, ascending.  ``None`` when some
    element is in no set (no cover exists).
    """
    if pivot_order is None:
        ordered = sorted(universe)
    else:
        rank = {element: position for position, element in enumerate(pivot_order)}
        fallback = len(rank)
        ordered = sorted(universe, key=lambda e: (rank.get(e, fallback), e))
    bit = {element: position for position, element in enumerate(ordered)}
    masks = [0] * len(sets)
    options: list[list[int]] = [[] for _ in ordered]
    for index, members in enumerate(sets):
        mask = 0
        for element in members & universe:
            mask |= 1 << bit[element]
            options[bit[element]].append(index)
        masks[index] = mask
    if not all(options):
        return None
    return masks, options
