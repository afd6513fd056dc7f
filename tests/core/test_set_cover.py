"""Tests for the exact set-cover enumerations."""

import itertools

from repro.core import greedy_cover, irredundant_covers, minimum_covers
from repro.testing.faults import inject


def fs(*items):
    return frozenset(items)


def all_pairs(size):
    """Universe ``0..size-1`` and every 2-element subset of it."""
    universe = frozenset(range(size))
    return universe, [fs(*pair) for pair in itertools.combinations(universe, 2)]


def enumeration_firings(search, *args):
    """*search*'s result and how often it fired ``enumeration``."""
    with inject() as observed:
        covers = search(*args)
    return covers, observed.observed["enumeration"]


class TestMinimumCovers:
    def test_single_set_cover(self):
        covers = minimum_covers(fs(0, 1, 2), [fs(0, 1, 2), fs(0), fs(1, 2)])
        assert covers == [(0,)]

    def test_all_minimum_covers_found(self):
        covers = minimum_covers(fs(0, 1), [fs(0), fs(1), fs(0, 1)])
        assert covers == [(0, 1), (2,)] or covers == [(2,)]
        # The (0,1) pair has size 2 > 1, so only (2,) is minimum.
        assert covers == [(2,)]

    def test_ties_enumerated(self):
        covers = minimum_covers(fs(0, 1), [fs(0), fs(1), fs(0), fs(1)])
        assert sorted(covers) == [(0, 1), (0, 3), (1, 2), (2, 3)]

    def test_no_cover(self):
        assert minimum_covers(fs(0, 1), [fs(0)]) == []

    def test_empty_universe(self):
        assert minimum_covers(frozenset(), [fs(0)]) == [()]

    def test_dominated_set_can_join_minimum_cover(self):
        """A ⊂ B may still appear in a minimum cover (module docstring)."""
        sets = [fs(0), fs(0, 1), fs(1, 2)]
        covers = minimum_covers(fs(0, 1, 2), sets)
        assert (0, 2) in covers  # {A, D}
        assert (1, 2) in covers  # {B, D}

    def test_overlapping_sets_allowed(self):
        covers = minimum_covers(fs(0, 1, 2), [fs(0, 1), fs(1, 2)])
        assert covers == [(0, 1)]

    def test_each_minimum_cover_is_reached_once(self):
        # The minimum covers of 12 elements by pairs are the 11!! = 10,395
        # perfect matchings.  Reaching each once walks the 25,059-node tree
        # of partial matchings plus a few hundred memo expansions, where
        # branching that reaches a cover once per order of its pairs
        # fires 2,416,327 times.
        covers, firings = enumeration_firings(minimum_covers, *all_pairs(12))
        assert len(covers) == 10_395
        assert len(set(covers)) == len(covers)
        assert firings <= 30_000


class TestIrredundantCovers:
    def test_includes_non_minimum_irredundant(self):
        # {0,1} and {2} are both irredundant covers of {a,b}.
        sets = [fs(0), fs(1), fs(0, 1)]
        covers = irredundant_covers(fs(0, 1), sets)
        assert sorted(covers) == [(0, 1), (2,)]

    def test_redundant_cover_excluded(self):
        # Using all three sets would be redundant.
        sets = [fs(0), fs(1), fs(0, 1)]
        covers = irredundant_covers(fs(0, 1), sets)
        assert (0, 1, 2) not in covers

    def test_no_cover(self):
        assert irredundant_covers(fs(0, 1), [fs(1)]) == []

    def test_empty_universe(self):
        assert irredundant_covers(frozenset(), []) == [()]

    def test_max_covers_cap(self):
        sets = [fs(0), fs(1), fs(0, 1)]
        covers = irredundant_covers(fs(0, 1), sets, max_covers=1)
        assert len(covers) == 1

    def test_each_irredundant_cover_is_reached_once(self):
        # Exclusion branching cuts every path that would reach a cover a
        # second time: 34,891 firings, where plain pivot branching fires
        # 108,837 times for the same 5,041 covers.
        covers, firings = enumeration_firings(irredundant_covers, *all_pairs(8))
        assert len(covers) == 5_041
        assert len(set(covers)) == len(covers)
        assert firings <= 40_000

    def test_every_minimum_cover_is_irredundant(self):
        sets = [fs(0), fs(0, 1), fs(1, 2), fs(2)]
        minimum = set(minimum_covers(fs(0, 1, 2), sets))
        irredundant = set(irredundant_covers(fs(0, 1, 2), sets))
        assert minimum <= irredundant


class TestGreedyCover:
    def test_finds_a_cover(self):
        cover = greedy_cover(fs(0, 1, 2), [fs(0, 1), fs(2), fs(0)])
        assert cover is not None
        covered = set()
        sets = [fs(0, 1), fs(2), fs(0)]
        for index in cover:
            covered |= sets[index]
        assert covered >= {0, 1, 2}

    def test_greedy_can_be_suboptimal_but_valid(self):
        # Classic greedy trap: greedy picks the big set first.
        sets = [fs(0, 1, 2, 3), fs(0, 1, 4), fs(2, 3, 5), fs(4), fs(5)]
        cover = greedy_cover(fs(0, 1, 2, 3, 4, 5), sets)
        assert cover is not None

    def test_none_when_impossible(self):
        assert greedy_cover(fs(0, 1), [fs(0)]) is None
