"""Tests for the active/inactive list mechanism."""

import random
from collections import OrderedDict

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import KernelError
from repro.kernel import ActiveInactiveLists
from repro.mem import PAGE_SIZE, Page


def page(index):
    return Page(vaddr=index * PAGE_SIZE)


def test_insert_goes_inactive():
    lists = ActiveInactiveLists()
    lists.insert(page(0))
    assert lists.inactive_count == 1
    assert lists.active_count == 0


def test_double_insert_rejected():
    lists = ActiveInactiveLists()
    p = page(0)
    lists.insert(p)
    with pytest.raises(KernelError):
        lists.insert(p)


def test_remove_and_discard():
    lists = ActiveInactiveLists()
    p = page(0)
    lists.insert(p)
    lists.remove(p)
    assert p not in lists
    with pytest.raises(KernelError):
        lists.remove(p)
    lists.discard(p)  # silent


def test_victims_come_oldest_first():
    lists = ActiveInactiveLists()
    pages = [page(i) for i in range(5)]
    for p in pages:
        lists.insert(p)
    victims = lists.select_victims(2)
    assert victims == pages[:2]
    assert len(lists) == 3


def test_referenced_page_gets_second_chance():
    lists = ActiveInactiveLists()
    cold, hot = page(0), page(1)
    lists.insert(cold)
    lists.insert(hot)
    hot.read()          # sets the referenced bit
    cold_first = lists.select_victims(2)
    # Hot was promoted to active, not evicted; cold went first.
    assert cold in cold_first
    assert hot not in cold_first
    assert lists.active_count >= 1


def test_hot_page_survives_many_rounds():
    """A repeatedly touched page outlives a stream of cold pages."""
    lists = ActiveInactiveLists()
    hot = page(9999)
    lists.insert(hot)
    hot.read()
    for i in range(100):
        cold = page(i)
        lists.insert(cold)
        hot.read()  # keep touching
        lists.select_victims(1)
    assert hot in lists


def test_refill_moves_active_tail_to_inactive():
    lists = ActiveInactiveLists()
    pages = [page(i) for i in range(4)]
    for p in pages:
        lists.insert(p)
        p.read()
    # All referenced: first scan promotes everything, returns nothing...
    none = lists.select_victims(4)
    assert none == []
    # ...but a second scan (bits now cleared, refilled) finds victims.
    victims = lists.select_victims(4)
    assert len(victims) > 0


def test_victim_count_positive():
    lists = ActiveInactiveLists()
    with pytest.raises(KernelError):
        lists.select_victims(0)


def test_oldest_inactive():
    lists = ActiveInactiveLists()
    assert lists.oldest_inactive() is None
    first, second = page(0), page(1)
    lists.insert(first)
    lists.insert(second)
    assert lists.oldest_inactive() is first


@settings(max_examples=30, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 30), st.booleans()),
                min_size=1, max_size=120))
def test_lists_conserve_pages(ops):
    """Property: pages only leave via select_victims; counts stay sane."""
    lists = ActiveInactiveLists()
    live = {}
    for index, should_touch in ops:
        if index not in live:
            p = page(index)
            lists.insert(p)
            live[index] = p
        if should_touch:
            live[index].read()
        assert len(lists) == len(live)
    # Evict everything: each selection round removes only what it returns.
    for _ in range(200):
        if not live:
            break
        for victim in lists.select_victims(4):
            del live[victim.vaddr // PAGE_SIZE]
        assert len(lists) == len(live)
    assert len(live) == 0


# -- equivalence with the reference reclaim loop ------------------------------


def reference_select_victims(active, inactive, count, scan_limit_factor=4):
    """The original one-move-at-a-time select_victims, kept as the
    reference the tightened kernel must match."""
    while active and len(inactive) < len(active):
        vaddr, p = active.popitem(last=False)
        p.clear_referenced()
        inactive[vaddr] = p
    victims = []
    scanned = 0
    scan_limit = max(count * scan_limit_factor, count)
    while inactive and len(victims) < count and scanned < scan_limit:
        vaddr, p = inactive.popitem(last=False)
        scanned += 1
        if p.clear_referenced():
            active[vaddr] = p
            continue
        victims.append(p)
    return victims


def reference_evict_to(active, inactive, target):
    """The reclaim loop both fleet VMs ran before ``evict_to``."""
    evicted = []
    while len(active) + len(inactive) > target:
        excess = len(active) + len(inactive) - target
        victims = reference_select_victims(active, inactive, excess)
        if not victims:
            victims = reference_select_victims(
                active, inactive, excess, scan_limit_factor=64
            )
            if not victims:
                break
        evicted.extend(victims)
    return evicted


def twin_states(rng, active_n, inactive_n, referenced_share):
    """The same random LRU state twice: kernel lists and reference dicts."""
    lists = ActiveInactiveLists()
    active, inactive = OrderedDict(), OrderedDict()
    indices = rng.sample(range(4 * (active_n + inactive_n) + 1),
                         active_n + inactive_n)
    for position, index in enumerate(indices):
        referenced = rng.random() < referenced_share
        mine, theirs = page(index), page(index)
        mine.referenced = theirs.referenced = referenced
        if position < active_n:
            lists.insert_active(mine)
            active[theirs.vaddr] = theirs
        else:
            lists.insert(mine)
            inactive[theirs.vaddr] = theirs
    return lists, active, inactive


def snapshot(pages_by_list):
    return [[(p.vaddr, p.referenced) for p in pages]
            for pages in pages_by_list]


def assert_same(lists, active, inactive, got, want):
    """Victim order, both lists' order and every referenced bit agree."""
    mine = snapshot([got, lists.active.values(), lists.inactive.values()])
    theirs = snapshot([want, active.values(), inactive.values()])
    assert mine == theirs


STATE_SHAPES = [
    # (active, inactive, referenced share)
    (0, 40, 0.0),
    (30, 5, 0.5),
    (5, 30, 0.9),
    (60, 60, 0.3),
    (17, 0, 1.0),
    (0, 25, 1.0),       # all-referenced inactive list
    (120, 3, 0.7),
]


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("shape", STATE_SHAPES)
def test_select_victims_matches_reference(seed, shape):
    rng = random.Random(seed)
    lists, active, inactive = twin_states(rng, *shape)
    count = rng.randint(1, 12)
    factor = rng.choice([0, 1, 4, 64])
    want = reference_select_victims(active, inactive, count, factor)
    got = lists.select_victims(count, scan_limit_factor=factor)
    assert_same(lists, active, inactive, got, want)


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("shape", STATE_SHAPES)
@pytest.mark.parametrize("excess", [-2, 0, 1, 2, 7, 40])
def test_evict_to_matches_reference_loop(seed, shape, excess):
    """Excess 1 is the per-fault case; larger is a harvest shrink."""
    rng = random.Random(seed)
    lists, active, inactive = twin_states(rng, *shape)
    target = max(0, len(lists) - excess)
    want = reference_evict_to(active, inactive, target)
    got = lists.evict_to(target)
    assert_same(lists, active, inactive, got, want)
    assert lists.shortfall == max(0, len(lists) - target)


def test_evict_to_retries_all_referenced_with_deeper_scan():
    """A first round that only promotes is retried at factor 64.

    Six referenced inactive pages: the first round promotes four and
    frees nothing; the retry refills one (now unreferenced) page behind
    the last two referenced ones and reaches it.
    """
    rng = random.Random(1)
    lists, active, inactive = twin_states(rng, 0, 6, 1.0)
    want = reference_evict_to(active, inactive, 5)
    got = lists.evict_to(5)
    assert len(got) == 1
    assert_same(lists, active, inactive, got, want)


def test_evict_to_gives_up_when_even_the_deep_scan_frees_nothing():
    rng = random.Random(2)
    lists, active, inactive = twin_states(rng, 0, 200, 1.0)
    want = reference_evict_to(active, inactive, 199)
    got = lists.evict_to(199)
    assert got == [] and len(lists) == 200
    assert lists.shortfall == 1
    assert_same(lists, active, inactive, got, want)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 50), st.integers(0, 50),
       st.floats(0.0, 1.0), st.integers(0, 60))
def test_evict_to_matches_reference_on_random_states(
        seed, active_n, inactive_n, referenced_share, excess):
    rng = random.Random(seed)
    lists, active, inactive = twin_states(
        rng, active_n, inactive_n, referenced_share
    )
    target = max(0, len(lists) - excess)
    want = reference_evict_to(active, inactive, target)
    got = lists.evict_to(target)
    assert_same(lists, active, inactive, got, want)
    assert lists.shortfall == max(0, len(lists) - target)
