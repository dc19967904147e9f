"""Generating tree: labels, growth operations, unique parentage, and the
symbolic production system."""

from __future__ import annotations

import hashlib
import itertools
import math
import sys
from collections import Counter

import pytest

from zcx.classify import degree_pair, is_ascending
from zcx.core import (
    Disconnected,
    NotConvex,
    Polyomino,
    PolyominoError,
    check_rows,
    decode,
    from_rows,
    size,
)
from zcx.enumerate import all_convex
from zcx.gentree import (
    InvalidLabel,
    LabelLevel,
    NotAscending,
    ROOT_LABEL,
    TreeLabel,
    _LabelDP,
    _label_rows,
    _parent_rows,
    children,
    constructive_levels,
    count_levels,
    label_of,
    levels,
    parent,
    succ,
    walk,
)


def _ascending(n):
    return [p for p in all_convex(n) if is_ascending(p)]


# ---- labels ----------------------------------------------------------------

def test_root_label():
    assert label_of(decode("0-0")) == TreeLabel("L0", 1, 1, 0, True) == ROOT_LABEL


def test_domino_labels():
    assert label_of(decode("0-1")) == TreeLabel("L0", 1, 2, 0, True)
    assert label_of(decode("0-0;0-0")) == TreeLabel("C0", 2, 1, 0, True)


def test_label_rejects_non_ascending():
    with pytest.raises(NotAscending):
        label_of(decode("1-2;0-1"))


def test_class_assignment_examples():
    # single cell in the leftmost column, rows above the base: class L
    p = decode("0-2;1-2;2-2")
    assert label_of(p) == TreeLabel("L", 1, 1, 2, True)
    # a cell below the leftmost base cell: class S
    q = decode("0-1;0-2;1-2")
    assert label_of(q) == TreeLabel("S", 1, 1, 1, True)
    # no full-width row: non-centered, r counts the last column
    r = decode("0-2;1-3;2-3")
    lab = label_of(r)
    assert lab.family == "NC" and lab.r == 2 and lab.rect


def test_labeller_accepts_exactly_the_ascending_shapes_up_to_9():
    for n in range(2, 10):
        for p in all_convex(n):
            try:
                got = _label_rows(p.rows)
            except NotAscending:
                got = None
            assert (got is not None) == is_ascending(p), p.encode()


def _row_tuples(height, width):
    # Every tuple of `height` nonempty rows within columns 0..width-1 that
    # touches column 0, valid or not.
    spans = [(l, r) for l in range(width) for r in range(l, width)]
    for rows in itertools.product(spans, repeat=height):
        if min(l for l, _ in rows) == 0:
            yield rows


def test_labeller_checks_rows_as_check_rows_does():
    # The labeller raises the class check_rows raises (Disconnected before
    # NotConvex), and on valid rows NotAscending exactly off the class.
    raised = Counter()
    for height in range(1, 5):
        for rows in _row_tuples(height, 4):
            try:
                check_rows(rows)
                want = None if is_ascending(Polyomino(rows)) else NotAscending
            except PolyominoError as exc:
                want = type(exc)
            try:
                _label_rows(rows)
                got = None
            except (PolyominoError, NotAscending) as exc:
                got = type(exc)
            assert got is want, rows
            raised[got] += 1
    assert all(raised[k] for k in (None, NotAscending, Disconnected, NotConvex))


def test_invalid_labels_rejected():
    with pytest.raises(InvalidLabel):
        TreeLabel("C0", 1, 1, 0, True).validate()     # C0 needs b > 1
    with pytest.raises(InvalidLabel):
        TreeLabel("C0", 2, 1, 0, False).validate()    # flipped stacks rectangular
    with pytest.raises(InvalidLabel):
        TreeLabel("R", 1, 1, 0, False).validate()     # R is (1,0,0)
    with pytest.raises(InvalidLabel):
        TreeLabel("S", 1, 2, 0, True).validate()      # rectangular S needs r > 0
    with pytest.raises(InvalidLabel):
        TreeLabel("NC", 1, 0, 0, False).validate()    # NC needs r >= 1
    with pytest.raises(InvalidLabel):
        TreeLabel("X", 1, 0, 0, False).validate()
    with pytest.raises(InvalidLabel):
        succ(TreeLabel("C", 1, 1, 0, False))


# ---- growth ----------------------------------------------------------------

def test_children_of_single_cell():
    kids = children(decode("0-0"))
    assert {(op, c.encode()) for op, c in kids} == {
        ("left_cell", "0-1"),
        ("row", "0-0;0-0"),
    }


def test_children_count_at_size_4_totals_26():
    total = sum(len(children(p)) for p in _ascending(4))
    assert total == 26


def test_children_are_ascending_of_next_size():
    for n in range(2, 8):
        for p in _ascending(n):
            for op, child in children(p):
                assert size(child) == n + 1
                assert is_ascending(child)


def test_children_rejects_non_ascending():
    with pytest.raises(NotAscending):
        children(decode("1-2;0-1"))
    with pytest.raises(NotAscending):
        parent(decode("1-2;0-1"))


def test_nc_child_count_law():
    # centered source with r > 0 has binom(r+1, 2) Nc children;
    # rectangular non-centered sources get one extra child
    for n in range(2, 9):
        for p in _ascending(n):
            lab = label_of(p)
            kids = children(p)
            if lab.family == "NC":
                expected = math.comb(lab.r + 1, 2) + (1 if lab.rect else 0)
                assert len(kids) == expected, p.encode()
            else:
                nc_kids = [c for op, c in kids if op == "nc"]
                assert len(nc_kids) == math.comb(lab.r + 1, 2), p.encode()


# SHA-256 over every ascending shape of size 2..9 in ``all_convex`` order:
# its encoding, its label, its ordered (operation, child) list and its
# parent, one line per shape.  It pins the growth code's full output: any
# change of a label, the child order, an operation tag or a parent shows.
GROWTH_SHA256 = "559c72da973becbb2da005a6bb4b9017052eb62e337dba04adae15318ea784f2"


def test_growth_frozen_hash_up_to_9():
    h = hashlib.sha256()
    shapes = 0
    for n in range(2, 10):
        for p in _ascending(n):
            shapes += 1
            par = parent(p)
            line = "|".join([
                p.encode(),
                ",".join(map(str, label_of(p))),
                " ".join(f"{op}:{c.encode()}" for op, c in children(p)),
                "root" if par is None else f"{par[0]}:{par[1].encode()}",
            ])
            h.update(line.encode() + b"\n")
    assert shapes == 9014
    assert h.hexdigest() == GROWTH_SHA256


def test_parent_of_dominoes():
    assert parent(decode("0-1")) == ("left_cell", decode("0-0"))
    assert parent(decode("0-0;0-0")) == ("row", decode("0-0"))
    assert parent(decode("0-0")) is None


def test_walk_carries_the_per_shape_labels_and_children_up_to_9():
    # The walk labels each shape once, when it is made, and grows it from
    # that label; the per-shape oracles recompute both from the shape,
    # which from_rows checks and normalizes.
    for n, rows, lab, kids in walk(9):
        p = from_rows(rows)
        assert p.rows == rows and size(p) == n and lab == label_of(p), p.encode()
        assert (kids == []) == (n == 9), p.encode()
        if n < 9:
            assert [(op, from_rows(c)) for op, c, *_ in kids] == children(p), p.encode()
            assert [c_lab for _, _, c_lab, _, _ in kids] == [
                label_of(from_rows(c)) for _, c, *_ in kids
            ], p.encode()


def test_parent_step_on_the_carried_label_equals_parent_up_to_9():
    # The gentree suite checks each edge with _parent_rows on the label,
    # top row and last column the walk carries; parent is its oracle.
    edges = 0
    for n, rows, _, kids in walk(9):
        for op, child, *info in kids:
            step = _parent_rows(child, *info)
            want_op, want = parent(from_rows(child))
            assert step == (want_op, want.rows) == (op, rows), child
            edges += 1
    assert edges == sum(len(_ascending(n)) for n in range(3, 10))


# The edges of the walk to a size (10 in Tier-1, 13 in CI) on which the
# child's NE-degree equals its parent's, and on which it is one more.
NE_EDGE_SPLIT = {10: (29315, 8196), 13: (2222924, 569588)}


def test_a_child_keeps_its_parents_ne_degree_or_adds_one(max_size=10):
    # No growth step lowers the NE-degree or raises it by 2, so the
    # ascending shapes with NE <= k are closed under parents.
    split = Counter()
    for _, rows, _, kids in walk(max_size):
        ne = degree_pair(Polyomino(rows)).ne
        for _, child, *_ in kids:
            split[degree_pair(Polyomino(child)).ne - ne] += 1
    assert set(split) <= {0, 1}, split
    if max_size in NE_EDGE_SPLIT:
        assert (split[0], split[1]) == NE_EDGE_SPLIT[max_size]


# ---- productions -----------------------------------------------------------

def test_root_production():
    assert sorted(succ(ROOT_LABEL)) == sorted(
        [
            (TreeLabel("L0", 1, 2, 0, True), 1),
            (TreeLabel("C0", 2, 1, 0, True), 1),
        ]
    )


def test_r_production():
    out = dict(succ(TreeLabel("R", 1, 0, 0, False)))
    assert out == {
        TreeLabel("L", 1, 1, 0, False): 1,
        TreeLabel("R", 1, 0, 0, False): 1,
        TreeLabel("C1", 2, 0, 0, False): 1,
    }


def test_nc_rect_production_example():
    # (2)' -> (1)' (2)' (3)' and (1)^1
    out = dict(succ(TreeLabel("NC", 1, 0, 2, True)))
    assert out == {
        TreeLabel("NC", 1, 0, 1, True): 1,
        TreeLabel("NC", 1, 0, 2, True): 1,
        TreeLabel("NC", 1, 0, 3, True): 1,
        TreeLabel("NC", 1, 0, 1, False): 1,
    }


def test_production_child_counts():
    # centered sources with parameter r emit binom(r+1,2) NC children
    lab = TreeLabel("C", 3, 2, 4, True)
    nc_total = sum(m for child, m in succ(lab) if child.family == "NC")
    assert nc_total == math.comb(5, 2)
    lab = TreeLabel("NC", 1, 0, 4, False)
    assert sum(m for _, m in succ(lab)) == math.comb(5, 2)
    lab = TreeLabel("NC", 1, 0, 4, True)
    assert sum(m for _, m in succ(lab)) == math.comb(5, 2) + 1


def _succ_dp(max_size):
    """The label DP that expands every label by ``succ`` and merges the
    children: the oracle for ``count_levels``."""
    levels = [LabelLevel(2, {ROOT_LABEL: 1}.items)]
    while levels[-1].level < max_size:
        nxt = Counter()
        for label, cnt in levels[-1]:
            for child, mult in succ(label):
                nxt[child] += cnt * mult
        levels.append(LabelLevel(levels[-1].level + 1, nxt.items))
    return levels


def test_step_equals_succ_label_by_label():
    labels = {label for lv in count_levels(20) for label, _ in lv}
    assert len(labels) == 2296
    for lab in labels:
        want = Counter()
        for child, mult in succ(lab):
            want[child] += mult
        dp = _LabelDP([(lab, 1)])
        assert dict(dp.level(2)) == {lab: 1}, lab
        dp.step()
        assert dict(dp.level(3)) == want, lab


def _five_totals(lv):
    return (lv.total, lv.centered_total, lv.non_centered_total,
            lv.rectangular_total, lv.non_centered_rectangular_total)


def test_dp_resumed_from_a_whole_level_equals_levels():
    """A whole level seeds the history, the sums over b and the Left Cell
    runs from C labels of every base height at once, which neither the
    root nor a single label does."""
    want = list(levels(20))
    for k in range(2, 13):
        dp = _LabelDP(want[k - 2])
        for n in range(k + 1, k + 9):
            dp.step()
            got = dp.level(n)
            assert got == want[n - 2], (k, n)
            assert _five_totals(got) == _five_totals(want[n - 2]), (k, n)


def test_count_levels_equals_succ_expansion_to_24():
    for got, want in zip(count_levels(24), _succ_dp(24), strict=True):
        assert got == want, got.level


def test_levels_stream_plain_pairs_on_every_iteration():
    # A level holds no dict: each iteration reads its labels again.
    assert next(levels(10**6)) == LabelLevel(2, {ROOT_LABEL: 1}.items)
    for lv, listed in zip(levels(40), count_levels(40), strict=True):
        pairs = list(lv)
        assert all(type(label) is tuple for label, _ in pairs), lv.level
        assert list(lv) == pairs, lv.level
        assert len(dict(lv)) == len(pairs), lv.level
        assert dict(lv) == dict(listed), lv.level


def test_level_totals_equal_sums_over_counts_to_40():
    for lv in levels(40):
        totals = (lv.total, lv.centered_total, lv.non_centered_total,
                  lv.rectangular_total, lv.non_centered_rectangular_total)
        counts = dict(lv)
        assert totals == (
            sum(counts.values()),
            sum(v for (f, *_), v in counts.items() if f != "NC"),
            sum(v for (f, *_), v in counts.items() if f == "NC"),
            sum(v for (*_, rect), v in counts.items() if rect),
            sum(v for (f, *_, rect), v in counts.items() if f == "NC" and rect),
        ), lv.level


def test_constructive_levels_refuse_sizes_below_2():
    with pytest.raises(ValueError, match="max size must be >= 2"):
        constructive_levels(1)


# SHA-256 over the label multiset of every level 2..40 of ``count_levels``:
# a "level n" header, then the level's labels as sorted
# "family,b,w,r,rect,count" lines (the ``gentree --dump-level`` format).
# It pins every label and multiplicity the DP produces to level 40.
LABEL_DP_SHA256 = "9762dffcab5a2d67b104b4273124182df274a39e513b85ab94ab89009f908107"


def test_label_dp_frozen_hash_up_to_40():
    h = hashlib.sha256()
    labels = 0
    for lv in count_levels(40):
        lines = sorted(
            f"{f},{b},{w},{r},{str(rect).lower()},{cnt}"
            for (f, b, w, r, rect), cnt in lv
        )
        labels += len(lines)
        h.update(f"level {lv.level}\n".encode())
        h.update("".join(line + "\n" for line in lines).encode())
    assert labels == 202468
    assert h.hexdigest() == LABEL_DP_SHA256


if __name__ == "__main__":
    # The NE-degree step on every edge of the walk to the size given.
    test_a_child_keeps_its_parents_ne_degree_or_adds_one(int(sys.argv[1]))
    print(f"NE-degree kept or raised by one on every edge to size {sys.argv[1]}: pass")
