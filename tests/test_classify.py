"""Degrees, class predicates, census: cross-checked against oracles and
the generating functions."""

from __future__ import annotations

import functools
import hashlib
import itertools
import os
import random
import subprocess
import sys
from collections import Counter

import pytest

import zcx
from zcx import classify
from zcx.classify import (
    CensusRow,
    Signature,
    census,
    census_csv,
    degree_pair,
    degree_pair_bruteforce,
    is_ascending,
    is_centered,
    is_descending,
    is_directed_convex,
    is_four_stack,
    is_four_stack_bruteforce,
)
from zcx.core import (
    Disconnected,
    NotConvex,
    Polyomino,
    check_rows,
    decode,
    from_rows,
    mirror,
    size,
)
from zcx.enumerate import (
    _block_intervals,
    all_convex,
    block_polyominoes,
    blocks,
    count_convex,
)
from zcx.gentree import FAMILIES, TreeLabel, _label_rows, children, parent

from oracles import centered, convexity, directed


def test_degree_examples():
    assert degree_pair(decode("0-0")) == degree_pair_bruteforce(decode("0-0"))
    assert (degree_pair(decode("0-0")).ne, degree_pair(decode("0-0")).nw) == (0, 0)
    d = degree_pair(decode("0-1;0-1"))
    assert (d.ne, d.nw) == (1, 1)
    d = degree_pair(decode("1-2;0-1"))
    assert (d.ne, d.nw) == (0, 2)


@pytest.mark.parametrize("code, degrees", [
    ("0-0", (0, 0)),
    ("0-1;1-2;2-3", (4, 0)),    # E N E N E is the only path across
    ("2-3;1-2;0-1", (0, 4)),    # its mirror
    ("1-2;0-1", (0, 2)),
    ("0-0;0-2;2-2", (2, 0)),    # N E N from the bottom cell to the top
])
def test_degree_oracle_on_degrees_worked_by_hand(code, degrees):
    assert degree_pair_bruteforce(decode(code)) == degrees


def test_degree_walk_bound_raises_on_unreachable_target():
    # Diagonal cells, not a polyomino: the greedy walk from (0, 0) to (1, 1)
    # cannot move, and the run bound stops it instead of looping forever.
    with pytest.raises(AssertionError):
        degree_pair(Polyomino(((0, 0), (1, 1))))


def test_degree_agrees_with_bruteforce_exhaustively(sizes=range(2, 10)):
    for n in sizes:
        for p in all_convex(n):
            assert degree_pair(p) == degree_pair_bruteforce(p), p.encode()


def test_degree_agrees_with_bruteforce_on_larger_samples():
    # Every 997th raw row tuple of size 11 in walk order: 205 shapes, and
    # only those are built into Polyominoes.
    walk = (rows for r, c in blocks(11) for rows in _block_intervals(r, c))
    sample = [from_rows(rows) for rows in itertools.islice(walk, 0, None, 997)]
    assert len(sample) == 205
    for p in sample:
        assert degree_pair(p) == degree_pair_bruteforce(p), p.encode()


def _random_convex_rows(rng):
    """The rows of a convex shape drawn with ``rng``: 8-21 rows, built
    from the bottom.  The left end falls up to a drawn row and rises after
    it, the right end rises up to another and falls after it, each by 0-2
    cells a row, and each row overlaps the one below.  The draws are not
    uniform, and reach sizes and degrees that no exhaustive test does."""
    height = rng.randint(8, 21)
    left_turn, right_turn = rng.randrange(height), rng.randrange(height)
    rows = [(0, rng.randint(0, 2))]
    for y in range(1, height):
        lo, hi = rows[-1]
        dl, dr = rng.randint(0, 2), rng.randint(0, 2)
        new_lo = lo - dl if y <= left_turn else min(lo + dl, hi)
        new_hi = hi + dr if y <= right_turn else max(hi - dr, lo)
        rows.append((new_lo, max(new_lo, new_hi)))
    shift = min(l for l, _ in rows)
    return tuple((l - shift, r - shift) for l, r in rows)


@functools.cache
def _draws(count):
    """The first ``count`` shapes that ``_random_convex_rows`` draws from
    seed 9, made once for the tests that read them."""
    rng = random.Random(9)
    return tuple(from_rows(_random_convex_rows(rng)) for _ in range(count))


def test_kernels_agree_with_the_oracles_on_large_random_shapes(draws=80):
    # A shape of size n has degrees <= n - 3, so the exhaustive tests stop
    # at degree 8.  The first 80 draws have sizes 12-53; two of them have a
    # degree of 16 and 20, and 19 are centered.  The class bits and the
    # transpose lemma of test_transpose_keeps_signature_but_centered are
    # checked on them too.
    top = 0
    for p in _draws(draws):
        d = degree_pair(p)
        assert d == degree_pair_bruteforce(p), p.encode()
        assert degree_pair(mirror(p)) == (d.nw, d.ne), p.encode()
        assert is_four_stack(p) == is_four_stack_bruteforce(p), p.encode()
        top = max(top, *d)
        assert is_ascending(p) == _ascending_oracle(p), p.encode()
        assert is_descending(p) == _ascending_oracle(mirror(p)), p.encode()
        assert is_directed_convex(p) == directed(p.cell_set()), p.encode()
        assert is_centered(p) == centered(p.cell_set()), p.encode()
        assert _signature(_transpose(p)) == _signature(p)._replace(
            centered=_full_height(p)), p.encode()
    assert top >= 15


def test_structural_laws_on_random_shapes_past_the_census():
    # The three laws the class formulas rest on, far past the census: both
    # degrees >= 2 only as (2, 2); ascending exactly when nw <= 1 (Prop. 4);
    # every (2, 2) shape a four-stack.  Of these 6 000 draws (sizes 9-68),
    # 103 have both degrees >= 2, of sizes 14-60.
    both = []
    for seed in range(1000, 1004):
        rng = random.Random(seed)
        for _ in range(1500):
            p = from_rows(_random_convex_rows(rng))
            d = degree_pair(p)
            assert is_ascending(p) == (d.nw <= 1), p.encode()
            if min(d) >= 2:
                both.append(size(p))
                assert d == (2, 2), p.encode()
                assert is_four_stack(p), p.encode()
    assert len(both) >= 100 and max(both) > 14


def test_tree_reaches_the_root_from_large_random_shapes(draws=80):
    # Of the first 80 draws, 39 are ascending and the mirrors of the other
    # 41 are; a later draw may be neither, and is in no tree.  Each one's
    # parent chain takes size - 2 steps to the root, and each shape on it
    # is among its parent's children, by the step that names it.
    for p in _draws(draws):
        p = p if is_ascending(p) else mirror(p)
        if not is_ascending(p):
            continue
        steps, shape = 0, p
        while (step := parent(shape)) is not None:
            op, up = step
            assert (op, shape) in children(up), (p.encode(), shape.encode())
            steps, shape = steps + 1, up
        assert (steps, shape) == (size(p) - 2, decode("0-0")), p.encode()


def _label_oracle(rows):
    """The label, top base row and last column of an ascending shape whose
    leftmost column is 0, read off its cell set by the family rules of the
    ``gentree`` docstring.  The base is the block of full-width rows; a
    shape without one is non-centered, its r the height of the last column
    and its "top" the row below that column.  Otherwise b is the base's
    height, w the number of columns left of the row above the base (all of
    them when the base is the top row), and r the last column's cells above
    the base.  rect: the last column reaches the top row.  b > 1 makes C0
    (base at the top), C1 (w = 0) or C; b = 1 makes L0 or L when the base
    is the only row in column 0, R when the row above it is in column 0,
    and S0 or S otherwise."""
    cells = Polyomino(rows).cell_set()
    height, width = len(rows), 1 + max(x for x, _ in cells)

    def column(x):
        return {y for y in range(height) if (x, y) in cells}

    full = [y for y in range(height) if all((x, y) in cells for x in range(width))]
    last = column(width - 1)
    rect = height - 1 in last
    if not full:
        return TreeLabel("NC", 1, 0, len(last), rect), min(last) - 1, width - 1
    top, b = max(full), len(full)
    w = min((x for x in range(width) if (x, top + 1) in cells), default=width)
    r = sum(y > top for y in last)
    flipped = top == height - 1
    first = column(0)
    if b > 1:
        family = "C0" if flipped else "C1" if w == 0 else "C"
    elif first == {top}:
        family = "L0" if flipped else "L"
    elif top + 1 in first:
        family = "R"
    else:
        family = "S0" if flipped else "S"
    return TreeLabel(family, b, w, r, rect), top, width - 1


def test_labeller_equals_the_family_rules_on_large_random_shapes(draws=80):
    # Each draw or its mirror, and each of its prefixes of rows (an
    # ascending shape too, and the one source of bases at the top), and
    # every ascending shape up to size 8, which has C1 shapes; the first 80
    # draws have none.
    shapes = [p for n in range(2, 9) for p in all_convex(n) if is_ascending(p)]
    for p in _draws(draws):
        p = p if is_ascending(p) else mirror(p)
        if not is_ascending(p):
            continue
        shapes += [from_rows(p.rows[:k]) for k in range(1, p.n_rows + 1)]
    seen = set()
    for p in shapes:
        got = _label_rows(p.rows)
        assert got == _label_oracle(p.rows), p.encode()
        seen.add(got[0].family)
    assert seen == set(FAMILIES)


def test_check_rows_equals_the_cell_set_definition_on_large_random_shapes(draws=80):
    # Each draw, and each shape made from one by moving one end of one row
    # by a cell or the whole row by two.  check_rows raises the class the
    # cell set breaks, and on the convex ones returns the quadratic
    # definition of ascending and the last column.
    verdicts = Counter()
    for p in _draws(draws):
        rows = p.rows
        variants = [rows] + [
            (*rows[:i], (l + dl, r + dr), *rows[i + 1:])
            for i, (l, r) in enumerate(rows)
            for dl, dr in ((-1, 0), (1, 0), (0, -1), (0, 1), (-2, -2), (2, 2))
            if l + dl <= r + dr
        ]
        for shape in variants:
            want = convexity(Polyomino(shape).cell_set())
            try:
                got = check_rows(shape)
            except (Disconnected, NotConvex) as exc:
                assert type(exc) is want, shape
            else:
                assert want is None, shape
                ascending = not any(
                    shape[j][0] < shape[i][0] and shape[j][1] < shape[i][1]
                    for j in range(len(shape)) for i in range(j))
                assert got == (ascending, max(r for _, r in shape)), shape
            verdicts[want] += 1
    assert all(verdicts[k] for k in (None, Disconnected, NotConvex))


# SHA-256 over "encoding|ne|nw" of every convex shape of size 2..10, in
# all_convex order, one line per shape.  It pins the degree kernel's full
# output on 59 606 shapes: any changed degree shows.
DEGREE_SHA256 = "f79e4e28742efea1f7934e1f6eadba934e4e59fc7fecca6681b79cc463f4d087"


def test_degree_frozen_hash_up_to_10():
    h = hashlib.sha256()
    shapes = 0
    for n in range(2, 11):
        for p in all_convex(n):
            shapes += 1
            d = degree_pair(p)
            h.update(f"{p.encode()}|{d.ne}|{d.nw}\n".encode())
    assert shapes == 59606
    assert h.hexdigest() == DEGREE_SHA256


def test_is_centered():
    assert is_centered(decode("0-0"))
    assert not is_centered(decode("1-2;0-1"))
    assert is_centered(decode("0-2;0-2"))


def test_four_stack_examples():
    assert is_four_stack(decode("0-2;0-2"))
    assert is_four_stack(decode("0-0"))
    # staircase: no supporting rectangle with empty corners
    assert not is_four_stack(decode("0-1;1-2;2-3"))


def test_four_stack_agrees_with_bruteforce(sizes=range(2, 10)):
    for n in sizes:
        for p in all_convex(n):
            assert is_four_stack(p) == is_four_stack_bruteforce(p), p.encode()


def test_ascending_examples():
    assert is_ascending(decode("0-0"))
    assert not is_ascending(decode("1-2;0-1"))
    assert is_ascending(decode("0-1;1-2"))
    # nested rows via different partners must not be flagged
    assert is_ascending(from_rows([(2, 2), (0, 5), (1, 3)]))


def _ascending_oracle(p):
    # The definition: no row strictly left of a lower row at both ends.
    rows = p.rows
    return not any(rows[j][0] < rows[i][0] and rows[j][1] < rows[i][1]
                   for j in range(len(rows)) for i in range(j))


def test_ascending_and_descending_agree_with_the_definition(sizes=range(2, 11)):
    for n in sizes:
        for p in all_convex(n):
            assert is_ascending(p) == _ascending_oracle(p), p.encode()
            assert is_descending(p) == _ascending_oracle(mirror(p)), p.encode()


def test_directed_convex_examples_and_oracle(sizes=range(2, 10)):
    assert is_directed_convex(decode("0-0"))
    assert not is_directed_convex(decode("1-2;0-1"))
    for n in sizes:
        for p in all_convex(n):
            assert is_directed_convex(p) == directed(p.cell_set()), p.encode()


def test_census_spec_examples():
    assert census(8).c22 == 2
    row5 = census(5)
    assert row5.c21 == 2 and row5.c12 == 2
    assert census(5).total_convex == 28
    for n in range(2, 9):
        row = census(n)
        assert sum(row.by_degree_pair.values()) == row.total_convex, n


def test_census_pool_only_where_it_pays():
    with classify.census_pool(1) as pool:
        assert pool is None


def test_census_maps_over_the_pool_only_from_pool_min_size():
    class FakePool:
        calls = 0

        def map(self, fn, *iterables):
            self.calls += 1
            return map(fn, *iterables)

    pool = FakePool()
    census(classify.POOL_MIN_SIZE - 1, pool)
    assert pool.calls == 0
    census(classify.POOL_MIN_SIZE, pool)
    assert pool.calls == 1


def _transpose(p):
    return from_rows([p.column(x) for x in range(p.width)])


def _full_height(p):
    return any(p.column(x) == (0, p.n_rows - 1) for x in range(p.width))


def _signature(p):
    row = CensusRow(size(p))
    row.add(p)
    (sig,) = row.counts
    return sig


def test_transpose_keeps_signature_but_centered():
    # The lemma behind the census walk's transpose counting: the transpose's
    # signature is the shape's own, with centered (a full-width row) replaced
    # by the full-height-column bit, which is "bottom and top rows overlap".
    for n in range(2, 10):
        for p in all_convex(n):
            full = _full_height(p)
            (l0, r0), (lt, rt) = p.rows[0], p.rows[-1]
            assert full == (max(l0, lt) <= min(r0, rt)), p.encode()
            t = _transpose(p)
            assert _transpose(t) == p
            assert _signature(t) == _signature(p)._replace(centered=full), p.encode()


def test_orbit_images_share_the_representative_signature(sizes=range(2, 10)):
    # The lemma behind the census walk's orbits: each image of a shape under
    # the mirror, the vertical flip and the 180 degree rotation has the
    # representative's signature with the degrees and the ascending and
    # descending bits swapped by the mirror and the flip, four_stack,
    # centered and the full-height-column bit shared, and only the directed
    # and top-right bits depending on the image's own rows.
    for n in sizes:
        images_total = 0
        for r, c in blocks(n):
            for p in block_polyominoes(r, c):
                rows, mir = p.rows, mirror(p).rows
                images = {rows: False, mir: True, rows[::-1]: True,
                          mir[::-1]: False}
                if rows != min(images):
                    continue
                images_total += len(images)
                rep = _signature(p)
                for img, swapped in images.items():
                    q = from_rows(img)
                    assert (q.n_rows, q.width) == (r, c)
                    (l0, r0), (lt, rt) = img[0], img[-1]
                    assert (max(l0, lt) <= min(r0, rt)) == (
                        max(rows[0][0], rows[-1][0])
                        <= min(rows[0][1], rows[-1][1])), q.encode()
                    ne, nw, asc, desc = (
                        (rep.nw, rep.ne, rep.descending, rep.ascending) if swapped
                        else (rep.ne, rep.nw, rep.ascending, rep.descending))
                    derived = Signature(
                        ne, nw, rep.centered, rep.four_stack, asc, desc,
                        is_directed_convex(q), q.rows[-1][1] == q.width - 1)
                    assert _signature(q) == derived, (p.encode(), q.encode())
        assert images_total == count_convex(n)


@pytest.fixture(scope="module")
def pool2():
    with classify.census_pool(2) as pool:
        assert pool is not None
        yield pool


@pytest.mark.parametrize("n", range(2, 11))
def test_census_walk_equals_object_path(n, monkeypatch, pool2):
    oracle = CensusRow(n)
    for r, c in blocks(n):
        for p in block_polyominoes(r, c):
            oracle.add(p)
    assert census(n).counts == oracle.counts
    monkeypatch.setattr(classify, "POOL_MIN_SIZE", 2)
    assert census(n, pool2).counts == oracle.counts


def test_census_parallel_under_spawn():
    # Spawned workers start from a fresh import, so the pool must not
    # depend on state inherited through fork.
    script = (
        "import multiprocessing as mp\n"
        "from zcx import classify\n"
        "from zcx.classify import census\n"
        "mp.set_start_method('spawn')\n"
        "classify.POOL_MIN_SIZE = 2\n"
        "with classify.census_pool(2) as pool:\n"
        "    assert census(7, pool) == census(7)\n"
    )
    src_dir = os.path.dirname(os.path.dirname(zcx.__file__))
    env = dict(os.environ, PYTHONPATH=src_dir)
    subprocess.run([sys.executable, "-c", script], env=env, check=True, timeout=120)


def test_census_pool_fails_fast_without_main_guard(tmp_path):
    # Each spawned worker imports the script again and, without the guard,
    # tries to start a pool of its own while it starts up.  The census must
    # fail at once instead of waiting for workers that never come up.
    script = tmp_path / "unguarded.py"
    script.write_text(
        "from zcx import classify\n"
        "classify.POOL_MIN_SIZE = 2\n"
        "with classify.census_pool(2) as pool:\n"
        "    classify.census(7, pool)\n"
    )
    src_dir = os.path.dirname(os.path.dirname(zcx.__file__))
    env = dict(os.environ, PYTHONPATH=src_dir)
    proc = subprocess.run([sys.executable, str(script)], env=env, cwd=tmp_path,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "BrokenProcessPool" in proc.stderr


def test_census_pool_refuses_a_main_script_without_a_file(monkeypatch):
    # ``python - <<EOF`` sets __main__.__file__ to '<stdin>', which spawned
    # workers cannot import; the pool refuses it before it starts anything.
    # Under ``python -c`` __main__ has no __file__ to replace.
    monkeypatch.setattr(sys.modules["__main__"], "__file__", "<stdin>", raising=False)
    monkeypatch.setattr(classify, "POOL_MIN_SIZE", 2)
    with classify.census_pool(2) as pool:
        with pytest.raises(ValueError, match="save the script to a file"):
            census(5, pool)
        assert pool.executor is None


def test_census_pool_starts_no_process_below_pool_min_size(tmp_path):
    # Making an executor starts multiprocessing's resource tracker, so a
    # pool no census reaches must not make one.
    script = tmp_path / "small.py"
    script.write_text(
        "import multiprocessing.resource_tracker as tracker\n"
        "from zcx import classify\n"
        "if __name__ == '__main__':\n"
        "    with classify.census_pool(2) as pool:\n"
        "        classify.census(9, pool)\n"
        "    print(tracker._resource_tracker._pid)\n"
    )
    src_dir = os.path.dirname(os.path.dirname(zcx.__file__))
    env = dict(os.environ, PYTHONPATH=src_dir)
    proc = subprocess.run([sys.executable, str(script)], env=env, cwd=tmp_path,
                          capture_output=True, text=True, timeout=60, check=True)
    assert proc.stdout == "None\n"


def test_census_csv_shape():
    rows = [census(n) for n in range(2, 6)]
    text = census_csv(rows)
    lines = text.strip().split("\n")
    header = lines[0].split(",")
    assert header[:12] == [
        "size", "total", "l_convex", "centered", "four_stack", "z_convex",
        "ascending", "descending", "c12", "c21", "c22", "directed_convex",
    ]
    assert all(col.startswith("deg_") for col in header[12:])
    assert len(lines) == 5
    first = lines[1].split(",")
    assert first[0] == "2" and first[1] == "1"
