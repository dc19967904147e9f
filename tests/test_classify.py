"""Degrees, class predicates, census: cross-checked against oracles and
the generating functions."""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from collections import deque

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
from zcx.core import Polyomino, decode, from_rows, mirror, size
from zcx.enumerate import all_convex, block_polyominoes, blocks, count_convex
from zcx.series import gf, rect_formula


def test_degree_examples():
    assert degree_pair(decode("0-0")) == degree_pair_bruteforce(decode("0-0"))
    assert (degree_pair(decode("0-0")).ne, degree_pair(decode("0-0")).nw) == (0, 0)
    d = degree_pair(decode("0-1;0-1"))
    assert (d.ne, d.nw) == (1, 1)
    d = degree_pair(decode("1-2;0-1"))
    assert (d.ne, d.nw) == (0, 2)


def test_degree_walk_bound_raises_on_unreachable_target():
    # Diagonal cells, not a polyomino: the greedy walk from (0, 0) to (1, 1)
    # cannot move, and the run bound stops it instead of looping forever.
    with pytest.raises(AssertionError):
        degree_pair(Polyomino(((0, 0), (1, 1))))


def test_degree_agrees_with_bruteforce_exhaustively():
    for n in range(2, 10):
        for p in all_convex(n):
            assert degree_pair(p) == degree_pair_bruteforce(p), p.encode()


def test_degree_agrees_with_bruteforce_on_larger_samples():
    for i, p in enumerate(all_convex(11)):
        if i % 997 == 0:
            assert degree_pair(p) == degree_pair_bruteforce(p), p.encode()


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


def test_mirror_swaps_degrees():
    for n in range(2, 10):
        for p in all_convex(n):
            d = degree_pair(p)
            m = degree_pair(mirror(p))
            assert (m.ne, m.nw) == (d.nw, d.ne), p.encode()
    for i, p in enumerate(all_convex(10)):
        if i % 11 == 0:
            d = degree_pair(p)
            m = degree_pair(mirror(p))
            assert (m.ne, m.nw) == (d.nw, d.ne), p.encode()


def test_is_centered():
    assert is_centered(decode("0-0"))
    assert not is_centered(decode("1-2;0-1"))
    assert is_centered(decode("0-2;0-2"))


def test_four_stack_examples():
    assert is_four_stack(decode("0-2;0-2"))
    assert is_four_stack(decode("0-0"))
    # staircase: no supporting rectangle with empty corners
    assert not is_four_stack(decode("0-1;1-2;2-3"))


def test_four_stack_agrees_with_bruteforce():
    for n in range(2, 8):
        for p in all_convex(n):
            assert is_four_stack(p) == is_four_stack_bruteforce(p), p.encode()


def test_four_stack_counts_match_gf():
    g = gf("S4gf", 11)
    for n in range(2, 11):
        count = sum(is_four_stack(p) for p in all_convex(n))
        assert count == g.integer_coefficient(n)


def test_ascending_examples():
    assert is_ascending(decode("0-0"))
    assert not is_ascending(decode("1-2;0-1"))
    assert is_ascending(decode("0-1;1-2"))
    # nested rows via different partners must not be flagged
    assert is_ascending(from_rows([(2, 2), (0, 5), (1, 3)]))


def test_descending_is_mirror_ascending():
    for n in range(2, 8):
        for p in all_convex(n):
            assert is_descending(p) == is_ascending(mirror(p))


def _directed_oracle(p):
    cells = p.cell_set()
    if (0, 0) not in cells:
        return False
    seen = {(0, 0)}
    frontier = deque(seen)
    while frontier:
        x, y = frontier.popleft()
        for nxt in ((x + 1, y), (x, y + 1)):
            if nxt in cells and nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return seen == cells


def test_directed_convex_examples_and_oracle():
    assert is_directed_convex(decode("0-0"))
    assert not is_directed_convex(decode("1-2;0-1"))
    for n in range(2, 10):
        for p in all_convex(n):
            assert is_directed_convex(p) == _directed_oracle(p), p.encode()


def test_directed_convex_counts_are_central_binomials():
    for n in range(2, 10):
        count = sum(is_directed_convex(p) for p in all_convex(n))
        assert count == rect_formula(n)


def _census_expectations(n):
    order = n + 1
    return {
        "total_convex": gf("Cgf", order).integer_coefficient(n),
        "l_convex": gf("Lgf", order).integer_coefficient(n),
        "centered": gf("Egf", order).integer_coefficient(n),
        "z_convex": gf("Zgf", order).integer_coefficient(n),
        "four_stack": gf("S4gf", order).integer_coefficient(n),
        "ascending": gf("Agf", order).integer_coefficient(n),
        "c22": gf("C22gf", order).integer_coefficient(n),
        "c21": gf("C21gf", order).integer_coefficient(n),
    }


@pytest.mark.parametrize("n", range(2, 9))
def test_census_matches_generating_functions(n):
    row = census(n)
    exp = _census_expectations(n)
    for name, val in exp.items():
        assert getattr(row, name) == val, name
    assert row.descending == row.ascending
    assert row.c12 == row.c21
    assert row.ascending_and_descending == row.l_convex
    assert row.directed_convex == rect_formula(n)
    assert row.rect_ascending == rect_formula(n)
    assert row.prop4_mismatch == 0
    assert row.c22_four_stack == row.c22
    assert sum(row.by_degree_pair.values()) == row.total_convex
    assert row.total_convex == 2 * row.ascending + row.c22 - row.l_convex


def test_census_spec_examples():
    assert census(8).c22 == 2
    row5 = census(5)
    assert row5.c21 == 2 and row5.c12 == 2
    assert census(5).total_convex == 28


def test_census_merge_matches_single_pass():
    row = census(7)
    left = CensusRow(7)
    right = CensusRow(7)
    for i, p in enumerate(all_convex(7)):
        (left if i % 2 else right).add(p)
    merged = left.merge(right)
    assert merged.to_dict() == row.to_dict()


def test_census_parallel_equals_serial(monkeypatch):
    monkeypatch.setattr(classify, "POOL_MIN_SIZE", 2)
    with classify.census_pool(2) as pool:
        assert census(7, pool).to_dict() == census(7).to_dict()


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
            top = p.n_rows - 1
            full = any(p.column(x) == (0, top) for x in range(p.width))
            (l0, r0), (lt, rt) = p.rows[0], p.rows[-1]
            assert full == (max(l0, lt) <= min(r0, rt)), p.encode()
            t = _transpose(p)
            assert _transpose(t) == p
            assert _signature(t) == _signature(p)._replace(centered=full), p.encode()


def test_orbit_images_share_the_representative_signature():
    # The lemma behind the census walk's orbits: each image of a shape under
    # the mirror, the vertical flip and the 180 degree rotation has the
    # representative's signature with the degrees swapped by the mirror and
    # the flip, four_stack, centered and the full-height-column bit shared,
    # and only the remaining bits depending on the image's own rows.
    for n in range(2, 10):
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
                    ne, nw = (rep.nw, rep.ne) if swapped else (rep.ne, rep.nw)
                    derived = Signature(
                        ne, nw, rep.centered, rep.four_stack, is_ascending(q),
                        is_descending(q), is_directed_convex(q),
                        q.rows[-1][1] == q.width - 1)
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
    monkeypatch.setattr(sys.modules["__main__"], "__file__", "<stdin>")
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


def test_census_merge_rejects_size_mismatch():
    with pytest.raises(ValueError):
        CensusRow(4).merge(CensusRow(5))


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
