"""The sparse F_p row-reduction kernel against a dense Gauss-Jordan
reference, and ``solve`` against brute-force spans."""

import pytest
from hypothesis import given, settings, strategies as hs

from pnoether.linalg import RowSpace, solve
from quotient_oracle import in_span, non_pivot_columns


def dense(vec, width, p):
    out = [0] * width
    for j, c in vec.items():
        out[j] = (out[j] + c) % p
    return out


def sparse(row):
    return {j: c for j, c in enumerate(row) if c}


def gauss_jordan(vectors, width, p):
    """(pivots, rows) of the reduced row echelon form of the span."""
    rows = [dense(v, width, p) for v in vectors]
    pivots, out = [], []
    for col in range(width):
        sel = next((r for r in rows if r[col]), None)
        if sel is None:
            continue
        rows.remove(sel)
        inv = pow(sel[col], p - 2, p)
        sel = [c * inv % p for c in sel]
        rows = [[(a - r[col] * b) % p for a, b in zip(r, sel)] for r in rows]
        out = [[(a - r[col] * b) % p for a, b in zip(r, sel)] for r in out]
        pivots.append(col)
        out.append(sel)
    return pivots, out


def dense_reduce(vec, pivots, rows, p):
    v = list(vec)
    for piv, row in zip(pivots, rows):
        c = v[piv]
        if c:
            v = [(a - c * b) % p for a, b in zip(v, row)]
    return v


@hs.composite
def _vector_stream(draw, p):
    """A width and a list of sparse vectors over it: random ones (entries
    outside 0..p-1 and explicit zeros included), zero vectors, repeats,
    combinations of earlier vectors, and one-entry vectors that are 0 mod
    p, on a unit row, on the pivot of a row with a tail, or on a column
    that some row's tail uses (rows of the span of the earlier vectors).
    Also cut points that split the list into chunks for ``extend``."""
    width = draw(hs.integers(1, 8))
    entry = hs.tuples(hs.integers(0, width - 1), hs.integers(-p, 2 * p))
    vectors = []
    for kind in draw(hs.lists(hs.sampled_from("rrrzsco"), max_size=16)):
        if kind == "z":
            vectors.append({})
        elif kind == "o":
            pivots, rows = gauss_jordan(vectors, width, p)
            support = [[j for j, c in enumerate(row) if c] for row in rows]
            on = {"zero": list(range(width)),
                  "unit": [piv for piv, s in zip(pivots, support) if len(s) == 1],
                  "tailed": [piv for piv, s in zip(pivots, support) if len(s) > 1],
                  "tail": sorted({j for piv, s in zip(pivots, support)
                                  for j in s if j != piv})}
            where = draw(hs.sampled_from(sorted(k for k in on if on[k])))
            coeff = draw(hs.integers(-1, 2)) * p
            if where != "zero":
                coeff += draw(hs.integers(1, p - 1))
            vectors.append({draw(hs.sampled_from(on[where])): coeff})
        elif kind == "r" or not vectors:
            vectors.append(dict(draw(hs.lists(entry, min_size=1, max_size=width))))
        elif kind == "s":
            vectors.append(dict(draw(hs.sampled_from(vectors))))
        else:
            picks = draw(hs.lists(hs.tuples(hs.sampled_from(vectors),
                                            hs.integers(1, p - 1)),
                                  min_size=1, max_size=3))
            combo = {}
            for v, k in picks:
                for j, c in v.items():
                    combo[j] = combo.get(j, 0) + k * c
            vectors.append(combo)
    probes = draw(hs.lists(hs.lists(hs.integers(0, p - 1), min_size=width,
                                    max_size=width), max_size=3))
    order = draw(hs.permutations(range(len(vectors))))
    cuts = sorted(draw(hs.sets(hs.integers(0, len(vectors)), max_size=3)))
    return width, vectors, probes, order, cuts


def assert_users_match_rows(space):
    """The column -> rows bookkeeping lists exactly the rows with that
    column in their tail."""
    users = {}
    for piv, row in space.rows.items():
        for j in row:
            if j != piv:
                users.setdefault(j, set()).add(piv)
    assert {j: qs for j, qs in space._users.items() if qs} == users


@pytest.mark.parametrize("p", [2, 3, 5])
def test_sparse_kernel_matches_dense_gauss_jordan(p):
    """``add`` one vector at a time, ``extend`` by chunks and every order
    of the stream give the rows of Gauss-Jordan elimination; each call
    reports the rise in rank."""

    @settings(derandomize=True, database=None, max_examples=150)
    @given(_vector_stream(p))
    def check(stream):
        width, vectors, probes, order, cuts = stream
        space = RowSpace(p)
        for k, vec in enumerate(vectors):
            rank_before = space.dim
            grew = space.add(vec)
            pivots, rows = gauss_jordan(vectors[:k + 1], width, p)
            assert grew == (len(pivots) > rank_before)
            assert space.dim == len(pivots)
            assert sorted(space.rows) == pivots
            for piv, row in zip(pivots, rows):
                assert space.rows[piv] == sparse(row)
            assert_users_match_rows(space)
            assert non_pivot_columns(space, width) == [
                j for j in range(width) if j not in pivots]
            for probe in probes + [dense(v, width, p) for v in vectors]:
                red = dense_reduce(probe, pivots, rows, p)
                assert space.reduce(sparse(probe)) == sparse(red)
                assert in_span(space, sparse(probe)) == (not any(red))
        chunked = RowSpace(p)
        for lo, hi in zip([0] + cuts, cuts + [len(vectors)]):
            rank_before = chunked.dim
            pivots, rows = gauss_jordan(vectors[:hi], width, p)
            assert chunked.extend(vectors[lo:hi]) == len(pivots) - rank_before
            assert chunked.rows == {piv: sparse(row)
                                    for piv, row in zip(pivots, rows)}
            assert_users_match_rows(chunked)
        shuffled = RowSpace(p)
        assert shuffled.extend(vectors[k] for k in order) == space.dim
        assert shuffled.rows == space.rows

    check()


@pytest.mark.parametrize("p", [2, 3, 5])
def test_a_column_cleared_by_cancellation_can_become_a_pivot(p):
    """Clearing pivot 1 cancels column 2 of the first row as well; column 2
    must then drop out of that row's bookkeeping, or making it a pivot
    later would clear it from a row that no longer has it."""
    space = RowSpace(p)
    for vec in ({0: 1, 1: 1, 2: 1}, {1: 1, 2: 1}, {2: 1}):
        assert space.add(vec)
    assert space.rows == {j: {j: 1} for j in range(3)}
    assert non_pivot_columns(space, 3) == []


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("last", ["on the shared column", "on a pivot"])
def test_a_one_entry_vector_makes_every_row_a_unit_row(p, last):
    """Rows {0:1, 2:a} and {1:1, 2:b} share column 2.  A vector reducing to
    one entry there, {2:k} itself or {0:k} on a pivot whose tail is 2,
    becomes the unit row {2:1}, and clearing column 2 leaves no row with a
    tail and no bookkeeping for column 2."""
    a, b, k = 1, p - 1, max(1, p - 2)
    vectors = [{0: 1, 2: a}, {1: 1, 2: b}]
    space = RowSpace(p)
    for vec in vectors:
        assert space.add(vec)
    third = {2: k} if last == "on the shared column" else {0: k}
    assert space.reduce(third) == {2: k if 2 in third else -k * a % p}
    vectors.append(third)
    assert space.add(third)
    pivots, rows = gauss_jordan(vectors, 3, p)
    assert sorted(space.rows) == pivots == [0, 1, 2]
    for piv, row in zip(pivots, rows):
        assert space.rows[piv] == sparse(row) == {piv: 1}
    assert 2 not in space._users and not any(space._users.values())
    assert non_pivot_columns(space, 3) == []


@hs.composite
def _system(draw, p):
    """Columns of a system of height at most 5, at most 5 of them (repeats
    and combinations of earlier columns included), and a target that is a
    combination of them or arbitrary."""
    height = draw(hs.integers(1, 5))
    vector = hs.lists(hs.integers(-p, 2 * p), min_size=height,
                      max_size=height)
    columns = []
    for kind in draw(hs.lists(hs.sampled_from("rrsc"), max_size=5)):
        if kind == "r" or not columns:
            columns.append(draw(vector))
        elif kind == "s":
            columns.append(list(draw(hs.sampled_from(columns))))
        else:
            a, b = draw(hs.sampled_from(columns)), draw(hs.sampled_from(columns))
            k = draw(hs.integers(1, p - 1))
            columns.append([x + k * y for x, y in zip(a, b)])
    if columns and draw(hs.booleans()):
        coeffs = [draw(hs.integers(0, p - 1)) for _ in columns]
        target = [sum(c * col[i] for c, col in zip(coeffs, columns))
                  for i in range(height)]
    else:
        target = draw(vector)
    return columns, target


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_solve_matches_brute_force_spans(p):
    """A solution exists exactly when the target lies in the span of the
    columns (listed element by element); the answer then solves the
    system and is 0 on each column in the span of the earlier ones."""

    @settings(derandomize=True, database=None, max_examples=100)
    @given(_system(p))
    def check(system):
        columns, target = system
        height = len(target)
        spans = [{(0,) * height}]  # spans[j]: the span of columns[:j]
        for column in columns:
            spans.append({tuple((v + c * x) % p for v, x in zip(vec, column))
                          for vec in spans[-1] for c in range(p)})
        x = solve(columns, target, p)
        if tuple(t % p for t in target) not in spans[-1]:
            assert x is None
            return
        assert x is not None and len(x) == len(columns)
        assert all(0 <= c < p for c in x)
        assert [sum(c * col[i] for c, col in zip(x, columns)) % p
                for i in range(height)] == [t % p for t in target]
        for j, column in enumerate(columns):
            if tuple(c % p for c in column) in spans[j]:
                assert x[j] == 0

    check()
