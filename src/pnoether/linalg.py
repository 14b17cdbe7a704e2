"""Small exact linear algebra over the prime field F_p.

``RowSpace`` is the one row-reduction kernel.  Its vectors are sparse
``{column: coeff}`` dicts of nonzero entries, reduced mod p on the way in,
so a step costs the rows it touches, not the width.  It spans a quotient's
residual ideal (a kill linear in a generator substitutes it away instead),
the linear parts of that ideal in ``indecomposables``, the images of
``mult_ranks`` and the columns of ``solve``, whose dense-list systems are
small.
"""

from __future__ import annotations


class RowSpace:
    """A subspace of F_p^n kept in reduced row echelon form.

    ``rows`` maps each pivot column to its row, a sparse vector with 1 at
    the pivot and 0 on every other pivot.  The pivot of a row is the lowest
    column of the reduced vector it came from, so the rows are the RREF of
    the span, whatever order the vectors arrive in.
    """

    def __init__(self, p: int):
        self.p = p
        self.rows: dict[int, dict[int, int]] = {}
        # column -> pivots of the rows that are nonzero there, off the pivot
        self._users: dict[int, set[int]] = {}

    @property
    def dim(self) -> int:
        return len(self.rows)

    def reduce(self, vec: dict) -> dict:
        """Return vec reduced modulo the stored rows (a canonical coset rep).

        The rows vanish on each other's pivots, so one pass over the pivot
        columns in the support of vec clears them all."""
        p, rows = self.p, self.rows
        out, hits = {}, []
        for j, c in vec.items():
            if r := c % p:
                out[j] = r
                if j in rows:
                    hits.append(j)
        for piv in hits:
            c = out.pop(piv)
            for j, b in rows[piv].items():
                if j != piv:
                    x = (out.get(j, 0) - c * b) % p
                    if x:
                        out[j] = x
                    else:
                        del out[j]
        return out

    def add(self, vec: dict) -> bool:
        """Insert vec into the span; return True if the dimension grew."""
        return self.extend((vec,)) == 1

    def extend(self, vecs) -> int:
        """Insert the vectors in order; return how many raised the dimension.

        Each vector is reduced modulo the rows; a nonzero remainder, scaled
        to 1 at its lowest column, becomes a row with its pivot there, and
        that column is cleared from the rows that use it.  The callers are
        ``add`` (and through it ``solve``), a quotient's residual ideal
        (``_span``), ``mult_ranks`` and the linear parts of
        ``indecomposables``."""
        p, rows, users = self.p, self.rows, self._users
        grown = 0
        for vec in vecs:
            v = self.reduce(vec)
            if not v:
                continue
            grown += 1
            piv = min(v)
            inv = pow(v[piv], -1, p)
            if inv != 1:
                v = {j: c * inv % p for j, c in v.items()}
            # keep RREF: clear the new pivot column from the rows that use it
            tail = [(j, c) for j, c in v.items() if j != piv]
            for j, _c in tail:
                users.setdefault(j, set()).add(piv)
            for q in users.pop(piv, ()):
                row = rows[q]
                c = row.pop(piv)
                for j, b in tail:
                    x = (row.get(j, 0) - c * b) % p
                    if x:
                        if j not in row:
                            users[j].add(q)
                        row[j] = x
                    else:
                        del row[j]
                        users[j].discard(q)
            rows[piv] = v
        return grown


def solve(columns: list[list[int]], target: list[int], p: int) -> list[int] | None:
    """Solve sum_j x_j * columns[j] = target over F_p; None if inconsistent.

    Column j is tagged with the unit coordinate height + j, past the
    target's coordinates, and enters a ``RowSpace`` only when its data part
    is independent of the earlier columns, so a dependent column gets
    x_j = 0, as in Gauss-Jordan.  Every pivot then lies in the data part,
    and reducing the target leaves a data part (no solution) or -x_j on
    each tag."""
    height = len(target)
    space = RowSpace(p)
    for j, column in enumerate(columns):
        vec = space.reduce(dict(enumerate(column)) | {height + j: 1})
        if min(vec) < height:
            space.add(vec)
    rest = space.reduce(dict(enumerate(target)))
    if rest and min(rest) < height:
        return None
    return [-rest.get(height + j, 0) % p for j in range(len(columns))]
