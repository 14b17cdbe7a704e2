"""Small exact linear algebra over the prime field F_p.

``RowSpace`` is the one row-reduction kernel.  Its vectors are sparse:
``{column: coeff}`` dicts with only nonzero entries, reduced mod p on the
way in, so a reduction step costs the size of the rows it touches, not the
width of the space.  The ideals spanned here are large in degrees where the
quotient they leave is small, and then each reduced row has nonzeros only
on its pivot and on the few non-pivot columns.

``solve`` is a dense Gauss-Jordan solve for the finite-generation
certificates, whose systems are small.
"""

from __future__ import annotations


def _inv(a: int, p: int) -> int:
    return pow(a, p - 2, p)


class RowSpace:
    """A subspace of F_p^width kept in reduced row echelon form.

    ``rows`` maps each pivot column to its row, a sparse vector with 1 at
    the pivot and 0 on every other pivot.  The pivot of a row is the lowest
    column of the reduced vector it came from, so the rows are the RREF of
    the span, whatever order the vectors arrive in.
    """

    def __init__(self, p: int, width: int):
        self.p = p
        self.width = width
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
        out = {j: c % p for j, c in vec.items() if c % p}
        for piv in [j for j in out if j in rows]:
            c = out.pop(piv)
            for j, b in rows[piv].items():
                if j != piv:
                    x = (out.get(j, 0) - c * b) % p
                    if x:
                        out[j] = x
                    else:
                        del out[j]
        return out

    def contains(self, vec: dict) -> bool:
        return not self.reduce(vec)

    def add(self, vec: dict) -> bool:
        """Insert vec into the span; return True if the dimension grew."""
        p = self.p
        v = self.reduce(vec)
        if not v:
            return False
        piv = min(v)
        inv = _inv(v[piv], p)
        if inv != 1:
            v = {j: c * inv % p for j, c in v.items()}
        # keep RREF: clear the new pivot column from the rows that use it
        users = self._users
        tail = [(j, c) for j, c in v.items() if j != piv]
        for j, _c in tail:
            users.setdefault(j, set()).add(piv)
        for q in users.pop(piv, ()):
            row = self.rows[q]
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
        self.rows[piv] = v
        return True

    def non_pivot_columns(self) -> list[int]:
        """Columns without a pivot: the coordinates of canonical coset reps."""
        rows = self.rows
        return [j for j in range(self.width) if j not in rows]


def solve(columns: list[list[int]], target: list[int], p: int) -> list[int] | None:
    """Solve sum_j x_j * columns[j] = target over F_p; None if inconsistent."""
    if not columns:
        return [] if not any(x % p for x in target) else None
    height = len(columns[0])
    ncols = len(columns)
    # augmented matrix rows
    mat = [[columns[j][i] % p for j in range(ncols)] + [target[i] % p]
           for i in range(height)]
    pivots: list[tuple[int, int]] = []  # (row, col)
    r = 0
    for c in range(ncols):
        sel = next((i for i in range(r, height) if mat[i][c]), None)
        if sel is None:
            continue
        mat[r], mat[sel] = mat[sel], mat[r]
        inv = _inv(mat[r][c], p)
        mat[r] = [x * inv % p for x in mat[r]]
        for i in range(height):
            if i != r and mat[i][c]:
                f = mat[i][c]
                mat[i] = [(a - f * b) % p for a, b in zip(mat[i], mat[r])]
        pivots.append((r, c))
        r += 1
        if r == height:
            break
    for i in range(r, height):
        if mat[i][ncols]:
            return None
    out = [0] * ncols
    for row, col in pivots:
        out[col] = mat[row][ncols]
    return out
