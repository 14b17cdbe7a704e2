"""Small exact linear algebra over the prime field F_p.

Vectors are dense lists of ints; everything is reduced mod p.  Sizes in this
package are tiny (graded pieces of truncated algebras), so plain Python row
reduction is both fast enough and exactly correct.
"""

from __future__ import annotations


def _inv(a: int, p: int) -> int:
    return pow(a, p - 2, p)


class RowSpace:
    """A subspace of F_p^width kept in reduced row echelon form.

    Supports incremental span building, membership tests and canonical
    reduction of vectors modulo the subspace.
    """

    def __init__(self, p: int, width: int):
        self.p = p
        self.width = width
        self.rows: list[list[int]] = []
        self.pivots: list[int] = []  # pivot column of rows[i]

    @property
    def dim(self) -> int:
        return len(self.rows)

    def reduce(self, vec: list[int]) -> list[int]:
        """Return vec reduced modulo the stored rows (a canonical coset rep)."""
        p = self.p
        v = [x % p for x in vec]
        for row, piv in zip(self.rows, self.pivots):
            c = v[piv]
            if c:
                v = [(a - c * b) % p for a, b in zip(v, row)]
        return v

    def contains(self, vec) -> bool:
        return not any(self.reduce(vec))

    def add(self, vec) -> bool:
        """Insert vec into the span; return True if the dimension grew."""
        p = self.p
        v = self.reduce(vec)
        piv = next((i for i, x in enumerate(v) if x), None)
        if piv is None:
            return False
        inv = _inv(v[piv], p)
        v = [x * inv % p for x in v]
        # keep RREF: clear the new pivot column from existing rows
        for i, row in enumerate(self.rows):
            c = row[piv]
            if c:
                self.rows[i] = [(a - c * b) % p for a, b in zip(row, v)]
        at = next((i for i, q in enumerate(self.pivots) if q > piv), len(self.pivots))
        self.rows.insert(at, v)
        self.pivots.insert(at, piv)
        return True

    def non_pivot_columns(self) -> list[int]:
        """Columns without a pivot: the coordinates of canonical coset reps."""
        taken = set(self.pivots)
        return [i for i in range(self.width) if i not in taken]


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
