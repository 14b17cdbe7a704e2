"""A quotient of a free truncated algebra spanned in the whole free algebra,
for oracles.

``SpanQuotient`` keeps, in every degree d, the reduced row echelon form of
the ideal as a ``RowSpace`` over all of the free algebra's degree-d
monomials, grown by each new generator times the representatives |x|
degrees lower.  Its basis is the non-pivot columns, and products and
operations are taken upstairs and reduced by those rows.  It never
eliminates a generator, so it pins what ``QuotientTruncAlgebra`` reads off
its substitution and its residual ideal.  ``all_rows_invariance`` is the
closure check that applies every operation to every row of the ideal."""

from itertools import compress
from operator import add

from pnoether.errors import InputError, MissingDataError
from pnoether.graded import Element, TruncAlgebra, format_op, op_degree
from pnoether.linalg import RowSpace


def in_span(space, vec):
    """Whether the sparse vec lies in the span of the RowSpace's rows."""
    return not space.reduce(vec)


def non_pivot_columns(space, width):
    """The columns below width without a pivot in the RowSpace: the
    coordinates of its canonical coset representatives."""
    return [j for j in range(width) if j not in space.rows]


class SpanQuotient(TruncAlgebra):

    def __init__(self, free, ideal_gens=()):
        self.free = free
        self.p = free.p
        self.bound = free.bound
        self.ideal_gens = []
        self.ideal = [RowSpace(self.p) for _ in range(self.bound + 1)]
        self.reps = [list(range(free.dim(d))) for d in range(self.bound + 1)]
        for x in ideal_gens:
            self.add_generator(x)

    def add_generator(self, x):
        """Degree d of the new ideal is I_d + x·A_{d-|x|}; degrees are
        visited from the top down so that the representatives of degree
        d - |x| are still those of the old ideal."""
        if not x.is_zero and x.degree() == 0:
            raise InputError("ideal generators must have positive degree")
        self.ideal_gens.append(x)
        if x.is_zero:
            return
        d0, free, p = x.degree(), self.free, self.p
        terms = []
        for (_d, i), c in x.data.items():
            t = free.unrank(d0, i)
            terms.append((t, c, -c % p, free._sign_mask(t)))
        for d in range(self.bound, d0 - 1, -1):
            source, index = free.basis(d - d0), free.basis(d)
            position = {m: j for j, m in enumerate(index)}
            vecs = []
            for rep in self.reps[d - d0]:
                vec = {}
                for t, c, neg, mask in terms:
                    mono = source[rep]
                    j = position.get(tuple(map(add, mono, t)))
                    if j is not None:
                        vec[j] = (neg if mask and sum(compress(mono, mask)) % 2
                                  else c)
                vecs.append(vec)
            self.ideal[d].extend(vecs)
            self.reps[d] = non_pivot_columns(self.ideal[d], free.dim(d))

    def basis(self, degree):
        if degree < 0 or degree > self.bound:
            return []
        return self.reps[degree]

    def basis_label(self, degree, index):
        return self.free.basis_label(degree, self.reps[degree][index])

    def _class(self, degree, vec):
        red = self.ideal[degree].reduce(vec)
        return {(degree, self.reps[degree].index(col)): red[col]
                for col in sorted(red)}

    def project(self, x):
        out = {}
        for d in sorted({k[0] for k in x.data}):
            out.update(self._class(d, x.coords(d)))
        return Element(self, out)

    def contains_in_ideal(self, x):
        return all(in_span(self.ideal[d], x.coords(d))
                   for d in {k[0] for k in x.data})

    def product_basis(self, d1, i1, d2, i2):
        prod = self.free.product_basis(d1, self.reps[d1][i1],
                                       d2, self.reps[d2][i2])
        return self._class(d1 + d2, {i: c for (_d, i), c in prod.items()})

    def act_basis(self, op, degree, index):
        self._refuse_above(op, degree)
        value = self.free.act_basis(op, degree, self.reps[degree][index])
        return self._class(degree + op_degree(self.p, op),
                           {i: c for (_d, i), c in value.items()})

    @property
    def steenrod_ok(self):
        """The generator check, read against this span's rows."""
        complete, failures = True, False
        for op in self.free.op_list():
            for x in self.ideal_gens:
                if x.is_zero or x.degree() + op_degree(self.p, op) > self.bound:
                    continue
                try:
                    failures |= not self.contains_in_ideal(self.free.act(op, x))
                except MissingDataError:
                    complete = False
        return False if failures else (True if complete else None)

    def all_rows_invariance(self):
        """(steenrod_ok, steenrod_failures) from every operation on every
        row of the ideal, each failure the op and the row's degree."""
        complete = True
        failures = []
        for op in self.free.op_list():
            shift = op_degree(self.p, op)
            for d in range(1, self.bound + 1 - shift):
                rows = self.ideal[d].rows
                for piv in sorted(rows):
                    x = Element(self.free, {(d, j): c for j, c in rows[piv].items()})
                    try:
                        y = self.free.act(op, x)
                    except MissingDataError:
                        complete = False
                        continue
                    if y.is_zero:
                        continue
                    if not in_span(self.ideal[d + shift], y.coords(d + shift)):
                        failure = {"op": format_op(op), "degree": d}
                        if failure not in failures:
                            failures.append(failure)
        return (False if failures else (True if complete else None)), failures
