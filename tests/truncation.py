"""The known part of a value in a truncated algebra, for oracles.

A truncated algebra refuses a product or operation that lands above its
bound, since the value there is unknown.  An oracle that compares values
which partly land there compares the parts the algebra knows: ``within_bound``
multiplies or acts only on the homogeneous components that stay within the
bound."""

from pnoether.graded import Element, op_degree
from pnoether.steenrod import word_degree


def within_bound(alg, x, *steps):
    """x carried through steps in order, each an element, which multiplies
    it on the right, an operation key, which acts on it, or an admissible
    word, which acts by act_word; each step reads only the homogeneous
    components whose value stays within alg's bound."""

    def cut(y, room):
        return Element(alg, {k: c for k, c in y.data.items()
                             if k[0] + room <= alg.bound})

    for step in steps:
        if isinstance(step, Element):
            x = sum((alg.product(cut(x, d), alg.element(d, i, c))
                     for (d, i), c in step.data.items()), alg.zero())
        elif step and isinstance(step[0], str):  # an operation key
            x = alg.act(step, cut(x, op_degree(alg.p, step)))
        else:
            x = alg.act_word(step, cut(x, word_degree(alg.p, step)))
    return x
