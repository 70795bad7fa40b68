"""Reference jets for the tests: the Leibniz rule for any multilinear map,
evaluated through the map itself rather than a table.

``multilinear`` is the expansion ``Taylor2.bilinear`` writes in place for
a table; the tests compare the two bit for bit.
"""

from functools import reduce

import numpy as np

from curvevar.curvature import _SECOND, Taylor2


def multilinear(fn, *args: Taylor2) -> Taylor2:
    """Jet of fn(x1, ..., xn) for fn linear in each argument (Leibniz rule).

    A product of two first-order partials enters d_uu and d_vv once per
    ordered pair (i, j), i != j; the picks of (i, j) and (j, i) are the
    same, so each unordered pair is evaluated once and doubled (15 calls
    of fn for n = 2, 28 for n = 3)."""
    n = len(args)

    def term(picks):
        return fn(*(x.parts[picks.get(i, 0)] for i, x in enumerate(args)))

    out = [term({})] + [reduce(np.add, [term({i: d}) for i in range(n)]) for d in (1, 2)]
    for slot, d1, d2 in _SECOND:
        own = reduce(np.add, [term({i: slot}) for i in range(n)])
        if n == 1:
            out.append(own)
        elif d1 == d2:
            pairs = [term({i: d1, j: d1}) for i in range(n) for j in range(i + 1, n)]
            out.append(own + 2.0 * reduce(np.add, pairs))
        else:
            out.append(own + reduce(np.add, [term({i: d1, j: d2}) for i in range(n) for j in range(n) if i != j]))
    return Taylor2(out)
