"""Oracle for ``quantum_bound`` on n x 2 and 2 x m matrices: the exact
quantum value, found without the solver.

Q depends on the two column vectors y_1, y_2 only through c = y_1 . y_2,
since each row's best x_i is the unit vector along a_i1 y_1 + a_i2 y_2:

    Q = max over c in [-1, 1] of f(c) = sum_i sqrt(a_i1^2 + a_i2^2 + 2 a_i1 a_i2 c).

Each term is the square root of an affine function, so f is concave, and the
maximum is where f'(c) changes sign, or an end of [-1, 1].
"""

import numpy as np

_BISECTIONS = 100  # halves [-1, 1] below the spacing of doubles near +-1


def exact_two_column_value(entries) -> float:
    """Q of an n x 2 or 2 x m coefficient matrix, to rounding."""
    A = np.asarray(entries, dtype=np.float64)
    if A.shape[1] != 2:
        A = A.T
    assert A.shape[1] == 2, "one side must have exactly two observables"
    a, b = A[:, 0], A[:, 1]
    w = a * b

    def squares(c):
        return np.maximum(a * a + b * b + 2.0 * w * c, 0.0)

    def value(c):
        return float(np.sqrt(squares(c)).sum())

    def slope(c):
        # Rows with w = 0 do not depend on c.  A vanishing square at c = +-1
        # makes its row's slope infinite, with the sign of w.
        with np.errstate(divide="ignore"):
            return float((w[w != 0] / np.sqrt(squares(c)[w != 0])).sum())

    if slope(1.0) >= 0.0:
        return value(1.0)
    if slope(-1.0) <= 0.0:
        return value(-1.0)
    lo, hi = -1.0, 1.0
    for _ in range(_BISECTIONS):
        mid = 0.5 * (lo + hi)
        if slope(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return max(value(lo), value(hi))
