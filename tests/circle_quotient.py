"""Reference for the circle quotient basis of a trig model's PSD blocks,
built from the sine and cosine slots of the atom states rather than from
the library's own filter."""

import numpy as np

from exitmoment.expr import Polynomial, enumerate_multi_indices


def circle_slots(model):
    """The (sine, cosine) slots of each circle s^2 + c^2 - 1 of
    ``interior_eqs``: sine j and cosine half + j of the atom states."""
    n, first, half = model.total_dim, model.total_dim - len(model.atoms), len(model.atoms) // 2
    pairs = [(first + j, first + half + j) for j in range(half)]
    var = [Polynomial.variable(n, i) for i in range(n)]
    assert model.interior_eqs == [var[s] * var[s] + var[c] * var[c] - 1 for s, c in pairs]
    return pairs


def quotient_reference(model, K):
    """The monomials of degree <= K // 2 that no sine square divides
    (every monomial for a model without a circle)."""
    return [u for u in enumerate_multi_indices(model.total_dim, K // 2)
            if all(u[s] < 2 for s, _ in circle_slots(model))]


def quotient_svec(model, K):
    """The svec rows, over the basis of degree K // 2, of the principal
    submatrix at the monomials of ``quotient_reference``."""
    basis = enumerate_multi_indices(model.total_dim, K // 2)
    kept = set(quotient_reference(model, K))
    rows = [k for k, u in enumerate(basis) if u in kept]
    svec = np.zeros((len(basis), len(basis)), dtype=np.int64)
    svec[np.triu_indices(len(basis))] = np.arange(len(basis) * (len(basis) + 1) // 2)
    return svec[np.ix_(rows, rows)][np.triu_indices(len(rows))]
