"""The infinitesimal generator of an Ito diffusion, and martingale rows.

For dX = b dt + sigma dB, Ito's formula gives a test function f the drift

    L f = sum_i b_i d_i f + sum_{i <= j} c_ij (sigma sigma^T)_ij d_i d_j f,

with c_ii = 1/2 and c_ij = 1 for i < j (the (i, j) and (j, i) terms of
the half Hessian trace taken together), and the diffusion row
sum_i d_i f sigma_ik over the noise columns k: ``generator`` and
``noise_projections``.  Each caller builds the ``sigma_sigma_t`` table
that ``generator`` reads once, where it uses it.  The augmentation gives
each sin/cos atom both, the Monte Carlo oracle takes crossing variances
from the diffusion rows of the safe polynomials, and ``martingale_row``
applies the generator to a monomial test function of the augmented
model: with the start-state constant and a unit coefficient on the
matching exit moment, that image is one linear equality over the
occupation/exit moment sequences.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING

from .expr import MultiIndex, Polynomial, enumerate_multi_indices

if TYPE_CHECKING:
    from .augment import AugmentedModel


def sigma_sigma_t(diffusion) -> dict:
    """The nonzero entries (sigma sigma^T)_ij, i <= j, keyed (i, j), of the
    diffusion rows ``diffusion`` (one list of noise columns per state)."""
    sst = {}
    for i, row_i in enumerate(diffusion):
        for j in range(i, len(diffusion)):
            products = [a * b for a, b in zip(row_i, diffusion[j])]
            if not products:
                continue
            entry = sum(products[1:], products[0])
            if not entry.is_zero():
                sst[(i, j)] = entry
    return sst


def noise_projections(f, diffusion) -> list:
    """sum_i d_i f diffusion[i][k] for each noise column k of the diffusion
    rows ``diffusion``, summed over the rows i in order from
    ``Polynomial.zero(f.nbase)``."""
    grad = [f.diff(i) for i in range(len(diffusion))]
    out = []
    for column in zip(*diffusion):
        p = Polynomial.zero(f.nbase)
        for di, g in zip(grad, column):
            if not di.is_zero():
                p = p + di * g
        out.append(p)
    return out


def generator(f, drift, sst):
    """L f for the drift entries ``drift`` and the ``sigma_sigma_t`` table
    ``sst``."""
    out = f * 0
    for i, b in enumerate(drift):
        di = f.diff(i)
        if di.is_zero():
            continue
        out = out + b * di
        for j in range(i, len(drift)):
            entry = sst.get((i, j))
            if entry is None:
                continue
            d2 = di.diff(j)
            if d2.is_zero():
                continue
            term = entry * d2
            out = out + (term * Fraction(1, 2) if i == j else term)
    return out


@dataclass
class MartingaleRow:
    """One relaxed adjoint-equation row: sum_j c_j m_j + x0^k - b_k = 0."""

    test_index: MultiIndex
    interior_coeffs: dict          # multi-index -> Fraction, the c_j(k)
    constant: float                # x0^k


def martingale_row(model: AugmentedModel, k: MultiIndex, sst: dict) -> MartingaleRow:
    """The row of test monomial x^k; ``sst`` is the ``sigma_sigma_t`` table
    of ``model.diffusion``."""
    f = Polynomial.monomial(model.total_dim, k)
    image = generator(f, model.drift, sst)
    return MartingaleRow(tuple(k), dict(image.terms), f.evaluate(model.x0))


def emit_all_rows(model: AugmentedModel, K: int, dropped=None) -> list:
    """Rows for every test monomial of degree <= K whose generator image
    stays within degree K; rows with overflowing images are dropped
    (append their indices to ``dropped`` when a list is supplied)."""
    if K < 0:
        raise ValueError("K must be non-negative")
    sst = sigma_sigma_t(model.diffusion)
    rows = []
    for k in enumerate_multi_indices(model.total_dim, K):
        row = martingale_row(model, k, sst)
        if row.interior_coeffs and max(
            sum(j) for j in row.interior_coeffs
        ) > K:
            if dropped is not None:
                dropped.append(k)
            continue
        rows.append(row)
    return rows
