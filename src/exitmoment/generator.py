"""Infinitesimal generator on monomial test functions and martingale rows.

For the augmented polynomial SDE the generator of a monomial f = x^k is
the drift-weighted gradient plus half the diffusion-weighted Hessian
trace; each such image, together with the start-state constant and a unit
coefficient on the matching exit moment, yields one linear equality over
the occupation/exit moment sequences.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .augment import AugmentedModel
from .expr import MultiIndex, Polynomial, enumerate_multi_indices


@dataclass
class MartingaleRow:
    """One relaxed adjoint-equation row: sum_j c_j m_j + x0^k - b_k = 0."""

    test_index: MultiIndex
    interior_coeffs: dict          # multi-index -> Fraction, the c_j(k)
    constant: float                # x0^k

    @property
    def boundary_index(self) -> MultiIndex:
        return self.test_index


def apply_generator(model: AugmentedModel, k: MultiIndex) -> Polynomial:
    """Generator image of the monomial x^k; exact polynomial."""
    n = model.total_dim
    if len(k) != n:
        raise ValueError(f"test index has arity {len(k)}, expected {n}")
    sst = model.sigma_sigma_t()
    out = Polynomial.zero(n)
    for i in range(n):
        if k[i] == 0:
            continue
        df = tuple(e - 1 if idx == i else e for idx, e in enumerate(k))
        out = out + model.drift[i] * Polynomial.monomial(n, df, k[i])
    for i in range(n):
        for j in range(i, n):
            entry = sst[(i, j)]
            if entry.is_zero():
                continue
            if i == j:
                if k[i] < 2:
                    continue
                coef = Fraction(k[i] * (k[i] - 1), 2)
                d2 = tuple(e - 2 if idx == i else e for idx, e in enumerate(k))
            else:
                if k[i] == 0 or k[j] == 0:
                    continue
                coef = Fraction(k[i] * k[j])  # both (i,j) and (j,i), halved
                d2 = tuple(e - (idx == i) - (idx == j) for idx, e in enumerate(k))
            out = out + entry * Polynomial.monomial(n, d2, coef)
    return out


def generator_of_polynomial(model: AugmentedModel, p: Polynomial) -> Polynomial:
    """Generator via direct polynomial calculus (independent of the
    monomial path; used as a linearity oracle in tests)."""
    n = model.total_dim
    sst = model.sigma_sigma_t()
    out = Polynomial.zero(n)
    for i in range(n):
        di = p.diff(i)
        if not di.is_zero():
            out = out + model.drift[i] * di
        for j in range(i, n):
            entry = sst[(i, j)]
            if entry.is_zero():
                continue
            d2 = di.diff(j)
            if d2.is_zero():
                continue
            factor = Fraction(1, 2) if i == j else Fraction(1)
            out = out + entry * d2 * factor
    return out


def martingale_row(model: AugmentedModel, k: MultiIndex) -> MartingaleRow:
    image = apply_generator(model, k)
    constant = 1.0
    for x, e in zip(model.x0, k):
        if e:
            constant *= x**e
    return MartingaleRow(tuple(k), dict(image.terms), constant)


def emit_all_rows(model: AugmentedModel, K: int, dropped=None) -> list:
    """Rows for every test monomial of degree <= K whose generator image
    stays within degree K; rows with overflowing images are dropped
    (append their indices to ``dropped`` when a list is supplied)."""
    if K < 0:
        raise ValueError("K must be non-negative")
    rows = []
    for k in enumerate_multi_indices(model.total_dim, K):
        row = martingale_row(model, k)
        if row.interior_coeffs and max(
            sum(j) for j in row.interior_coeffs
        ) > K:
            if dropped is not None:
                dropped.append(k)
            continue
        rows.append(row)
    return rows
