"""Moment and localizing matrix maps; assembly of the two conic programs.

The assembled program has one variable per occupation moment (degree up
to K plus the overshoot needed by full-basis localizing blocks) followed
by one per exit moment.  PSD blocks all share the moment-matrix basis of
degree floor(K/2), so the block-diagonal cone has total side
(2 + 3 N_q) d_K with original boundary constraints and (2 + N_q) d_K with
the reduced scalar equalities.

Variables are numbered by graded lex rank: occupation moment alpha is
variable rank(alpha) and exit moment alpha is num_m + rank(alpha), where
rank is the closed form of ``expr.graded_lex_ranks``.  The array
assembly relies on two orders, which ``LocalizingMap.entries`` and the
tests' pair loops reproduce one entry at a time:

* PSD block triplets run row-major over the upper triangle
  (``np.triu_indices(d)``: i <= j, svec position p), and within one entry
  over the polynomial's terms in graded lex order (``Polynomial.items``).
* Reduced boundary rows come one per distinct beta = basis[i] + basis[j],
  in order of first appearance in that same upper-triangle traversal.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np
import scipy.sparse as sp

from .augment import AugmentedModel
from .expr import (
    MultiIndex,
    Polynomial,
    enumerate_multi_indices,
    graded_lex_rank,
    graded_lex_ranks,
)
from .generator import emit_all_rows


@dataclass
class MomentIndexMap:
    """Symmetric map (i, j) -> rank of basis[i] + basis[j]."""

    nvars: int
    max_degree: int                 # K of the ambient moment sequence
    basis: list                     # multi-indices of degree <= K // 2

    @property
    def dim(self) -> int:
        return len(self.basis)

    def entry(self, i: int, j: int) -> int:
        alpha = self.basis[i]
        beta = self.basis[j]
        return graded_lex_rank(tuple(a + b for a, b in zip(alpha, beta)))

    def entry_index(self, i: int, j: int) -> MultiIndex:
        return tuple(a + b for a, b in zip(self.basis[i], self.basis[j]))


def build_moment_map(nvars: int, K: int) -> MomentIndexMap:
    if K < 0:
        raise ValueError("K must be non-negative")
    return MomentIndexMap(nvars, K, enumerate_multi_indices(nvars, K // 2))


@dataclass
class LocalizingMap:
    """Entries (i, j) -> sum_alpha q_alpha * moment[beta(i,j) + alpha]."""

    poly: Polynomial
    base: MomentIndexMap

    @property
    def dim(self) -> int:
        return self.base.dim

    def entries(self, i: int, j: int) -> list:
        beta = self.base.entry_index(i, j)
        out = []
        for alpha, coef in self.poly.items():
            target = tuple(a + b for a, b in zip(beta, alpha))
            out.append((coef, graded_lex_rank(target)))
        return out

    def max_referenced_degree(self) -> int:
        return 2 * max(sum(b) for b in self.base.basis) + self.poly.degree()


def build_localizing_map(q: Polynomial, nvars: int, K: int,
                         basis_degree: int | None = None) -> LocalizingMap:
    """Localizing structure for q.

    By default the basis degree is floor((K - deg q) / 2) so every
    referenced moment stays within degree K.  The assembler passes the
    full moment-matrix basis degree instead, which sizes every block at
    d_K and lets referenced moments overshoot K (the variable space is
    widened accordingly).
    """
    degq = q.degree()
    if degq < 0:
        raise ValueError("localizing polynomial must be nonzero")
    if degq > K:
        raise ValueError(f"deg(q) = {degq} exceeds the moment degree K = {K}")
    if basis_degree is None:
        basis_degree = (K - degq) // 2
    basis = enumerate_multi_indices(nvars, basis_degree)
    return LocalizingMap(q, MomentIndexMap(nvars, K, basis))


def boundary_product(safe_polys) -> Polynomial:
    """Product of the safe-set polynomials; vanishes exactly on the boundary."""
    polys = list(safe_polys)
    if not polys:
        raise ValueError("safe set described by no polynomials")
    out = polys[0]
    for q in polys[1:]:
        out = out * q
    if out.is_zero():
        raise ValueError("degenerate zero boundary polynomial")
    return out


def reduced_boundary_equalities(qprime: Polynomial, nvars: int, K: int,
                                basis_degree: int | None = None) -> list:
    """Scalar equalities 'sum_alpha q'_alpha b_{beta(i,j)+alpha} = 0'.

    One row per distinct beta = basis[i] + basis[j] (i <= j), in order of
    first appearance in the row-major upper-triangle traversal of the
    moment-matrix basis.  Distinct betas shift the support of q' to
    distinct sets, so no two rows are proportional.  Rows come back as
    dicts mapping exit-moment multi-indices to rational coefficients,
    keyed in the graded lex order of the terms of q'.
    """
    degq = qprime.degree()
    if degq < 0:
        raise ValueError("degenerate zero boundary polynomial")
    if degq > K:
        raise ValueError(
            f"deg(q') = {degq} exceeds K = {K}: moment sequence too short "
            "for the reduced boundary formulation")
    if basis_degree is None:
        basis_degree = K // 2
    basis = np.array(enumerate_multi_indices(nvars, basis_degree),
                     dtype=np.int64)
    iu, ju = np.triu_indices(len(basis))
    betas = basis[iu] + basis[ju]
    _, first = np.unique(betas, axis=0, return_index=True)
    betas = betas[np.sort(first)]
    terms = qprime.items()
    alphas = np.array([alpha for alpha, _ in terms], dtype=np.int64)
    coefs = [coef for _, coef in terms]
    targets = (betas[:, None, :] + alphas[None, :, :]).tolist()
    return [dict(zip(map(tuple, row), coefs)) for row in targets]


# ---------------------------------------------------------------------------
# Conic assembly
# ---------------------------------------------------------------------------


@dataclass
class PsdBlock:
    """dim x dim PSD constraint; ``mat @ z`` fills the upper triangle row
    by row, in the order of ``np.triu_indices(dim)``."""

    label: str
    dim: int
    mat: sp.csr_matrix

    def svec_len(self) -> int:
        return self.dim * (self.dim + 1) // 2

    def materialize(self, z: np.ndarray) -> np.ndarray:
        vals = self.mat @ z
        iu, ju = np.triu_indices(self.dim)
        out = np.zeros((self.dim, self.dim))
        out[iu, ju] = vals
        out[ju, iu] = vals
        return out


@dataclass
class ConicProgram:
    """Standard-form container: equalities plus PSD blocks over one
    variable vector (occupation moments first, exit moments after)."""

    num_vars: int
    objective: np.ndarray
    sense: str
    a_eq: sp.csr_matrix
    rhs: np.ndarray
    blocks: list
    meta: dict = field(default_factory=dict)

    @property
    def psd_total_dim(self) -> int:
        return sum(b.dim for b in self.blocks)


@dataclass
class MomentProblem:
    """Assembled description prior to lowering into sparse matrices."""

    model: AugmentedModel
    variant: str
    K: int
    moment_order: int
    sense: str
    rows: list                     # MartingaleRow
    dropped_rows: list
    m_indices: list
    b_indices: list
    moment_basis: list             # degree <= K // 2
    interior_polys: list
    qprime: Polynomial
    boundary_equalities: list      # reduced variant only
    num_boundary_blocks: int       # original variant only

    @property
    def n_q(self) -> int:
        return len(self.interior_polys)

    @property
    def d_k(self) -> int:
        return len(self.moment_basis)


def build_moment_problem(model: AugmentedModel, variant: str, K: int,
                         moment_order: int, sense: str) -> MomentProblem:
    from .augment import check_closure

    if variant not in ("original", "reduced"):
        raise ValueError(f"unknown variant {variant!r}")
    if sense not in ("max", "min"):
        raise ValueError(f"unknown sense {sense!r}")
    ok, witness = check_closure(model)
    if not ok:
        raise ValueError(f"model is not closed under generation: {witness}")
    if moment_order < 1:
        raise ValueError("moment order must be >= 1")
    if moment_order - 1 > K:
        raise ValueError("objective moment exceeds the moment sequence")
    n = model.total_dim

    dropped: list = []
    rows = emit_all_rows(model, K, dropped=dropped)

    interior = list(model.support_polys) + list(model.trig_polys)
    # exit_polys excludes the t = 0 facet: no exit mass lives there, and
    # keeping it would let the start-state point mass satisfy every
    # boundary constraint (collapsing the minimization to zero)
    qprime = boundary_product(model.exit_polys)

    half = K // 2
    basis = enumerate_multi_indices(n, half)

    max_int_deg = max((q.degree() for q in interior), default=0)
    K_m = max(K, 2 * half + max_int_deg)
    K_b = max(K, 2 * half + qprime.degree())
    m_indices = enumerate_multi_indices(n, K_m)
    b_indices = enumerate_multi_indices(n, K_b)

    boundary_eqs = []
    n_boundary_blocks = 0
    if variant == "reduced":
        boundary_eqs = reduced_boundary_equalities(qprime, n, K,
                                                   basis_degree=half)
    else:
        # one (q', -q') pair of boundary localizing blocks per safe-set
        # polynomial, mirroring the 2 N_q boundary accounting
        n_boundary_blocks = 2 * len(interior)

    return MomentProblem(
        model=model, variant=variant, K=K, moment_order=moment_order,
        sense=sense, rows=rows, dropped_rows=dropped,
        m_indices=m_indices, b_indices=b_indices, moment_basis=basis,
        interior_polys=interior, qprime=qprime,
        boundary_equalities=boundary_eqs,
        num_boundary_blocks=n_boundary_blocks,
    )


def _psd_block(label: str, loc: LocalizingMap, offset: int, count: int,
               num_vars: int) -> PsdBlock:
    """Lower ``loc`` onto the variables offset .. offset + count - 1.

    Triplets follow the module's order: svec position p of
    ``np.triu_indices``, then the terms of ``loc.poly`` in graded lex
    order; term alpha of entry (i, j) lands on variable
    offset + rank(basis[i] + basis[j] + alpha).  A target ranked at or
    beyond ``count`` has no variable and raises KeyError.
    """
    basis = np.array(loc.base.basis, dtype=np.int64)
    iu, ju = np.triu_indices(loc.dim)
    terms = loc.poly.items()
    alphas = np.array([alpha for alpha, _ in terms], dtype=np.int64)
    targets = ((basis[iu] + basis[ju])[:, None, :]
               + alphas[None, :, :]).reshape(-1, basis.shape[1])
    ranks = graded_lex_ranks(targets)
    outside = ranks >= count
    if outside.any():
        raise KeyError(tuple(targets[np.argmax(outside)].tolist()))
    mat = sp.csr_matrix(
        (np.tile([float(coef) for _, coef in terms], len(iu)),
         (np.repeat(np.arange(len(iu)), len(terms)), offset + ranks)),
        shape=(len(iu), num_vars),
    )
    mat.sum_duplicates()
    return PsdBlock(label, loc.dim, mat)


def lower_to_conic(mp: MomentProblem) -> ConicProgram:
    n = mp.model.total_dim
    num_m = len(mp.m_indices)
    num_b = len(mp.b_indices)
    m_of = {alpha: i for i, alpha in enumerate(mp.m_indices)}
    b_of = {alpha: num_m + i for i, alpha in enumerate(mp.b_indices)}
    num_vars = num_m + num_b

    # -- equality rows, deduplicated on exact rational patterns ----------
    patterns = set()
    eq_rows = []
    eq_rhs = []

    def push(coeffs: dict, rhs):
        if not coeffs:
            return
        items = sorted(coeffs.items())
        lead = items[0][1]
        pattern = tuple((v, c / lead) for v, c in items) + (float(rhs) / float(lead),)
        if pattern in patterns:
            return
        patterns.add(pattern)
        eq_rows.append(items)
        eq_rhs.append(float(rhs))

    for row in mp.rows:
        coeffs = {m_of[j]: c for j, c in row.interior_coeffs.items()}
        coeffs[b_of[row.test_index]] = Fraction(-1)
        push(coeffs, -Fraction(row.constant).limit_denominator(10**15))
    for eq in mp.boundary_equalities:
        push({b_of[j]: c for j, c in eq.items()}, Fraction(0))

    rows_ix, cols_ix, vals = [], [], []
    for r, items in enumerate(eq_rows):
        for v, c in items:
            rows_ix.append(r)
            cols_ix.append(v)
            vals.append(float(c))
    a_eq = sp.csr_matrix((vals, (rows_ix, cols_ix)),
                         shape=(len(eq_rows), num_vars))
    rhs = np.array(eq_rhs)

    # -- PSD blocks -------------------------------------------------------
    one = Polynomial.constant(n, 1)
    basis_map = MomentIndexMap(n, mp.K, mp.moment_basis)
    m_range = (0, num_m, num_vars)
    b_range = (num_m, num_b, num_vars)
    blocks = [
        _psd_block("M(m)", LocalizingMap(one, basis_map), *m_range),
        _psd_block("M(b)", LocalizingMap(one, basis_map), *b_range),
    ]
    for idx, q in enumerate(mp.interior_polys):
        blocks.append(_psd_block(f"M(q{idx} m)", LocalizingMap(q, basis_map),
                                 *m_range))
    if mp.variant == "original":
        for idx in range(len(mp.interior_polys)):
            blocks.append(_psd_block(f"M(+q' b)#{idx}",
                                     LocalizingMap(mp.qprime, basis_map),
                                     *b_range))
            blocks.append(_psd_block(f"M(-q' b)#{idx}",
                                     LocalizingMap(-mp.qprime, basis_map),
                                     *b_range))

    # -- objective --------------------------------------------------------
    obj_index = tuple(
        mp.moment_order - 1 if i == mp.model.time_index else 0
        for i in range(n))
    c = np.zeros(num_vars)
    c[m_of[obj_index]] = float(mp.moment_order)

    meta = {
        "variant": mp.variant,
        "K": mp.K,
        "moment_order": mp.moment_order,
        "n_q": mp.n_q,
        "d_k": mp.d_k,
        "num_m": num_m,
        "num_b": num_b,
        "m_indices": mp.m_indices,
        "b_indices": mp.b_indices,
        "objective_index": obj_index,
        "dropped_rows": list(mp.dropped_rows),
    }
    return ConicProgram(num_vars, c, mp.sense, a_eq, rhs, blocks, meta)


def assemble(model: AugmentedModel, variant: str, K: int,
             moment_order: int, sense: str) -> ConicProgram:
    """Build the full conic program for one bound computation."""
    return lower_to_conic(
        build_moment_problem(model, variant, K, moment_order, sense))
