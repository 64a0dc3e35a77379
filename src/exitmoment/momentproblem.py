"""Moment and localizing matrices; assembly of the two conic programs.

The assembled program has one variable per occupation moment (degree up
to K plus the overshoot needed by full-basis localizing blocks) followed
by one per exit moment.  PSD blocks all share one basis: in the original
variant the moment-matrix basis of degree floor(K/2), of d_K monomials,
and in the reduced variant its circle quotient, of d'_K monomials (see
below; d'_K = d_K without a circle).  So the block-diagonal cone has
total side (2 + 3 N_q) d_K with original boundary constraints (M(m),
M(b), one M(q m) per inequality polynomial q and one (q', -q') pair per
q) and (N_b + N_q - N_mirrored) d'_K with the reduced scalar equalities
(the N_b exit-measure blocks and the M(q m) but the mirrored ones, see
below), where N_q counts the inequality polynomials
(``interior_polys``).  An equality polynomial g of ``interior_eqs`` (the
trig circles sin^2 + cos^2 - 1) gets no block in either variant: it
enters as the equality rows M(g m) = 0, and in the reduced variant
M(g b) = 0 too.  The equality rows are the martingale rows, then (reduced variant) the
boundary rows, then the rows M(g m) of each g in ``interior_eqs`` in
turn, then (reduced variant) the rows M(g b) of each g in turn, and last
(reduced variant) the symmetry rows.  The occupation moments reach
degree max(K, 2 floor(K/2) + the largest degree of an inequality or
equality polynomial), and the exit moments max(K, 2 floor(K/2) + deg q')
in the original variant and max(K, 2 floor(K/2) + the largest of deg q'
and those degrees) in the reduced one, whose M(q b) blocks and M(g b)
rows reach that far.

The reduced variant leaves the occupation moment matrix M(m) out because
the time box implies it.  Every model has t >= 0 and T - t >= 0 among
its inequality polynomials (t and 1 - t / TIME_BOX once scaled), and
t / T + (T - t) / T = 1, so M(m) = (M(t m) + M((T - t) m)) / T is a sum
of PSD blocks at every feasible point: the feasible set, and each
bound, stay as they are, and the solvers handle one block fewer.  The
original variant, the paper's baseline, keeps M(m).

The reduced variant localizes the exit measure b by the safe set as
well (Helmes, Roehl & Stockbridge, Oper. Res. 2001).  The exit point lies
in the closed safe set, so M(q b) is PSD for each safe polynomial q (the
first len(exit_polys) - 1 of ``interior_polys``), and it satisfies each
circle, so M(g b) = 0.  Given two or more safe polynomials there is one
block M(q b) per safe q but the mirrored ones (see below); with a single
one, q b lives only on {t = T}, where the block has no interior, so the
disc keeps M(b) alone.  Two safe polynomials with q_i + q_j = c, a
positive constant (checked exactly: y + (1 - y) = 1 for the interval),
make M(b) = (M(q_i b) + M(q_j b)) / c a sum of PSD blocks, so M(b) is
left out as M(m) is.  N_b counts the exit-measure blocks: M(b) unless it
is implied, plus the M(q b).  The tighter relaxation is also the easier
one for the interior-point method: the 13 Brownian benchmark bounds take
235 steps instead of 294.

The reduced variant also uses the reflections of the start state under
which the model is invariant (``reflections``: x_i -> 2 c - x_i with
c = x0_i, such as y -> 1 - y for Brownian motion on [0, 1] from 1/2).
Averaging a feasible point with its mirror image gives a feasible point
with the same objective, so restricting the program to invariant moment
sequences keeps every bound (Gatermann & Parrilo, J. Pure Appl. Algebra
2004; Riener, Theobald, Andren & Lasserre, Math. Oper. Res. 2013).  The
symmetry rows state the invariance, m_alpha = the moment of x^alpha o
sigma, for each occupation and then each exit moment alpha with odd
alpha_i (the rows of even alpha_i follow from these).  On invariant
moments M((q o sigma) m) = P' M(q m) P, with P the reflection of the
blocks' basis, which is invertible because that basis is closed under
affine maps of x_i (the circle quotient too: x_i is no atom); so a block M(q_j m) with q_j a positive
multiple of q_i o sigma, for an earlier q_i whose block is kept, is
implied and left out (``MomentProblem.mirrored``: M((1 - y) m) for
Brownian motion), and so is M(q_j b) for a safe q_j (M((1 - y) b)).

The reduced variant takes its blocks over the circle quotient basis:
the monomials of degree <= floor(K/2) that no leading term s_j^2 of a
circle s_j^2 + c_j^2 - 1 divides, the standard monomials of the ideal
of the circles (Parrilo, LNCIS 312, 2005; Permenter & Parrilo, Math.
Program. 2018, on reducing faces by structure).  Over the full basis no
trig program has an interior: with u_g the coefficients of g in that
basis, u_g' M(q m) u_g = L(q g^2) is a combination of the rows
M(g m) = 0, so every block is singular on the whole feasible set.  The
quotient is exact.  The rows M(g m) = 0 hold for every beta of degree
<= 2 floor(K/2), so, when deg q <= deg g = 2, the row of s^2 x^gamma in
M(q m) is the row of (1 - c^2) x^gamma modulo them.  Reducing
recursively gives M(q m) = T' M'(q m) T on the feasible set, with T the
reduction of the full basis to the quotient one and M'(q m) the block
over the quotient basis, which is a principal submatrix of M(q m): one
is PSD exactly when the other is, and every bound stays as it is.  The
exit-measure blocks M(b) and M(q b) fold the same way only because b
carries the rows M(g b) = 0.  Those rows, the rows M(g m) and the
boundary rows M(q' b) = 0 therefore stay lowered over the betas of the
full basis: the betas of the quotient basis miss every multiple of s^3,
and rows over those alone have rank 410 against 427 at pendulum K=4, a
larger feasible set.  A circle is used only when no inequality
polynomial has a higher degree, as the argument needs.  With N_g
circles, inclusion-exclusion gives d'_K = sum_k (-1)^k C(N_g, k)
count_upto(n, floor(K/2) - 2 k): 20 of 21 monomials at pendulum K=4,
50 of 56 at K=6 and 196 of 252 at K=10.

Variables are numbered by graded lex rank: occupation moment alpha is
variable rank(alpha) and exit moment alpha is num_m + rank(alpha), where
rank is the closed form of ``expr.graded_lex_ranks``.  Entry (i, j) of
a localizing matrix depends only on beta = basis[i] + basis[j], so the
lowering ranks the betas of an upper triangle (``_betas``) and lowers
one row per distinct beta (``_localizing_rows``): the triangle of
``moment_basis`` for the blocks and the triangle of the full basis for
the rows.  The array assembly relies on two orders, which the tests'
per-entry loops reproduce one entry at a time:

* The distinct betas come in the order each first appears in the
  upper-triangle traversal (``svec_layout``: i <= j, svec position p),
  and within one row the terms follow the polynomial's graded lex order
  (``Polynomial.items``).  Svec row p of a PSD block is the row of its
  beta.
* The reduced variant's boundary equalities, the rows of M(q' b) = 0,
  and the rows M(g m) = 0 (and, reduced, M(g b) = 0) of each equality
  polynomial g are the beta rows of the full basis, in that
  first-appearance order, with right-hand side 0.  Distinct betas give
  distinct rows (see below).

No two martingale, boundary or circle rows are proportional, so none is
dropped: martingale row k is the only row on exit moment b_k; a
boundary row holds only exit moments, at least two of them (q' has the
factor T - t, and the graded lex leading and trailing terms of a product
cannot cancel), on the support of q' shifted by the row's own beta; a
row M(g m) holds only occupation moments, and a row M(g b) only exit
moments, on the support of g shifted by its beta.  Within one
polynomial, distinct betas give distinct supports (the graded lex least
target is beta plus the polynomial's least term), rows on occupation
and on exit moments lie on disjoint variables, and a boundary row holds
two powers of t (q' has the factor T - t, and the safe polynomials hold
no t) where a row M(g b) holds one.  Rows of two circles differ too:
equal supports would need equal betas (each circle's least term is its
constant) and then the same sine and cosine.  Several rows together can
still be dependent: on the pendulum at K=4 the 378 boundary and circle
rows have rank 372.  A symmetry row can depend on earlier rows, and with
c = 0 it can repeat one (2 b_alpha = 0 and the martingale row
b_alpha = 0 of a test monomial that the generator maps to 0); the
interior-point method takes the rank of the rows from a pivoted QR
factorization, so nothing is dropped there either.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import scipy.sparse as sp

from .augment import AugmentedModel
from .expr import (Polynomial, count_upto, enumerate_multi_indices,
                   graded_lex_ranks, is_int)
from .generator import emit_all_rows, sigma_sigma_t


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


# ---------------------------------------------------------------------------
# Conic assembly
# ---------------------------------------------------------------------------


def svec_layout(dim: int) -> tuple:
    """The one svec layout of a dim x dim block: svec position p holds
    upper-triangle entry (i, j), i <= j, row by row (``np.triu_indices``).
    Returns ``full``, the svec position of every entry of the row-major
    matrix, both triangles, and ``upper``, the row-major position i dim + j
    of every svec entry."""
    iu, ju = np.triu_indices(dim)
    full = np.empty((dim, dim), dtype=np.intp)
    full[iu, ju] = full[ju, iu] = np.arange(iu.size)
    return full.ravel(), iu * dim + ju


@dataclass
class PsdBlock:
    """dim x dim PSD constraint; ``mat @ z`` is its svec, the upper
    triangle in the ``svec_layout`` order, unscaled."""

    label: str
    dim: int
    mat: sp.csr_matrix

    def svec_len(self) -> int:
        return self.dim * (self.dim + 1) // 2

    def materialize(self, z: np.ndarray) -> np.ndarray:
        full, _ = svec_layout(self.dim)
        return (self.mat @ z)[full].reshape(self.dim, self.dim)


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
    num_m: int                     # occupation moments, degree <= K_m
    num_b: int                     # exit moments, degree <= K_b
    # the blocks' basis: degree <= K // 2, less (reduced variant) the
    # multiples of each circle's s^2; the rows take the full basis
    moment_basis: list
    qprime: Polynomial
    # reduced variant only: the coordinates whose reflection about the
    # start state maps the program onto itself, and the indices of the
    # inequality polynomials whose M(q m) (and, for a safe q, M(q b))
    # mirrors an earlier block
    reflections: list
    mirrored: list

    @property
    def n_q(self) -> int:
        """The number of inequality polynomials, one M(q m) block each
        but for the ``mirrored`` ones."""
        return len(self.model.interior_polys)


def _reflection_weights(high: int, c: Fraction) -> list:
    """weights[a][k] for a <= high: (2c - x)^a = sum_k weights[a][k] x^k,
    each row the previous one times 2c - x."""
    two_c = 2 * c
    weights = [[Fraction(1)]]
    for _ in range(high):
        prev = weights[-1]
        weights.append([two_c * prev[0]]
                       + [two_c * a - b for a, b in zip(prev[1:], prev)]
                       + [-prev[-1]])
    return weights


def reflected(poly: Polynomial, i: int, c: Fraction) -> Polynomial:
    """``poly`` with x_i replaced by 2c - x_i."""
    weights = _reflection_weights(poly.degree(), c)
    terms: dict = {}
    for alpha, coef in poly.terms.items():
        for k, w in enumerate(weights[alpha[i]]):
            beta = alpha[:i] + (k,) + alpha[i + 1:]
            terms[beta] = terms.get(beta, 0) + coef * w
    return Polynomial(poly.nvars, terms, poly.atoms)


def _ray(p: Polynomial) -> tuple:
    """The terms of ``p``, sorted, divided by the magnitude of the
    coefficient of the least exponent tuple: two polynomials have one ray
    exactly when each is a positive multiple of the other."""
    terms = sorted(p.terms.items())
    scale = abs(terms[0][1])
    return tuple((alpha, coef / scale) for alpha, coef in terms)


def reflections(model: AugmentedModel, sst: dict) -> list:
    """The state coordinates i under whose reflection about the start
    state, sigma: x_i -> 2 c - x_i with c = x0_i, the model is invariant.

    Candidates are the coordinates that are neither time nor an atom and
    that no atom reads.  With eps_j = -1 for j = i and +1 otherwise,
    sigma is a symmetry when drift_j o sigma = eps_j drift_j, each entry of
    the ``sigma_sigma_t`` table ``sst`` satisfies
    (sigma sigma^T)_jk o sigma = eps_j eps_k (sigma sigma^T)_jk, and
    sigma maps each of ``interior_polys``, ``exit_polys`` and
    ``interior_eqs`` one to one onto its own members, up to positive
    factors.  Every check is exact, on the ``Fraction`` coefficients.
    """
    nslots = model.total_dim - len(model.atoms)
    read = {j for atom in model.atoms for j, e in enumerate(atom.arg) if e}
    out = []
    for i in range(nslots):
        if i == model.time_index or i in read:
            continue
        c = Fraction(model.x0[i])
        eps = [-1 if j == i else 1 for j in range(model.total_dim)]
        if (all(reflected(b, i, c) == b * eps[j] for j, b in enumerate(model.drift))
                and all(reflected(e, i, c) == e * (eps[j] * eps[k])
                        for (j, k), e in sst.items())
                and all(sorted(map(_ray, polys))
                        == sorted(_ray(reflected(p, i, c)) for p in polys)
                        for polys in (model.interior_polys, model.exit_polys,
                                      model.interior_eqs))):
            out.append(i)
    return out


def _closed_rows(rows: list, i: int) -> bool:
    """Every test monomial x^k with a kept martingale row has the rows of
    x^k[i -> j], j < k_i, kept too, so that the kept rows are closed under
    the reflection of x_i (the generator drops rows whose image passes
    degree K)."""
    kept = {row.test_index for row in rows}
    return all(k[:i] + (j,) + k[i + 1:] in kept
               for k in kept for j in range(k[i]))


def _mirrored(polys: list, coords: list, x0: list) -> list:
    """Indices j of ``polys`` with q_j = lambda q_i o sigma, lambda > 0,
    for a reflection sigma of ``coords`` and an earlier q_i that is not
    itself mirrored."""
    images, out = set(), []
    for j, q in enumerate(polys):
        if _ray(q) in images:
            out.append(j)
        else:
            images.update(_ray(reflected(q, i, Fraction(x0[i]))) for i in coords)
    return out


def _sums_to_a_positive_constant(polys: list) -> bool:
    """Whether two of ``polys`` sum to a positive constant, exactly."""
    for p, q in itertools.combinations(polys, 2):
        total = p + q
        if total.degree() == 0 and next(iter(total.terms.values())) > 0:
            return True
    return False


def _quotient_basis(basis: list, eqs: list, polys: list) -> list:
    """The multi-indices of ``basis`` that no leading term of ``eqs``
    divides (for each circle s^2 + c^2 - 1, every multiple of s^2 goes).
    The leading term of g is the first of its top degree in graded lex
    order, and g is used only when no polynomial of ``polys`` has a
    higher degree, for which the quotient is exact (see the module
    docstring)."""
    top = max((q.degree() for q in polys), default=0)
    leads = [max(g.terms, key=lambda alpha: (sum(alpha), alpha))
             for g in eqs if g.degree() >= top]
    return [alpha for alpha in basis
            if not any(all(a >= e for a, e in zip(alpha, lead)) for lead in leads)]


def build_moment_problem(model: AugmentedModel, variant: str, K: int,
                         moment_order: int, sense: str) -> MomentProblem:
    if variant not in ("original", "reduced"):
        raise ValueError(f"unknown variant {variant!r}")
    if sense not in ("max", "min"):
        raise ValueError(f"unknown sense {sense!r}")
    if not is_int(K) or K < 0:
        raise ValueError("K must be non-negative, as an integer")
    if not is_int(moment_order) or moment_order < 1:
        raise ValueError("moment order must be >= 1, as an integer")
    if moment_order - 1 > K:
        raise ValueError("objective moment exceeds the moment sequence")
    n = model.total_dim

    dropped: list = []
    rows = emit_all_rows(model, K, dropped=dropped)

    qprime = boundary_product(model.exit_polys)
    if variant == "reduced" and qprime.degree() > K:
        raise ValueError(
            f"deg(q') = {qprime.degree()} exceeds K = {K}: moment sequence "
            "too short for the reduced boundary formulation")

    coords = []
    if variant == "reduced":
        coords = [i for i in reflections(model, sigma_sigma_t(model.diffusion))
                  if _closed_rows(rows, i)]

    half = K // 2
    basis = enumerate_multi_indices(n, half)
    if variant == "reduced":
        basis = _quotient_basis(basis, model.interior_eqs, model.interior_polys)
    max_int_deg = max((q.degree() for q in model.interior_polys + model.interior_eqs),
                      default=0)
    b_deg = qprime.degree()
    if variant == "reduced":  # M(q b) and M(g b) (see the module docstring)
        b_deg = max(b_deg, max_int_deg)
    return MomentProblem(
        model=model, variant=variant, K=K, moment_order=moment_order,
        sense=sense, rows=rows, dropped_rows=dropped,
        num_m=count_upto(n, max(K, 2 * half + max_int_deg)),
        num_b=count_upto(n, max(K, 2 * half + b_deg)),
        moment_basis=basis,
        qprime=qprime,
        reflections=coords,
        mirrored=_mirrored(model.interior_polys, coords, model.x0),
    )


def _ranks(targets: np.ndarray, count) -> np.ndarray:
    """Graded lex ranks of the rows of ``targets``; a target ranked at or
    beyond its ``count`` (a scalar or one per row) has no variable and
    raises KeyError."""
    ranks = graded_lex_ranks(targets)
    outside = ranks >= count
    if outside.any():
        raise KeyError(tuple(targets[np.argmax(outside)].tolist()))
    return ranks


def _symmetry_rows(i: int, c: Fraction, n: int, offset: int, count: int,
                   num_vars: int) -> sp.csr_matrix:
    """The rows m_alpha - sum_k w_k m_alpha[i -> k] = 0, with w the
    ``_reflection_weights`` of alpha_i and c, for every moment alpha of the
    sequence on the variables offset .. offset + count - 1 that has an odd
    alpha_i, in graded lex order of alpha: the sequence is invariant under
    x_i -> 2c - x_i.  The rows of even alpha_i follow from these.

    Row r holds alpha_r[i -> k] for k = 0 .. alpha_i, whose ranks rise
    with k, and k = alpha_i is alpha_r itself, with coefficient
    1 - (-1)^alpha_i = 2."""
    degree = next(d for d in itertools.count() if count_upto(n, d) >= count)
    alphas = np.array(enumerate_multi_indices(n, degree), dtype=np.int64).reshape(-1, n)
    alphas = alphas[alphas[:, i] % 2 == 1]
    top = alphas[:, i]
    weights = _reflection_weights(int(top.max(initial=0)), c)
    table = np.zeros((len(weights), len(weights)))
    for a, row in enumerate(weights):
        table[a, :a + 1] = [float(-w) for w in row[:-1]] + [float(1 - row[-1])]
    # one entry per (row, k <= alpha_i)
    indptr = np.concatenate([[0], np.cumsum(top + 1)])
    row_of = np.repeat(np.arange(len(alphas)), top + 1)
    k = np.arange(indptr[-1]) - indptr[row_of]
    targets = alphas[row_of]
    targets[:, i] = k
    mat = sp.csr_matrix((table[top[row_of], k], offset + graded_lex_ranks(targets), indptr),
                        shape=(len(alphas), num_vars))
    mat.eliminate_zeros()
    return mat


def _betas(basis: np.ndarray) -> tuple:
    """The distinct beta = basis[i] + basis[j] of the upper triangle, in
    the order each first appears in ``np.triu_indices(len(basis))``, and
    for each svec position the index of its beta.  ``basis`` is an int64
    array of distinct multi-indices, one per row."""
    iu, ju = np.triu_indices(len(basis))
    sums = basis[iu] + basis[ju]
    _, first, inverse = np.unique(graded_lex_ranks(sums), return_index=True,
                                  return_inverse=True)
    order = np.argsort(first)
    return sums[first[order]], np.argsort(order)[inverse]


def _localizing_rows(poly: Polynomial, betas: np.ndarray, offset: int,
                     count: int, num_vars: int) -> sp.csr_matrix:
    """One row per beta of ``betas``: the entry x^beta of the localizing
    matrix of ``poly`` on the variables offset .. offset + count - 1.
    Term alpha lands on variable offset + rank(beta + alpha); a target
    ranked at or beyond ``count`` has no variable and raises KeyError."""
    terms = poly.items()
    alphas = np.array([alpha for alpha, _ in terms], dtype=np.int64)
    width = len(terms)
    targets = (betas[:, None, :] + alphas[None, :, :]).reshape(-1, betas.shape[1])
    mat = sp.csr_matrix(
        (np.tile([float(coef) for _, coef in terms], len(betas)),
         offset + _ranks(targets, count), np.arange(0, len(targets) + 1, width)),
        shape=(len(betas), num_vars),
    )
    mat.sum_duplicates()
    return mat


def lower_to_conic(mp: MomentProblem) -> ConicProgram:
    n = mp.model.total_dim
    num_m, num_b = mp.num_m, mp.num_b
    num_vars = num_m + num_b

    # -- martingale rows: sum_j c_j m_j - b_k = -x0^k ---------------------
    # entries: every interior multi-index (on m), then every test index (on b)
    try:
        entries = [(r, j, float(c)) for r, row in enumerate(mp.rows)
                   for j, c in row.interior_coeffs.items()]
    except OverflowError as exc:
        raise ValueError("a martingale-row coefficient is too large for a float") from exc
    entries += [(r, row.test_index, -1.0) for r, row in enumerate(mp.rows)]
    rows_ix, targets, vals = zip(*entries)
    on_b = np.arange(len(entries)) >= len(entries) - len(mp.rows)
    ranks = _ranks(np.array(targets, dtype=np.int64), np.where(on_b, num_b, num_m))
    martingale = sp.csr_matrix((vals, (rows_ix, ranks + num_m * on_b)),
                               shape=(len(mp.rows), num_vars))
    rhs = [float(-Fraction(row.constant).limit_denominator(10**15))
           for row in mp.rows]

    # -- PSD blocks -------------------------------------------------------
    one = Polynomial.constant(n, 1)
    dim = len(mp.moment_basis)
    betas, where = _betas(np.array(mp.moment_basis, dtype=np.int64))
    # the rows take the betas of the full basis, also under a circle (see
    # the module docstring)
    full = enumerate_multi_indices(n, mp.K // 2)
    row_betas, _ = _betas(np.array(full, dtype=np.int64))
    m_vars, b_vars = (0, num_m, num_vars), (num_m, num_b, num_vars)
    reduced = mp.variant == "reduced"
    # the reduced variant localizes b by each safe polynomial, given two
    # (see the module docstring)
    safe = mp.model.interior_polys[:len(mp.model.exit_polys) - 1]
    localized = safe if reduced and len(safe) > 1 else []
    # the time box implies M(m), and two safe polynomials that sum to a
    # positive constant imply M(b): only the original variant states both
    localizers = [] if reduced else [("M(m)", one, m_vars)]
    if not _sums_to_a_positive_constant(localized):
        localizers.append(("M(b)", one, b_vars))
    localizers += [(f"M(q{idx} m)", q, m_vars)
                   for idx, q in enumerate(mp.model.interior_polys)
                   if idx not in mp.mirrored]
    # the safe polynomials lead interior_polys, so their mirrored ones are
    # those of mp.mirrored
    localizers += [(f"M(q{idx} b)", q, b_vars)
                   for idx, q in enumerate(localized) if idx not in mp.mirrored]
    blocks = [PsdBlock(label, dim, _localizing_rows(poly, betas, *span)[where])
              for label, poly, span in localizers]
    boundary = _localizing_rows(mp.qprime, row_betas, *b_vars)
    if not reduced:
        # one (q', -q') pair per inequality polynomial, mirroring the 2 N_q
        # boundary accounting
        mat = boundary[where]
        negated = -mat
        for idx in range(mp.n_q):
            blocks += [PsdBlock(f"M(+q' b)#{idx}", dim, mat),
                       PsdBlock(f"M(-q' b)#{idx}", dim, negated)]
        rows = []
    else:
        rows = [boundary]
    # every entry of M(q' b) (reduced) and of each M(g m) and (reduced)
    # M(g b), g in interior_eqs, vanishes: one row per distinct beta
    rows += [_localizing_rows(g, row_betas, *span)
             for span in ([m_vars, b_vars] if reduced else [m_vars])
             for g in mp.model.interior_eqs]
    # invariant occupation and exit moments under each reflection
    rows += [_symmetry_rows(i, Fraction(mp.model.x0[i]), n, offset, count, num_vars)
             for i in mp.reflections
             for offset, count in ((0, num_m), (num_m, num_b))]
    a_eq = sp.vstack([martingale, *rows], format="csr")
    rhs += [0.0] * sum(r.shape[0] for r in rows)

    # -- objective --------------------------------------------------------
    obj_index = tuple(
        mp.moment_order - 1 if i == mp.model.time_index else 0
        for i in range(n))
    c = np.zeros(num_vars)
    c[_ranks(np.array([obj_index]), num_m)[0]] = float(mp.moment_order)

    return ConicProgram(num_vars, c, mp.sense, a_eq, np.array(rhs), blocks)


def assemble(model: AugmentedModel, variant: str, K: int,
             moment_order: int, sense: str) -> ConicProgram:
    """Build the full conic program for one bound computation."""
    return lower_to_conic(
        build_moment_problem(model, variant, K, moment_order, sense))
