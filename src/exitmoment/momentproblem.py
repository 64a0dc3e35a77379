"""Moment and localizing matrices; assembly of the two conic programs.

The assembled program has one variable per occupation moment (degree up
to K plus the overshoot needed by full-basis localizing blocks) followed
by one per exit moment.  PSD blocks all share the moment-matrix basis of
degree floor(K/2), so the block-diagonal cone has total side
(2 + 3 N_q) d_K with original boundary constraints (M(m), M(b), one
M(q m) per inequality polynomial q and one (q', -q') pair per q) and
(1 + N_q - N_mirrored) d_K with the reduced scalar equalities (M(b) and
the M(q m) but the mirrored ones, see below), where N_q counts the
inequality polynomials (``interior_polys``).  An equality polynomial g
of ``interior_eqs`` (the trig circles sin^2 + cos^2 - 1) gets no block
in either variant: it enters as the equality rows M(g m) = 0.  The
equality rows are the martingale rows, then (reduced variant) the
boundary rows, then the rows of each g in ``interior_eqs`` in turn, and
last (reduced variant) the symmetry rows.

The reduced variant leaves the occupation moment matrix M(m) out because
the time box implies it.  Every model has t >= 0 and T - t >= 0 among
its inequality polynomials (t and 1 - t / TIME_BOX once scaled), and
t / T + (T - t) / T = 1, so M(m) = (M(t m) + M((T - t) m)) / T is a sum
of PSD blocks at every feasible point: the feasible set, and each
bound, stay as they are, and the solvers handle one block fewer.  The
original variant, the paper's baseline, keeps M(m).

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
degree floor(K/2) basis, which is invertible because that basis is
closed under affine maps; so a block M(q_j m) with q_j a positive
multiple of q_i o sigma, for an earlier q_i whose block is kept, is
implied and left out (``MomentProblem.mirrored``: M((1 - y) m) for
Brownian motion).

Variables are numbered by graded lex rank: occupation moment alpha is
variable rank(alpha) and exit moment alpha is num_m + rank(alpha), where
rank is the closed form of ``expr.graded_lex_ranks``.  The array
assembly relies on two orders, which the tests' per-entry loops
reproduce one entry at a time:

* PSD block triplets run row-major over the upper triangle
  (``np.triu_indices(d)``: i <= j, svec position p), and within one entry
  over the polynomial's terms in graded lex order (``Polynomial.items``).
* The reduced variant's boundary equalities are the distinct rows of the
  boundary localizing matrix M(q' b), and the rows of an equality
  polynomial g those of M(g m), each where it first appears in that same
  upper-triangle traversal, in traversal order, with right-hand side 0.
  Entry (i, j) depends only on beta = basis[i] + basis[j], and distinct
  betas give distinct rows, so there is one row per distinct beta, taken
  where the graded lex rank of beta first appears.  ``conic.presolve``
  finds the same rows of the original variant's (q', -q') block pairs by
  comparing the rows themselves (``distinct_rows``).

No two martingale, boundary or circle rows are proportional, so none is
dropped: martingale row k is the only row on exit moment b_k; a
boundary row holds only exit moments, at least two of them (q' has the
factor T - t, and the graded lex leading and trailing terms of a product
cannot cancel), on the support of q' shifted by the row's own beta; a
row of g holds only occupation moments, on the support of g shifted by
its beta.  Within one polynomial, distinct betas give distinct supports
(the graded lex least target is beta plus the polynomial's least term),
and rows of the boundary and of g lie on disjoint variables.  Rows of
two circles differ too: equal supports would need equal betas (each
circle's least term is its constant) and then the same sine and
cosine.  A symmetry row can depend on earlier rows, and with c = 0 it
can repeat one (2 b_alpha = 0 and the martingale row b_alpha = 0 of a
test monomial that the generator maps to 0); the interior-point method
takes the rank of the rows from a pivoted QR factorization, so nothing
is dropped there either.
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
    moment_basis: list             # degree <= K // 2
    qprime: Polynomial
    # reduced variant only: the coordinates whose reflection about the
    # start state maps the program onto itself, and the indices of the
    # inequality polynomials whose M(q m) mirrors an earlier block
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


def _positive_multiple(p: Polynomial, q: Polynomial) -> bool:
    """p = lambda q for some lambda > 0 (exactly); q is not zero."""
    alpha = next(iter(q.terms))
    ratio = p.coefficient(alpha) / q.coefficient(alpha)
    return ratio > 0 and p == q * ratio


def _permuted(polys: list, i: int, c: Fraction) -> bool:
    """The reflection maps ``polys`` one to one onto its own members, each
    up to a positive factor.  Positive multiples of one polynomial form a
    class, and each image lands in a class, so a greedy match finds a one
    to one map whenever there is one."""
    free = list(range(len(polys)))
    for p in polys:
        image = reflected(p, i, c)
        match = next((j for j in free if _positive_multiple(image, polys[j])), None)
        if match is None:
            return False
        free.remove(match)
    return True


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
                and all(_permuted(polys, i, c) for polys in (
                    model.interior_polys, model.exit_polys, model.interior_eqs))):
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
    kept, out = [], []
    for j, q in enumerate(polys):
        if any(_positive_multiple(q, reflected(polys[k], i, Fraction(x0[i])))
               for k in kept for i in coords):
            out.append(j)
        else:
            kept.append(j)
    return out


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
    max_int_deg = max((q.degree() for q in model.interior_polys + model.interior_eqs),
                      default=0)
    return MomentProblem(
        model=model, variant=variant, K=K, moment_order=moment_order,
        sense=sense, rows=rows, dropped_rows=dropped,
        num_m=count_upto(n, max(K, 2 * half + max_int_deg)),
        num_b=count_upto(n, max(K, 2 * half + qprime.degree())),
        moment_basis=enumerate_multi_indices(n, half),
        qprime=qprime,
        reflections=coords,
        mirrored=_mirrored(model.interior_polys, coords, model.x0),
    )


# Targets ranked at a time by ``_psd_block``: a 16k x n int64 chunk and its
# rank tables take a few MB, where the 127,512 targets of the pendulum's
# K=10 boundary block took 18 MB at once.
_RANKS_PER_CHUNK = 1 << 14


def _ranks(targets: np.ndarray, count) -> np.ndarray:
    """Graded lex ranks of the rows of ``targets``; a target ranked at or
    beyond its ``count`` (a scalar or one per row) has no variable and
    raises KeyError."""
    ranks = graded_lex_ranks(targets)
    outside = ranks >= count
    if outside.any():
        raise KeyError(tuple(targets[np.argmax(outside)].tolist()))
    return ranks


def distinct_rows(mat: sp.csr_matrix) -> np.ndarray:
    """Sorted positions at which each distinct nonzero row of ``mat`` first
    appears.  Rows compare bit for bit by their sorted (column, value)
    entries, padded to the longest row; a row without a nonzero value is
    left out."""
    if not mat.has_sorted_indices:
        mat = mat.sorted_indices()
    counts = np.diff(mat.indptr)
    rows = np.repeat(np.arange(mat.shape[0]), counts)
    slot = np.arange(mat.nnz) - mat.indptr[rows]
    width = int(counts.max(initial=0))
    keys = np.full((mat.shape[0], 2 * width), -1, dtype=np.int64)
    keys[rows, slot] = mat.indices
    keys[rows, width + slot] = mat.data.astype(np.float64).view(np.int64)
    nonzero = np.zeros(mat.shape[0], dtype=bool)
    nonzero[rows[mat.data != 0]] = True
    if not width:
        return np.flatnonzero(nonzero)
    # a stable sort puts each row's first appearance first among its equals
    order = np.lexsort(keys.T)
    ranked = keys[order]
    first = np.ones(len(order), dtype=bool)
    first[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
    first = np.sort(order[first])
    return first[nonzero[first]]


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


def _psd_block(label: str, poly: Polynomial, basis: np.ndarray, offset: int,
               count: int, num_vars: int) -> PsdBlock:
    """Lower the localizing matrix of ``poly`` over ``basis`` (an int64
    array of multi-indices, one per row) onto the variables
    offset .. offset + count - 1.

    Triplets follow the module's order: svec position p of
    ``np.triu_indices``, then the terms of ``poly`` in graded lex order;
    term alpha of entry (i, j) lands on variable
    offset + rank(basis[i] + basis[j] + alpha).  A target ranked at or
    beyond ``count`` has no variable and raises KeyError.  The targets
    are ranked ``_RANKS_PER_CHUNK`` at a time (whole svec rows), so the
    temporaries stay that size whatever the block's.
    """
    iu, ju = np.triu_indices(len(basis))
    terms = poly.items()
    alphas = np.array([alpha for alpha, _ in terms], dtype=np.int64)
    width = len(terms)
    cols = np.empty(len(iu) * width, dtype=np.int64)
    step = max(1, _RANKS_PER_CHUNK // width)
    for start in range(0, len(iu), step):
        pairs = slice(start, start + step)
        targets = ((basis[iu[pairs]] + basis[ju[pairs]])[:, None, :]
                   + alphas[None, :, :]).reshape(-1, basis.shape[1])
        cols[start * width:(start + step) * width] = (
            offset + _ranks(targets, count))
    mat = sp.csr_matrix(
        (np.tile([float(coef) for _, coef in terms], len(iu)), cols,
         np.arange(0, len(cols) + 1, width)),
        shape=(len(iu), num_vars),
    )
    mat.sum_duplicates()
    return PsdBlock(label, len(basis), mat)


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
    basis = np.array(mp.moment_basis, dtype=np.int64)
    m_range = (basis, 0, num_m, num_vars)
    b_range = (basis, num_m, num_b, num_vars)
    # the time box implies M(m) (see the module docstring): only the
    # original variant states it
    blocks = [_psd_block("M(m)", one, *m_range)] if mp.variant == "original" else []
    blocks.append(_psd_block("M(b)", one, *b_range))
    for idx, q in enumerate(mp.model.interior_polys):
        if idx not in mp.mirrored:
            blocks.append(_psd_block(f"M(q{idx} m)", q, *m_range))
    boundary = _psd_block("M(q' b)", mp.qprime, *b_range)
    if mp.variant == "original":
        # one (q', -q') pair per inequality polynomial, mirroring the 2 N_q
        # boundary accounting
        negated = -boundary.mat
        for idx in range(mp.n_q):
            blocks += [PsdBlock(f"M(+q' b)#{idx}", boundary.dim, boundary.mat),
                       PsdBlock(f"M(-q' b)#{idx}", boundary.dim, negated)]
        vanishing = []
    else:
        vanishing = [boundary]
    # every distinct entry of M(q' b) (reduced) and of each M(g m), g in
    # interior_eqs, vanishes: one row per distinct beta = basis[i] +
    # basis[j], where it first appears in the upper triangle
    vanishing += [_psd_block("M(g m)", g, *m_range) for g in mp.model.interior_eqs]
    iu, ju = np.triu_indices(len(basis))
    first = np.sort(np.unique(graded_lex_ranks(basis[iu] + basis[ju]),
                              return_index=True)[1])
    rows = [block.mat[first] for block in vanishing]
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
