"""Embedded conic solvers for the assembled programs: a dense
interior-point method for programs with few free moments, and ADMM for
the rest.

``solve`` first presolves the program (``presolve``), always.  A PSD
block identical to an earlier one is dropped.  A pair of blocks with
G_j = -G_k is how the original variant states the boundary equality
q' = 0 on the exit measure, as the two localizing constraints q' >= 0
and -q' >= 0, once per inequality polynomial; both blocks force
G_k z = 0, so the first pair is replaced by the distinct nonzero rows of
G_k as equality rows with right-hand side 0, and its repeats are dropped.
``distinct_rows`` finds those rows by comparing the rows themselves;
they are the rows that ``assemble`` lowers one per distinct beta for the
reduced variant.  Those pairs and their repeats are all that
``presolve`` ever changes: ``assemble`` lowers every other equality
(the reduced variant's boundary, the trig circles of both variants) as
rows already, so a reduced program comes back as it is.  A presolved
original program holds the reduced program's equality rows, less the
rows M(g b) = 0 and the symmetry rows that only the reduced variant
states.  Its blocks add M(m) (and M(b) where the reduced variant leaves
it out), both implied, and the mirrored M(q m); they lack the M(q b);
and for a trig model they span the full basis, of which the reduced
blocks are principal submatrices (see ``momentproblem``).  The
variables do not change, so the returned ``z`` lives in the assembled
program's variable space and needs no lift.  The presolve saves one
eigendecomposition per dropped block on every iteration.

Dispatch.  After the presolve and the checks for non-finite data and
for at least one PSD block, a program with
``num_vars - eq_rows <= IPM_MAX_FREE`` goes to the interior-point
method.  That difference is a lower bound on the number of free
moments, known without a factorization; it is negative when dependent
rows outnumber the variables, as the symmetry rows of a reduced program
can.  The interior-point method's QR factorization of the equality rows
then gives their rank, and a program with more than ``IPM_MAX_FREE``
free moments ``num_vars - rank`` goes on to ADMM, after the consistency
check of those rows.  If the interior-point
method fails (too many free moments, a matrix that is not positive
definite, non-finite values, a stall), ADMM runs on the same presolved
program, as it would have without the interior-point attempt, and its
result is returned with the interior-point stop reason in ``message``;
inconsistent equality rows and an objective that no PSD block bounds
describe the program and end the solve instead.  An interior-point
method that spends its ``max_iters`` steps returns its own record, with
status ``max_iters``: ADMM takes far more iterations than the
interior-point method takes steps on every program measured, so it
cannot finish within the same budget.  ``SolveResult.method`` names the
method whose result it is.  One runner builds each method's record,
which the method fills as it goes, and maps a numerical failure to
``numerical_failure`` with a NaN objective.

The interior-point method eliminates A z = b through a null-space basis
N: z = z0 + N w.  N and z0 come from a QR factorization of A' with
column pivoting (LAPACK dgeqp3), whose falling |R_kk| give the rank; it
takes a fifth of the time of a full SVD (3.9 ms against 19 ms at
Brownian K=14, 385 rows and 307 variables, one BLAS thread).  It runs in
place in the one dense copy of A, read as the Fortran-order A', and
leaves Q as Householder reflectors below R.  Neither Q nor R is formed:
z0 is Q [y; 0] with R_11' y the pivoted right-hand side, solved on the
leading rank x rank block, and N = Q [0; I] is the reflectors applied
to [0; I] (dormqr).  The large dense arrays alive at once are the factor
and N, then, once the factor is freed, N with the Gram matrix below and,
until the Gram matrix is freed, its eigenvectors; the consistency check
|A z0 - b| reads the sparse A.
Directions of N that move no PSD block (moments that only the
equalities see) would make the Schur matrix singular; the
eigendecomposition of the Gram matrix sum_k (G_k N)'(G_k N) keeps the
others, scaled so that the stacked block images are orthonormal:
z = z0 + W w, W = N Q diag(lambda)^-1/2.  What remains is the LMI
X_k = C_k + sum_i w_i F_k,i >= 0  with objective q'w
and the dual  Z_k >= 0,  sum_k <F_k,i, Z_k> = q_i.  Each group of
``_SvecBlocks`` (an assembled program has one: its blocks share one
basis, of degree K/2, without the multiples of a circle's s^2 in a
reduced trig program) keeps the F_k,i once, as an (n_blocks, p, svec)
array of their svecs, and X, Z, their factors and the directions as
(n_blocks, d, d) arrays, so a Cholesky factorization or step-length
congruence is one call per group; a step length then takes only the
least eigenvalue of each block's congruence.
The iteration is the infeasible-start primal-dual path following method
with the HKM direction (Helmberg, Rendl, Vanderbei & Wolkowicz, SIAM J.
Optim. 1996) and Mehrotra's predictor-corrector (SIAM J. Optim. 1992).
The p x p Schur matrix M_ij = sum_k tr(F_k,i Z_k F_k,j X_k^-1) is the
Gram matrix sum_k G_k G_k' of the images G_k,i = L_k^-1 F_k,i R_k, with
X_k = L_k L_k' and Z_k = R_k R_k': PSD by construction, at about
d^3 p + p^2 d^2 / 2 multiply-adds per block.  M is factored once per
step for both directions, and each side steps ``IPM_STEP`` of the way to
the boundary of its cone.  The stopping rule takes the relative gap
<X, Z> / max(|primal| + |dual objective|, ``IPM_GAP_FLOOR``), the
moment-side residual |C + F(w) - X| / (1 + |C|) and the Z-side residual
|q - F'(Z)| / (1 + |q|); the solve is ``optimal`` when all three are at
most ``EPS_REL``, and it has stalled when the largest of the three has
not halved in ``IPM_STALL`` steps.  The reported objective is the end of
the primal/dual pair on the side of a bound, the lesser for "min" and
the greater for "max": the moment-side value approaches a minimum from
above.  ``primal_residual`` and ``dual_residual`` report the two
residuals, and ``residual_history`` the largest of the three after
every step.

ADMM runs on the primal cone form, written as one Douglas-Rachford map
on one vector v of the scaled svec space of the PSD blocks (the form the
SCS solver runs).  One evaluation is

    s = P(v)                      every block projected onto the PSD cone
    z = argmin c'z + |G z - (2 s - v)|^2 / 2   subject to  A z = b
    f = G z - s,   T(v) = v + f

with the least-squares step solved through one cached sparse KKT
factorization.  With s = P(v) and u = v - s this is classical ADMM with
penalty 1 and no over-relaxation.  The KKT step gives
c + A'y + G'(v - s) = -G'f - sigma z, so |G'f + sigma z| is the dual
residual of (z, y, lambda = s - v), with lambda PSD and orthogonal to s,
as in SCS (O'Donoghue et al., JOTA 2016).  Along a direction that no
PSD block and no equality bounds, only sigma z holds z back, at about
-c / sigma, where |G'f| alone reads 0.  Every ``CHECK_INTERVAL``
iterations the primal residual |f|, this dual residual and the equality
residual |A z - b| are compared with the ``EPS_ABS`` / ``EPS_REL``
tolerances; a point that meets them is optimal once the least
eigenvalue of every PSD block at z is at least -10 ``EPS_ABS``.
``SolverSettings`` holds the one setting callers vary, ``max_iters``,
which caps the steps of the interior-point method or the iterations (map
evaluations) of ADMM, whichever runs.

Type-II Anderson acceleration extrapolates the next v from the last
``AA_MEMORY`` evaluations of T (a Tikhonov-regularised least-squares fit
of the residual differences).  A safeguard rejects an extrapolated v
whose own |f| exceeds ``AA_SAFEGUARD`` times the |f| of the plain step
it replaced: the iteration restarts from that plain step T(v) and the
memory is cleared.

The PSD projection runs one stacked ``np.linalg.eigh`` per group,
rebuilding ``V max(w, 0) V'`` for the whole group in one batched product.
``_SvecBlocks`` groups the blocks by dimension once, for both methods,
and each group converts between svec rows and matrices through
``momentproblem.svec_layout``, the one layout of ``PsdBlock``.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .expr import is_int
from .momentproblem import ConicProgram, svec_layout

_SQRT2 = math.sqrt(2.0)

# Anderson memory (map evaluations).  Total iterations of the 13 Brownian
# bounds of the benchmark (reduced K=14 orders 1-6, original K=8 order 1),
# by memory: 0 (the plain map) -> 59.1k, 5 -> 7.9k, 8 -> 5.9k,
# 10 -> 5.98k, 15 -> 5.7k.  On the 16 of 20 other Brownian bounds
# (reduced K=6/10/12, original K=6/10, orders 1-2) that every memory
# solves: 0 -> 117.4k, 5 -> 16.9k, 8 -> 14.1k, 10 -> 13.9k, 15 -> 14.2k.
# Totals move by about this much with rounding alone (computing T(v) as
# G z + (v - s) takes the 13 bounds from 5.98k to 5.9k at memory 10).
# These counts, and those of AA_REGULARIZATION, were taken while the
# reduced programs still held the block M(m).
AA_MEMORY = 10
# An accelerated point is rejected when its plain step's fixed-point
# residual exceeds this multiple of the previous plain residual.
AA_SAFEGUARD = 2.0
# Tikhonov weight, relative to the trace of the Gram matrix.  1e-8 and
# 1e-12 took 5.75k and 6.1k iterations on the 13 benchmark bounds and
# 13.9k and 14.2k on the 16 others, differences within that rounding noise.
AA_REGULARIZATION = 1e-10
# Absolute and relative tolerances of the primal, dual and equality
# residuals; the optimality gate also takes -10 EPS_ABS as the least
# eigenvalue each PSD block may have.  The interior-point method stops when
# its relative gap and both relative residuals are at most EPS_REL.
EPS_ABS = 1e-7
EPS_REL = 1e-7
# Iterations between residual checks (and ``residual_history`` entries).
CHECK_INTERVAL = 25
# Most free moments of a presolved program that the interior-point method
# solves.  ``solve`` screens with num_vars - eq_rows, a lower bound on the
# free moments that needs no factorization, and ``_free_moments`` hands a
# program whose num_vars - rank exceeds it to ADMM after its QR
# factorization.  Measured on order-1 "min" reduced programs,
# 1 BLAS thread, 2 shared vCPUs, as (free moments: interior point, ADMM
# alone): Brownian K=14 (34: 0.11 s / 18 steps, 0.25 s / 225 iterations;
# its num_vars - eq_rows is -78, since its symmetry rows depend on other
# rows), 2-D Brownian motion from (0.2, 0.1) in the box [-1, 1]^2, K=8
# (450: 1.05 s / 20, 11.6 s / 5,200) and in the unit disc, K=8 (320:
# 0.38 s / 20, 0.75 s / 550); see
# ``test_brownian_motion_in_a_box_is_solved_by_the_interior_point_method``
# and ``..._in_a_disc_...``; Brownian K=22 (50: 0.43 s / 20, 5.5 s /
# 1,400).  The free-moment count alone does not predict which method
# wins: at Brownian K=26 (59) the largest residual stops shrinking at
# 6.7e-6 after step 18, and the stall test hands over to ADMM at step 22
# (0.94 s).  ADMM then ends ``max_iters`` at 20,000 iterations (97 s
# alone) but ``optimal`` at the command line's 200,000 budget: after 23,200
# iterations for "min" and 23,275 for "max" (87-110 s each), bracketing 1/4.
# The benchmark sees only the two ends: Brownian reduced K=14
# and original K=8, with 34 and 43 free moments, and the pendulum, which
# the screen sends to ADMM without a factorization (num_vars - eq_rows
# 815 and 1,644 at reduced K=4 and K=6, 941 at original K=4).
IPM_MAX_FREE = 500
# Least |primal| + |dual| objective against which the interior-point gap is
# measured: the solve stops when <X, Z> <= EPS_REL max(|primal| + |dual|,
# IPM_GAP_FLOOR).  The reported bound is the end of the primal/dual pair on
# the side of a bound, so its distance from the other end is this gap.  On
# the 13 benchmark bounds, as (floor: steps, worst relative error against
# the exact moments): 1 -> 223, 2.6e-5 (above the 1e-5 that the tests of
# the reduced K=14 bounds ask for); 0.1 -> 235, 4.7e-6; 0.01 and 0.001 ->
# 249, 1.9e-7, and the 24 held-out bounds of IPM_STEP end optimal at each.
# The floor is what ends a solve whose optimum is 0: before the reduced
# programs localized the exit measure, reduced K=4 order-4 "min" had that
# optimum, and at 0.001 it kept a gap as large as |primal| + |dual| for 5
# steps and stalled.  These counts, and those of IPM_STEP and IPM_STALL,
# are of the programs with the reflection y -> 1 - y and the exit-measure
# localizer M(y b).
IPM_GAP_FLOOR = 0.1
# Fraction of the way to the boundary of its cone that each side steps.
# Interior-point steps on the 13 benchmark bounds / on 24 other Brownian
# bounds (reduced K=4-10, orders 1, 2 and 4, both senses), all ending
# optimal on their side of the exact moment: 0.8 -> 284 / 477,
# 0.85 -> 259 / 427, 0.9 -> 235 / 385, 0.95 -> 256 / 366; at 0.98 only 1
# and 9 end optimal.
IPM_STEP = 0.9
# Steps within which the largest of the relative gap and residuals must
# at least halve, or the interior-point solve has stalled.  On those 37
# solves it shrank at least 6.3-fold over every 5 steps at IPM_STEP 0.8 to
# 0.9, and at least 13.5-fold at 0.9.
IPM_STALL = 5


@dataclass
class SolverSettings:
    max_iters: int = 200_000

    def __post_init__(self):
        if not is_int(self.max_iters) or self.max_iters < 1:
            raise ValueError("max_iters must be at least 1, as an integer")


@dataclass
class SolveResult:
    """The record of one ``solve``: the method that ran fills the fields
    before ``psd_blocks``, and ``solve`` the last three."""
    status: str                    # optimal | max_iters | numerical_failure
    objective: float
    primal_residual: float
    dual_residual: float
    iterations: int
    z: np.ndarray                  # in the assembled program's variables
    method: str                    # ipm | admm; "" when the data is rejected
    # (iteration, max(primal, dual) residual) at every check; the
    # interior-point method adds one entry per step, with its relative gap
    residual_history: list = field(default_factory=list, repr=False)
    message: str = ""
    aa_rejected: int = 0           # accelerated points the safeguard dropped
    psd_blocks: int = 0            # size of the presolved program solved
    eq_rows: int = 0
    solve_time: float = 0.0


class _SvecGroup:
    """The ``blocks`` of one dimension d in program order, their ``pos`` in
    the stacked svec vector (one row per block), the ``svec_layout`` of d
    and the svec ``scale``: 1 on the diagonal, whose ``upper`` positions
    i (d + 1) are the multiples of d + 1, and sqrt 2 off it."""

    def __init__(self, dim: int, blocks: list, starts: np.ndarray):
        self.dim, self.blocks = dim, blocks
        self.full, self.upper = svec_layout(dim)
        self.scale = np.where(self.upper % (dim + 1) == 0, 1.0, _SQRT2)
        self.pos = starts[:, None] + np.arange(self.upper.size)

    def matrices(self, rows: np.ndarray) -> np.ndarray:
        """The symmetric d x d matrices whose svecs are these rows."""
        return np.take(rows, self.full, axis=1).reshape(-1, self.dim, self.dim)

    def svecs(self, mats: np.ndarray) -> np.ndarray:
        """The upper triangles of stacked d x d matrices, one svec row each."""
        return mats.reshape(len(mats), -1)[:, self.upper]


class _SvecBlocks:
    """The PSD blocks in scaled svec space: their svec ``lengths`` and
    ``starts``, the ``stacked`` scaled svec rows, and ``groups``, the one
    grouping by dimension, a ``_SvecGroup`` per dimension in rising order."""

    def __init__(self, program: ConicProgram):
        self.lengths = np.array([b.svec_len() for b in program.blocks])
        self.starts = np.concatenate([[0], np.cumsum(self.lengths)[:-1]])
        self.total = int(self.lengths.sum())
        dims = np.array([b.dim for b in program.blocks])
        self.groups = [_SvecGroup(int(d), [b for b in program.blocks if b.dim == d],
                                  self.starts[dims == d])
                       for d in np.unique(dims)]
        scales = {g.dim: g.scale for g in self.groups}
        self.stacked = sp.vstack([sp.diags(scales[b.dim]) @ b.mat for b in program.blocks],
                                 format="csr")

    def project(self, vec: np.ndarray) -> np.ndarray:
        out = np.empty_like(vec)
        for g in self.groups:
            svec = vec[g.pos]
            w, v = np.linalg.eigh(g.matrices(svec / g.scale))
            neg = w[:, 0] < 0
            if neg.any():
                v = v[neg]
                proj = (v * np.maximum(w[neg], 0.0)[:, None, :]) @ v.transpose(0, 2, 1)
                svec[neg] = g.svecs(proj) * g.scale
            out[g.pos] = svec
        return out


def _ruiz_equilibrate(a_eq, g, blocks: _SvecBlocks):
    """Ten passes of row/column scaling of the stacked matrix [A; G].

    Cone rows are scaled uniformly within each block so the PSD geometry
    is preserved; equality rows scale independently.  Returns the scalings
    and the scaled ``a_s``, ``g_s``.

    Each row pass and each column pass scales the stacked entries afresh.
    """
    m_eq, n = a_eq.shape
    stack = sp.vstack([a_eq, g], format="csr")
    rows = np.repeat(np.arange(stack.shape[0]), np.diff(stack.indptr))
    cols = stack.indices
    d_eq = np.ones(m_eq)
    d_cone = np.ones(len(blocks.lengths))
    e_col = np.ones(n)

    def scaled():
        """The entries of D [A; G] E."""
        row_scale = np.concatenate([d_eq, np.repeat(d_cone, blocks.lengths)])
        return row_scale[rows] * stack.data * e_col[cols]

    def abs_max(index, size):
        """The largest |entry| of D [A; G] E per row or per column."""
        out = np.zeros(size)
        np.maximum.at(out, index, np.abs(scaled()))
        return out

    for _ in range(10):
        # row update
        r = abs_max(rows, stack.shape[0])
        r_eq = r[:m_eq]
        r_eq[r_eq == 0] = 1.0
        d_eq /= np.sqrt(r_eq)
        if blocks.total:
            r_cone = np.maximum.reduceat(r[m_eq:], blocks.starts)
            nonzero = r_cone > 0
            d_cone[nonzero] /= np.sqrt(r_cone[nonzero])
        # column update
        c = abs_max(cols, n)
        c[c == 0] = 1.0
        e_col /= np.sqrt(c)
    mat = sp.csr_matrix((scaled(), cols, stack.indptr), shape=stack.shape)
    return d_eq, d_cone, e_col, mat[:m_eq], mat[m_eq:]


class _Anderson:
    """Type-II Anderson acceleration of a fixed-point map x -> T(x).

    Ring buffers hold the last ``memory`` differences of the residual
    F = T(x) - x and of T(x) (= dX + dF); the Gram matrix of the residual
    differences gains one row and column per evaluation.
    """

    def __init__(self, dim: int, memory: int):
        self.memory = memory
        self.d_f = np.empty((memory, dim))
        self.d_t = np.empty((memory, dim))
        self.gram = np.empty((memory, memory))
        self.f_prev = np.empty(dim)
        self.t_prev = np.empty(dim)
        self.count = 0

    def reset(self):
        self.count = 0

    def step(self, tx: np.ndarray, f: np.ndarray) -> np.ndarray:
        """Record T(x) = tx with residual f = tx - x; return the next point,
        which is ``tx`` itself when there is nothing to extrapolate from."""
        k = min(self.count, self.memory)
        self.count += 1
        if not k:
            self.f_prev[:] = f
            self.t_prev[:] = tx
            return tx
        j = (self.count - 2) % self.memory
        d_f = self.d_f[:k]
        np.subtract(f, self.f_prev, out=d_f[j])
        np.subtract(tx, self.t_prev, out=self.d_t[j])
        self.f_prev[:] = f
        self.t_prev[:] = tx
        # one pass over the buffer for the new Gram row and the rhs d_f f
        row, rhs = (d_f @ np.stack([d_f[j], f], axis=1)).T
        self.gram[j, :k] = row
        self.gram[:k, j] = row
        gram = self.gram[:k, :k]
        reg = AA_REGULARIZATION * np.trace(gram)
        if not reg > 0:  # converged differences, or non-finite values
            return tx
        gamma = np.linalg.solve(gram + reg * np.eye(k), rhs)
        return tx - gamma @ self.d_t[:k]


def _block_key(dim: int, mat: sp.csr_matrix) -> tuple:
    mat = mat.sorted_indices()
    return dim, mat.indptr.tobytes(), mat.indices.tobytes(), mat.data.tobytes()


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
    # the sort is stable, so each index is a row's first appearance
    first = np.sort(np.unique(keys, axis=0, return_index=True)[1])
    return first[nonzero[first]]


def presolve(program: ConicProgram) -> ConicProgram:
    """Drop repeated PSD blocks and turn each (G, -G) block pair into the
    distinct nonzero rows of G as equality rows (right-hand side 0), in
    the order the pairs close.  Blocks compare bit for bit as sorted CSR
    matrices.  Of the assembled programs, only the original variant's
    (+q', -q') boundary pairs and their repeats are presolved.  The
    variables and the objective do not change; a program with nothing to
    presolve, such as every reduced program, comes back as it is."""
    by_key = {}
    kept, paired = [], []
    for block in program.blocks:
        key = _block_key(block.dim, block.mat)
        if key in by_key:
            continue
        partner = by_key.get(_block_key(block.dim, -block.mat))
        by_key[key] = block
        if partner is None:
            kept.append(block)
        else:
            kept = [b for b in kept if b is not partner]
            paired.append(partner)
    if len(kept) == len(program.blocks):
        return program
    rows = [g.mat[distinct_rows(g.mat)] for g in paired]
    return replace(
        program, blocks=kept,
        a_eq=sp.vstack([program.a_eq, *rows], format="csr"),
        rhs=np.concatenate([program.rhs, np.zeros(sum(r.shape[0] for r in rows))]))


class _Failure(Exception):
    """A numerical failure; its message goes to ``SolveResult.message``."""


class _Refusal(_Failure):
    """A stop that the program itself causes, which no other method mends."""


def _lapack(name: str, *args, **kwargs) -> list:
    """Call the LAPACK routine ``name`` with the workspace its own query
    asks for; return its outputs before ``work`` and ``info``."""
    routine = getattr(sla.lapack, name)
    lwork = int(routine(*args, lwork=-1, **kwargs)[-2][0])
    *out, _, info = routine(*args, lwork=lwork, **kwargs)
    if info:
        raise np.linalg.LinAlgError(f"{name} failed (info {info})")
    return out


def _times_q(factor: np.ndarray, tau: np.ndarray, mat: np.ndarray) -> np.ndarray:
    """Q mat, in place in the Fortran-order ``mat``, for the Q that dgeqp3
    left as reflectors in ``factor`` and ``tau``."""
    if not tau.size:
        return mat
    return _lapack("dormqr", "L", "N", factor[:, :tau.size], tau, mat, overwrite_c=1)[0]


def _free_moments(program: ConicProgram, blocks: _SvecBlocks, c: np.ndarray):
    """z0 and W with z = z0 + W w over the solutions of A z = b that the
    PSD blocks see.  W spans the null space of A less the directions that
    move no block, scaled so that the stacked block images (blocks.stacked
    @ W) have orthonormal columns.  More than ``IPM_MAX_FREE`` free
    moments, counted by the rank of A, hand the program to ADMM."""
    n = program.num_vars
    b = program.rhs.astype(float)
    # A[perm]' = Q R with |R_kk| falling, in place: R on and above the
    # diagonal, Q as reflectors below it.  The first ``rank`` pivoted rows
    # span the rows of A, and the last columns of Q its null space
    factor = program.a_eq.toarray().T
    factor, perm, tau = _lapack("dgeqp3", factor, overwrite_a=1)
    diag = np.abs(np.diag(factor))
    eps = np.finfo(float).eps
    rank = int(np.count_nonzero(diag > diag.max(initial=0.0) * max(factor.shape) * eps))
    # z0 = Q [y; 0] with R_11' y = b[perm[:rank]], R_11 read in place
    z0 = np.zeros((n, 1), order="F")
    z0[:rank, 0] = b[perm[:rank] - 1]
    z0 = sla.lapack.dtrtrs(factor[:, :rank], z0, trans=1, overwrite_b=1)[0]
    z0 = _times_q(factor, tau, z0)[:, 0]
    if (np.linalg.norm(program.a_eq @ z0 - b)
            > EPS_ABS * math.sqrt(max(len(b), 1)) + EPS_REL * np.linalg.norm(b)):
        raise _Refusal("inconsistent equality rows")
    r = n - rank
    if r > IPM_MAX_FREE:
        raise _Failure(f"{r} free moments, above IPM_MAX_FREE = {IPM_MAX_FREE}")
    null = np.zeros((n, r), order="F")
    np.fill_diagonal(null[rank:], 1.0)
    null = _times_q(factor, tau, null)
    del factor
    gram = np.zeros((r, r))
    for start, length in zip(blocks.starts, blocks.lengths):
        moved = blocks.stacked[start:start + length] @ null
        gram += moved.T @ moved
    # eigenvalues below r eps of the largest are rounding: on Brownian
    # K = 4-22 they sit under 5e-17 of it, the smallest kept one above 3e-7
    lam, vec = np.linalg.eigh(gram)
    del gram
    keep = lam > lam.max(initial=0.0) * r * eps
    if np.abs(c @ null @ vec[:, ~keep]).max(initial=0.0) > EPS_REL * np.linalg.norm(c):
        raise _Refusal("the objective moves along a direction no PSD block bounds")
    return z0, null @ (vec[:, keep] / np.sqrt(lam[keep]))


def _least_eigenvalue(mat: np.ndarray) -> float:
    """The least eigenvalue of a symmetric matrix (its lower triangle, as
    ``eigvalsh`` reads it), without the others: LAPACK dsyevr, range "I"."""
    w, _, _, _, info = sla.lapack.dsyevr(mat, compute_v=0, range="I",
                                          lower=1, il=1, iu=1)
    if info:
        raise np.linalg.LinAlgError(f"dsyevr failed (info {info})")
    return float(w[0])


def _step_to_boundary(inv_factors: list, steps: list) -> float:
    """The largest alpha with every X_k + alpha step_k PSD (inf if no step
    leaves the cone), given L_k^-1 for X_k = L_k L_k'; one stacked
    congruence per group, then the least eigenvalue of each block."""
    low = min((_least_eigenvalue(c) for f, step in zip(inv_factors, steps)
               for c in f @ step @ f.transpose(0, 2, 1)), default=0.0)
    return -1.0 / low if low < 0 else math.inf


def _factors(mats: np.ndarray) -> tuple:
    """Cholesky factors L of stacked positive definite matrices, and L^-1."""
    low = np.linalg.cholesky(mats)
    return low, np.stack([sla.lapack.dtrtri(f, lower=1)[0] for f in low])


class _LmiGroup:
    """The blocks X_k = C_k + sum_i w_i F_k,i of one ``_SvecGroup``
    ``svec``, stacked: ``coef`` holds the F_k,i once, as the (n_blocks, p,
    svec) array of their unscaled svecs, and ``const`` the C_k as an
    (n_blocks, d, d) array."""

    def __init__(self, svec: _SvecGroup, z0: np.ndarray, basis: np.ndarray):
        d, p, s = svec.dim, basis.shape[1], svec.upper.size
        self.svec, self.half = svec, svec.scale ** 2 / 2
        self.coef = np.empty((len(svec.blocks), p, s))
        for coef, block in zip(self.coef, svec.blocks):
            coef[...] = (block.mat @ basis).T
        self.const = svec.matrices(np.stack([block.mat @ z0 for block in svec.blocks]))
        # gather[y, i, x] is where one block's flat coef holds F_i[x, y]: x is
        # the fastest axis and y the slowest, the two that ``schur`` acts on
        self.gather = svec.full.reshape(d, 1, d) + s * np.arange(p)[:, None]

    def adjoint(self, mats: np.ndarray) -> np.ndarray:
        """sum_k <F_k,i, mats[k]> for every i; mats need not be symmetric."""
        both = self.svec.svecs(mats + mats.transpose(0, 2, 1))
        return np.matmul(self.coef, (both * self.half)[..., None]).sum(axis=0)[:, 0]

    def schur(self, x_inv_factors: np.ndarray, z_lows: np.ndarray) -> np.ndarray:
        """sum_k tr(F_k,i Z_k F_k,j X_k^-1) for every i, j: the Gram matrix of
        G_k,i = L_k^-1 F_k,i R_k (X_k = L_k L_k', Z_k = R_k R_k')."""
        d, p = self.svec.dim, self.coef.shape[1]
        gram = np.zeros((p, p))
        for coef, left, right in zip(self.coef, x_inv_factors, z_lows):
            image = np.take(coef, self.gather)
            sla.blas.dtrmm(1.0, left, image.reshape(d * p, d).T, lower=1, overwrite_b=1)
            sla.blas.dtrmm(1.0, right, image.reshape(d, p * d).T, side=1, lower=1, overwrite_b=1)
            image = image.transpose(1, 0, 2).reshape(p, d * d)
            gram += image @ image.T
        return gram


def _interior_point(program: ConicProgram, blocks: _SvecBlocks, c: np.ndarray,
                    max_iters: int, res: SolveResult):
    """HKM primal-dual interior-point method with Mehrotra's corrector,
    minimizing c'z on the presolved program as the module docstring
    describes; it fills ``res`` as it goes."""
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        z0, basis = _free_moments(program, blocks, c)
        q = basis.T @ c
        offset = float(c @ z0)
        # X, Z, their factors and the directions: one array per group
        groups = [_LmiGroup(group, z0, basis) for group in blocks.groups]
        nu = sum(b.dim for b in program.blocks)
        norm_c = math.sqrt(sum(float(np.vdot(g.const, g.const)) for g in groups))
        norm_q = float(np.linalg.norm(q))
        xs = [max(10.0, norm_c) * np.ones_like(g.const) * np.eye(g.svec.dim) for g in groups]
        zs = [max(10.0, norm_q) * np.ones_like(g.const) * np.eye(g.svec.dim) for g in groups]
        w = np.zeros(q.size)
        history = res.residual_history

        while True:
            # moment-side residual C + F(w) - X, Z-side residual
            # q - F'(Z), gap <X, Z>
            r_p = [g.const + g.svec.matrices(w @ g.coef) - x for g, x in zip(groups, xs)]
            r_d = q - sum(g.adjoint(zk) for g, zk in zip(groups, zs))
            gap = sum(float(np.vdot(x, zk)) for x, zk in zip(xs, zs))
            primal = offset + float(q @ w)
            dual = offset - sum(float(np.vdot(g.const, zk)) for g, zk in zip(groups, zs))
            res.primal_residual = math.sqrt(sum(float(np.vdot(r, r)) for r in r_p)) / (1 + norm_c)
            res.dual_residual = float(np.linalg.norm(r_d)) / (1 + norm_q)
            merit = max(gap / max(abs(primal) + abs(dual), IPM_GAP_FLOOR),
                        res.primal_residual, res.dual_residual)
            if not math.isfinite(merit):
                raise _Failure("non-finite iterates")
            if res.iterations:
                history.append((res.iterations, merit))
            if merit <= EPS_REL:
                res.status = "optimal"
                break
            if res.iterations == max_iters:
                break
            if res.iterations > IPM_STALL and merit > history[-1 - IPM_STALL][1] / 2:
                raise _Failure(f"no progress in {IPM_STALL} steps")
            res.iterations += 1

            x_inv_factors = [_factors(x)[1] for x in xs]
            z_lows, z_inv_factors = zip(*map(_factors, zs))
            x_invs = [f.transpose(0, 2, 1) @ f for f in x_inv_factors]
            schur = sum(g.schur(f, r) for g, f, r in zip(groups, x_inv_factors, z_lows))
            factor = sla.cho_factor(schur)

            def direction(rc):
                """The Newton step whose complementarity right-hand side
                is rc[g] (in place of sigma mu X^-1 - Z)."""
                rhs = -r_d
                for g, zk, x_inv, r, rck in zip(groups, zs, x_invs, r_p, rc):
                    rhs = rhs + g.adjoint(rck - zk @ r @ x_inv)
                dw = sla.cho_solve(factor, rhs)
                dxs = [g.svec.matrices(dw @ g.coef) + r for g, r in zip(groups, r_p)]
                dzs = [rck - zk @ dx @ x_inv for rck, zk, dx, x_inv in zip(rc, zs, dxs, x_invs)]
                return dw, dxs, [(dz + dz.transpose(0, 2, 1)) / 2 for dz in dzs]

            # predictor (sigma = 0), then Mehrotra's corrector
            mu = gap / nu
            dw, dxs, dzs = direction([-zk for zk in zs])
            a_p = min(1.0, _step_to_boundary(x_inv_factors, dxs))
            a_d = min(1.0, _step_to_boundary(z_inv_factors, dzs))
            mu_aff = sum(float(np.vdot(x + a_p * dx, zk + a_d * dz))
                         for x, zk, dx, dz in zip(xs, zs, dxs, dzs)) / nu
            sigma = min(1.0, (mu_aff / mu) ** 3)
            dw, dxs, dzs = direction([sigma * mu * x_inv - zk - dz @ dx @ x_inv
                                      for x_inv, zk, dx, dz in zip(x_invs, zs, dxs, dzs)])
            a_p = min(1.0, IPM_STEP * _step_to_boundary(x_inv_factors, dxs))
            a_d = min(1.0, IPM_STEP * _step_to_boundary(z_inv_factors, dzs))
            w = w + a_p * dw
            xs = [x + a_p * dx for x, dx in zip(xs, dxs)]
            zs = [zk + a_d * dz for zk, dz in zip(zs, dzs)]
        res.z = z0 + basis @ w
        res.objective = min(primal, dual)


def _admm(program: ConicProgram, blocks: _SvecBlocks, c: np.ndarray,
          max_iters: int, res: SolveResult):
    """Anderson-accelerated ADMM minimizing c'z on the presolved program, as
    the module docstring describes; it fills ``res`` as it goes."""
    n, m_eq = program.num_vars, program.a_eq.shape[0]

    # --- equilibration -----------------------------------------------------
    d_eq, _, e_col, a_s, g_s = _ruiz_equilibrate(program.a_eq, blocks.stacked, blocks)
    gt_s = g_s.T.tocsr()
    b_s = d_eq * program.rhs.astype(float)
    c_s = e_col * c

    # --- cached KKT factorization [[G'G + sigma I, A'], [A, -delta I]] ------
    sigma = delta = 1e-9
    upper = sp.hstack([(gt_s @ g_s).tocsc() + sigma * sp.identity(n), a_s.T])
    lower = sp.hstack([a_s, -delta * sp.identity(m_eq)])
    try:
        lu = spla.splu(sp.vstack([upper, lower]).tocsc())
    except RuntimeError as exc:
        raise _Failure(f"KKT factorization failed: {exc}") from exc

    n_cone = blocks.total
    v = np.zeros(n_cone)           # the map's input
    anderson = _Anderson(n_cone, AA_MEMORY)
    accelerated = False            # v is an extrapolated point
    fallback = v                   # the plain step an extrapolation replaced
    res_plain = 0.0                # its fixed-point residual
    sqrt_cone, sqrt_n, sqrt_eq = (math.sqrt(max(k, 1)) for k in (n_cone, n, m_eq))
    for it in range(1, max_iters + 1):
        res.iterations = it
        s = blocks.project(v)
        z_s = lu.solve(np.concatenate([gt_s @ (2 * s - v) - c_s, b_s]))[:n]
        res.z = e_col * z_s
        gz = g_s @ z_s
        f = gz - s
        res_f = float(np.linalg.norm(f))
        rejected = accelerated and res_f > AA_SAFEGUARD * res_plain

        if it % CHECK_INTERVAL == 0 or it == max_iters:
            r_prim = res.primal_residual = res_f
            r_dual = res.dual_residual = float(np.linalg.norm(gt_s @ f + sigma * z_s))
            eq_res = float(np.linalg.norm(a_s @ z_s - b_s)) if m_eq else 0.0
            eps_pri = (EPS_ABS * sqrt_cone
                       + EPS_REL * max(np.linalg.norm(gz), np.linalg.norm(s)))
            eps_dual = EPS_ABS * sqrt_n + EPS_REL * np.linalg.norm(gt_s @ (v - s))
            eps_eq = EPS_ABS * sqrt_eq + EPS_REL * np.linalg.norm(b_s)
            res.residual_history.append((it, max(r_prim, r_dual)))
            if not math.isfinite(r_prim + r_dual + eq_res):
                raise _Failure("iterates diverged")
            if (r_prim <= eps_pri and r_dual <= eps_dual and eq_res <= eps_eq
                    and all(_least_eigenvalue(b.materialize(res.z)) >= -10 * EPS_ABS
                            for b in program.blocks)):
                res.status = "optimal"
                break

        # next point: safeguarded Anderson extrapolation of T(v) = v + f
        tv = v + f
        if rejected:
            res.aa_rejected += 1
            anderson.reset()
            v = fallback
        else:
            v = anderson.step(tv, f)
            fallback, res_plain = tv, res_f
        accelerated = not rejected and v is not tv
    if not np.isfinite(res.z).all():
        raise _Failure("iterates diverged")
    res.objective = float(c @ res.z)


def _run(name: str, method, program: ConicProgram, blocks: _SvecBlocks | None,
         c: np.ndarray, max_iters: int, hand_over: bool = False) -> SolveResult:
    """Run ``method`` on a fresh record named ``name``; a ``_Failure``, a
    failed factorization or a floating-point error ends it
    ``numerical_failure`` with a NaN objective.  With ``hand_over``, ADMM
    runs in its place after such a failure, unless it is a ``_Refusal``;
    a spent budget returns the method's own record."""
    res = SolveResult(status="max_iters", objective=math.nan,
                      primal_residual=math.inf, dual_residual=math.inf,
                      iterations=0, z=np.zeros(program.num_vars), method=name)
    try:
        method(program, blocks, c, max_iters, res)
    except _Failure as exc:
        res.message = str(exc)
        hand_over = hand_over and not isinstance(exc, _Refusal)
    except np.linalg.LinAlgError as exc:
        res.message = f"factorization failed: {exc}"
    except FloatingPointError as exc:
        res.message = f"floating-point error: {exc}"
    if not res.message:
        return res
    res.status, res.objective = "numerical_failure", math.nan
    if not hand_over:
        return res
    after = _run("admm", _admm, program, blocks, c, max_iters)
    reason = f"interior point stopped: {res.message}"
    after.message = "; ".join(filter(None, [reason, after.message]))
    return after


def solve(program: ConicProgram, settings: SolverSettings | None = None) -> SolveResult:
    """Presolve the program, then run the interior-point method when
    ``num_vars - eq_rows``, a lower bound on its free moments, is at most
    ``IPM_MAX_FREE``, and ADMM otherwise, when the rank of the equality
    rows shows more than ``IPM_MAX_FREE`` free moments, or when the
    interior-point method fails for a reason other than the program; an
    interior-point method that spends ``settings.max_iters`` steps returns
    its own ``max_iters`` record.  The returned objective is the relaxation
    optimum estimate within the reported residual tolerances.

    Presolving replaces the original variant's pair of localizing blocks
    of q' and -q', the boundary equality q' = 0, by the equality rows it
    implies, and drops the repeated pairs; it leaves a reduced program as
    it is.  Each method minimizes c'z, c the objective signed by the sense
    once; ``solve`` signs the objective back, builds ``_SvecBlocks`` once
    for both methods and fills ``psd_blocks`` and ``eq_rows``, the size of
    the program actually solved, and ``solve_time``, a refusal included.
    ``z`` stays in the assembled program's variable space, and the
    objective is that program's: ADMM's is its value at ``z``, the
    interior-point method's the end of the primal/dual pair on the side of
    a bound.
    Non-finite program data, a program without PSD blocks, inconsistent
    equality rows, an objective that no PSD block bounds, a failed
    factorization or eigendecomposition and diverged iterates end the solve
    with status ``numerical_failure`` and a NaN objective.
    """
    settings = settings or SolverSettings()
    t0 = time.perf_counter()
    program = presolve(program)
    n, m_eq = program.num_vars, program.a_eq.shape[0]
    sign = -1.0 if program.sense == "max" else 1.0
    c = sign * program.objective.astype(float)
    data = [program.objective, program.rhs, program.a_eq.data,
            *(b.mat.data for b in program.blocks)]
    finite = all(np.isfinite(a).all() for a in data)
    if not (finite and program.blocks):
        def refuse(*_):
            raise _Refusal("no PSD blocks: the solvers work on a block cone"
                           if finite else "non-finite program data")
        res = _run("", refuse, program, None, c, 0)
    elif n - m_eq <= IPM_MAX_FREE:
        res = _run("ipm", _interior_point, program, _SvecBlocks(program), c,
                   settings.max_iters, hand_over=True)
    else:
        res = _run("admm", _admm, program, _SvecBlocks(program), c, settings.max_iters)
    res.objective *= sign
    res.psd_blocks, res.eq_rows = len(program.blocks), m_eq
    res.solve_time = time.perf_counter() - t0
    return res
