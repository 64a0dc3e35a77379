"""Embedded ADMM splitting solver for the assembled conic programs.

``solve`` first presolves the program (``presolve``), always.  A PSD
block identical to an earlier one is dropped.  A pair of blocks with
G_j = -G_k is how an equality support constraint g = 0 enters as the two
localizing constraints g >= 0 and -g >= 0 (the original variant's
(+q', -q') boundary pairs, the pendulum's +-(1 - sin^2 - cos^2) trig
pair); both blocks force G_k z = 0, so the pair is replaced by the
distinct nonzero rows of G_k as equality rows with right-hand side 0.
The variables do not change, so the returned ``z`` lives in the
assembled program's variable space and needs no lift.  The presolve
saves one eigendecomposition per dropped block on every iteration.

Classical two-block ADMM on the primal cone form: an equality-constrained
least-squares step through one cached sparse KKT factorization, a
Euclidean projection of every PSD block onto the cone, and an
over-relaxed dual ascent.  The penalty parameter only enters the KKT
right-hand side, so adaptive rho updates never trigger refactorization.
The tolerances ``EPS_ABS`` and ``EPS_REL``, the starting penalty ``RHO``,
the over-relaxation ``OVER_RELAXATION`` and the residual check interval
``CHECK_INTERVAL`` are module constants; ``SolverSettings`` holds the one
setting callers vary, ``max_iters``.

The ADMM map (s, u) -> (s+, u+) is a fixed-point iteration, and type-II
Anderson acceleration extrapolates its next point from the last
``AA_MEMORY`` map evaluations (a Tikhonov-regularised least-squares fit of
the residual differences).  A safeguard rejects an accelerated point whose
own plain step grows the fixed-point residual by more than
``AA_SAFEGUARD`` times: the iteration restarts from the plain step it
replaced and the memory is cleared.  The memory is also cleared on every
rho change, since that rescales u.  Termination residuals and the
optimality gate are always those of a plain ADMM step, and ``max_iters``
counts map evaluations.

The PSD projection groups the blocks by dimension and runs one stacked
``np.linalg.eigh`` per dimension, rebuilding ``V max(w, 0) V'`` for the
whole group in one batched product.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .momentproblem import ConicProgram, distinct_rows

_SQRT2 = math.sqrt(2.0)

# Anderson memory (map evaluations).  Total iterations of the 13 Brownian
# bounds of the benchmark (reduced K=14 orders 1-6, original K=8 order 1),
# by memory: 5 -> 32.2k (worse than plain ADMM's 24.8k), 8 -> 10.8k,
# 10 -> 8.7k, 12 -> 7.5k, 15 -> 7.3k, 20 -> 8.0k.  On 20 other Brownian
# bounds (reduced K=6/10/12, original K=6/10) 10 took the fewest: 116k
# against 118k for 12 and 15 and 173k for plain ADMM.
AA_MEMORY = 10
# An accelerated point is rejected when its plain step's fixed-point
# residual exceeds this multiple of the previous plain residual.
AA_SAFEGUARD = 2.0
# Tikhonov weight, relative to the trace of the Gram matrix (1e-8 and
# 1e-12 took more iterations on the 20 other bounds or the 13 benchmark
# ones).
AA_REGULARIZATION = 1e-10
# Absolute and relative tolerances of the primal, dual and equality
# residuals; the optimality gate also takes -10 EPS_ABS as the least
# eigenvalue M(m) and M(b) may have.
EPS_ABS = 1e-7
EPS_REL = 1e-7
# Starting penalty; checks every 100 iterations double or halve it when
# one scaled residual exceeds the other tenfold.
RHO = 1.0
OVER_RELAXATION = 1.5
# Iterations between residual checks (and ``residual_history`` entries).
CHECK_INTERVAL = 25


@dataclass
class SolverSettings:
    max_iters: int = 200_000

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")


@dataclass
class SolveResult:
    status: str                    # optimal | max_iters | numerical_failure
    objective: float
    primal_residual: float
    dual_residual: float
    iterations: int
    z: np.ndarray                  # in the assembled program's variables
    solve_time: float
    psd_blocks: int                # size of the presolved program solved
    eq_rows: int
    # (iteration, max(primal, dual) residual, rho) at every check
    residual_history: list = field(default_factory=list, repr=False)
    message: str = ""
    aa_rejected: int = 0           # accelerated points the safeguard dropped


class _SvecBlocks:
    """Bookkeeping for stacking PSD blocks into scaled svec space.

    Blocks of equal dimension form one group, holding the svec positions of
    its blocks (one row per block), the svec scale, the gather index from
    svec to the row-major full matrix and the svec positions of the upper
    triangle in that matrix.
    """

    def __init__(self, program: ConicProgram):
        dims = np.array([b.dim for b in program.blocks])
        self.lengths = dims * (dims + 1) // 2
        self.starts = np.concatenate([[0], np.cumsum(self.lengths)[:-1]])
        self.total = int(self.lengths.sum())
        self.groups = []
        scales = {}
        for d in np.unique(dims):
            d = int(d)
            iu, ju = np.triu_indices(d)
            scale = np.where(iu == ju, 1.0, _SQRT2)
            scales[d] = scale
            upper = iu * d + ju
            full = np.empty(d * d, dtype=np.intp)
            full[upper] = np.arange(iu.size)
            full[ju * d + iu] = np.arange(iu.size)
            pos = self.starts[dims == d][:, None] + np.arange(iu.size)
            self.groups.append((d, pos, scale, full, upper))
        self.stacked = sp.vstack(
            [sp.diags(scales[b.dim]) @ b.mat for b in program.blocks],
            format="csr")

    def project(self, vec: np.ndarray) -> np.ndarray:
        out = np.empty_like(vec)
        for d, pos, scale, full, upper in self.groups:
            svec = vec[pos]
            mats = (svec / scale)[:, full].reshape(-1, d, d)
            w, v = np.linalg.eigh(mats)
            neg = w[:, 0] < 0
            if neg.any():
                v = v[neg]
                proj = (v * np.maximum(w[neg], 0.0)[:, None, :]) @ v.transpose(0, 2, 1)
                svec[neg] = proj.reshape(-1, d * d)[:, upper] * scale
            out[pos] = svec
        return out


def _ruiz_equilibrate(a_eq, g, blocks: _SvecBlocks, iters: int = 10):
    """Row/column scaling of the stacked constraint matrix [A; G].

    Cone rows are scaled uniformly within each block so the PSD geometry
    is preserved; equality rows scale independently.  Returns the scalings
    and the scaled ``a_s``, ``g_s``.

    Each pass scales the stacked entries once, in two halves: the
    row-scaled entries D A serve the column update, and (D A) E with the
    updated E serves the next pass's row update.  The column update applies
    E after taking the maxima of D A, which gives the maxima of (D A) E
    exactly because rounding a product by a positive factor is monotone.
    """
    m_eq, n = a_eq.shape
    stack = sp.vstack([a_eq, g], format="csr")
    rows = np.repeat(np.arange(stack.shape[0]), np.diff(stack.indptr))
    cols = stack.indices
    d_eq = np.ones(m_eq)
    d_cone = np.ones(len(blocks.lengths))
    e_col = np.ones(n)

    def row_scaled():
        row_scale = np.concatenate([d_eq, np.repeat(d_cone, blocks.lengths)])
        return row_scale[rows] * stack.data

    def abs_max(index, vals, size):
        out = np.zeros(size)
        np.maximum.at(out, index, np.abs(vals))
        return out

    da = row_scaled()
    for _ in range(iters):
        # row update
        r = abs_max(rows, da * e_col[cols], stack.shape[0])
        r_eq = r[:m_eq]
        r_eq[r_eq == 0] = 1.0
        d_eq /= np.sqrt(r_eq)
        if blocks.total:
            r_cone = np.maximum.reduceat(r[m_eq:], blocks.starts)
            nonzero = r_cone > 0
            d_cone[nonzero] /= np.sqrt(r_cone[nonzero])
        # column update
        da = row_scaled()
        c = abs_max(cols, da, n) * e_col
        c[c == 0] = 1.0
        e_col /= np.sqrt(c)
    scaled = sp.csr_matrix((da * e_col[cols], cols, stack.indptr),
                           shape=stack.shape)
    return d_eq, d_cone, e_col, scaled[:m_eq], scaled[m_eq:]


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


def presolve(program: ConicProgram) -> ConicProgram:
    """Drop repeated PSD blocks and turn each (G, -G) block pair into the
    distinct nonzero rows of G as equality rows (right-hand side 0), in
    the order the pairs close.  Blocks compare bit for bit as sorted CSR
    matrices.  The variables and the objective do not change; a program
    with nothing to presolve comes back as it is."""
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


def solve(program: ConicProgram, settings: SolverSettings | None = None) -> SolveResult:
    """Presolve the program, then run the splitting method; the returned
    objective is the relaxation optimum estimate within the reported
    residual tolerances.

    Presolving replaces each pair of localizing blocks of g and -g, an
    equality support constraint g = 0, by the equality rows it implies,
    and drops repeated blocks; ``psd_blocks`` and ``eq_rows`` report the
    size of the program actually solved.  ``z`` stays in the assembled
    program's variable space, and the objective is that program's.
    """
    settings = settings or SolverSettings()
    t0 = time.time()
    program = presolve(program)

    n = program.num_vars
    sense_sign = -1.0 if program.sense == "max" else 1.0
    c_min = sense_sign * program.objective.astype(float)

    blocks = _SvecBlocks(program)
    a_eq = program.a_eq.tocsr().astype(float)
    rhs = program.rhs.astype(float)
    g = blocks.stacked.astype(float)
    m_eq = a_eq.shape[0]

    # --- equilibration -----------------------------------------------------
    d_eq, _, e_col, a_s, g_s = _ruiz_equilibrate(a_eq, g, blocks)
    gt_s = g_s.T.tocsr()
    b_s = d_eq * rhs
    c_s = e_col * c_min

    # --- cached KKT factorization ------------------------------------------
    # [[G'G + sigma I, A'][A, -delta I]]; rho enters only the rhs.
    sigma = 1e-9
    delta = 1e-9
    gtg = (gt_s @ g_s).tocsc()
    upper = sp.hstack([gtg + sigma * sp.identity(n), a_s.T])
    lower = sp.hstack([a_s, -delta * sp.identity(m_eq)])
    kkt = sp.vstack([upper, lower]).tocsc()
    try:
        lu = spla.splu(kkt)
    except RuntimeError as exc:
        return SolveResult(
            status="numerical_failure", objective=float("nan"),
            primal_residual=float("inf"), dual_residual=float("inf"),
            iterations=0, z=np.zeros(n), solve_time=time.time() - t0,
            psd_blocks=len(program.blocks), eq_rows=m_eq,
            message=f"KKT factorization failed: {exc}")

    rho = RHO
    alpha = OVER_RELAXATION
    n_cone = blocks.total
    x = np.zeros(2 * n_cone)       # the map's input (s, u)
    z_s = np.zeros(n)
    anderson = _Anderson(2 * n_cone, AA_MEMORY)
    accelerated = False            # x is an extrapolated point
    fallback = x                   # the plain step an extrapolation replaced
    res_plain = 0.0                # its fixed-point residual
    aa_rejected = 0
    history = []
    status = "max_iters"
    message = ""
    r_prim = r_dual = float("inf")
    it = 0
    sqrt_cone = math.sqrt(max(n_cone, 1))
    sqrt_n = math.sqrt(max(n, 1))
    sqrt_eq = math.sqrt(max(m_eq, 1))

    try:
        for it in range(1, settings.max_iters + 1):
            s, u = x[:n_cone], x[n_cone:]
            # (1) equality-constrained least squares
            top = gt_s @ (s - u) - c_s / rho
            sol = lu.solve(np.concatenate([top, b_s]))
            z_s = sol[:n]
            gz = g_s @ z_s
            # (2) over-relaxed cone projection
            h = alpha * gz + (1 - alpha) * s
            s_new = blocks.project(h + u)
            # (3) dual ascent
            u_new = u + h - s_new
            tx = np.concatenate([s_new, u_new])
            f = tx - x
            res = float(np.linalg.norm(f))
            rejected = accelerated and res > AA_SAFEGUARD * res_plain
            u_scale = 1.0

            if it % CHECK_INTERVAL == 0 or it == settings.max_iters:
                r_prim = float(np.linalg.norm(gz - s_new))
                r_dual = float(rho * np.linalg.norm(gt_s @ f[:n_cone]))
                eq_res = float(np.linalg.norm(a_s @ z_s - b_s)) if m_eq else 0.0
                eps_pri = (EPS_ABS * sqrt_cone
                           + EPS_REL * max(np.linalg.norm(gz), np.linalg.norm(s_new)))
                eps_dual = (EPS_ABS * sqrt_n
                            + EPS_REL * rho * np.linalg.norm(gt_s @ u_new))
                eps_eq = EPS_ABS * sqrt_eq + EPS_REL * np.linalg.norm(b_s)
                history.append((it, max(r_prim, r_dual), rho))
                if not math.isfinite(r_prim + r_dual + eq_res):
                    status = "numerical_failure"
                    message = "iterates diverged"
                    break
                if r_prim <= eps_pri and r_dual <= eps_dual and eq_res <= eps_eq:
                    # gate optimality on the recovered moment matrices
                    z = e_col * z_s
                    lam_ok = True
                    for which in range(min(2, len(program.blocks))):
                        mat = program.blocks[which].materialize(z)
                        lam = float(np.linalg.eigvalsh(mat)[0])
                        if lam < -10 * EPS_ABS:
                            lam_ok = False
                            break
                    if lam_ok:
                        status = "optimal"
                        break
                if it % 100 == 0:
                    scale_p = r_prim / max(eps_pri, 1e-300)
                    scale_d = r_dual / max(eps_dual, 1e-300)
                    if scale_p > 10 * scale_d and rho < 1e6:
                        rho *= 2.0
                        u_scale = 0.5
                    elif scale_d > 10 * scale_p and rho > 1e-6:
                        rho /= 2.0
                        u_scale = 2.0

            # (4) next point: safeguarded Anderson extrapolation
            if rejected:
                aa_rejected += 1
                x = fallback
            elif u_scale == 1.0:
                x = anderson.step(tx, f)
                fallback, res_plain = tx, res
            else:
                x = tx
            accelerated = not rejected and x is not tx
            if rejected or u_scale != 1.0:
                anderson.reset()
            if u_scale != 1.0:
                x = np.concatenate([x[:n_cone], u_scale * x[n_cone:]])
    except np.linalg.LinAlgError as exc:
        status = "numerical_failure"
        message = f"eigendecomposition failed: {exc}"

    z = e_col * z_s
    if not np.all(np.isfinite(z)):
        status = "numerical_failure"
        message = message or "iterates diverged"
    objective = float(program.objective @ z)
    return SolveResult(
        status=status,
        objective=objective,
        primal_residual=r_prim,
        dual_residual=r_dual,
        iterations=it,
        z=z,
        solve_time=time.time() - t0,
        psd_blocks=len(program.blocks),
        eq_rows=m_eq,
        residual_history=history,
        message=message,
        aa_rejected=aa_rejected,
    )
