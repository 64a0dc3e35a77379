"""Embedded splitting solver for the assembled conic programs.

``solve`` first presolves the program (``presolve``), always.  A PSD
block identical to an earlier one is dropped.  A pair of blocks with
G_j = -G_k is how the original variant states the boundary equality
q' = 0 on the exit measure, as the two localizing constraints q' >= 0
and -q' >= 0, once per inequality polynomial; both blocks force
G_k z = 0, so the first pair is replaced by the distinct nonzero rows of
G_k as equality rows with right-hand side 0, and its repeats are dropped.
Those pairs and their repeats are all that ``presolve`` ever changes:
``assemble`` lowers every other equality (the reduced variant's boundary,
the trig circles of both variants) as rows already, so a reduced program
comes back as it is.  The variables do not change, so the returned
``z`` lives in the assembled program's variable space and needs no
lift.  The presolve saves one eigendecomposition per dropped block on
every iteration.

The iteration is ADMM on the primal cone form, written as one
Douglas-Rachford map on one vector v of the scaled svec space of the
PSD blocks (the form the SCS solver runs).  One evaluation is

    s = P(v)                      every block projected onto the PSD cone
    z = argmin c'z + |G z - (2 s - v)|^2 / 2   subject to  A z = b
    f = G z - s,   T(v) = v + f

with the least-squares step solved through one cached sparse KKT
factorization.  With s = P(v) and u = v - s this is classical ADMM with
penalty 1 and no over-relaxation.  The KKT step gives
c + A'y + G'(v - s) = -G'f - sigma z, so |G'f| is the dual residual of
(z, y, lambda = s - v), with lambda PSD and orthogonal to s, as in SCS
(O'Donoghue et al., JOTA 2016).  Every ``CHECK_INTERVAL`` iterations the
primal residual |f|, this dual residual and the equality residual
|A z - b| are compared with the ``EPS_ABS`` / ``EPS_REL`` tolerances; a
point that meets them is optimal once the least eigenvalues of M(m) and
M(b) at z are at least -10 ``EPS_ABS``.  ``SolverSettings`` holds the one
setting callers vary, ``max_iters``, which counts map evaluations.

Type-II Anderson acceleration extrapolates the next v from the last
``AA_MEMORY`` evaluations of T (a Tikhonov-regularised least-squares fit
of the residual differences).  A safeguard rejects an extrapolated v
whose own |f| exceeds ``AA_SAFEGUARD`` times the |f| of the plain step
it replaced: the iteration restarts from that plain step T(v) and the
memory is cleared.

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

from .expr import is_int
from .momentproblem import ConicProgram, distinct_rows

_SQRT2 = math.sqrt(2.0)

# Anderson memory (map evaluations).  Total iterations of the 13 Brownian
# bounds of the benchmark (reduced K=14 orders 1-6, original K=8 order 1),
# by memory: 0 (the plain map) -> 59.1k, 5 -> 7.9k, 8 -> 5.9k,
# 10 -> 5.98k, 15 -> 5.7k.  On the 16 of 20 other Brownian bounds
# (reduced K=6/10/12, original K=6/10, orders 1-2) that every memory
# solves: 0 -> 117.4k, 5 -> 16.9k, 8 -> 14.1k, 10 -> 13.9k, 15 -> 14.2k.
# Totals move by about this much with rounding alone (computing T(v) as
# G z + (v - s) takes the 13 bounds from 5.98k to 5.9k at memory 10).
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
# eigenvalue M(m) and M(b) may have.
EPS_ABS = 1e-7
EPS_REL = 1e-7
# Iterations between residual checks (and ``residual_history`` entries).
CHECK_INTERVAL = 25


@dataclass
class SolverSettings:
    max_iters: int = 200_000

    def __post_init__(self):
        if not is_int(self.max_iters) or self.max_iters < 1:
            raise ValueError("max_iters must be at least 1, as an integer")


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
    # (iteration, max(primal, dual) residual) at every check
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

    for _ in range(iters):
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


def solve(program: ConicProgram, settings: SolverSettings | None = None) -> SolveResult:
    """Presolve the program, then run the splitting method; the returned
    objective is the relaxation optimum estimate within the reported
    residual tolerances.

    Presolving replaces the original variant's pair of localizing blocks
    of q' and -q', the boundary equality q' = 0, by the equality rows it
    implies, and drops the repeated pairs; it leaves a reduced program as
    it is.  ``psd_blocks`` and ``eq_rows`` report the size of the program
    actually solved.  ``z`` stays in the assembled program's variable
    space, and the objective is that program's.
    Non-finite program data, a failed KKT factorization or
    eigendecomposition and diverged iterates end the solve with status
    ``numerical_failure``.
    """
    settings = settings or SolverSettings()
    t0 = time.perf_counter()
    program = presolve(program)
    n, m_eq = program.num_vars, program.a_eq.shape[0]
    z = np.zeros(n)
    it = aa_rejected = 0
    history = []
    status, message = "max_iters", ""
    r_prim = r_dual = math.inf

    try:
        data = [program.objective, program.rhs, program.a_eq.data,
                *(b.mat.data for b in program.blocks)]
        if not all(np.isfinite(a).all() for a in data):
            raise _Failure("non-finite program data")
        sense_sign = -1.0 if program.sense == "max" else 1.0
        blocks = _SvecBlocks(program)
        a_eq = program.a_eq.tocsr().astype(float)
        g = blocks.stacked.astype(float)

        # --- equilibration -------------------------------------------------
        d_eq, _, e_col, a_s, g_s = _ruiz_equilibrate(a_eq, g, blocks)
        gt_s = g_s.T.tocsr()
        b_s = d_eq * program.rhs.astype(float)
        c_s = e_col * sense_sign * program.objective.astype(float)

        # --- cached KKT factorization [[G'G + sigma I, A'], [A, -delta I]] --
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
        for it in range(1, settings.max_iters + 1):
            s = blocks.project(v)
            z_s = lu.solve(np.concatenate([gt_s @ (2 * s - v) - c_s, b_s]))[:n]
            z = e_col * z_s
            gz = g_s @ z_s
            f = gz - s
            res = float(np.linalg.norm(f))
            rejected = accelerated and res > AA_SAFEGUARD * res_plain

            if it % CHECK_INTERVAL == 0 or it == settings.max_iters:
                r_prim = res
                r_dual = float(np.linalg.norm(gt_s @ f))
                eq_res = float(np.linalg.norm(a_s @ z_s - b_s)) if m_eq else 0.0
                eps_pri = (EPS_ABS * sqrt_cone
                           + EPS_REL * max(np.linalg.norm(gz), np.linalg.norm(s)))
                eps_dual = EPS_ABS * sqrt_n + EPS_REL * np.linalg.norm(gt_s @ (v - s))
                eps_eq = EPS_ABS * sqrt_eq + EPS_REL * np.linalg.norm(b_s)
                history.append((it, max(r_prim, r_dual)))
                if not math.isfinite(r_prim + r_dual + eq_res):
                    raise _Failure("iterates diverged")
                if (r_prim <= eps_pri and r_dual <= eps_dual and eq_res <= eps_eq
                        and all(np.linalg.eigvalsh(b.materialize(z))[0] >= -10 * EPS_ABS
                                for b in program.blocks[:2])):
                    status = "optimal"
                    break

            # next point: safeguarded Anderson extrapolation of T(v) = v + f
            tv = v + f
            if rejected:
                aa_rejected += 1
                anderson.reset()
                v = fallback
            else:
                v = anderson.step(tv, f)
                fallback, res_plain = tv, res
            accelerated = not rejected and v is not tv
        if not np.isfinite(z).all():
            raise _Failure("iterates diverged")
    except _Failure as exc:
        status, message = "numerical_failure", str(exc)
    except np.linalg.LinAlgError as exc:
        status, message = "numerical_failure", f"eigendecomposition failed: {exc}"

    return SolveResult(
        status=status,
        objective=math.nan if message else float(program.objective @ z),
        primal_residual=r_prim,
        dual_residual=r_dual,
        iterations=it,
        z=z,
        solve_time=time.perf_counter() - t0,
        psd_blocks=len(program.blocks),
        eq_rows=m_eq,
        residual_history=history,
        message=message,
        aa_rejected=aa_rejected,
    )
