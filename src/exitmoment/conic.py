"""Embedded ADMM splitting solver for the assembled conic programs.

Classical two-block ADMM on the primal cone form: an equality-constrained
least-squares step through one cached sparse KKT factorization, a
Euclidean projection of every PSD block onto the cone, and an
over-relaxed dual ascent.  The penalty parameter only enters the KKT
right-hand side, so adaptive rho updates never trigger refactorization.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .momentproblem import ConicProgram

_SQRT2 = math.sqrt(2.0)


@dataclass
class SolverSettings:
    max_iters: int = 200_000
    eps_abs: float = 1e-7
    eps_rel: float = 1e-7
    rho: float = 1.0
    adaptive_rho: bool = True
    over_relaxation: float = 1.5
    scaling: bool = True
    check_interval: int = 25
    time_limit: float | None = None
    verbose: bool = False

    def __post_init__(self):
        if self.eps_abs <= 0 or self.eps_rel <= 0:
            raise ValueError("tolerances must be positive")
        if not 1.0 < self.over_relaxation < 2.0:
            raise ValueError("over-relaxation must lie in (1, 2)")


@dataclass
class SolveResult:
    status: str                    # optimal | max_iters | numerical_failure
    objective: float
    primal_residual: float
    dual_residual: float
    iterations: int
    moments_m: np.ndarray
    moments_b: np.ndarray
    z: np.ndarray
    solve_time: float
    residual_history: list = field(default_factory=list, repr=False)
    message: str = ""


class _SvecBlocks:
    """Bookkeeping for stacking PSD blocks into scaled svec space."""

    def __init__(self, program: ConicProgram):
        self.dims = [b.dim for b in program.blocks]
        self.slices = []
        mats = []
        offset = 0
        for block in program.blocks:
            n_svec = block.svec_len()
            scale = np.full(n_svec, _SQRT2)
            pos = 0
            for i in range(block.dim):
                scale[pos] = 1.0
                pos += block.dim - i
            mats.append(sp.diags(scale) @ block.mat)
            self.slices.append((offset, offset + n_svec, block.dim, scale))
            offset += n_svec
        self.total = offset
        self.stacked = sp.vstack(mats, format="csr")
        # cached triu coordinates per distinct dim
        self._triu = {}
        for d in set(self.dims):
            self._triu[d] = np.triu_indices(d)

    def to_matrix(self, vec_scaled: np.ndarray, which: int) -> np.ndarray:
        start, end, dim, scale = self.slices[which]
        vals = vec_scaled[start:end] / scale
        iu, ju = self._triu[dim]
        out = np.zeros((dim, dim))
        out[iu, ju] = vals
        out[ju, iu] = vals
        return out

    def from_matrix(self, mat: np.ndarray, which: int) -> np.ndarray:
        start, end, dim, scale = self.slices[which]
        iu, ju = self._triu[dim]
        return mat[iu, ju] * scale

    def project(self, vec: np.ndarray) -> np.ndarray:
        out = np.empty_like(vec)
        for which, (start, end, dim, scale) in enumerate(self.slices):
            mat = self.to_matrix(vec, which)
            w, v = np.linalg.eigh(mat)
            if w[0] >= 0:
                proj = mat
            else:
                proj = (v * np.maximum(w, 0.0)) @ v.T
            out[start:end] = self.from_matrix(proj, which)
        return out


def _ruiz_equilibrate(a_eq, g, blocks: _SvecBlocks, iters: int = 10):
    """Row/column scaling of the stacked constraint matrix.

    Cone rows are scaled uniformly within each block so the PSD geometry
    is preserved; equality rows scale independently.
    """
    m_eq = a_eq.shape[0]
    n = a_eq.shape[1]
    d_eq = np.ones(m_eq)
    d_cone = np.ones(len(blocks.slices))
    e_col = np.ones(n)
    for _ in range(iters):
        a_s = sp.diags(d_eq) @ a_eq @ sp.diags(e_col) if m_eq else a_eq
        cone_scale_rows = np.concatenate([
            np.full(end - start, d_cone[i])
            for i, (start, end, _, _) in enumerate(blocks.slices)
        ]) if blocks.total else np.zeros(0)
        g_s = sp.diags(cone_scale_rows) @ g @ sp.diags(e_col)
        # row update
        if m_eq:
            r = np.asarray(abs(a_s).max(axis=1).todense()).ravel()
            r[r == 0] = 1.0
            d_eq /= np.sqrt(r)
        for i, (start, end, _, _) in enumerate(blocks.slices):
            sub = g_s[start:end]
            r = abs(sub).max() if sub.nnz else 0.0
            if r > 0:
                d_cone[i] /= math.sqrt(r)
        # column update on the full stack
        a_s = sp.diags(d_eq) @ a_eq @ sp.diags(e_col) if m_eq else a_eq
        cone_scale_rows = np.concatenate([
            np.full(end - start, d_cone[i])
            for i, (start, end, _, _) in enumerate(blocks.slices)
        ]) if blocks.total else np.zeros(0)
        g_s = sp.diags(cone_scale_rows) @ g @ sp.diags(e_col)
        stack = sp.vstack([a_s, g_s], format="csc") if m_eq else g_s.tocsc()
        c = np.asarray(abs(stack).max(axis=0).todense()).ravel()
        c[c == 0] = 1.0
        e_col /= np.sqrt(c)
    return d_eq, d_cone, e_col


def solve(program: ConicProgram, settings: SolverSettings | None = None) -> SolveResult:
    """Run the splitting method; the returned objective is the relaxation
    optimum estimate within the reported residual tolerances."""
    settings = settings or SolverSettings()
    t0 = time.time()

    n = program.num_vars
    sense_sign = -1.0 if program.sense == "max" else 1.0
    c_min = sense_sign * program.objective.astype(float)

    blocks = _SvecBlocks(program)
    a_eq = program.a_eq.tocsr().astype(float)
    rhs = program.rhs.astype(float)
    g = blocks.stacked.astype(float)
    m_eq = a_eq.shape[0]

    # --- equilibration -----------------------------------------------------
    if settings.scaling:
        d_eq, d_cone, e_col = _ruiz_equilibrate(a_eq, g, blocks)
    else:
        d_eq = np.ones(m_eq)
        d_cone = np.ones(len(blocks.slices))
        e_col = np.ones(n)
    cone_rows = np.concatenate([
        np.full(end - start, d_cone[i])
        for i, (start, end, _, _) in enumerate(blocks.slices)
    ]) if blocks.total else np.zeros(0)
    a_s = (sp.diags(d_eq) @ a_eq @ sp.diags(e_col)).tocsr() if m_eq else a_eq
    g_s = (sp.diags(cone_rows) @ g @ sp.diags(e_col)).tocsr()
    b_s = d_eq * rhs
    c_s = e_col * c_min

    # --- cached KKT factorization ------------------------------------------
    # [[G'G + sigma I, A'][A, -delta I]]; rho enters only the rhs.
    sigma = 1e-9
    delta = 1e-9
    gtg = (g_s.T @ g_s).tocsc()
    upper = sp.hstack([gtg + sigma * sp.identity(n), a_s.T])
    lower = sp.hstack([a_s, -delta * sp.identity(m_eq)])
    kkt = sp.vstack([upper, lower]).tocsc()
    try:
        lu = spla.splu(kkt)
    except RuntimeError as exc:
        return SolveResult(
            status="numerical_failure", objective=float("nan"),
            primal_residual=float("inf"), dual_residual=float("inf"),
            iterations=0, moments_m=np.zeros(0), moments_b=np.zeros(0),
            z=np.zeros(n), solve_time=time.time() - t0,
            message=f"KKT factorization failed: {exc}")

    rho = settings.rho
    alpha = settings.over_relaxation
    s = np.zeros(blocks.total)
    u = np.zeros(blocks.total)
    z_s = np.zeros(n)
    history = []
    status = "max_iters"
    message = ""
    r_prim = r_dual = float("inf")
    it = 0
    eps_abs, eps_rel = settings.eps_abs, settings.eps_rel
    sqrt_cone = math.sqrt(max(blocks.total, 1))
    sqrt_n = math.sqrt(max(n, 1))
    sqrt_eq = math.sqrt(max(m_eq, 1))
    num_m = program.meta.get("num_m", n)
    gz = np.zeros(blocks.total)

    try:
        for it in range(1, settings.max_iters + 1):
            # (1) equality-constrained least squares
            top = g_s.T @ (s - u) - c_s / rho
            sol = lu.solve(np.concatenate([top, b_s]))
            z_s = sol[:n]
            gz = g_s @ z_s
            # (2) over-relaxed cone projection
            h = alpha * gz + (1 - alpha) * s
            s_new = blocks.project(h + u)
            # (3) dual ascent
            u += h - s_new
            ds = s_new - s
            s = s_new

            if it % settings.check_interval == 0 or it == settings.max_iters:
                r_prim = float(np.linalg.norm(gz - s))
                r_dual = float(rho * np.linalg.norm(g_s.T @ ds))
                eq_res = float(np.linalg.norm(a_s @ z_s - b_s)) if m_eq else 0.0
                eps_pri = (eps_abs * sqrt_cone
                           + eps_rel * max(np.linalg.norm(gz), np.linalg.norm(s)))
                eps_dual = (eps_abs * sqrt_n
                            + eps_rel * rho * np.linalg.norm(g_s.T @ u))
                eps_eq = eps_abs * sqrt_eq + eps_rel * np.linalg.norm(b_s)
                history.append((it, max(r_prim, r_dual)))
                if settings.verbose and it % (settings.check_interval * 40) == 0:
                    z = e_col * z_s
                    print(f"  it {it:7d}  rp {r_prim:9.2e} rd {r_dual:9.2e} "
                          f"eq {eq_res:9.2e} obj {program.objective @ z: .8f} "
                          f"rho {rho:.2e}")
                if r_prim <= eps_pri and r_dual <= eps_dual and eq_res <= eps_eq:
                    # gate optimality on the recovered moment matrices
                    z = e_col * z_s
                    lam_ok = True
                    for which in range(min(2, len(program.blocks))):
                        mat = program.blocks[which].materialize(z)
                        lam = float(np.linalg.eigvalsh(mat)[0])
                        if lam < -10 * eps_abs:
                            lam_ok = False
                            break
                    if lam_ok:
                        status = "optimal"
                        break
                if settings.adaptive_rho and it % 100 == 0:
                    scale_p = r_prim / max(eps_pri, 1e-300)
                    scale_d = r_dual / max(eps_dual, 1e-300)
                    if scale_p > 10 * scale_d and rho < 1e6:
                        rho *= 2.0
                        u /= 2.0
                    elif scale_d > 10 * scale_p and rho > 1e-6:
                        rho /= 2.0
                        u *= 2.0
            if settings.time_limit and time.time() - t0 > settings.time_limit:
                message = "time limit reached"
                break
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
        moments_m=z[:num_m],
        moments_b=z[num_m:],
        z=z,
        solve_time=time.time() - t0,
        residual_history=history,
        message=message,
    )
