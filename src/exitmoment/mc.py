"""Monte Carlo oracle: Euler-Maruyama simulation and exit-time moments.

Paths are driven by the counter-based Philox 4x64 generator (numpy's
``Philox`` bit generator), so runs are reproducible from the seed alone
and chunked execution is deterministic.  Path reductions use numpy's
pairwise summation, which does not depend on scheduling.

Exit detection combines grid crossings (with sub-step linear
interpolation of the crossing time) and a Brownian-bridge test for
within-step excursions (Gobet, Stoch. Proc. Appl. 2000); without the
bridge test the discrete monitoring widens every noisy barrier by about
0.58 sigma sqrt(dt), which at dt = 1e-4 already dwarfs the statistical
error of 1e6 paths.

Layout.  Every per-path quantity is stored coordinate-major, one path
per column: the state as an (n + atoms, N) array whose first n rows are
the coordinates and whose remaining rows are the sin/cos atoms the
dynamics use, and the safe-polynomial values as (n_q, N).  Each
coordinate is one contiguous row, a reduction over polynomials is an
elementwise operation between rows, and dropping the paths that left is
one gather per array.  The Gaussian increments are still drawn as
(N, d), so the random stream is the one a path-major layout consumes.

Compiled kernels.  Each drift, diffusion, safe-polynomial and gradient
expression is compiled once per model into (coefficient, time power,
factor rows) terms.  A constant expression evaluates to a float, zero
drift and diffusion entries are skipped, and the terms are accumulated
in the expression's term order without intermediate copies, so every
value is the one a term-by-term evaluation gives.

Near-boundary rule.  A path survives the bridge test of one step with
probability exp(sum_q log(clip(1 - p_q, 1e-300, 1))), where
p_q = exp(e_q) and e_q = -2 q_prev q_new / (v_q dt) for the crossing
variance rate v_q = grad(q)^T sigma sigma^T grad(q).  Where every
e_q <= -40, each p_q <= e^-40 < 2^-54, so 1 - p_q rounds to 1.0, each
logarithm is 0 and the survival is exactly 1.0, which a uniform draw in
[0, 1) never exceeds.  The transcendental functions are therefore
evaluated only on paths with some e_q > -40, and polynomials whose
crossing variance is identically zero (no noisy coordinate enters them)
are left out of the test, since their p_q is 0.  The uniform draws are
made exactly when the full evaluation makes them, so the exit times are
those of the full evaluation, bit for bit.  Sums over polynomials, noise
columns and coordinates run left to right.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .augment import AugmentedModel, SdeModel
from .expr import Expression, Polynomial

# e^-40 < 2^-54: below this bridge exponent, 1 - p rounds to 1.0
NEAR_BOUNDARY = -40.0


@dataclass
class McConfig:
    dt: float = 1e-4
    paths: int = 1_000_000
    seed: int = 0
    horizon: float | None = None        # defaults to the model horizon
    max_moment_order: int = 6
    chunk: int = 250_000                # paths per batch; fixed for determinism
    bridge: bool = True                 # within-step crossing correction

    def __post_init__(self):
        if not (math.isfinite(self.dt) and self.dt > 0):
            raise ValueError("dt must be positive and finite")
        if self.paths < 1:
            raise ValueError("need at least one path")
        if self.horizon is not None and not (
                math.isfinite(self.horizon) and self.horizon > 0):
            raise ValueError("horizon must be positive and finite")
        if self.max_moment_order < 1:
            raise ValueError("max_moment_order must be at least 1")
        if self.chunk < 1:
            raise ValueError("chunk must be at least one path")


@dataclass
class McEstimate:
    """Exit-time moment estimates with standard errors and 95% intervals."""

    moments: dict                        # order -> (mean, se, lo, hi)
    exit_fraction: float
    paths: int
    dt: float
    horizon: float
    flagged: int = 0

    def mean(self, order: int) -> float:
        return self.moments[order][0]

    def se(self, order: int) -> float:
        return self.moments[order][1]

    def ci(self, order: int):
        return self.moments[order][2], self.moments[order][3]


# ---------------------------------------------------------------------------
# compiled kernels
# ---------------------------------------------------------------------------


def _pow_row(row: np.ndarray, e: int) -> np.ndarray:
    if e == 1:
        return row
    if e == 2:
        return row * row
    return row**e


class _Atoms:
    """sin/cos of ``freq * x^arg`` for a list of atoms, one row each.

    Only the state coordinates enter the argument; a time power in
    ``arg`` is not read.  ``freq`` multiplies the first factor, so the
    product rounds as ``freq * x_i^e * ...`` left to right.
    """

    def __init__(self, atoms, n: int):
        self.specs = [
            (np.sin if a.kind == "sin" else np.cos, float(a.freq),
             tuple((i, e) for i, e in enumerate(a.arg[:n]) if e))
            for a in atoms
        ]

    def __len__(self) -> int:
        return len(self.specs)

    def __call__(self, x: np.ndarray, out: np.ndarray | None = None):
        """Atom values at the coordinate rows ``x``, as (atoms, N)."""
        if out is None:
            out = np.empty((len(self.specs), x.shape[1]))
        for row, (fn, freq, factors) in zip(out, self.specs):
            u = None
            for i, e in factors:
                col = _pow_row(x[i], e)
                if u is None:
                    u = col if freq == 1.0 else freq * col
                else:
                    u = u * col
            fn(np.full(x.shape[1], freq) if u is None else u, out=row)
        return out


class _Kernel:
    """One expression compiled against coordinate-major state rows.

    Rows 0..n-1 of the state are the coordinates and the following rows
    the atoms of the model's registry.  Time enters as a scalar (paths
    step synchronously), so its powers fold into the term coefficient.
    A constant expression evaluates to a float.
    """

    def __init__(self, expr: Expression, n: int):
        self.terms = []
        for alpha, coef in expr.poly.terms.items():
            factors = tuple((i if i < n else i - 1, e)
                            for i, e in enumerate(alpha) if e and i != n)
            self.terms.append((float(coef), alpha[n], factors))
        self.constant = None
        if not self.terms:
            self.constant = 0.0
        elif len(self.terms) == 1 and self.terms[0][1:] == (0, ()):
            self.constant = self.terms[0][0]

    def is_zero(self) -> bool:
        return not self.terms

    def __call__(self, rows, t: float):
        if self.constant is not None:
            return self.constant
        out = None
        for coef, t_exp, factors in self.terms:
            c = coef * t**t_exp if t_exp else coef
            term = None
            for r, e in factors:
                col = _pow_row(rows[r], e)
                term = col if term is None else term * col
            if term is None:
                term = c
            elif c != 1.0:
                term = c * term
            out = term if out is None else out + term
        return out


class SdeKernel:
    """Drift, diffusion and safe-set kernels of one model, compiled once."""

    def __init__(self, model: SdeModel):
        self.model = model
        n = model.n
        self.n = n
        self.d = model.d
        slots = model.nslots
        atoms: list = []
        exprs = list(model.drift[:n]) + [g for row in model.diffusion[:n] for g in row]
        for e in exprs:
            for a in e.used_atoms():
                if a not in atoms:
                    atoms.append(a)
        self.atoms = _Atoms(atoms, n)

        def compile_expr(e: Expression) -> _Kernel:
            return _Kernel(e.with_atoms(atoms), n)

        def compile_poly(q: Polynomial) -> _Kernel:
            return compile_expr(Expression.from_polynomial(slots, q))

        self.drift = [compile_expr(e) for e in model.drift[:n]]
        self.diffusion = [[compile_expr(g) for g in row]
                          for row in model.diffusion[:n]]
        # per coordinate, the (noise column, kernel) pairs that are not zero
        self.noise = [[(k, g) for k, g in enumerate(row) if not g.is_zero()]
                      for row in self.diffusion]
        safe_polys = [q for q in model.safe_polys if not _is_time_box(q, slots)]
        self.safe = [compile_poly(q) for q in safe_polys]
        self.safe_grads = [[compile_poly(q.diff(i)) for i in range(n)]
                           for q in safe_polys]
        # crossing variance of polynomial j: sum over noise columns k of
        # (sum_i d_i q_j sigma_ik)^2, kept to the (i, k) pairs where neither
        # factor is zero; a polynomial with no such pair never crosses
        # within a step and takes no part in the bridge test
        self.var_pairs = []
        for grads in self.safe_grads:
            cols = []
            for k in range(self.d):
                rows = tuple(i for i in range(n) if not grads[i].is_zero()
                             and not self.diffusion[i][k].is_zero())
                if rows:
                    cols.append((k, rows))
            self.var_pairs.append(cols)
        self.bridged = [j for j, cols in enumerate(self.var_pairs) if cols]
        self.variances_constant = all(
            self.safe_grads[j][i].constant is not None
            and self.diffusion[i][k].constant is not None
            for j in self.bridged for k, rows in self.var_pairs[j]
            for i in rows)

    def start(self, n_paths: int) -> np.ndarray:
        """The start state of ``n_paths`` paths, (n + atoms, N)."""
        state = np.empty((self.n + len(self.atoms), n_paths))
        state[: self.n] = np.asarray(self.model.x0[: self.n], dtype=float)[:, None]
        self.atoms(state, out=state[self.n:])
        return state

    def advance(self, state: np.ndarray, t: float, z: np.ndarray,
                dt: float, sqrt_dt: float) -> np.ndarray:
        """One Euler-Maruyama step: x + b dt + (sigma z) sqrt(dt), into the
        coordinate rows of a new state array whose atom rows are left for
        ``fill_atoms``.  ``z`` holds one row of standard normals per noise
        column."""
        new = np.empty_like(state)
        for i in range(self.n):
            acc = state[i]
            if not self.drift[i].is_zero():
                acc = acc + self.drift[i](state, t) * dt
            noise = None
            for k, g in self.noise[i]:
                term = z[k] if g.constant == 1.0 else g(state, t) * z[k]
                noise = term if noise is None else noise + term
            if noise is None:
                new[i] = acc
            else:
                np.add(acc, noise * sqrt_dt, out=new[i])
        return new

    def fill_atoms(self, state: np.ndarray) -> None:
        self.atoms(state, out=state[self.n:])

    def safe_values(self, state: np.ndarray, t: float) -> np.ndarray:
        """Safe-polynomial values, (n_q, N)."""
        out = np.empty((len(self.safe), state.shape[1]))
        for row, kern in zip(out, self.safe):
            row[...] = kern(state, t)
        return out

    def crossing_variances(self, state, t: float) -> list:
        """Variance rate grad(q)^T sigma sigma^T grad(q) of each bridged
        polynomial, one float or row per polynomial."""
        out = []
        for j in self.bridged:
            grads = self.safe_grads[j]
            v = None
            for k, rows in self.var_pairs[j]:
                proj = None
                for i in rows:
                    term = grads[i](state, t) * self.diffusion[i][k](state, t)
                    proj = term if proj is None else proj + term
                v = proj * proj if v is None else v + proj * proj
            out.append(v)
        return out


def _is_time_box(q: Polynomial, slots: int) -> bool:
    """True for the appended t / (T - t) box polynomials: pure-time linear."""
    if q.degree() > 1:
        return False
    return all(
        all(e == 0 for e in alpha[: slots - 1]) for alpha in q.terms
    )


def _bridge_survival(q_prev: np.ndarray, q_new: np.ndarray, vdt: np.ndarray):
    """Brownian-bridge test of one step on the paths near a boundary.

    ``q_prev`` and ``q_new`` are (m, N) safe values at both ends of the
    step and ``vdt`` the crossing variance rate times dt, (m, N) or (m, 1),
    zero where a polynomial has no diffusion.  Returns ``(near, survive,
    p)``: the indices of the paths with some exponent
    e = -2 q_prev q_new / (v dt) above ``NEAR_BOUNDARY``, their survival
    exp(sum_q log(clip(1 - p_q, 1e-300, 1))) and their crossing
    probabilities p = exp(e), (m, near.size).  Every other path survives
    with probability exactly 1.0 (see the module docstring); a polynomial
    without diffusion gets e = -inf, so 0 / 0 is never evaluated.
    """
    qp = np.maximum(q_prev, 0.0)
    qn = np.maximum(q_new, 0.0)
    with np.errstate(over="ignore"):
        expo = np.divide(-2.0 * qp * qn, vdt,
                         out=np.full(qp.shape, -np.inf), where=vdt > 0)
    near = np.flatnonzero((expo > NEAR_BOUNDARY).any(axis=0))
    p = np.exp(expo[:, near])
    logs = np.log(np.clip(1.0 - p, 1e-300, 1.0))
    total = logs[0]
    for row in logs[1:]:
        total = total + row
    return near, np.exp(total), p


# ---------------------------------------------------------------------------
# stepping core
# ---------------------------------------------------------------------------


class _Stepper:
    """Synchronous Euler-Maruyama stepping with exit detection.

    Exits are flagged either by a sign change of a safe polynomial on the
    grid (crossing time linearly interpolated via the most violated
    polynomial) or, with the bridge test on, by sampling the within-step
    crossing probability exp(-2 q_k q_{k+1} / (v dt)) per polynomial.

    Two optional hooks observe the paths.  ``occupation(state, t)``
    returns an (m, N) integrand at the alive paths at the start of every
    step; the stepper integrates it along each path (left-point rule).
    ``exit_state(ids, x, times, facets, t_end, integrals)`` receives the
    paths that leave in a step: their interpolated exit coordinates
    (n, R), exit times, the index of the safe polynomial each one crossed,
    the time at the end of the step and the integrals of the occupation
    integrand up to the exit.  Paths alive at the horizon are reported
    once more with ``facets`` None.
    """

    def __init__(self, kernel: SdeKernel, cfg: McConfig, horizon: float,
                 rng: np.random.Generator, occupation=None, exit_state=None):
        self.kernel = kernel
        self.cfg = cfg
        self.horizon = horizon
        self.rng = rng
        self.occupation = occupation
        self.exit_state = exit_state
        self.dt = cfg.dt
        self.sqrt_dt = math.sqrt(cfg.dt)
        self.n_steps = int(math.ceil(horizon / cfg.dt))
        self.vdt = None
        if kernel.variances_constant:
            self.vdt = np.array(kernel.crossing_variances(None, 0.0),
                                dtype=float)[:, None] * cfg.dt

    def run(self, first: int, n_paths: int, tau: np.ndarray,
            capped: np.ndarray) -> int:
        """Simulate paths ``first .. first + n_paths - 1``, writing their
        exit times into ``tau`` and clearing ``capped`` for those that
        leave or become non-finite.  Returns the count of non-finite
        paths, whose ``tau`` is NaN."""
        kernel = self.kernel
        n = kernel.n
        dt = self.dt
        bridged = kernel.bridged
        all_bridged = len(bridged) == len(kernel.safe)

        state = kernel.start(n_paths)
        ids = np.arange(first, first + n_paths)
        flagged = 0
        q_prev = kernel.safe_values(state, 0.0)
        integral = None
        for step in range(self.n_steps):
            t = step * dt
            if ids.size == 0:
                break
            if self.occupation is not None:
                values = self.occupation(state, t) * dt
                if integral is None:
                    integral = np.zeros_like(values)
                integral += values
            z = self.rng.standard_normal((ids.size, kernel.d))
            new = kernel.advance(state, t, z.T, dt, self.sqrt_dt)

            finite = np.isfinite(new[:n]).all(axis=0)
            if finite.all():
                finite = None
            else:
                bad = ~finite
                flagged += int(bad.sum())
                tau[ids[bad]] = np.nan
                capped[ids[bad]] = False
                new[:n, bad] = state[:n, bad]  # keep finite for the q evaluation

            t_new = min((step + 1) * dt, self.horizon)
            kernel.fill_atoms(new)
            q_new = kernel.safe_values(new, t_new)

            crossed = (q_new < 0).any(axis=0)
            rows = np.flatnonzero(crossed if finite is None else crossed & finite)
            facets = theta = rows
            if rows.size:
                facets = np.argmin(q_new[:, rows], axis=0)
                qp = q_prev[facets, rows]
                qn = q_new[facets, rows]
                denom = np.where(qp - qn > 1e-300, qp - qn, 1.0)
                theta = np.clip(qp / denom, 0.0, 1.0)

            if self.cfg.bridge:
                inside = ~crossed if finite is None else ~crossed & finite
                if inside.any():
                    u = self.rng.random(ids.size)
                    if bridged:
                        if all_bridged:
                            qb_prev, qb_new = q_prev, q_new
                        else:
                            qb_prev, qb_new = q_prev[bridged], q_new[bridged]
                        vdt = self.vdt
                        if vdt is None:
                            v = np.empty(qb_new.shape)
                            for row, value in zip(v, kernel.crossing_variances(state, t)):
                                row[...] = value
                            vdt = v * dt
                        near, survive, p = _bridge_survival(qb_prev, qb_new, vdt)
                        hit = inside[near] & (u[near] > survive)
                        if hit.any():
                            extra = near[hit]
                            rows = np.concatenate([rows, extra])
                            # expected within-step crossing time
                            theta = np.concatenate([theta, np.full(extra.size, 0.5)])
                            facets = np.concatenate(
                                [facets, np.take(bridged, np.argmax(p[:, hit], axis=0))])

            if rows.size:
                tau[ids[rows]] = t + theta * dt
                capped[ids[rows]] = False
                if self.exit_state is not None:
                    x0 = state[:n, rows]
                    self.exit_state(
                        ids[rows], x0 + theta * (new[:n, rows] - x0),
                        t + theta * dt, facets, t_new,
                        None if integral is None else integral[:, rows])

            if rows.size or finite is not None:
                keep = np.ones(ids.size, dtype=bool) if finite is None else finite
                keep[rows] = False
                idx = np.flatnonzero(keep)
                state = new.take(idx, axis=1)
                q_prev = q_new.take(idx, axis=1)
                ids = ids[idx]
                if integral is not None:
                    integral = integral.take(idx, axis=1)
            else:
                state = new
                q_prev = q_new

        if self.exit_state is not None and ids.size:
            self.exit_state(ids, state[:n], np.full(ids.size, self.horizon),
                            None, self.horizon, integral)
        return flagged


def _simulate_paths(model: SdeModel, cfg: McConfig, horizon: float,
                    occupation=None, exit_state=None):
    """Run ``cfg.paths`` paths in chunks of ``cfg.chunk`` on one random
    stream.  Returns (tau, capped, flagged); raises when more than 0.1% of
    the paths became non-finite."""
    kernel = SdeKernel(model)
    rng = np.random.Generator(np.random.Philox(key=cfg.seed))
    stepper = _Stepper(kernel, cfg, horizon, rng, occupation, exit_state)
    tau = np.full(cfg.paths, horizon)
    capped = np.ones(cfg.paths, dtype=bool)
    flagged = 0
    for first in range(0, cfg.paths, cfg.chunk):
        flagged += stepper.run(first, min(cfg.chunk, cfg.paths - first),
                               tau, capped)
    if flagged > 0.001 * cfg.paths:
        raise RuntimeError(
            f"{flagged} of {cfg.paths} paths became non-finite; "
            "reduce dt or check the model")
    return tau, capped, flagged


# ---------------------------------------------------------------------------
# exit-time simulation
# ---------------------------------------------------------------------------


def simulate_exit(model: SdeModel, cfg: McConfig,
                  tau_out: list | None = None) -> McEstimate:
    """Estimate exit-time moments E[(tau ^ T)^n] by Euler-Maruyama.

    Paths alive at the horizon are capped.  Non-finite states flag the
    path; more than 0.1% flagged aborts the run.
    """
    if model.time_augmented:
        raise ValueError("simulate the original model, not the augmented one")
    horizon = cfg.horizon if cfg.horizon is not None else model.horizon
    if model.starts_on_boundary():
        zeros = {n: (0.0, 0.0, 0.0, 0.0)
                 for n in range(1, cfg.max_moment_order + 1)}
        return McEstimate(zeros, 1.0, cfg.paths, cfg.dt, horizon)

    tau, capped, flagged = _simulate_paths(model, cfg, horizon)
    good = np.isfinite(tau)
    tau = tau[good]
    capped = capped[good]
    if tau_out is not None:
        tau_out.append((tau, capped))

    moments = {}
    npaths = tau.size
    for order in range(1, cfg.max_moment_order + 1):
        powers = tau**order
        mean = float(powers.mean())
        se = float(powers.std(ddof=1) / math.sqrt(npaths)) if npaths > 1 else 0.0
        moments[order] = (mean, se, mean - 1.96 * se, mean + 1.96 * se)
    return McEstimate(
        moments=moments,
        exit_fraction=float(1.0 - capped.mean()),
        paths=npaths,
        dt=cfg.dt,
        horizon=horizon,
        flagged=flagged,
    )


def dump_exit_times(path, estimate_tau) -> None:
    """CSV dump of per-path exit times: path_id, tau, capped."""
    tau, capped = estimate_tau
    with open(path, "w") as fh:
        fh.write("path_id,tau,capped\n")
        for i, (t, c) in enumerate(zip(tau, capped)):
            fh.write(f"{i},{t!r},{int(c)}\n")


# ---------------------------------------------------------------------------
# path consistency between the original and augmented systems
# ---------------------------------------------------------------------------


def path_consistency(original: SdeModel, augmented: AugmentedModel,
                     cfg: McConfig, t_max: float | None = None,
                     increments: np.ndarray | None = None) -> float:
    """Drive both systems with identical Gaussian increments and report the
    largest deviation between the integrated atom states and sin/cos of
    the original state's monomials (over alive paths up to ``t_max``).

    Supplying ``increments`` (n_steps, paths, d Brownian increments)
    overrides the generator; ``path_consistency_ladder`` uses this to
    compare several dt levels on one set of driving paths."""
    if not augmented.atoms:
        return 0.0
    horizon = t_max if t_max is not None else min(original.horizon, 1.0)
    n = original.n
    dt = cfg.dt
    sqrt_dt = math.sqrt(dt)
    n_steps = int(math.ceil(horizon / dt))
    rng = np.random.Generator(np.random.Philox(key=cfg.seed))
    n_paths = cfg.paths

    kernel = SdeKernel(original)
    aug_atoms = _Atoms(augmented.atoms, n)
    state = kernel.start(n_paths)
    xa = np.tile(np.asarray(augmented.x0, dtype=float), (n_paths, 1))

    a_drift = [list(p.terms.items()) for p in augmented.drift]
    a_diff = [[list(p.terms.items()) for p in row] for row in augmented.diffusion]

    def eval_poly(items, xfull):
        out = np.zeros(xfull.shape[0])
        for alpha, coef in items:
            term = np.full(xfull.shape[0], float(coef))
            for i, e in enumerate(alpha):
                if e:
                    term = term * _pow_row(xfull[:, i], e)
            out += term
        return out

    worst = 0.0
    alive = np.ones(n_paths, dtype=bool)
    for step in range(n_steps):
        t = step * dt
        if increments is None:
            dw = rng.standard_normal((n_paths, original.d)) * sqrt_dt
        else:
            dw = increments[step]
        z = dw / sqrt_dt
        new = kernel.advance(state, t, z.T, dt, sqrt_dt)
        kernel.fill_atoms(new)

        da = np.column_stack([eval_poly(items, xa) for items in a_drift])
        noise = np.zeros_like(xa)
        for i, row in enumerate(a_diff):
            for k, items in enumerate(row):
                vals = eval_poly(items, xa)
                if np.any(vals):
                    noise[:, i] += vals * z[:, k]
        xa_new = xa + da * dt + noise * sqrt_dt

        qv = kernel.safe_values(new, min((step + 1) * dt, horizon))
        alive &= ~(qv < 0).any(axis=0)
        alive &= np.isfinite(new[:n]).all(axis=0) & np.isfinite(xa_new).all(axis=1)
        if not alive.any():
            break
        refs = aug_atoms(new[:n])
        for j in range(len(aug_atoms)):
            dev = np.abs(xa_new[alive, n + 1 + j] - refs[j, alive]).max()
            worst = max(worst, float(dev))
        state, xa = new, xa_new
    return worst


def path_consistency_ladder(original: SdeModel, augmented: AugmentedModel,
                            cfg: McConfig, dts, t_max: float | None = None) -> list:
    """Deviations at several dt levels under common Brownian paths.

    dts must be integer multiples of the finest entry; coarser levels use
    the summed fine increments, so the convergence ratios are free of
    resampling noise."""
    horizon = t_max if t_max is not None else min(original.horizon, 1.0)
    dt_fine = min(dts)
    n_fine = int(math.ceil(horizon / dt_fine))
    rng = np.random.Generator(np.random.Philox(key=cfg.seed))
    fine = rng.standard_normal((n_fine, cfg.paths, original.d)) * math.sqrt(dt_fine)
    out = []
    for dt in dts:
        k = round(dt / dt_fine)
        if abs(k * dt_fine - dt) > 1e-12 * dt:
            raise ValueError("dt levels must be integer multiples of the finest")
        n_steps = n_fine // k
        agg = fine[: n_steps * k].reshape(n_steps, k, cfg.paths, original.d).sum(axis=1)
        level_cfg = McConfig(dt=dt, paths=cfg.paths, seed=cfg.seed,
                             max_moment_order=cfg.max_moment_order,
                             chunk=cfg.chunk, bridge=cfg.bridge)
        out.append(path_consistency(original, augmented, level_cfg,
                                    t_max=n_steps * dt, increments=agg))
    return out


# ---------------------------------------------------------------------------
# occupation / exit measure moments (for feasibility cross-checks)
# ---------------------------------------------------------------------------


@dataclass
class MeasureMoments:
    indices_m: list
    indices_b: list
    m_mean: np.ndarray
    m_se: np.ndarray
    b_mean: np.ndarray
    b_se: np.ndarray
    occupation_samples: np.ndarray
    exit_samples: np.ndarray


def measure_moments(model: SdeModel, augmented: AugmentedModel,
                    indices_m: list, indices_b: list,
                    cfg: McConfig) -> MeasureMoments:
    """Estimate occupation moments m_j = E int x^j dt and exit moments
    b_j = E[x_exit^j] in the augmented (possibly scaled) coordinates.

    The original system is simulated; augmented coordinates (time, atom
    values) are evaluated exactly from the base state, and exit states are
    interpolated onto the boundary.  Paths that become non-finite are
    left out, as in ``simulate_exit``.
    """
    horizon = cfg.horizon if cfg.horizon is not None else model.horizon
    n = model.n
    scales = np.array([float(s) for s in augmented.scales])[:, None]
    aug_atoms = _Atoms(augmented.atoms, n)
    kernel = SdeKernel(model)

    occ = np.zeros((cfg.paths, len(indices_m)))
    exit_pow = np.zeros((cfg.paths, len(indices_b)))

    def aug_coords(x: np.ndarray, times) -> np.ndarray:
        time_row = np.broadcast_to(np.asarray(times, dtype=float), x.shape[1:])
        return np.concatenate([x[:n], time_row[None], aug_atoms(x)]) / scales

    def powers(coords: np.ndarray, indices: list) -> np.ndarray:
        out = np.empty((len(indices), coords.shape[1]))
        for row, alpha in zip(out, indices):
            acc = None
            for i, e in enumerate(alpha):
                if e:
                    col = _pow_row(coords[i], e)
                    acc = col if acc is None else acc * col
            row[...] = 1.0 if acc is None else acc
        return out

    def occupation(state, t):
        return powers(aug_coords(state, t), indices_m)

    def exit_state(ids, x, times, facets, t_end, integrals):
        if facets is not None:
            # one Newton step onto the crossing facet so exit moments see
            # boundary-supported states
            for qi in np.unique(facets):
                sub = facets == qi
                pts = np.concatenate([x[:, sub], kernel.atoms(x[:, sub])])
                grads = np.empty((n, pts.shape[1]))
                for row, g in zip(grads, kernel.safe_grads[qi]):
                    row[...] = g(pts, t_end)
                nrm = (grads * grads).sum(axis=0)
                nrm = np.where(nrm > 1e-300, nrm, 1.0)
                x[:, sub] = pts[:n] - kernel.safe[qi](pts, t_end) / nrm * grads
        if integrals is not None:
            occ[ids] = integrals.T
        exit_pow[ids] = powers(aug_coords(x, times), indices_b).T

    tau, _, flagged = _simulate_paths(model, cfg, horizon, occupation, exit_state)
    if flagged:
        good = np.isfinite(tau)
        occ, exit_pow = occ[good], exit_pow[good]

    sqrt_n = math.sqrt(occ.shape[0])
    return MeasureMoments(
        indices_m=indices_m,
        indices_b=indices_b,
        m_mean=occ.mean(axis=0),
        m_se=occ.std(axis=0, ddof=1) / sqrt_n,
        b_mean=exit_pow.mean(axis=0),
        b_se=exit_pow.std(axis=0, ddof=1) / sqrt_n,
        occupation_samples=occ,
        exit_samples=exit_pow,
    )
