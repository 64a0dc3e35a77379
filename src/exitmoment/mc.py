"""Monte Carlo oracle: Euler-Maruyama simulation and exit-time moments.

Paths are driven by the counter-based Philox 4x64 generator (numpy's
``Philox`` bit generator), so runs are reproducible from the seed alone
and chunked execution is deterministic.  Path reductions use numpy's
pairwise summation, which does not depend on scheduling.

Exit detection combines grid crossings (with sub-step linear
interpolation of the crossing time) and a Brownian-bridge test for
within-step excursions; without the bridge test the discrete monitoring
widens every noisy barrier by about 0.58 sigma sqrt(dt), which at
dt = 1e-4 already dwarfs the statistical error of 1e6 paths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .augment import AugmentedModel, SdeModel
from .expr import Expression, Polynomial


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
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.paths < 1:
            raise ValueError("need at least one path")


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
# expression kernels
# ---------------------------------------------------------------------------


def _pow_col(col: np.ndarray, e: int) -> np.ndarray:
    if e == 1:
        return col
    if e == 2:
        return col * col
    return col**e


class _Kernel:
    """Vectorized evaluator for one expression over (N, n) state blocks.

    Time enters as a scalar (paths step synchronously), so its powers fold
    into the term coefficient.
    """

    def __init__(self, expr: Expression, n: int):
        self.n = n
        self.terms = []
        for alpha, coef in expr.poly.terms.items():
            base = alpha[:n]
            t_exp = alpha[n]
            atom_exps = tuple(
                (j, e) for j, e in enumerate(alpha[n + 1:]) if e
            )
            self.terms.append((float(coef), base, t_exp, atom_exps))
        self.constant = None
        if not self.terms:
            self.constant = 0.0
        elif len(self.terms) == 1:
            coef, base, t_exp, atom_exps = self.terms[0]
            if not any(base) and t_exp == 0 and not atom_exps:
                self.constant = coef

    def is_constant(self) -> bool:
        return self.constant is not None

    def __call__(self, x: np.ndarray, t: float, atom_cols: list) -> np.ndarray:
        if self.constant is not None:
            return np.full(x.shape[0], self.constant)
        out = np.zeros(x.shape[0])
        for coef, base, t_exp, atom_exps in self.terms:
            c = coef * (t**t_exp if t_exp else 1.0)
            term = None
            for i, e in enumerate(base):
                if e:
                    col = _pow_col(x[:, i], e)
                    term = col.copy() if term is None else term * col
            for j, e in atom_exps:
                col = _pow_col(atom_cols[j], e)
                term = col.copy() if term is None else term * col
            out += c if term is None else c * term
        return out


class SdeKernel:
    """Shared drift/diffusion/safe-set evaluator for one model."""

    def __init__(self, model: SdeModel):
        self.model = model
        n = model.n
        self.n = n
        slots = model.nslots
        atoms: list = []
        exprs = list(model.drift[:n]) + [g for row in model.diffusion[:n] for g in row]
        for e in exprs:
            for a in e.used_atoms():
                if a not in atoms:
                    atoms.append(a)
        self.atoms = atoms
        self.drift = [_Kernel(e.with_atoms(atoms), n) for e in model.drift[:n]]
        self.diffusion = [[_Kernel(g.with_atoms(atoms), n) for g in row]
                          for row in model.diffusion[:n]]
        self.safe_polys = [q for q in model.safe_polys
                           if not _is_time_box(q, slots)]
        self.safe = [
            _Kernel(Expression.from_polynomial(slots, q).with_atoms(atoms), n)
            for q in self.safe_polys
        ]
        # gradients of each safe polynomial w.r.t. the noisy coordinates,
        # needed by the bridge crossing test
        self.safe_grads = [
            [_Kernel(Expression.from_polynomial(slots, q.diff(i)).with_atoms(atoms), n)
             for i in range(n)]
            for q in self.safe_polys
        ]

    def atom_columns(self, x: np.ndarray) -> list:
        cols = []
        for a in self.atoms:
            u = float(a.freq) * np.ones(x.shape[0])
            for i, e in enumerate(a.arg[: self.n]):
                if e:
                    u = u * _pow_col(x[:, i], e)
            cols.append(np.sin(u) if a.kind == "sin" else np.cos(u))
        return cols

    def drift_at(self, x, t, cols):
        return np.column_stack([k(x, t, cols) for k in self.drift])

    def sigma_at(self, x, t, cols):
        """Diffusion entries as an (N, n, d) array."""
        d = self.model.d
        out = np.zeros((x.shape[0], self.n, d))
        for i, row in enumerate(self.diffusion):
            for k, kern in enumerate(row):
                out[:, i, k] = kern(x, t, cols)
        return out

    def noise_at(self, x, t, cols, z):
        out = np.zeros_like(x)
        for i, row in enumerate(self.diffusion):
            acc = out[:, i]
            for k, kern in enumerate(row):
                acc += kern(x, t, cols) * z[:, k]
        return out

    def safe_at(self, x, t, cols):
        return np.column_stack([k(x, t, cols) for k in self.safe])

    def crossing_variances(self, x, t, cols):
        """Variance rate of each safe polynomial along the diffusion:
        grad(q)^T sigma sigma^T grad(q), shape (N, n_q)."""
        sigma = self.sigma_at(x, t, cols)
        out = np.zeros((x.shape[0], len(self.safe)))
        for qi, grads in enumerate(self.safe_grads):
            gvals = np.column_stack([g(x, t, cols) for g in grads])
            proj = np.einsum("pi,pik->pk", gvals, sigma)
            out[:, qi] = (proj * proj).sum(axis=1)
        return out

    def variances_are_constant(self) -> bool:
        return (all(k.is_constant() for row in self.safe_grads for k in row)
                and all(k.is_constant() for row in self.diffusion for k in row))


def _is_time_box(q: Polynomial, slots: int) -> bool:
    """True for the appended t / (T - t) box polynomials: pure-time linear."""
    if q.degree() > 1:
        return False
    return all(
        all(e == 0 for e in alpha[: slots - 1]) for alpha in q.terms
    )


def _bridge_probability(q_prev, q_new, v, dt):
    """Brownian-bridge probability exp(-2 q_prev q_new / (v dt)) that each
    safe polynomial dipped below zero within a step; zero where it has no
    diffusion (v = 0), so 0 / 0 is never evaluated."""
    qp = np.maximum(q_prev, 0.0)
    qn = np.maximum(q_new, 0.0)
    with np.errstate(divide="ignore", over="ignore"):
        expo = np.divide(-2.0 * qp * qn, v * dt,
                         out=np.full(qp.shape, -np.inf), where=v > 0)
    return np.exp(expo)


# ---------------------------------------------------------------------------
# stepping core
# ---------------------------------------------------------------------------


class _Stepper:
    """Synchronous Euler-Maruyama stepping with exit detection.

    Exits are flagged either by a sign change of a safe polynomial on the
    grid (crossing time linearly interpolated via the most violated
    polynomial) or, with the bridge test on, by sampling the within-step
    crossing probability exp(-2 q_k q_{k+1} / (v dt)) per polynomial.
    """

    def __init__(self, kernel: SdeKernel, cfg: McConfig, horizon: float,
                 rng: np.random.Generator):
        self.kernel = kernel
        self.cfg = cfg
        self.horizon = horizon
        self.rng = rng
        self.dt = cfg.dt
        self.sqrt_dt = math.sqrt(cfg.dt)
        self.n_steps = int(math.ceil(horizon / cfg.dt))
        self.const_var = kernel.variances_are_constant()
        self._var_cache = None

    def variances(self, x, t, cols):
        if self.const_var:
            if self._var_cache is None:
                self._var_cache = self.kernel.crossing_variances(
                    x[:1], t, [c[:1] for c in cols])[0]
            return np.broadcast_to(self._var_cache, (x.shape[0],
                                                     self._var_cache.size))
        return self.kernel.crossing_variances(x, t, cols)

    def run(self, n_paths: int, record_exit_state=None):
        """Returns (tau, capped, flagged).  ``record_exit_state(ids, coords,
        times)`` is invoked with boundary-projected exit states."""
        kernel = self.kernel
        model = kernel.model
        n = kernel.n
        d = model.d
        dt = self.dt

        x = np.tile(np.asarray(model.x0[:n], dtype=float), (n_paths, 1))
        ids = np.arange(n_paths)
        tau = np.full(n_paths, self.horizon)
        capped = np.ones(n_paths, dtype=bool)
        flagged = 0

        cols = kernel.atom_columns(x)
        q_prev = kernel.safe_at(x, 0.0, cols)
        for step in range(self.n_steps):
            t = step * dt
            if x.shape[0] == 0:
                break
            z = self.rng.standard_normal((x.shape[0], d))
            drift = kernel.drift_at(x, t, cols)
            x_new = x + drift * dt + kernel.noise_at(x, t, cols, z) * self.sqrt_dt

            finite = np.isfinite(x_new).all(axis=1)
            if not finite.all():
                bad = ~finite
                flagged += int(bad.sum())
                tau[ids[bad]] = np.nan
                capped[ids[bad]] = False
                x_new[bad] = x[bad]  # keep finite for the q evaluation

            t_new = min((step + 1) * dt, self.horizon)
            cols_new = kernel.atom_columns(x_new)
            q_new = kernel.safe_at(x_new, t_new, cols_new)

            crossed = (q_new < 0).any(axis=1)
            theta = np.zeros(x.shape[0])
            which = np.zeros(x.shape[0], dtype=int)
            if crossed.any():
                rows = np.nonzero(crossed)[0]
                w = np.argmin(q_new[rows], axis=1)
                qp = q_prev[rows, w]
                qn = q_new[rows, w]
                denom = np.where(qp - qn > 1e-300, qp - qn, 1.0)
                theta[rows] = np.clip(qp / denom, 0.0, 1.0)
                which[rows] = w

            if self.cfg.bridge:
                inside = ~crossed & finite
                if inside.any():
                    p = _bridge_probability(
                        q_prev, q_new, self.variances(x, t, cols), dt)
                    no_cross = np.clip(1.0 - p, 1e-300, 1.0)
                    survive = np.exp(np.log(no_cross).sum(axis=1))
                    u = self.rng.random(x.shape[0])
                    bridged = inside & (u > survive)
                    if bridged.any():
                        rows = np.nonzero(bridged)[0]
                        which[rows] = np.argmax(p[rows], axis=1)
                        theta[rows] = 0.5  # expected within-step crossing
                        crossed = crossed | bridged

            exited = crossed & finite
            if exited.any():
                rows = np.nonzero(exited)[0]
                tau[ids[rows]] = t + theta[rows] * dt
                capped[ids[rows]] = False
                if record_exit_state is not None:
                    xe = x[rows] + theta[rows, None] * (x_new[rows] - x[rows])
                    record_exit_state(ids[rows], xe,
                                      t + theta[rows] * dt)

            keep = finite & ~exited
            if not keep.all():
                x = x_new[keep]
                ids = ids[keep]
                q_prev = q_new[keep]
                cols = [c[keep] for c in cols_new]
            else:
                x = x_new
                q_prev = q_new
                cols = cols_new

        if record_exit_state is not None and ids.size:
            record_exit_state(ids, x, np.full(ids.size, self.horizon))
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

    kernel = SdeKernel(model)
    rng = np.random.Generator(np.random.Philox(key=cfg.seed))
    taus = []
    caps = []
    flagged = 0
    remaining = cfg.paths
    while remaining > 0:
        batch = min(cfg.chunk, remaining)
        stepper = _Stepper(kernel, cfg, horizon, rng)
        tau, capped, bad = stepper.run(batch)
        taus.append(tau)
        caps.append(capped)
        flagged += bad
        remaining -= batch
    tau = np.concatenate(taus)
    capped = np.concatenate(caps)
    if flagged > 0.001 * cfg.paths:
        raise RuntimeError(
            f"{flagged} of {cfg.paths} paths became non-finite; "
            "reduce dt or check the model")
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


def _atom_reference(atoms, x: np.ndarray, n: int) -> list:
    cols = []
    for a in atoms:
        u = float(a.freq) * np.ones(x.shape[0])
        for i, e in enumerate(a.arg[:n]):
            if e:
                u = u * _pow_col(x[:, i], e)
        cols.append(np.sin(u) if a.kind == "sin" else np.cos(u))
    return cols


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
    x = np.tile(np.asarray(original.x0[:n], dtype=float), (n_paths, 1))
    xa = np.tile(np.asarray(augmented.x0, dtype=float), (n_paths, 1))

    a_drift = [list(p.terms.items()) for p in augmented.drift]
    a_diff = [[list(p.terms.items()) for p in row] for row in augmented.diffusion]

    def eval_poly(items, xfull):
        out = np.zeros(xfull.shape[0])
        for alpha, coef in items:
            term = np.full(xfull.shape[0], float(coef))
            for i, e in enumerate(alpha):
                if e:
                    term = term * _pow_col(xfull[:, i], e)
            out += term
        return out

    worst = 0.0
    alive = np.ones(n_paths, dtype=bool)
    cols = kernel.atom_columns(x)
    for step in range(n_steps):
        t = step * dt
        if increments is None:
            dw = rng.standard_normal((n_paths, original.d)) * sqrt_dt
        else:
            dw = increments[step]
        z = dw / sqrt_dt
        drift = kernel.drift_at(x, t, cols)
        x_new = x + drift * dt + kernel.noise_at(x, t, cols, z) * sqrt_dt

        da = np.column_stack([eval_poly(items, xa) for items in a_drift])
        noise = np.zeros_like(xa)
        for i, row in enumerate(a_diff):
            for k, items in enumerate(row):
                vals = eval_poly(items, xa)
                if np.any(vals):
                    noise[:, i] += vals * z[:, k]
        xa_new = xa + da * dt + noise * sqrt_dt

        cols_new = kernel.atom_columns(x_new)
        qv = kernel.safe_at(x_new, min((step + 1) * dt, horizon), cols_new)
        alive &= ~(qv < 0).any(axis=1)
        alive &= np.isfinite(x_new).all(axis=1) & np.isfinite(xa_new).all(axis=1)
        if not alive.any():
            break
        refs = _atom_reference(augmented.atoms, x_new, n)
        for j in range(len(augmented.atoms)):
            dev = np.abs(xa_new[alive, n + 1 + j] - refs[j][alive]).max()
            worst = max(worst, float(dev))
        x, xa, cols = x_new, xa_new, cols_new
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
    interpolated onto the boundary.
    """
    horizon = cfg.horizon if cfg.horizon is not None else model.horizon
    n = model.n
    scales = np.array([float(s) for s in augmented.scales])
    kernel = SdeKernel(model)
    rng = np.random.Generator(np.random.Philox(key=cfg.seed))

    n_paths = cfg.paths
    occ = np.zeros((n_paths, len(indices_m)))
    exit_pow = np.zeros((n_paths, len(indices_b)))

    def aug_coords(xs: np.ndarray, ts) -> np.ndarray:
        cols = [xs[:, i] for i in range(n)]
        if np.isscalar(ts):
            cols.append(np.full(xs.shape[0], float(ts)))
        else:
            cols.append(np.asarray(ts, dtype=float))
        cols.extend(_atom_reference(augmented.atoms, xs, n))
        return np.column_stack(cols) / scales

    def powers(coords: np.ndarray, indices: list) -> np.ndarray:
        out = np.empty((coords.shape[0], len(indices)))
        for col, alpha in enumerate(indices):
            acc = np.ones(coords.shape[0])
            for i, e in enumerate(alpha):
                if e:
                    acc = acc * _pow_col(coords[:, i], e)
            out[:, col] = acc
        return out

    def on_exit(path_ids, states, times):
        exit_pow[path_ids] = powers(aug_coords(states, times), indices_b)

    # occupation accumulation rides on a custom stepping loop: reuse the
    # stepper but integrate between steps through the record callback
    stepper = _Stepper(kernel, cfg, horizon, rng)

    # manual loop (mirrors _Stepper.run) with occupation accumulation
    dt = cfg.dt
    x = np.tile(np.asarray(model.x0[:n], dtype=float), (n_paths, 1))
    ids = np.arange(n_paths)
    cols = kernel.atom_columns(x)
    q_prev = kernel.safe_at(x, 0.0, cols)
    for step in range(stepper.n_steps):
        t = step * dt
        if x.shape[0] == 0:
            break
        occ[ids] += powers(aug_coords(x, t), indices_m) * dt
        z = rng.standard_normal((x.shape[0], model.d))
        x_new = (x + kernel.drift_at(x, t, cols) * dt
                 + kernel.noise_at(x, t, cols, z) * stepper.sqrt_dt)
        t_new = min((step + 1) * dt, horizon)
        cols_new = kernel.atom_columns(x_new)
        q_new = kernel.safe_at(x_new, t_new, cols_new)

        crossed = (q_new < 0).any(axis=1)
        theta = np.zeros(x.shape[0])
        which = np.zeros(x.shape[0], dtype=int)
        if crossed.any():
            rows = np.nonzero(crossed)[0]
            w = np.argmin(q_new[rows], axis=1)
            qp = q_prev[rows, w]
            qn = q_new[rows, w]
            denom = np.where(qp - qn > 1e-300, qp - qn, 1.0)
            theta[rows] = np.clip(qp / denom, 0.0, 1.0)
            which[rows] = w
        if cfg.bridge:
            inside = ~crossed
            p = _bridge_probability(q_prev, q_new,
                                    stepper.variances(x, t, cols), dt)
            survive = np.exp(np.log(np.clip(1.0 - p, 1e-300, 1.0)).sum(axis=1))
            u = rng.random(x.shape[0])
            bridged = inside & (u > survive)
            if bridged.any():
                theta[bridged] = 0.5
                which[bridged] = np.argmax(p[bridged], axis=1)
                crossed = crossed | bridged
        if crossed.any():
            rows = np.nonzero(crossed)[0]
            xe = x[rows] + theta[rows, None] * (x_new[rows] - x[rows])
            # one Newton step onto the crossing facet so exit moments see
            # boundary-supported states
            wr = which[rows]
            for qi in np.unique(wr):
                sub = wr == qi
                pts = xe[sub]
                cols_e = kernel.atom_columns(pts)
                grads = np.column_stack(
                    [g(pts, t_new, cols_e) for g in kernel.safe_grads[qi]])
                qvals = kernel.safe[qi](pts, t_new, cols_e)
                nrm = (grads * grads).sum(axis=1)
                nrm = np.where(nrm > 1e-300, nrm, 1.0)
                xe[sub] = pts - (qvals / nrm)[:, None] * grads
            on_exit(ids[rows], xe, t + theta[rows] * dt)
        keep = ~crossed
        x = x_new[keep]
        ids = ids[keep]
        q_prev = q_new[keep]
        cols = [c[keep] for c in cols_new]
    if ids.size:
        on_exit(ids, x, np.full(ids.size, horizon))

    sqrt_n = math.sqrt(n_paths)
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
