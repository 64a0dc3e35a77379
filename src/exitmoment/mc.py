"""Monte Carlo oracle: Euler-Maruyama simulation and exit-time moments.

Paths are driven by the counter-based Philox 4x64 generator (numpy's
``Philox`` bit generator), so runs are reproducible from the seed alone.
The paths run in batches of ``CHUNK`` that draw from one stream in turn,
so ``CHUNK`` fixes which draws each path takes.  Path reductions use
numpy's pairwise summation, which does not depend on scheduling.

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

Compiled kernels.  Every polynomial the oracle evaluates (drift,
diffusion, safe polynomial, atom argument, measure monomial) is one
``_Kernel``, compiled once into (coefficient, factor slots) terms and
evaluated on ``slots``, where ``slots[i]`` is the value of variable i in
the polynomial's own order: the coordinates, then time (slot n, a float
while the paths step synchronously), then the atoms.  A constant
polynomial evaluates to a float, zero drift and diffusion entries are
skipped, and the terms are accumulated in the polynomial's term order
without intermediate copies, so every value is the one a term-by-term
evaluation gives.  The crossing variance of a safe polynomial q is
sum_k p_k^2 over the noise columns k, with each projection
p_k = sum_i d_i q sigma_ik formed exactly as a polynomial and compiled.

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
from .expr import Polynomial

# e^-40 < 2^-54: below this bridge exponent, 1 - p rounds to 1.0
NEAR_BOUNDARY = -40.0
# exit-time moment orders estimated by ``simulate_exit``
MOMENT_ORDERS = 6
# paths per batch; the batches share one random stream, so this fixes the
# order in which the paths draw from it
CHUNK = 250_000


@dataclass
class McConfig:
    dt: float = 1e-4
    paths: int = 1_000_000
    seed: int = 0

    def __post_init__(self):
        if not (math.isfinite(self.dt) and self.dt > 0):
            raise ValueError("dt must be positive and finite")
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
# compiled kernels
# ---------------------------------------------------------------------------


def _pow_row(row: np.ndarray, e: int) -> np.ndarray:
    if e == 1:
        return row
    if e == 2:
        return row * row
    return row**e


class _Kernel:
    """One polynomial compiled against slot values.

    ``slots[i]`` is the value of variable i, a float or one row per path;
    a term multiplies its factors in slot order and then its coefficient.
    A constant polynomial evaluates to a float.
    """

    def __init__(self, poly: Polynomial):
        self.terms = [(float(coef), tuple((i, e) for i, e in enumerate(alpha) if e))
                      for alpha, coef in poly.terms.items()]
        self.constant = None
        if not self.terms:
            self.constant = 0.0
        elif len(self.terms) == 1 and not self.terms[0][1]:
            self.constant = self.terms[0][0]

    def is_zero(self) -> bool:
        return not self.terms

    def __call__(self, slots):
        if self.constant is not None:
            return self.constant
        out = None
        for coef, factors in self.terms:
            term = None
            for i, e in factors:
                col = _pow_row(slots[i], e)
                term = col if term is None else term * col
            if term is None:
                term = coef
            elif coef != 1.0:
                term = coef * term
            out = term if out is None else out + term
        return out


def _compile_atoms(atoms) -> list:
    """(sin or cos, kernel of the argument ``freq * x^arg``) per atom."""
    return [(np.sin if a.kind == "sin" else np.cos,
             _Kernel(Polynomial.monomial(len(a.arg), a.arg, a.freq)))
            for a in atoms]


def _fill_atoms(atoms: list, slots, out: np.ndarray) -> None:
    """Write the values of the compiled ``atoms`` at ``slots`` into the
    rows of ``out``."""
    for row, (fn, arg) in zip(out, atoms):
        fn(arg(slots), out=row)


def _evaluate_rows(kernels: list, slots) -> np.ndarray:
    """The values of ``kernels`` at ``slots``, whose first slot is a row
    per path, one row each, (m, N)."""
    out = np.empty((len(kernels), len(slots[0])))
    for row, kern in zip(out, kernels):
        row[...] = kern(slots)
    return out


class SdeKernel:
    """Drift, diffusion and safe-set kernels of one model, compiled once."""

    def __init__(self, model: SdeModel):
        self.model = model
        n = model.n
        self.n = n
        self.d = model.d
        atoms: list = []
        exprs = list(model.drift) + [g for row in model.diffusion for g in row]
        for e in exprs:
            for a in e.used_atoms():
                if a not in atoms:
                    atoms.append(a)
        self.atoms = _compile_atoms(atoms)

        def compile_expr(e: Polynomial) -> _Kernel:
            return _Kernel(e.with_atoms(atoms))

        self.drift = [compile_expr(e) for e in model.drift]
        self.diffusion = [[compile_expr(g) for g in row]
                          for row in model.diffusion]
        # per coordinate, the (noise column, kernel) pairs that are not zero
        self.noise = [[(k, g) for k, g in enumerate(row) if not g.is_zero()]
                      for row in self.diffusion]
        self.safe = [compile_expr(q) for q in model.safe_polys]
        # crossing variance of polynomial j: sum over noise columns k of
        # p_jk^2, p_jk = sum_i d_i q_j sigma_ik; a polynomial whose every
        # p_jk is zero never crosses within a step and takes no part in
        # the bridge test
        self.bridged = []
        self.projections = []
        for j, q in enumerate(model.safe_polys):
            projs = []
            for k in range(self.d):
                p = Polynomial.zero(n + 1)
                for i in range(n):
                    p = p + q.diff(i) * model.diffusion[i][k]
                if not p.is_zero():
                    projs.append(compile_expr(p))
            if projs:
                self.bridged.append(j)
                self.projections.append(projs)
        self.variances_constant = all(
            p.constant is not None for projs in self.projections for p in projs)

    def slots(self, state: np.ndarray, t) -> list:
        """The slot list of ``state`` at time ``t``: coordinate rows, time,
        atom rows."""
        rows = list(state)
        return rows[: self.n] + [t] + rows[self.n:]

    def start(self, n_paths: int) -> np.ndarray:
        """The start state of ``n_paths`` paths, (n + atoms, N)."""
        state = np.empty((self.n + len(self.atoms), n_paths))
        state[: self.n] = np.asarray(self.model.x0, dtype=float)[:, None]
        self.fill_atoms(self.slots(state, 0.0), state)
        return state

    def advance(self, slots: list, z: np.ndarray, dt: float,
                sqrt_dt: float) -> np.ndarray:
        """One Euler-Maruyama step from ``slots``: x + b dt + (sigma z)
        sqrt(dt), into the coordinate rows of a new state array whose atom
        rows are left for ``fill_atoms``.  ``z`` holds one row of standard
        normals per noise column."""
        new = np.empty((self.n + len(self.atoms), z.shape[1]))
        for i in range(self.n):
            acc = slots[i]
            if not self.drift[i].is_zero():
                acc = acc + self.drift[i](slots) * dt
            noise = None
            for k, g in self.noise[i]:
                term = z[k] if g.constant == 1.0 else g(slots) * z[k]
                noise = term if noise is None else noise + term
            if noise is None:
                new[i] = acc
            else:
                np.add(acc, noise * sqrt_dt, out=new[i])
        return new

    def fill_atoms(self, slots: list, state: np.ndarray) -> None:
        """Atom rows of ``state`` from its coordinate and time slots."""
        _fill_atoms(self.atoms, slots, state[self.n:])

    def safe_values(self, slots: list) -> np.ndarray:
        """Safe-polynomial values, (n_q, N)."""
        return _evaluate_rows(self.safe, slots)

    def crossing_variances(self, slots) -> list:
        """Variance rate grad(q)^T sigma sigma^T grad(q) of each bridged
        polynomial, one float or row per polynomial."""
        out = []
        for projs in self.projections:
            v = None
            for p in projs:
                value = p(slots)
                v = value * value if v is None else v + value * value
            out.append(v)
        return out


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


def _simulate_paths(kernel: SdeKernel, cfg: McConfig, occupation=None,
                    exit_state=None):
    """Synchronous Euler-Maruyama stepping with exit detection.

    ``cfg.paths`` paths run to the model's horizon in chunks of ``CHUNK``
    on one random stream.  Exits are flagged either by a sign change of a
    safe polynomial on the grid (crossing time linearly interpolated via
    the most violated polynomial) or by the bridge test, which runs on
    every step: it samples the within-step crossing probability
    exp(-2 q_k q_{k+1} / (v dt)) per polynomial.

    Two optional hooks observe the paths.  ``occupation(slots)`` returns
    an (m, N) integrand at the slots of the alive paths at the start of
    every step; it is integrated along each path (left-point rule).
    ``exit_state(ids, x, times, facets, t_end, integrals)`` receives the
    paths that leave in a step: their interpolated exit coordinates
    (n, R), exit times, the index of the safe polynomial each one crossed,
    the time at the end of the step and the integrals of the occupation
    integrand up to the exit.  Paths alive at the horizon are reported
    once more with ``facets`` None.

    Returns (tau, capped, flagged): exit times (NaN for a path that became
    non-finite), whether each path reached the horizon, and the count of
    non-finite paths; raises when that count exceeds 0.1% of the paths.
    """
    rng = np.random.Generator(np.random.Philox(key=cfg.seed))
    n, dt, horizon = kernel.n, cfg.dt, kernel.model.horizon
    # a horizon within a relative 1e-9 of a multiple of dt is that
    # multiple; otherwise a last step shorter than dt ends at the horizon
    n_steps = max(1, math.ceil(horizon / dt - 1e-9))
    last = horizon - (n_steps - 1) * dt
    if last >= dt * (1.0 - 1e-9):
        last = dt
    bridged = kernel.bridged
    all_bridged = len(bridged) == len(kernel.safe)
    const_v = None
    if kernel.variances_constant:
        const_v = np.array(kernel.crossing_variances(None), dtype=float)[:, None]
    tau = np.full(cfg.paths, horizon)
    capped = np.ones(cfg.paths, dtype=bool)
    flagged = 0

    for first in range(0, cfg.paths, CHUNK):
        state = kernel.start(min(CHUNK, cfg.paths - first))
        ids = np.arange(first, first + state.shape[1])
        q_prev = kernel.safe_values(kernel.slots(state, 0.0))
        integral = None
        for step in range(n_steps):
            t = step * dt
            h = dt if step < n_steps - 1 else last
            if ids.size == 0:
                break
            slots = kernel.slots(state, t)
            if occupation is not None:
                values = occupation(slots) * h
                if integral is None:
                    integral = np.zeros_like(values)
                integral += values
            z = rng.standard_normal((ids.size, kernel.d))
            new = kernel.advance(slots, z.T, h, math.sqrt(h))

            finite = np.isfinite(new[:n]).all(axis=0)
            if finite.all():
                finite = None
            else:
                bad = ~finite
                flagged += int(bad.sum())
                tau[ids[bad]] = np.nan
                capped[ids[bad]] = False
                new[:n, bad] = state[:n, bad]  # keep finite for the q evaluation

            t_new = min((step + 1) * dt, horizon)
            new_slots = kernel.slots(new, t_new)
            kernel.fill_atoms(new_slots, new)
            q_new = kernel.safe_values(new_slots)

            crossed = (q_new < 0).any(axis=0)
            rows = np.flatnonzero(crossed if finite is None else crossed & finite)
            facets = theta = rows
            if rows.size:
                facets = np.argmin(q_new[:, rows], axis=0)
                qp = q_prev[facets, rows]
                qn = q_new[facets, rows]
                denom = np.where(qp - qn > 1e-300, qp - qn, 1.0)
                theta = np.clip(qp / denom, 0.0, 1.0)

            inside = ~crossed if finite is None else ~crossed & finite
            if inside.any():
                u = rng.random(ids.size)
                if bridged:
                    if all_bridged:
                        qb_prev, qb_new = q_prev, q_new
                    else:
                        qb_prev, qb_new = q_prev[bridged], q_new[bridged]
                    v = const_v
                    if v is None:
                        v = np.empty(qb_new.shape)
                        for row, value in zip(v, kernel.crossing_variances(slots)):
                            row[...] = value
                    vdt = v * h
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
                tau[ids[rows]] = t + theta * h
                capped[ids[rows]] = False
                if exit_state is not None:
                    x0 = state[:n, rows]
                    exit_state(
                        ids[rows], x0 + theta * (new[:n, rows] - x0),
                        t + theta * h, facets, t_new,
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

        if exit_state is not None and ids.size:
            exit_state(ids, state[:n], np.full(ids.size, horizon),
                       None, horizon, integral)

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
    """Estimate exit-time moments E[(tau ^ T)^n], n = 1 .. ``MOMENT_ORDERS``,
    by Euler-Maruyama up to the model's horizon T.

    Paths alive at the horizon are capped.  Non-finite states flag the
    path; more than 0.1% flagged aborts the run.
    """
    tau, capped, flagged = _simulate_paths(SdeKernel(model), cfg)
    good = np.isfinite(tau)
    tau = tau[good]
    capped = capped[good]
    if tau_out is not None:
        tau_out.append((tau, capped))

    moments = {}
    npaths = tau.size
    for order in range(1, MOMENT_ORDERS + 1):
        powers = tau**order
        mean = float(powers.mean())
        se = float(powers.std(ddof=1) / math.sqrt(npaths)) if npaths > 1 else 0.0
        moments[order] = (mean, se, mean - 1.96 * se, mean + 1.96 * se)
    return McEstimate(
        moments=moments,
        exit_fraction=float(1.0 - capped.mean()),
        paths=npaths,
        dt=cfg.dt,
        horizon=model.horizon,
        flagged=flagged,
    )


# ---------------------------------------------------------------------------
# occupation / exit measure moments (for feasibility cross-checks)
# ---------------------------------------------------------------------------


@dataclass
class MeasureMoments:
    m_mean: np.ndarray
    b_mean: np.ndarray
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
    n = model.n
    scales = np.array([float(s) for s in augmented.scales])[:, None]
    aug_atoms = _compile_atoms(augmented.atoms)
    kernel = SdeKernel(model)
    # the Newton step's gradients of each safe polynomial
    grads = [[_Kernel(q.diff(i)) for i in range(n)] for q in model.safe_polys]

    def monomials(indices: list) -> list:
        return [_Kernel(Polynomial.monomial(len(alpha), alpha)) for alpha in indices]

    mono_m, mono_b = monomials(indices_m), monomials(indices_b)
    occ = np.zeros((cfg.paths, len(indices_m)))
    exit_pow = np.zeros((cfg.paths, len(indices_b)))

    def aug_coords(base: list) -> np.ndarray:
        """Augmented coordinates from the coordinate and time slots."""
        coords = np.empty((len(scales), base[0].shape[0]))
        for row, value in zip(coords[: n + 1], base):
            row[...] = value
        _fill_atoms(aug_atoms, coords, coords[n + 1:])
        coords /= scales
        return coords

    def occupation(slots):
        return _evaluate_rows(mono_m, aug_coords(slots))

    def exit_state(ids, x, times, facets, t_end, integrals):
        if facets is not None:
            # one Newton step onto the crossing facet so exit moments see
            # boundary-supported states
            for qi in np.unique(facets):
                sub = facets == qi
                pts = x[:, sub]
                slots = list(pts) + [t_end]
                g = _evaluate_rows(grads[qi], slots)
                nrm = (g * g).sum(axis=0)
                nrm = np.where(nrm > 1e-300, nrm, 1.0)
                x[:, sub] = pts - kernel.safe[qi](slots) / nrm * g
        if integrals is not None:
            occ[ids] = integrals.T
        exit_pow[ids] = _evaluate_rows(mono_b, aug_coords(list(x) + [times])).T

    tau, _, flagged = _simulate_paths(kernel, cfg, occupation, exit_state)
    if flagged:
        good = np.isfinite(tau)
        occ, exit_pow = occ[good], exit_pow[good]

    return MeasureMoments(occ.mean(axis=0), exit_pow.mean(axis=0), occ, exit_pow)
