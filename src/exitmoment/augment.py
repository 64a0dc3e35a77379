"""SDE models and state augmentation.

Transforms a user SDE into a time-augmented polynomial SDE over an
extended state that is closed under infinitesimal generation.  The user's
drift and diffusion entries are Polynomials that carry the sinusoids of
monomials they use as atoms (trailing variables named by the atom
registry); every such sin/cos becomes an extra state whose drift and
diffusion follow from Ito's formula, so all augmented entries are plain
polynomials over the extended state, without atoms.  An atom's drift is
``generator.generator``, the generator that gives the martingale rows,
with the ``sigma_sigma_t`` table built here for the augmentation, and its
diffusion row is ``generator.noise_projections``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .expr import Polynomial, TrigAtom, is_real, parse_expression, parse_polynomial
from .generator import generator, noise_projections, sigma_sigma_t

TIME_NAME = "t"


@dataclass
class SdeModel:
    """User-level SDE: drift/diffusion expressions, safe set, start state.

    Drift and diffusion entries are Polynomials over ``n + 1`` base slots
    that carry the sin/cos atoms they use as trailing variables; the last
    base slot is reserved for time so models may depend polynomially on
    ``t`` before ``augment`` makes it a dynamic state.
    """

    names: list          # n state names plus the trailing time name
    d: int               # Brownian dimension
    drift: list          # n Polynomials with atoms
    diffusion: list      # n rows of d Polynomials with atoms
    x0: list             # n floats, strictly inside the safe set
    horizon: float
    safe_polys: list     # Polynomials over the n+1 slots

    @property
    def n(self) -> int:
        return len(self.names) - 1

    @property
    def nslots(self) -> int:
        return len(self.names)

    def used_atoms(self) -> list:
        """The atoms the drift and diffusion entries use, each once, in the
        order of first use: the drift entries, then the diffusion rows."""
        entries = [*self.drift, *(g for row in self.diffusion for g in row)]
        return list(dict.fromkeys(a for e in entries for a in e.used_atoms()))

    @staticmethod
    def from_strings(
        names: Sequence[str],
        drift: Sequence[str],
        diffusion: Sequence[Sequence[str]],
        x0: Sequence[float],
        horizon: float,
        safe_polys: Sequence[str] = (),
    ) -> "SdeModel":
        if TIME_NAME in names:
            raise ValueError(f"{TIME_NAME!r} is reserved for the time variable")
        full = list(names) + [TIME_NAME]
        if len(drift) != len(names) or len(diffusion) != len(names):
            raise ValueError("need one drift entry and one diffusion row per state")
        d = len(diffusion[0]) if diffusion else 0
        if any(len(row) != d for row in diffusion):
            raise ValueError("diffusion rows must all have the same width")
        drift_e = [parse_expression(s, full) for s in drift]
        diff_e = [[parse_expression(s, full) for s in row] for row in diffusion]
        safe = [parse_polynomial(s, full) for s in safe_polys]
        if len(x0) != len(names):
            raise ValueError("x0 dimension must match the state dimension")
        x0 = [float(v) for v in x0]
        if not all(map(math.isfinite, x0)):
            raise ValueError("x0 must be finite")
        if not (is_real(horizon) and math.isfinite(horizon) and horizon > 0):
            raise ValueError("horizon must be positive and finite, as a real number")
        horizon = float(horizon)
        point = x0 + [0.0]
        for i, q in enumerate(safe):
            if q.evaluate(point) <= 0:
                raise ValueError(
                    f"x0 is not strictly inside the safe set: polynomial {i} "
                    f"evaluates to {q.evaluate(point)}"
                )
        return SdeModel(full, d, drift_e, diff_e, x0, horizon, safe)


@dataclass
class AugmentedModel:
    """Time- and trig-augmented SDE with purely polynomial dynamics.

    Variable order is [x_1..x_n, t, atoms...] with atoms listed sines
    first then cosines (frequency collection order), matching the moment
    indexing used downstream.

    The occupation measure's support is described by two lists:
    ``interior_polys`` holds the polynomials g with g >= 0 on it (each a
    localizing block M(g m) downstream), and ``interior_eqs`` those with
    g = 0 on it (each lowered as equality rows, never as a pair of
    blocks of g and -g).

    ``exit_polys`` are the polynomials whose product vanishes on the
    exit-reachable part of the boundary: the safe set and the horizon
    facet T - t.  The facet t = 0 carries no exit mass (the start state is
    interior) and must stay out of the product, otherwise the point mass
    at the start state satisfies every boundary constraint.
    """

    time_index: int
    atoms: list                 # TrigAtom per appended state
    d: int
    drift: list                 # Polynomials over total_dim vars
    diffusion: list             # rows of Polynomials
    x0: list                    # floats, length total_dim
    horizon: float
    interior_polys: list        # g >= 0: safe set, t, T - t, then 1 - a^2 per atom
    interior_eqs: list          # g = 0: sin^2 + cos^2 - 1 per frequency
    exit_polys: list            # safe set, then T - t
    scales: list                # per-var scale already applied

    @property
    def total_dim(self) -> int:
        return len(self.x0)


def collect_trig_atoms(model: SdeModel) -> list:
    """All atoms needed to close the dynamics (differentiation swaps sine
    and cosine): the sines, then the cosines, of the (frequency, argument)
    pairs of ``model.used_atoms()``, those of its sines first."""
    used = model.used_atoms()
    pairs = dict.fromkeys((a.freq, a.arg) for kind in ("sin", "cos")
                          for a in used if a.kind == kind)
    return [TrigAtom(kind, f, a) for kind in ("sin", "cos") for f, a in pairs]


def augment(model: SdeModel) -> AugmentedModel:
    """Append time, then sin/cos states so the dynamics close under the
    generator.

    Time becomes state n with drift 1, a zero diffusion row and start
    value 0, boxed by ``t >= 0`` and ``T - t >= 0``.  Each atom state a(x)
    then gets the drift L a of the generator (Ito's formula, time among
    the states) and the diffusion row sum_i da/dx_i sigma_ik; afterwards
    every atom occurrence is renamed to its state variable, leaving pure
    polynomials.  Each atom state is boxed by ``1 - a^2 >= 0``, and each
    sine and cosine of one frequency and argument satisfy the equality
    ``sin^2 + cos^2 - 1 = 0``, listed once in ``interior_eqs``.
    """
    nslots = model.nslots
    atoms = collect_trig_atoms(model)
    drift = list(model.drift) + [Polynomial.constant(nslots, 1)]
    diffusion = ([list(row) for row in model.diffusion]
                 + [[Polynomial.zero(nslots)] * model.d])

    sst = sigma_sigma_t(diffusion)
    atom_drift = []
    atom_diffusion = []
    for a in atoms:
        e = Polynomial.atom(nslots, a)
        atom_drift.append(generator(e, drift, sst))
        atom_diffusion.append(noise_projections(e, diffusion))

    total = nslots + len(atoms)

    def to_poly(expr: Polynomial) -> Polynomial:
        return Polynomial(total, expr.with_atoms(atoms).terms)

    drift_p = [to_poly(e) for e in drift + atom_drift]
    diff_p = [[to_poly(e) for e in row] for row in diffusion + atom_diffusion]

    base_point = list(model.x0) + [0.0]
    x0 = base_point + [a.value(base_point) for a in atoms]

    safe = [q.remap_vars(total, list(range(nslots))) for q in model.safe_polys]
    t_poly = Polynomial.variable(total, model.n)
    horizon_facet = Polynomial.constant(total, model.horizon) - t_poly

    # atom states lie in [-1, 1], and sine j and cosine half + j (the order
    # of ``collect_trig_atoms``) lie on the unit circle
    states = [Polynomial.variable(total, nslots + i) for i in range(len(atoms))]
    trig = [Polynomial.constant(total, 1) - v * v for v in states]
    half = len(atoms) // 2
    circles = [s * s + c * c - 1 for s, c in zip(states[:half], states[half:])]

    return AugmentedModel(
        time_index=model.n,
        atoms=atoms,
        d=model.d,
        drift=drift_p,
        diffusion=diff_p,
        x0=x0,
        horizon=model.horizon,
        interior_polys=safe + [t_poly, horizon_facet] + trig,
        interior_eqs=circles,
        exit_polys=safe + [horizon_facet],
        scales=[Fraction(1)] * total,
    )


# ---------------------------------------------------------------------------
# Unit-box scaling
# ---------------------------------------------------------------------------


def infer_box(polys, total_dim) -> dict:
    """Per-variable bounds found among degree-1 single-variable polynomials."""
    bounds: dict = {}
    for q in polys:
        if q.degree() != 1:
            continue
        vars_used = {i for alpha in q.terms for i, e in enumerate(alpha) if e > 0}
        if len(vars_used) != 1:
            continue
        (var,) = vars_used
        a = q.coefficient(tuple(1 if i == var else 0 for i in range(total_dim)))
        b = q.coefficient((0,) * total_dim)
        if a == 0:
            continue
        # a*x + b >= 0 pins x at -b/a on the facet
        bounds.setdefault(var, []).append(float(-b / a))
    return bounds


# Scaled time box: t~ ranges over [0, TIME_BOX].  Mapping the horizon all
# the way to 1 crushes high-order time moments below solver resolution
# (the order-6 objective lands near 1e-7 for a horizon of 10), while
# leaving time unscaled makes the box moments span many decades; a box of
# a few units keeps both ends resolvable.
TIME_BOX = 5.0


def unit_scales(model: AugmentedModel) -> list:
    """Scale factor per variable mapping known boxes into [-1, 1].

    Time is scaled so its box becomes [0, TIME_BOX]; atom states already
    live in [-1, 1] (their box polynomials have degree 2, which
    ``infer_box`` skips); unboxed variables are left alone.
    """
    total = model.total_dim
    scales = [Fraction(1)] * total
    bounds = infer_box(model.interior_polys, total)
    for var, vals in bounds.items():
        s = max(abs(v) for v in vals)
        if s > 0 and var != model.time_index:
            scales[var] = Fraction(s).limit_denominator(10**9)
    scales[model.time_index] = Fraction(
        model.horizon / TIME_BOX).limit_denominator(10**9)
    return scales


def scale_model(model: AugmentedModel) -> AugmentedModel:
    """Substitute x_i -> s_i * x_i, with the ``unit_scales`` s, so boxes
    land in the unit cube.

    Works directly on the polynomial model (real time is untouched, only
    the time *variable* is rescaled), so drift entry i picks up 1/s_i and
    the substituted arguments s_j x_j.  The support polynomials (interior,
    equality and exit lists) are renormalized to unit max coefficient.
    Moments transform as m_alpha -> prod(s^alpha) m_alpha; order-n exit
    moments unscale by s_t^(n-1).
    """
    scales = unit_scales(model)
    if any(s <= 0 for s in scales):
        raise ValueError("scale factors must be positive")

    def normalized(q: Polynomial) -> Polynomial:
        m = q.scale_vars(scales)
        top = m.max_coefficient()
        return m * (1 / top) if top not in (0, 1) else m

    drift = [h.scale_vars(scales) * (1 / s)
             for h, s in zip(model.drift, scales)]
    diffusion = [[g.scale_vars(scales) * (1 / s) for g in row]
                 for row, s in zip(model.diffusion, scales)]
    x0 = [v / float(s) for v, s in zip(model.x0, scales)]
    scaled = AugmentedModel(
        time_index=model.time_index,
        atoms=list(model.atoms),
        d=model.d,
        drift=drift,
        diffusion=diffusion,
        x0=x0,
        horizon=model.horizon / float(scales[model.time_index]),
        interior_polys=[normalized(q) for q in model.interior_polys],
        interior_eqs=[normalized(q) for q in model.interior_eqs],
        exit_polys=[normalized(q) for q in model.exit_polys],
        scales=[a * b for a, b in zip(model.scales, scales)],
    )
    return scaled


def moment_unscale_factor(model: AugmentedModel, order: int) -> float:
    """Multiplier restoring order-n exit-time moments to original units."""
    return float(model.scales[model.time_index]) ** (order - 1)
