import math
import random
from fractions import Fraction

import pytest

from exitmoment.augment import (
    SdeModel,
    augment,
    collect_trig_atoms,
    moment_unscale_factor,
    scale_model,
    unit_scales,
)
from exitmoment.expr import Polynomial, TrigAtom


def brownian_model(T=10.0):
    return SdeModel.from_strings(
        names=["y"], drift=["0"], diffusion=[["1"]],
        x0=[0.5], horizon=T, safe_polys=["y", "1 - y"],
    )


def trig_model():
    # dX = sin(x) dt + cos(x) dB, started inside (0, 1)
    return SdeModel.from_strings(
        names=["x"], drift=["sin(x)"], diffusion=[["cos(x)"]],
        x0=[0.5], horizon=1.0, safe_polys=["x", "1 - x"],
    )


def spring_model(lower=-2.0, T=10.0):
    return SdeModel.from_strings(
        names=["x", "v"],
        drift=["v", "-5*x - 9.81 + v*sin(x)"],
        diffusion=[["0"], ["1"]],
        x0=[-9.81 / 5.0, 0.0],
        horizon=T,
        safe_polys=[f"-x", f"x - {lower}"],
    )


def two_noise_model():
    return SdeModel.from_strings(
        names=["x", "y"],
        drift=["y - x*cos(x*y)", "sin(t) - 0.5*y"],
        diffusion=[["0.3 + 0.1*y", "0.2*x"], ["0.1*x*y", "0.4"]],
        x0=[0.1, -0.2], horizon=2.0, safe_polys=["1 - x^2 - y^2"],
    )


# ---------------------------------------------------------------------------
# time augmentation
# ---------------------------------------------------------------------------


def test_time_augmentation_brownian():
    m = augment(brownian_model())
    assert len(m.drift) == 2
    assert m.drift[1] == Polynomial.constant(2, 1)
    assert m.diffusion[1][0].is_zero()
    assert m.x0 == [0.5, 0.0]
    # box polynomials t >= 0 and T - t >= 0
    t = Polynomial.variable(2, 1)
    assert m.interior_polys[2:] == [t, Polynomial.constant(2, 10) - t]
    assert m.interior_eqs == []


def test_time_augmentation_deterministic_model():
    m = SdeModel.from_strings(["x"], ["0"], [["0"]], [0.0], 1.0,
                              ["1 - x^2"])
    am = augment(m)
    assert am.drift[0].is_zero()
    assert am.drift[1] == Polynomial.constant(2, 1)
    assert all(g.is_zero() for row in am.diffusion for g in row)


def test_spring_time_slot_is_third():
    m = augment(spring_model())
    assert m.time_index == 2
    assert m.drift[2] == Polynomial.constant(5, 1)


# ---------------------------------------------------------------------------
# atom collection
# ---------------------------------------------------------------------------


def test_collect_empty_for_polynomial_model():
    assert collect_trig_atoms(brownian_model()) == []


def test_collect_sin_and_cos_from_mixed_dynamics():
    atoms = collect_trig_atoms(trig_model())
    arg = (1, 0)  # x slot, time slot
    assert atoms == [TrigAtom("sin", Fraction(1), arg),
                     TrigAtom("cos", Fraction(1), arg)]


def test_collect_adds_derivative_partner():
    atoms = collect_trig_atoms(spring_model())
    arg = (1, 0, 0)
    assert atoms == [TrigAtom("sin", Fraction(1), arg),
                     TrigAtom("cos", Fraction(1), arg)]


# ---------------------------------------------------------------------------
# sinusoidal augmentation: exact dynamics
# ---------------------------------------------------------------------------


def test_sin_cos_system_augments_to_reference_dynamics():
    am = augment(trig_model())
    # variable order [x, t, sin(x), cos(x)]
    assert am.total_dim == 4
    S, C = 2, 3

    def mono(**exps):
        alpha = [0, 0, 0, 0]
        for k, v in exps.items():
            alpha[{"x": 0, "t": 1, "s": S, "c": C}[k]] = v
        return tuple(alpha)

    assert am.drift[0] == Polynomial(4, {mono(s=1): 1})
    assert am.drift[1] == Polynomial(4, {mono(): 1})
    # d sin(x): cos*sin - (1/2) sin*cos^2
    assert am.drift[2] == Polynomial(
        4, {mono(s=1, c=1): 1, mono(s=1, c=2): Fraction(-1, 2)})
    # d cos(x): -sin^2 - (1/2) cos^3
    assert am.drift[3] == Polynomial(
        4, {mono(s=2): -1, mono(c=3): Fraction(-1, 2)})
    assert am.diffusion[0][0] == Polynomial(4, {mono(c=1): 1})
    assert am.diffusion[1][0].is_zero()
    assert am.diffusion[2][0] == Polynomial(4, {mono(c=2): 1})
    assert am.diffusion[3][0] == Polynomial(4, {mono(s=1, c=1): -1})


def test_polynomial_model_unchanged_besides_time():
    am = augment(brownian_model())
    assert am.total_dim == 2
    assert am.atoms == []
    assert am.drift[0].is_zero()
    assert am.drift[1] == Polynomial.constant(2, 1)
    assert am.diffusion[0][0] == Polynomial.constant(2, 1)


def test_spring_mass_damper_augmentation():
    am = augment(spring_model())
    assert am.total_dim == 5
    X, V, T, S, C = range(5)

    def mono(**exps):
        alpha = [0] * 5
        for k, v in exps.items():
            alpha[{"x": X, "v": V, "t": T, "s": S, "c": C}[k]] = v
        return tuple(alpha)

    assert am.drift[0] == Polynomial(5, {mono(v=1): 1})
    assert am.drift[1] == Polynomial(5, {
        mono(x=1): -5, mono(): Fraction(-981, 100), mono(v=1, s=1): 1})
    assert am.drift[2] == Polynomial(5, {mono(): 1})
    # sin state: v cos(x); cos state: -v sin(x); both with zero diffusion
    assert am.drift[3] == Polynomial(5, {mono(v=1, c=1): 1})
    assert am.drift[4] == Polynomial(5, {mono(v=1, s=1): -1})
    assert am.diffusion[3][0].is_zero()
    assert am.diffusion[4][0].is_zero()
    assert am.diffusion[1][0] == Polynomial.constant(5, 1)
    # initial atom values are sin/cos of the starting position
    assert am.x0[S] == pytest.approx(math.sin(-9.81 / 5))
    assert am.x0[C] == pytest.approx(math.cos(-9.81 / 5))


def test_augmented_dimension_counts_unique_pairs():
    for model, pairs in [(brownian_model(), 0), (trig_model(), 1),
                         (spring_model(), 1), (two_noise_model(), 2)]:
        am = augment(model)
        n = len(model.names) - 1
        assert am.total_dim == n + 1 + 2 * pairs
        # closed: every augmented entry is a plain polynomial
        entries = list(am.drift) + [g for row in am.diffusion for g in row]
        assert len(am.drift) == len(am.diffusion) == am.total_dim
        assert all(len(row) == am.d for row in am.diffusion)
        assert all(isinstance(p, Polynomial) and p.nvars == am.total_dim
                   for p in entries)


def test_atom_dynamics_match_finite_difference_ito():
    # two noise columns and an atom of two noisy coordinates exercise the
    # off-diagonal sigma sigma^T terms; sin(t) has time inside its argument
    model = two_noise_model()
    am = augment(model)
    n_slots = model.nslots
    h = 1e-4
    rng = random.Random(5)
    for _ in range(10):
        p = [rng.uniform(-0.8, 0.8) for _ in range(n_slots)]
        full = p + [a.value(p) for a in am.atoms]
        # the user's dynamics, then time's drift 1 and zero diffusion row
        drift = [e.evaluate(p) for e in model.drift] + [1.0]
        sigma = ([[g.evaluate(p) for g in row] for row in model.diffusion]
                 + [[0.0] * am.d])
        for idx, atom in enumerate(am.atoms):
            f = atom.value

            def shifted(*moves):
                q = list(p)
                for i, step in moves:
                    q[i] += step
                return f(q)

            grad = [(shifted((i, h)) - shifted((i, -h))) / (2 * h)
                    for i in range(n_slots)]
            expected = sum(b * g for b, g in zip(drift, grad))
            for i in range(n_slots):
                for j in range(n_slots):
                    sst = sum(sigma[i][c] * sigma[j][c] for c in range(am.d))
                    d2 = (shifted((i, h), (j, h)) - shifted((i, h), (j, -h))
                          - shifted((i, -h), (j, h))
                          + shifted((i, -h), (j, -h))) / (4 * h * h)
                    expected += 0.5 * sst * d2
            row = n_slots + idx
            assert am.drift[row].evaluate(full) == pytest.approx(
                expected, rel=1e-5, abs=1e-6)
            for c in range(am.d):
                noise = sum(grad[i] * sigma[i][c] for i in range(n_slots))
                assert am.diffusion[row][c].evaluate(full) == pytest.approx(
                    noise, rel=1e-6, abs=1e-7)


def test_sinusoidal_augmentation_idempotent_on_closed_model():
    m = brownian_model()
    am = augment(m)
    am2 = augment(m)
    assert am.drift == am2.drift
    assert am.total_dim == am2.total_dim == 2


def test_trig_box_polynomials_present():
    am = augment(trig_model())
    total = am.total_dim
    S, C = 2, 3
    one = Polynomial.constant(total, 1)
    s = Polynomial.variable(total, S)
    c = Polynomial.variable(total, C)
    circle = s * s + c * c - 1
    trig_polys = am.interior_polys[4:]     # after x, 1 - x, t, T - t
    assert trig_polys == [one - s * s, one - c * c]
    # the circle is one equality, not a pair of inequalities
    assert am.interior_eqs == [circle]
    assert -circle not in am.interior_polys


@pytest.mark.parametrize("make_model", [trig_model, two_noise_model],
                         ids=["trig", "two_noise"])
def test_exit_polynomials_are_interior_polynomials(make_model):
    """The safe set and the horizon facet sit in both lists, before and
    after scaling, so both lists must be normalized alike."""
    sde = make_model()
    am = augment(sde)
    for model in (am, scale_model(am)):
        assert len(model.exit_polys) == len(sde.safe_polys) + 1
        assert all(q in model.interior_polys for q in model.exit_polys)


# ---------------------------------------------------------------------------
# model validation
# ---------------------------------------------------------------------------


def test_x0_on_boundary_rejected_by_default():
    with pytest.raises(ValueError):
        SdeModel.from_strings(["y"], ["0"], [["1"]], [0.0], 1.0,
                              ["y", "1 - y"])


@pytest.mark.parametrize("horizon", [0.0, -1.0, float("nan"), float("inf"), True])
def test_horizon_must_be_positive_and_finite(horizon):
    with pytest.raises(ValueError, match="horizon"):
        SdeModel.from_strings(["y"], ["0"], [["1"]], [0.5], horizon,
                              ["y", "1 - y"])


# ---------------------------------------------------------------------------
# unit-box scaling
# ---------------------------------------------------------------------------


def test_unit_scales_brownian():
    am = augment(brownian_model(T=10.0))
    scales = unit_scales(am)
    assert scales == [Fraction(1), Fraction(2)]  # time box becomes [0, 5]


def test_scaled_spring_dynamics():
    am = augment(spring_model(T=10.0))
    scaled = scale_model(am)
    assert scaled.scales[0] == 2          # x in [-2, 0]
    assert scaled.scales[1] == 1          # v unbounded
    assert scaled.scales[2] == 2          # time box [0, 5]
    # dx~ = (s_v / s_x) v~ = v~/2
    assert scaled.drift[0] == Polynomial(5, {(0, 1, 0, 0, 0): Fraction(1, 2)})
    assert scaled.horizon == pytest.approx(5.0)
    assert scaled.x0[0] == pytest.approx(-9.81 / 10.0)
    # time box normalizes to t~ and 1 - t~/5
    t = Polynomial.variable(5, 2)
    assert t in scaled.interior_polys
    assert Polynomial.constant(5, 1) - t * Fraction(1, 5) in scaled.interior_polys
    # the atom states keep scale 1, so the circle keeps its coefficients
    s, c = Polynomial.variable(5, 3), Polynomial.variable(5, 4)
    assert scaled.interior_eqs == [s * s + c * c - 1]


def test_unscale_factor_powers_of_time_scale():
    am = augment(brownian_model(T=10.0))
    scaled = scale_model(am)
    assert moment_unscale_factor(scaled, 1) == pytest.approx(1.0)
    assert moment_unscale_factor(scaled, 3) == pytest.approx(4.0)
    assert moment_unscale_factor(am, 4) == pytest.approx(1.0)
