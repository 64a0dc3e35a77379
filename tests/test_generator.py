import random
from fractions import Fraction

import pytest

from exitmoment.augment import augment
from exitmoment.expr import Polynomial, count_upto, enumerate_multi_indices
from exitmoment.generator import (
    emit_all_rows,
    generator,
    martingale_row,
    sigma_sigma_t,
)

from models import BROWNIAN, PENDULUM, SINE, sde

BROWNIAN_MODEL, SPRING, TRIG = (augment(sde(spec)) for spec in (BROWNIAN, PENDULUM, SINE))


# ---------------------------------------------------------------------------
# generator images
# ---------------------------------------------------------------------------


def image(model, k):
    """The library generator applied to the monomial x^k."""
    f = Polynomial.monomial(model.total_dim, k)
    return generator(f, model.drift, sigma_sigma_t(model.diffusion))


def closed_form_image(model, k):
    """Independent oracle: the generator image of x^k from the closed-form
    monomial derivatives k_i x^(k - e_i) and k_i k_j x^(k - e_i - e_j),
    with sigma sigma^T summed here over the noise columns."""
    n = model.total_dim
    out = Polynomial.zero(n)
    for i in range(n):
        if k[i] == 0:
            continue
        df = tuple(e - 1 if idx == i else e for idx, e in enumerate(k))
        out = out + model.drift[i] * Polynomial.monomial(n, df, k[i])
    for i in range(n):
        for j in range(i, n):
            entry = Polynomial.zero(n)
            for c in range(model.d):
                entry = entry + model.diffusion[i][c] * model.diffusion[j][c]
            if i == j:
                if k[i] < 2:
                    continue
                coef = Fraction(k[i] * (k[i] - 1), 2)
                d2 = tuple(e - 2 if idx == i else e for idx, e in enumerate(k))
            else:
                if k[i] == 0 or k[j] == 0:
                    continue
                coef = Fraction(k[i] * k[j])  # both (i,j) and (j,i), halved
                d2 = tuple(e - (idx == i) - (idx == j)
                           for idx, e in enumerate(k))
            out = out + entry * Polynomial.monomial(n, d2, coef)
    return out


def test_generator_of_time_is_one():
    m = BROWNIAN_MODEL
    assert image(m, (0, 1)) == Polynomial.constant(2, 1)


def test_generator_of_y_squared_is_one():
    m = BROWNIAN_MODEL
    assert image(m, (2, 0)) == Polynomial.constant(2, 1)


def test_generator_of_constant_is_zero():
    for m in (BROWNIAN_MODEL, SPRING, TRIG):
        assert image(m, (0,) * m.total_dim).is_zero()


def test_brownian_generator_structure_up_to_degree_four():
    # Af must equal df/dt + (1/2) d2f/dy2 for every monomial
    m = BROWNIAN_MODEL
    for k in enumerate_multi_indices(2, 4):
        f = Polynomial.monomial(2, k)
        expected = f.diff(1) + f.diff(0).diff(0) * Fraction(1, 2)
        assert image(m, k) == expected


def test_generator_linearity_against_polynomial_path():
    rng = random.Random(3)
    for m in (BROWNIAN_MODEL, SPRING):
        idx = enumerate_multi_indices(m.total_dim, 3)
        for _ in range(10):
            a, b = rng.sample(idx, 2)
            ca = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            cb = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            combo = (Polynomial.monomial(m.total_dim, a, ca)
                     + Polynomial.monomial(m.total_dim, b, cb))
            direct = generator(combo, m.drift, sigma_sigma_t(m.diffusion))
            split = (closed_form_image(m, a) * ca
                     + closed_form_image(m, b) * cb)
            assert direct == split
    # every row image equals the closed form, monomial by monomial
    for m in (BROWNIAN_MODEL, SPRING, TRIG):
        for k in enumerate_multi_indices(m.total_dim, 4):
            assert image(m, k) == closed_form_image(m, k), k


def finite_difference_generator(model, k, point, h=1e-4):
    """Numeric Eq.-4 evaluation with central differences of f = x^k."""

    def f(x):
        val = 1.0
        for xi, e in zip(x, k):
            if e:
                val *= xi**e
        return val

    n = model.total_dim
    sst = sigma_sigma_t(model.diffusion)
    total = 0.0
    for i in range(n):
        up = list(point)
        dn = list(point)
        up[i] += h
        dn[i] -= h
        di = (f(up) - f(dn)) / (2 * h)
        total += model.drift[i].evaluate(point) * di
    for i in range(n):
        for j in range(n):
            entry = sst.get((min(i, j), max(i, j)))
            if entry is None:
                continue
            if i == j:
                up = list(point)
                dn = list(point)
                up[i] += h
                dn[i] -= h
                d2 = (f(up) - 2 * f(point) + f(dn)) / h**2
            else:
                pp = list(point); pm = list(point)
                mp = list(point); mm = list(point)
                pp[i] += h; pp[j] += h
                pm[i] += h; pm[j] -= h
                mp[i] -= h; mp[j] += h
                mm[i] -= h; mm[j] -= h
                d2 = (f(pp) - f(pm) - f(mp) + f(mm)) / (4 * h**2)
            total += 0.5 * entry.evaluate(point) * d2
    return total


@pytest.mark.parametrize("model", [BROWNIAN_MODEL, SPRING, TRIG],
                         ids=["brownian", "spring", "trig"])
def test_generator_matches_finite_difference_oracle(model):
    rng = random.Random(17)
    idx = [k for k in enumerate_multi_indices(model.total_dim, 3) if sum(k) > 0]
    for _ in range(20):
        k = rng.choice(idx)
        point = [rng.uniform(0.2, 0.9) for _ in range(model.total_dim)]
        sym = image(model, k).evaluate(point)
        num = finite_difference_generator(model, k, point)
        assert sym == pytest.approx(num, rel=1e-5, abs=1e-6)


# ---------------------------------------------------------------------------
# martingale rows
# ---------------------------------------------------------------------------


def brownian_row(k):
    model = BROWNIAN_MODEL
    return martingale_row(model, k, sigma_sigma_t(model.diffusion))


def test_degree_zero_row_is_mass_normalization():
    row = brownian_row((0, 0))
    assert row.interior_coeffs == {}
    assert row.constant == 1.0
    assert row.test_index == (0, 0)


def test_first_time_moment_row():
    # A(t) = 1, x0 has time component 0: m_00 - b_t = 0
    row = brownian_row((0, 1))
    assert row.interior_coeffs == {(0, 0): Fraction(1)}
    assert row.constant == 0.0


def test_y_squared_row_carries_initial_constant():
    row = brownian_row((2, 0))
    assert row.interior_coeffs == {(0, 0): Fraction(1)}
    assert row.constant == pytest.approx(0.25)


def test_emit_rows_low_degree_brownian():
    rows = emit_all_rows(BROWNIAN_MODEL, 1)
    assert [r.test_index for r in rows] == [(0, 0), (1, 0), (0, 1)]


def test_emit_rows_degree_zero():
    rows = emit_all_rows(BROWNIAN_MODEL, 0)
    assert len(rows) == 1
    assert rows[0].test_index == (0, 0)


def test_emit_rows_drop_overflowing_images():
    model = SPRING
    K = 4
    dropped = []
    rows = emit_all_rows(model, K, dropped=dropped)
    assert len(rows) + len(dropped) == count_upto(model.total_dim, K)
    assert len(rows) <= count_upto(model.total_dim, K)
    for row in rows:
        for j in row.interior_coeffs:
            assert sum(j) <= K
    for k in dropped:
        assert image(model, k).degree() > K


def test_rows_sorted_by_graded_lex():
    from exitmoment.expr import grlex_key

    rows = emit_all_rows(SPRING, 3)
    keys = [grlex_key(r.test_index) for r in rows]
    assert keys == sorted(keys)
