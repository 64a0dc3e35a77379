import hashlib
import math
import warnings

import numpy as np
import pytest

import exitmoment.mc as mc
from exitmoment.augment import SdeModel, augment, scale_model
from exitmoment.mc import (
    NEAR_BOUNDARY,
    McConfig,
    _bridge_survival,
    measure_moments,
    simulate_exit,
)
from exitmoment.expr import enumerate_multi_indices
from exitmoment.generator import emit_all_rows


def brownian(T=10.0):
    return SdeModel.from_strings(
        ["y"], ["0"], [["1"]], [0.5], T, ["y", "1 - y"])


def trig_system():
    return SdeModel.from_strings(
        ["x"], ["sin(x)"], [["cos(x)"]], [0.5], 1.0, ["x + 4", "4 - x"])


def spring(lower=-2.0, T=10.0):
    return SdeModel.from_strings(
        ["x", "v"], ["v", "-5*x - 9.81 + v*sin(x)"], [["0"], ["1"]],
        [-9.81 / 5, 0.0], T, ["-x", f"x + {-lower}"])


def cos_diffusion():
    # state-dependent crossing variance cos(x)^2, narrow enough that paths
    # leave through the grid and through the bridge test
    return SdeModel.from_strings(
        ["x"], ["sin(x)"], [["cos(x)"]], [0.5], 5.0, ["x + 1", "1 - x"])


def coupled_2d(noisy_x=True):
    # two noise columns, state-dependent variances, four safe polynomials;
    # without noise on x, "x + 0.9" takes no part in the bridge test
    x_row = ["0.5 + 0.2*x*y", "0.3*y"] if noisy_x else ["0", "0"]
    return SdeModel.from_strings(
        ["x", "y"], ["-x + y*cos(x)", "-y + 0.3*x"],
        [x_row, ["0.4*x", "0.6 + 0.1*sin(y)"]], [0.1, -0.2], 2.0,
        ["1 - x^2 - y^2", "x + 0.9", "0.8 - y", "1.5 - x - y"])


@pytest.mark.parametrize("field, value", [
    ("dt", 0.0), ("dt", -1e-3), ("dt", float("nan")), ("dt", float("inf")),
    ("dt", True), ("dt", "0.001"),
    ("paths", 0), ("paths", 100.5), ("paths", True),
    ("seed", -1), ("seed", 1.5), ("seed", True), ("seed", 2**128),
])
def test_config_rejects_out_of_range_field(field, value):
    with pytest.raises(ValueError, match=field.rstrip("s")):
        McConfig(**{field: value})


def test_brownian_first_moment_brackets_quarter():
    est = simulate_exit(brownian(), McConfig(dt=2e-4, paths=50_000, seed=7))
    mean, se = est.mean(1), est.se(1)
    assert abs(mean - 0.25) < 3 * se + 1e-3
    lo, hi = est.moments[1][2:]
    assert lo < mean < hi


def test_bridge_correction_removes_monitoring_bias(monkeypatch):
    with_bridge = simulate_exit(
        brownian(), McConfig(dt=1e-3, paths=60_000, seed=3))
    # no bridge exponent exceeds an infinite threshold: grid crossings only
    monkeypatch.setattr(mc, "NEAR_BOUNDARY", math.inf)
    without = simulate_exit(
        brownian(), McConfig(dt=1e-3, paths=60_000, seed=3))
    # discrete monitoring alone overshoots by ~0.58 sqrt(dt) of barrier width
    assert without.mean(1) - 0.25 > 0.01
    assert abs(with_bridge.mean(1) - 0.25) < 3 * with_bridge.se(1) + 1e-3


def test_determinism_bit_identical():
    cfg = McConfig(dt=1e-3, paths=20_000, seed=123)
    a = simulate_exit(brownian(), cfg)
    b = simulate_exit(brownian(), cfg)
    assert a.moments == b.moments
    assert a.exit_fraction == b.exit_fraction
    c = simulate_exit(brownian(), McConfig(dt=1e-3, paths=20_000, seed=124))
    assert c.moments[1] != a.moments[1]


def test_jensen_moment_ordering():
    est = simulate_exit(brownian(), McConfig(dt=1e-3, paths=20_000, seed=5))
    for order in range(2, 5):
        assert est.mean(1) ** order <= est.mean(order) + 1e-12


def test_ci_width_shrinks_like_root_paths():
    widths = []
    for paths in (10_000, 40_000, 160_000):
        est = simulate_exit(brownian(), McConfig(dt=1e-3, paths=paths, seed=2))
        lo, hi = est.moments[1][2:]
        widths.append(hi - lo)
    assert widths[0] / widths[1] == pytest.approx(2.0, rel=0.25)
    assert widths[1] / widths[2] == pytest.approx(2.0, rel=0.25)


def test_dt_refinement_consistency():
    est_a = simulate_exit(brownian(), McConfig(dt=2e-3, paths=40_000, seed=11))
    est_b = simulate_exit(brownian(), McConfig(dt=1e-3, paths=40_000, seed=12))
    width = sum(hi - lo for lo, hi in (est.moments[1][2:] for est in (est_a, est_b)))
    assert abs(est_a.mean(1) - est_b.mean(1)) < width + 2e-2 * 2e-3 / 1e-3


@pytest.mark.parametrize("T, dt, last_start", [
    (0.0105, 1e-3, 0.010),   # 10.5 steps: the last step is half as long
    (3 * 0.1, 0.1, 0.2),     # T / dt rounds to 3.0000000000000004
], ids=["half-step", "rounded-multiple"])
def test_the_last_step_ends_at_the_horizon(T, dt, last_start, monkeypatch):
    model = SdeModel.from_strings(
        ["y"], ["0"], [["1"]], [0.08], T, ["y", "1 - y"])
    steps, vdts = [], []
    advance, survival = mc.SdeKernel.advance, mc._bridge_survival

    def recorded_advance(kernel, slots, z, h, sqrt_h):
        steps.append((h, sqrt_h))
        return advance(kernel, slots, z, h, sqrt_h)

    def recorded_survival(q_prev, q_new, rows, vdt):
        vdts.append(vdt.max())
        return survival(q_prev, q_new, rows, vdt)

    monkeypatch.setattr(mc.SdeKernel, "advance", recorded_advance)
    monkeypatch.setattr(mc, "_bridge_survival", recorded_survival)
    taus = []
    simulate_exit(model, McConfig(dt=dt, paths=20_000, seed=1), tau_out=taus)
    ((tau, capped),) = taus
    hs = {h for h, _ in steps}
    assert max(hs) == dt
    assert min(hs) == pytest.approx(T - last_start, rel=1e-9)
    assert all(sqrt_h == math.sqrt(h) for h, sqrt_h in steps)
    # the crossing variance rate is 1, so the bridge test sees v h = h
    assert set(vdts) == hs
    assert tau.max() <= T
    assert (tau[capped] == T).all()
    assert ((tau > last_start) & ~capped).any()   # exits inside the last step
    # the occupation integral of 1 is tau ^ T, and T for a capped path
    mm = measure_moments(model, augment(model), [(0, 0)], [(0, 0)],
                         McConfig(dt=dt, paths=2_000, seed=1))
    assert mm.occupation_samples.max() == pytest.approx(T, rel=1e-12)


def test_exit_fraction_near_one_for_small_box():
    est = simulate_exit(brownian(), McConfig(dt=1e-3, paths=5_000, seed=1))
    assert est.exit_fraction > 0.99


def test_time_inside_a_sinusoid_is_the_current_time():
    # dx = cos(t) dt from 0 leaves x < 1/2 when sin(t) = 1/2, at pi/6
    model = SdeModel.from_strings(["x"], ["cos(t)"], [["0"]], [0.0], 1.0,
                                  ["0.5 - x"])
    cfg = McConfig(dt=1e-3, paths=10, seed=0)
    est = simulate_exit(model, cfg)
    assert est.exit_fraction == 1.0
    assert abs(est.mean(1) - math.pi / 6) < 3e-3
    # augmented coordinates [x, t, sin(t), cos(t)]: the occupation moment
    # of sin(t) is 1 - cos(tau), and sin(t) exits at sin(tau) = x = 1/2
    indices = [(0, 0, 1, 0), (0, 0, 0, 1)]
    mm = measure_moments(model, augment(model), indices, indices, cfg)
    tau = math.pi / 6
    assert mm.m_mean == pytest.approx([1 - math.cos(tau), math.sin(tau)],
                                      abs=3e-3)
    assert mm.b_mean == pytest.approx([0.5, math.cos(tau)], abs=3e-3)


def test_a_model_without_safe_polynomials_runs_to_the_horizon():
    model = SdeModel.from_strings(["y"], ["0"], [["1"]], [0.5], 0.1)
    est = simulate_exit(model, McConfig(dt=1e-3, paths=100, seed=0))
    assert est.exit_fraction == 0.0
    assert est.mean(1) == pytest.approx(0.1, rel=1e-12)


@pytest.fixture
def uniform_draws(monkeypatch):
    """The sizes of the uniform draws, one per ``random`` call, of every
    generator made after the fixture."""
    sizes = []

    class CountingGenerator(np.random.Generator):
        def random(self, *args, **kwargs):
            out = super().random(*args, **kwargs)
            sizes.append(np.size(out))
            return out

    monkeypatch.setattr(np.random, "Generator", CountingGenerator)
    return sizes


def test_no_uniforms_are_drawn_without_a_bridged_polynomial(uniform_draws):
    # the spring's safe polynomials involve only x, which has no noise, so
    # no step has a bridge test to draw for
    assert mc.SdeKernel(spring()).bridged == []
    simulate_exit(spring(), McConfig(dt=1e-3, paths=200, seed=1))
    assert uniform_draws == []
    # the Brownian bounds are bridged: the count sees its draws
    simulate_exit(brownian(), McConfig(dt=1e-3, paths=200, seed=1))
    assert sum(uniform_draws)


def test_no_uniforms_are_drawn_out_of_reach_of_a_boundary(uniform_draws):
    # both bounds are bridged, but within T = 1 no path comes within
    # sqrt(20 dt) = 0.14 of them, so no bridge exponent is near
    model = SdeModel.from_strings(
        ["y"], ["0"], [["1"]], [0.0], 1.0, ["y + 100", "100 - y"])
    assert mc.SdeKernel(model).bridged == [0, 1]
    est = simulate_exit(model, McConfig(dt=1e-3, paths=200, seed=1))
    assert est.exit_fraction == 0.0
    assert sum(uniform_draws) == 0


def test_safe_polynomial_in_time_alone_is_kept():
    # "0.05 - t" is a user facet, not the time box: every path leaves by
    # t = 0.05 at the latest
    model = SdeModel.from_strings(["y"], ["0"], [["1"]], [0.5], 10.0,
                                  ["y", "1 - y", "0.05 - t"])
    est = simulate_exit(model, McConfig(dt=1e-3, paths=2_000, seed=1))
    assert est.exit_fraction == 1.0
    assert est.mean(1) <= 0.05 + 1e-12


# ---------------------------------------------------------------------------
# measure moments / martingale sanity (reduced-size version)
# ---------------------------------------------------------------------------


def test_martingale_rows_hold_within_monte_carlo_error():
    model = brownian()
    am = augment(model)
    rows = emit_all_rows(am, 2)
    indices = sorted({j for r in rows for j in r.interior_coeffs}
                     | {r.test_index for r in rows})
    mm = measure_moments(model, am, indices, indices,
                         McConfig(dt=2e-4, paths=100_000, seed=21))
    occ, exit_pow = mm.occupation_samples, mm.exit_samples
    pos_m = {alpha: i for i, alpha in enumerate(indices)}
    for row in rows:
        samples = np.full(occ.shape[0], row.constant)
        for j, c in row.interior_coeffs.items():
            samples = samples + float(c) * occ[:, pos_m[j]]
        samples = samples - exit_pow[:, pos_m[row.test_index]]
        mean = samples.mean()
        se = samples.std(ddof=1) / math.sqrt(samples.size)
        # 3 sigma plus a small discretization allowance
        assert abs(mean) <= 3 * se + 1e-3, (row.test_index, mean, se)


def test_occupation_of_one_is_the_capped_exit_time():
    # the exit step is charged theta h, not h, so the occupation integral
    # of 1 is tau ^ T path by path
    model = spring()
    cfg = McConfig(dt=1e-3, paths=500, seed=1)
    taus = []
    simulate_exit(model, cfg, tau_out=taus)
    tau, capped = taus[0]
    assert not capped.any()
    am = augment(model)
    zero = (0,) * am.total_dim
    mm = measure_moments(model, am, [zero], [zero], cfg)
    assert mm.occupation_samples[:, 0] == pytest.approx(tau, rel=1e-9)


def test_exit_state_lands_on_a_moving_facet_at_the_exit_time():
    # "1 - y + t" moves with time: the Newton step onto it is taken at the
    # path's exit time, not at the end of its exit step
    model = SdeModel.from_strings(["y"], ["0"], [["1"]], [0.5], 1.0,
                                  ["y", "1 - y + t"])
    am = augment(model)
    mm = measure_moments(model, am, [(0, 0)], [(1, 0), (0, 1)],
                         McConfig(dt=1e-3, paths=2_000, seed=1))
    y, t = mm.exit_samples.T
    through = (y > 0.5) & (t < model.horizon)
    assert through.sum() > 100
    assert np.abs(1 - y[through] + t[through]).max() <= 1e-12


def _digest(*arrays):
    return hashlib.sha256(
        b"".join(a.astype("<f8").tobytes() for a in arrays)).hexdigest()


def test_spring_bridge_correction_raises_no_warning_and_keeps_samples():
    # x and the time coordinate carry no diffusion, so their crossing
    # variance is 0 while q_prev * q_new is 0 on a facet; the bridge
    # exponent must skip them rather than evaluate 0 / 0.  No polynomial
    # is bridged, so the paths draw normals only.  The paths run to T = 2
    # in the coordinates of the T = 10 model.
    model = spring(T=2.0)
    cfg = McConfig(dt=1e-3, paths=64, seed=3)
    am = scale_model(augment(spring()))
    indices = enumerate_multi_indices(am.total_dim, 2)
    taus = []
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        simulate_exit(model, cfg, tau_out=taus)
        mm = measure_moments(model, am, indices, indices, cfg)
    tau, capped = taus[0]
    assert len(tau) == 64 and int(capped.sum()) == 7
    assert _digest(tau) == (
        "e02a0d952d9e4a31fb0bab0f58e95d258dd93fca759bfc829d7e28b55b510678")
    assert _digest(mm.occupation_samples, mm.exit_samples) == (
        "08dcbdf216a7c6833c250e671b1bba4b3d488a7517b98cf5890bc0e28d5d595a")


# ---------------------------------------------------------------------------
# stepping core: exit times pinned to the path-major implementation
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("model, cfg, chunk, capped, digest", [
    (brownian(), McConfig(dt=1e-3, paths=5_000, seed=1), 2_000, 0,
     "f027d1d78bc7738c4e81c8711c009f9dd976315443b2562924885c4a9e16082f"),
    (spring(), McConfig(dt=1e-3, paths=2_000, seed=1), mc.CHUNK, 0,
     "db275446eeca5c1120d318b0a859158da9eeb0deed120a02cc3450169a60464d"),
    (cos_diffusion(), McConfig(dt=1e-3, paths=3_000, seed=4), mc.CHUNK, 0,
     "c73b617e085c671edb797611436acbd36ed6c0cfec4eed8bcd7fa6aed5386a38"),
    (coupled_2d(), McConfig(dt=1e-3, paths=1_000, seed=2), mc.CHUNK, 576,
     "5882a58e401a0f6bfcf3df46944faacd1bdb21f662daba8571ae8380117fb243"),
    (coupled_2d(noisy_x=False), McConfig(dt=1e-3, paths=1_000, seed=2),
     mc.CHUNK, 735,
     "6f28babb74359a931a6eec4f51f40165a3f075a2bf78ef5e4772cdc7fb9380a8"),
], ids=["brownian-chunked", "pendulum", "cos-diffusion", "coupled-2d",
        "coupled-2d-noiseless-x"])
def test_exit_times_match_path_major_digests(model, cfg, chunk, capped, digest,
                                             monkeypatch):
    # digests of the exit times drawn with one uniform per path that ends
    # a step inside with a bridge exponent above NEAR_BOUNDARY; drawing one
    # per alive path instead gives back the digests of the path-major
    # stepper (full bridge evaluation on every path).  The pendulum has no
    # bridged polynomial and draws normals only.
    monkeypatch.setattr(mc, "CHUNK", chunk)
    taus = []
    simulate_exit(model, cfg, tau_out=taus)
    tau, cap = taus[0]
    assert tau.size == cfg.paths and int(cap.sum()) == capped
    assert _digest(tau) == digest


def test_compiled_kernels_match_exact_polynomials():
    # time enters a drift polynomially and inside cos(t), an atom argument
    # has two factors and another a frequency; "1.5 - t" has no noise
    model = SdeModel.from_strings(
        ["x", "y"], ["sin(x*y) - 0.5*t^2*x + 2", "cos(t)*y + sin(2*x)"],
        [["0.5 + 0.1*y", "0.2*x"], ["0.3*sin(x*y)", "1"]], [0.1, 0.2], 1.0,
        ["4 - x^2 - y^2", "x + 3", "2 - y + t", "1.5 - t"])
    kernel = mc.SdeKernel(model)
    polys = list(model.drift) + [g for row in model.diffusion for g in row]
    atoms = list(dict.fromkeys(a for p in polys for a in p.used_atoms()))
    assert len(atoms) == len(kernel.atoms) == 3
    rng = np.random.default_rng(8)
    m = 20
    points = np.column_stack([rng.uniform(-1.2, 1.2, (m, 2)),
                              rng.uniform(0.0, 1.0, m)])
    state = np.empty((2 + len(atoms), m))
    state[:2] = points[:, :2].T
    slots = kernel.slots(state, points[:, 2])
    kernel.fill_atoms(slots, state)

    def values(kern):
        return np.broadcast_to(kern(slots), (m,))

    def close(actual, expected):
        assert actual == pytest.approx(np.array(expected), rel=1e-12)

    for a, row in zip(atoms, state[2:]):
        close(row, [a.value(pt) for pt in points])
    for poly, kern in zip(polys, kernel.drift + sum(kernel.diffusion, [])):
        close(values(kern), [poly.evaluate(pt) for pt in points])
    close(kernel.safe_values(slots),
          [[q.evaluate(pt) for pt in points] for q in model.safe_polys])
    assert kernel.bridged == [0, 1, 2]
    assert kernel.crossing_variances(slots).shape == (3, m)
    for j, v in zip(kernel.bridged, kernel.crossing_variances(slots)):
        q = model.safe_polys[j]
        close(v, [sum(sum(q.diff(i).evaluate(pt) * model.diffusion[i][k].evaluate(pt)
                          for i in range(2))**2 for k in range(2))
                  for pt in points])


def _full_exponents(q_prev, q_new, v, dt):
    """Bridge exponents of every path, path-major (N, m)."""
    qp = np.maximum(q_prev, 0.0)
    qn = np.maximum(q_new, 0.0)
    with np.errstate(divide="ignore", over="ignore"):
        return np.divide(-2.0 * qp * qn, v * dt,
                         out=np.full(qp.shape, -np.inf), where=v > 0)


def _full_survival(q_prev, q_new, v, dt):
    """Bridge survival of every path, path-major (N, m), no banding."""
    p = np.exp(_full_exponents(q_prev, q_new, v, dt))
    return np.exp(np.log(np.clip(1.0 - p, 1e-300, 1.0)).sum(axis=1)), p


def test_near_boundary_survival_equals_full_evaluation_bit_for_bit():
    rng = np.random.default_rng(17)
    n, m = 6_000, 3
    dt = 2.0**-10
    q_prev = rng.uniform(0.0, 1.0, (n, m))
    q_new = rng.uniform(-0.01, 1.0, (n, m))
    v = rng.uniform(0.2, 2.0, (n, m))
    v[rng.random((n, m)) < 0.1] = 0.0      # polynomials without diffusion
    v[:200] = 0.0                          # paths without any
    # exponents -2 q_prev q_new / (v dt) exactly at -40, one ulp above it
    # and one ulp below it
    edge = 20.0 * dt
    q_prev[200:400] = 1.0
    v[200:400] = 1.0
    q_new[200:300] = edge
    q_new[300:350] = np.nextafter(edge, 0.0)
    q_new[350:400] = np.nextafter(edge, 1.0)
    full, p_full = _full_survival(q_prev, q_new, v, dt)
    expo = _full_exponents(q_prev, q_new, v, dt)

    near, survive, p = _bridge_survival(
        np.ascontiguousarray(q_prev.T), np.ascontiguousarray(q_new.T),
        [0, 1, 2], np.ascontiguousarray(v.T) * dt)
    banded = np.ones(n)
    banded[near] = survive
    assert np.array_equal(banded, full)
    assert np.array_equal(p, np.where(expo > NEAR_BOUNDARY, p_full, 0.0)[near].T)
    on_edge = set(range(200, 300)) | set(range(350, 400))
    assert on_edge.isdisjoint(near) and set(range(300, 350)) <= set(near)
    assert not set(range(200)) & set(near)
    assert 0 < near.size < n // 2
    # the rule: every excluded path has all exponents at or below -40
    assert np.exp(NEAR_BOUNDARY) < 2.0**-54

    # the bridged rows among safe values with a crossed polynomial without
    # diffusion at row 1, which would make every path near if it were tested;
    # then a NaN rate beside finite ones, which leaves its polynomial out as
    # a zero rate does (a plain maximum over the paths would be NaN and hide
    # the near paths of its row), and an inf rate, whose exponents are -0
    safe_prev, safe_new = (np.insert(q, 1, -1.0, axis=1) for q in (q_prev, q_new))
    v_nan = v.copy()
    v_nan[400:450, 0] = np.nan
    v_inf = v_nan.copy()
    v_inf[450:500, 2] = np.inf
    for rates in (v, v_nan, v_inf):
        expo = _full_exponents(q_prev, q_new, rates, dt)
        full, p_full = _full_survival(q_prev, q_new, rates, dt)
        near, survive, p = _bridge_survival(
            np.ascontiguousarray(safe_prev.T), np.ascontiguousarray(safe_new.T),
            [0, 2, 3], np.ascontiguousarray(rates.T) * dt)
        banded = np.ones(n)
        banded[near] = survive
        assert np.array_equal(banded, full)
        assert np.array_equal(
            p, np.where(expo > NEAR_BOUNDARY, p_full, 0.0)[near].T)
        assert 0 < near.size < n // 2
    assert set(range(450, 500)) <= set(near)


def test_constant_variance_prefilter_equals_full_evaluation_bit_for_bit(
        monkeypatch):
    # one variance per polynomial, (m, 1): the exponents are evaluated only
    # on the paths within reach of a boundary
    rng = np.random.default_rng(23)
    n = 6_000
    dt = 2.0**-10
    v = np.array([1.0, 0.0, 0.5])          # no diffusion in the middle one
    q_prev = rng.uniform(0.0, 1.0, (n, 3))
    q_new = rng.uniform(-0.01, 1.0, (n, 3))
    # exponents exactly at -40, one ulp above it and one ulp below it
    edge = 20.0 * dt
    q_prev[:300] = q_new[:300] = 1.0
    q_new[:100, 0] = edge
    q_new[100:150, 0] = np.nextafter(edge, 0.0)
    q_new[150:200, 0] = np.nextafter(edge, 1.0)
    # both ends at the reach, one ulp inside it, and at sqrt(20 dt)
    reach = mc._reach(dt)
    q_prev[200:250, 0] = q_new[200:250, 0] = reach
    q_prev[250:300, 0] = q_new[250:300, 0] = np.nextafter(reach, 0.0)
    q_prev[300:350] = q_new[300:350] = math.sqrt(edge)
    q_prev, q_new, vdt = (np.ascontiguousarray(q_prev.T),
                          np.ascontiguousarray(q_new.T), v[:, None] * dt)

    def check(threshold):
        expo = _full_exponents(q_prev.T, q_new.T, v, dt)
        full, p_full = _full_survival(q_prev.T, q_new.T, v, dt)
        near, survive, p = _bridge_survival(q_prev, q_new, [0, 1, 2], vdt)
        assert np.array_equal(
            near, np.flatnonzero((expo > threshold).any(axis=1)))
        assert np.array_equal(survive, full[near])
        assert np.array_equal(
            p, np.where(expo > NEAR_BOUNDARY, p_full, 0.0)[near].T)
        return set(near)

    near = check(NEAR_BOUNDARY)
    assert near.isdisjoint(range(100)) and set(range(100, 150)) <= near
    # the reach is wider than the rule: inside it, the rule still decides
    assert near.isdisjoint(range(150, 300))
    assert 350 < len(near) < n // 2
    # a threshold so close to 0 that the reach underflows: every path is a
    # candidate, and the near set is the crossed or touching paths
    monkeypatch.setattr(mc, "NEAR_BOUNDARY", -5e-324)
    assert mc._reach(dt) == math.inf
    check(-5e-324)
    # no exponent exceeds an infinite threshold: no candidate, no warning
    monkeypatch.setattr(mc, "NEAR_BOUNDARY", math.inf)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        near, survive, p = _bridge_survival(q_prev, q_new, [0, 1, 2], vdt)
    assert near.size == survive.size == 0 and p.shape == (3, 0)


def test_blow_up_raises_after_flagging_every_path():
    # dx = x^3 dt + dB from 2 explodes near t = 1/8; the safe polynomial
    # 1 + x^2 never vanishes, so every path becomes non-finite
    model = SdeModel.from_strings(["x"], ["x^3"], [["1"]], [2.0], 1.0,
                                  ["1 + x^2"])
    with pytest.warns(RuntimeWarning) as record:
        with pytest.raises(RuntimeError,
                           match="50 of 50 paths became non-finite"):
            simulate_exit(model, McConfig(dt=1e-3, paths=50, seed=0))
    assert any("overflow" in str(w.message) for w in record)


def test_measure_moments_projects_onto_the_crossed_facet():
    # "x + 0.9" has no noise here, so the bridge test sees three of the
    # four polynomials and a bridged exit must name its facet among all
    # four; the digest is of the samples drawn with one uniform per near
    # path that ends a step inside, with theta h charged to the occupation
    # integral on the exit step (one uniform per alive path gives back the
    # path-major loop's digest)
    model = coupled_2d(noisy_x=False)
    am = scale_model(augment(model))
    indices = enumerate_multi_indices(am.total_dim, 2)
    mm = measure_moments(model, am, indices, indices,
                         McConfig(dt=1e-3, paths=300, seed=5))
    assert _digest(mm.occupation_samples, mm.exit_samples) == (
        "3dd5ea95a16a56e5bbab3e0d9d52abc8ccc6fc02f5cbc739d7723bcfe2926fb6")
