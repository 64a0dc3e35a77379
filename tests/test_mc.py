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
    ("paths", 0),
])
def test_config_rejects_out_of_range_field(field, value):
    with pytest.raises(ValueError, match=field.rstrip("s")):
        McConfig(**{field: value})


def test_brownian_first_moment_brackets_quarter():
    est = simulate_exit(brownian(), McConfig(dt=2e-4, paths=50_000, seed=7))
    mean, se = est.mean(1), est.se(1)
    assert abs(mean - 0.25) < 3 * se + 1e-3
    lo, hi = est.ci(1)
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
        lo, hi = est.ci(1)
        widths.append(hi - lo)
    assert widths[0] / widths[1] == pytest.approx(2.0, rel=0.25)
    assert widths[1] / widths[2] == pytest.approx(2.0, rel=0.25)


def test_dt_refinement_consistency():
    est_a = simulate_exit(brownian(), McConfig(dt=2e-3, paths=40_000, seed=11))
    est_b = simulate_exit(brownian(), McConfig(dt=1e-3, paths=40_000, seed=12))
    width = (est_a.ci(1)[1] - est_a.ci(1)[0]) + (est_b.ci(1)[1] - est_b.ci(1)[0])
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

    def recorded_survival(q_prev, q_new, vdt):
        vdts.append(vdt.max())
        return survival(q_prev, q_new, vdt)

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


def _digest(*arrays):
    return hashlib.sha256(
        b"".join(a.astype("<f8").tobytes() for a in arrays)).hexdigest()


def test_spring_bridge_correction_raises_no_warning_and_keeps_samples():
    # x and the time coordinate carry no diffusion, so their crossing
    # variance is 0 while q_prev * q_new is 0 on a facet; the bridge
    # exponent must skip them rather than evaluate 0 / 0.  The digests are
    # the samples drawn before that fix, so the fix changed no number.
    # The paths run to T = 2 in the coordinates of the T = 10 model.
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
        "ff98bc6dcd5e39a2efc257054c7495dd5c5a5c0dc8a00c7481934d1879ecddf0")
    assert _digest(mm.occupation_samples, mm.exit_samples) == (
        "71d89f8ef66e2a629f0057c889b856211b207f4da72fa6a05ed7f4af59c4f958")


# ---------------------------------------------------------------------------
# stepping core: exit times pinned to the path-major implementation
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("model, cfg, chunk, capped, digest", [
    (brownian(), McConfig(dt=1e-3, paths=5_000, seed=1), 2_000, 0,
     "5beda6011ca1acbdb3c4403f773d24651c59c3b647f2ecc1e1708fdcad22644e"),
    (spring(), McConfig(dt=1e-3, paths=2_000, seed=1), mc.CHUNK, 0,
     "145bac7278f45d830e8af798cd6c08a609742da2e97e6b34758ac42901229705"),
    (cos_diffusion(), McConfig(dt=1e-3, paths=3_000, seed=4), mc.CHUNK, 0,
     "2ed1d9ff168ccf3e7293e83f41f88fc9a4d40824b9940e3551804ab9046a8683"),
    (coupled_2d(), McConfig(dt=1e-3, paths=1_000, seed=2), mc.CHUNK, 565,
     "4cb4ffd3bb0e6fc024f98d6db20a7725ff95c73846d8e1f098063db6248317e9"),
    (coupled_2d(noisy_x=False), McConfig(dt=1e-3, paths=1_000, seed=2),
     mc.CHUNK, 695,
     "c09bfcbb8b5f4ad147b4cdb6cb3705558088e242304dc472bd89c66f2dad6b00"),
], ids=["brownian-chunked", "pendulum", "cos-diffusion", "coupled-2d",
        "coupled-2d-noiseless-x"])
def test_exit_times_match_path_major_digests(model, cfg, chunk, capped, digest,
                                             monkeypatch):
    # digests of the exit times the path-major stepper (full bridge
    # evaluation on every path) drew from the same seeds
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
    assert kernel.bridged == [0, 1, 2] and not kernel.variances_constant
    for j, v in zip(kernel.bridged, kernel.crossing_variances(slots)):
        q = model.safe_polys[j]
        close(v, [sum(sum(q.diff(i).evaluate(pt) * model.diffusion[i][k].evaluate(pt)
                          for i in range(2))**2 for k in range(2))
                  for pt in points])


def _full_survival(q_prev, q_new, v, dt):
    """Bridge survival of every path, path-major (N, m), no banding."""
    qp = np.maximum(q_prev, 0.0)
    qn = np.maximum(q_new, 0.0)
    with np.errstate(divide="ignore", over="ignore"):
        expo = np.divide(-2.0 * qp * qn, v * dt,
                         out=np.full(qp.shape, -np.inf), where=v > 0)
    p = np.exp(expo)
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

    near, survive, p = _bridge_survival(
        np.ascontiguousarray(q_prev.T), np.ascontiguousarray(q_new.T),
        np.ascontiguousarray(v.T) * dt)
    banded = np.ones(n)
    banded[near] = survive
    assert np.array_equal(banded, full)
    assert np.array_equal(p, p_full[near].T)
    on_edge = set(range(200, 300)) | set(range(350, 400))
    assert on_edge.isdisjoint(near) and set(range(300, 350)) <= set(near)
    assert not set(range(200)) & set(near)
    assert 0 < near.size < n // 2
    # the rule: every excluded path has all exponents at or below -40
    assert np.exp(NEAR_BOUNDARY) < 2.0**-54


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
    # four; the digest is of the samples the path-major loop drew
    model = coupled_2d(noisy_x=False)
    am = scale_model(augment(model))
    indices = enumerate_multi_indices(am.total_dim, 2)
    mm = measure_moments(model, am, indices, indices,
                         McConfig(dt=1e-3, paths=300, seed=5))
    assert _digest(mm.occupation_samples, mm.exit_samples) == (
        "a49d246b6b2e480b110499438027b59feb498a1f66ab25b1816db03a230d72bd")
