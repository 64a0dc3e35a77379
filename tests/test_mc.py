import hashlib
import math
import warnings

import numpy as np
import pytest

from exitmoment.augment import SdeModel, augment, scale_model
from exitmoment.mc import (
    McConfig,
    dump_exit_times,
    measure_moments,
    path_consistency,
    path_consistency_ladder,
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


def test_brownian_first_moment_brackets_quarter():
    est = simulate_exit(brownian(), McConfig(dt=2e-4, paths=50_000, seed=7,
                                             max_moment_order=2))
    mean, se = est.mean(1), est.se(1)
    assert abs(mean - 0.25) < 3 * se + 1e-3
    lo, hi = est.ci(1)
    assert lo < mean < hi


def test_bridge_correction_removes_monitoring_bias():
    with_bridge = simulate_exit(
        brownian(), McConfig(dt=1e-3, paths=60_000, seed=3))
    without = simulate_exit(
        brownian(), McConfig(dt=1e-3, paths=60_000, seed=3, bridge=False))
    # discrete monitoring alone overshoots by ~0.58 sqrt(dt) of barrier width
    assert without.mean(1) - 0.25 > 0.01
    assert abs(with_bridge.mean(1) - 0.25) < 3 * with_bridge.se(1) + 1e-3


def test_start_on_boundary_gives_zero_moments():
    m = SdeModel.from_strings(["y"], ["0"], [["1"]], [0.0], 1.0,
                              ["y", "1 - y"], check_interior=False)
    est = simulate_exit(m, McConfig(dt=1e-3, paths=10, seed=0))
    assert est.mean(1) == 0.0
    assert est.exit_fraction == 1.0


def test_determinism_bit_identical():
    cfg = McConfig(dt=1e-3, paths=20_000, seed=123, max_moment_order=3)
    a = simulate_exit(brownian(), cfg)
    b = simulate_exit(brownian(), cfg)
    assert a.moments == b.moments
    assert a.exit_fraction == b.exit_fraction
    c = simulate_exit(brownian(), McConfig(dt=1e-3, paths=20_000, seed=124))
    assert c.moments[1] != a.moments[1]


def test_jensen_moment_ordering():
    est = simulate_exit(brownian(), McConfig(dt=1e-3, paths=20_000, seed=5,
                                             max_moment_order=4))
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


def test_exit_fraction_near_one_for_small_box():
    est = simulate_exit(brownian(), McConfig(dt=1e-3, paths=5_000, seed=1))
    assert est.exit_fraction > 0.99


def test_dump_exit_times(tmp_path):
    sink = []
    simulate_exit(brownian(), McConfig(dt=1e-3, paths=100, seed=3),
                  tau_out=sink)
    out = tmp_path / "tau.csv"
    dump_exit_times(out, sink[0])
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "path_id,tau,capped"
    assert len(lines) == 101


def test_simulating_augmented_model_rejected():
    from exitmoment.augment import augment_time

    with pytest.raises(ValueError):
        simulate_exit(augment_time(brownian()), McConfig(dt=1e-3, paths=10))


# ---------------------------------------------------------------------------
# path consistency
# ---------------------------------------------------------------------------


def test_path_consistency_zero_for_polynomial_model():
    model = brownian()
    am = augment(model)
    dev = path_consistency(model, am, McConfig(dt=1e-3, paths=50, seed=4))
    assert dev == 0.0


def test_path_consistency_trig_small_and_dt_convergent():
    # the trig argument here carries diffusion, so the coupling error is
    # O(sqrt(dt)): expect a 1/sqrt(2) cut per halving, within noise
    model = trig_system()
    am = augment(model)
    devs = path_consistency_ladder(
        model, am, McConfig(dt=1e-3, paths=100, seed=9),
        [1e-3, 5e-4, 2.5e-4, 1.25e-4], t_max=1.0)
    assert devs[1] <= 0.85 * devs[0]
    assert devs[2] <= 0.85 * devs[1]
    assert devs[3] <= 0.05
    # C sqrt(dt) bound with a stable constant
    cs = [d / (dt ** 0.5) for d, dt in zip(devs, (1e-3, 5e-4, 2.5e-4, 1.25e-4))]
    assert max(cs) <= 3 * min(cs)


def test_path_consistency_spring_halves_with_dt():
    # spring position (the trig argument) is noise-free, so the coupling
    # error is O(dt) and halving dt halves the deviation
    model = spring()
    am = augment(model)
    devs = path_consistency_ladder(
        model, am, McConfig(dt=1e-3, paths=100, seed=8),
        [1e-3, 5e-4, 2.5e-4], t_max=1.0)
    assert devs[0] <= 0.05
    assert devs[1] <= 0.6 * devs[0]
    assert devs[2] <= 0.6 * devs[1]


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
    model = spring()
    cfg = McConfig(dt=1e-3, paths=64, seed=3, horizon=2.0,
                   max_moment_order=2)
    am = scale_model(augment(model))
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
