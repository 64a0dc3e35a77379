"""Tests of the benchmark's own code: exact references, span arithmetic,
the per-job checks, and the metric names against BENCHMARK.json.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import json
import sys
import types
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
for p in (HERE, HERE.parent / "src"):
    if str(p) not in sys.path:
        sys.path.insert(0, str(p))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from refs import brownian_exit_moments  # noqa: E402


def test_brownian_references_are_exact():
    assert brownian_exit_moments(6) == {
        1: Fraction(1, 4),
        2: Fraction(5, 48),
        3: Fraction(61, 960),
        4: Fraction(277, 5376),
        5: Fraction(50521, 967680),
        6: Fraction(540553, 8515584),
    }


def test_first_moment_is_x_times_one_minus_x():
    assert brownian_exit_moments(1, Fraction(1, 3))[1] == Fraction(2, 9)


def _span(name, start, end, parent=None):
    return spans.Span(name, start, end, parent, "job")


def test_self_time_subtracts_union_of_children():
    s = [
        _span("outer", 0.0, 10.0),
        _span("a", 1.0, 3.0, parent=0),
        _span("inner", 1.5, 2.0, parent=1),
        _span("b", 2.0, 4.0, parent=0),    # overlaps a: union is [1, 4]
        _span("c", 5.0, 6.0, parent=0),
        _span("next", 11.0, 12.5),
    ]
    own = spans.self_times(s)
    assert own == pytest.approx([6.0, 1.5, 0.5, 2.0, 1.0, 1.5])
    assert spans.top_level_time(s) == pytest.approx(11.5)
    totals = spans.totals_by_name(s + [_span("c", 7.0, 7.5, parent=0)])
    assert totals["c"] == pytest.approx((1.5, 1.5, 2))


def test_installed_wrappers_nest_and_restore():
    mod = types.ModuleType("fake")

    class Owner:
        @staticmethod
        def make(x):
            return mod.inner(x) + 1

    mod.inner = lambda x: 2 * x
    rec = spans.Recorder()
    inner, make = mod.inner, vars(Owner)["make"]
    with spans.installed(rec, [(mod, "inner", "inner"),
                               (Owner, "make", "make")]):
        rec.job = "j1"
        assert Owner.make(3) == 7
    assert mod.inner is inner and vars(Owner)["make"] is make
    assert [(x.name, x.parent, x.job) for x in rec.spans] == [
        ("make", None, "j1"), ("inner", 0, "j1")]
    assert all(x.end >= x.start for x in rec.spans)


@pytest.mark.parametrize("bound, status, ok", [
    (0.25 * (1 + 5e-4), "optimal", True),
    (0.25 * (1 + 2e-3), "optimal", False),
    (0.25 * (1 - 2e-3), "optimal", False),
    (float("nan"), "optimal", False),
    (float("inf"), "optimal", False),
    (0.25, "max_iters", False),
])
def test_check_bound(bound, status, ok):
    reason = workloads.check_bound(bound, Fraction(1, 4), status, 1e-3)
    assert (reason == "") is ok


def test_wrong_side_is_strict():
    quarter = Fraction(1, 4)
    assert workloads.wrong_side(0.2500000177, quarter, "min")
    assert not workloads.wrong_side(0.25, quarter, "min")
    assert not workloads.wrong_side(0.2499999997, quarter, "min")
    assert workloads.wrong_side(0.2499999997, quarter, "max")


@pytest.mark.parametrize("bound, status, ok", [
    (0.05, "max_iters", True),
    (0.05, "numerical_failure", False),
    (float("nan"), "max_iters", False),
])
def test_check_budget_solve(bound, status, ok):
    assert (workloads.check_budget_solve(bound, status) == "") is ok


def test_check_mc_mean_uses_five_standard_errors():
    assert workloads.check_mc_mean(0.2504, 1e-4, Fraction(1, 4)) == ""
    assert workloads.check_mc_mean(0.2506, 1e-4, Fraction(1, 4)) != ""
    assert workloads.check_mc_mean(float("nan"), 1e-4, Fraction(1, 4)) != ""


def test_sdpa_roundtrip_check(tmp_path):
    model = workloads.prepare("brownian")["brownian"]
    program = workloads.em_mp.assemble(model, "original", 2, 1, "min")
    path = tmp_path / "p.dat-s"
    workloads.em_sdpa.export_sdpa(program, path)
    data = workloads.em_sdpa.read_sdpa(path)
    assert workloads.check_sdpa_roundtrip(program, data) == ""
    key = next(iter(data.entries))
    data.entries[key] = data.entries[key][1:]
    assert "nonzeros" in workloads.check_sdpa_roundtrip(program, data)


def test_program_shape_counts_duplicate_blocks():
    model = workloads.prepare("brownian")["brownian"]
    shape = workloads.program_shape(
        workloads.em_mp.assemble(model, "original", 4, 1, "min"))
    # M(m), M(b), one block per interior polynomial (y, 1 - y, t, T - t)
    # and one (+q', -q') pair per interior polynomial, all pairs identical
    assert shape["momentproblem.psd_blocks"] == 2 + 4 + 2 * 4
    assert shape["momentproblem.psd_blocks_distinct"] == 2 + 4 + 2


def test_names_match_benchmark_json():
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in declared["workloads"]] == list(run.WORKLOADS)
    assert set(workloads.JOBS) == set(run.WORKLOADS)
    assert set(workloads.MIN_PASSES) == set(run.WORKLOADS)
    names = {m["name"] for m in declared["per_layer"]}
    assert set(workloads.layer_metrics([], [], 1.0, 1.0)) == names
    assert {m["name"] for m in declared["end_to_end"]} == {
        "wall_s", "setup_s", "peak_rss_mb", "ok_frac"}
