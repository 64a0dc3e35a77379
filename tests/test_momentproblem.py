import dataclasses
import random
from fractions import Fraction

import numpy as np
import pytest
import scipy.sparse as sp

from exitmoment.augment import SdeModel, augment, scale_model
from exitmoment.expr import (
    Polynomial,
    count_upto,
    enumerate_multi_indices,
    graded_lex_rank,
    graded_lex_ranks,
    parse_polynomial,
)
from exitmoment.momentproblem import (
    LocalizingMap,
    MomentIndexMap,
    _psd_block,
    assemble,
    boundary_product,
    build_localizing_map,
    build_moment_map,
    build_moment_problem,
    lower_to_conic,
    reduced_boundary_equalities,
)


def box_model(n_user_polys: int, T: float = 1.0):
    """Polynomial diffusion in a box with the requested number of user
    safe polynomials (0, 2 or 4)."""
    if n_user_polys == 0:
        return augment(SdeModel.from_strings(
            ["y"], ["0"], [["1"]], [0.0], T, []))
    if n_user_polys == 2:
        return augment(SdeModel.from_strings(
            ["y"], ["0"], [["1"]], [0.5], T, ["y", "1 - y"]))
    if n_user_polys == 4:
        return augment(SdeModel.from_strings(
            ["y", "z"], ["0", "0"], [["1", "0"], ["0", "1"]], [0.5, 0.5], T,
            ["y", "1 - y", "z", "1 - z"]))
    raise ValueError(n_user_polys)


def scaled_brownian():
    return scale_model(augment(SdeModel.from_strings(
        ["y"], ["0"], [["1"]], [0.5], 10.0, ["y", "1 - y"])))


def scaled_pendulum():
    return scale_model(augment(SdeModel.from_strings(
        ["x", "v"], ["v", "-5*x - 9.81 + v*sin(x)"], [["0"], ["1"]],
        [-9.81 / 5, 0.0], 10.0, ["-x", "x + 2"])))


# (model, K) pairs whose assembly the array code must reproduce exactly
ASSEMBLY_CASES = {
    "box0-K4": (lambda: box_model(0), 4),
    "box2-K4": (lambda: box_model(2), 4),
    "brownian-K4": (scaled_brownian, 4),
    "brownian-K8": (scaled_brownian, 8),
    "pendulum-K4": (scaled_pendulum, 4),
}


# ---------------------------------------------------------------------------
# moment index maps
# ---------------------------------------------------------------------------


def test_moment_map_two_vars_degree_four():
    mm = build_moment_map(2, 4)
    assert mm.dim == 6
    assert mm.basis == [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]
    # first row/column walks the moment sequence itself
    for j in range(mm.dim):
        assert mm.entry(0, j) == graded_lex_rank(mm.basis[j])
        assert mm.entry(j, 0) == mm.entry(0, j)
    # displayed reference entries: M(1,1)=m20, M(3,5)=m22
    assert mm.entry_index(1, 1) == (2, 0)
    assert mm.entry_index(1, 2) == (1, 1)
    assert mm.entry_index(3, 5) == (2, 2)


@pytest.mark.parametrize("nvars", [1, 2, 3, 4, 5])
def test_array_rank_matches_graded_lex_rank(nvars):
    indices = enumerate_multi_indices(nvars, 12)
    ranks = graded_lex_ranks(np.array(indices))
    assert ranks.dtype == np.int64
    assert ranks.tolist() == [graded_lex_rank(a) for a in indices]
    assert ranks.tolist() == list(range(len(indices)))


def test_moment_map_trivial():
    mm = build_moment_map(1, 0)
    assert mm.dim == 1
    assert mm.entry(0, 0) == 0


def test_moment_map_exhaustive_three_vars():
    mm = build_moment_map(3, 6)
    for i in range(mm.dim):
        for j in range(mm.dim):
            expected = tuple(a + b for a, b in zip(mm.basis[i], mm.basis[j]))
            assert mm.entry(i, j) == graded_lex_rank(expected)
            assert mm.entry(i, j) == mm.entry(j, i)


def test_localizing_map_reference_example():
    q = parse_polynomial("1 + x^2 + x^4", ["x"])
    loc = build_localizing_map(q, 2, 6)  # nvars=2: (x, t); use 1-d instead
    q1 = parse_polynomial("1 + x^2 + x^4", ["x"])
    # the displayed 1-d case
    loc = build_localizing_map(Polynomial(1, {(0,): 1, (2,): 1, (4,): 1}), 1, 6)
    assert loc.dim == 2
    ranks = lambda i, j: sorted(r for _, r in loc.entries(i, j))
    assert ranks(0, 0) == [0, 2, 4]
    assert ranks(0, 1) == [1, 3, 5]
    assert ranks(1, 1) == [2, 4, 6]
    assert all(c == 1 for c, _ in loc.entries(0, 0))


def test_localizing_map_with_unit_polynomial_degenerates():
    mm = build_moment_map(2, 4)
    loc = build_localizing_map(Polynomial.constant(2, 1), 2, 4)
    assert loc.dim == mm.dim
    for i in range(mm.dim):
        for j in range(mm.dim):
            assert loc.entries(i, j) == [(Fraction(1), mm.entry(i, j))]


def test_localizing_map_matches_symbolic_expansion():
    rng = random.Random(5)
    idx2 = enumerate_multi_indices(2, 2)
    terms = {a: Fraction(rng.randint(-3, 3)) for a in idx2}
    q = Polynomial(2, {a: c for a, c in terms.items() if c})
    if q.is_zero():
        q = Polynomial(2, {(1, 0): 1})
    loc = build_localizing_map(q, 2, 4)
    for i in range(loc.dim):
        for j in range(loc.dim):
            beta = loc.base.entry_index(i, j)
            expansion = q * Polynomial.monomial(2, beta)
            expected = sorted(
                (graded_lex_rank(a), c) for a, c in expansion.terms.items())
            got = sorted((r, c) for c, r in loc.entries(i, j))
            assert got == expected


def test_localizing_map_degree_guard():
    q = Polynomial(1, {(4,): 1})
    with pytest.raises(ValueError):
        build_localizing_map(q, 1, 3)


def test_localizing_references_stay_within_k_by_default():
    q = Polynomial(2, {(1, 0): 1, (0, 0): 1})
    for K in (2, 3, 4, 7):
        loc = build_localizing_map(q, 2, K)
        assert loc.max_referenced_degree() <= K


# ---------------------------------------------------------------------------
# boundary product and reduced equalities
# ---------------------------------------------------------------------------


def test_boundary_product_interval():
    q = boundary_product([Polynomial(1, {(1,): 1}),
                          Polynomial(1, {(0,): 1, (1,): -1})])
    assert q == Polynomial(1, {(1,): 1, (2,): -1})  # x - x^2


def test_boundary_product_single():
    q = Polynomial(2, {(1, 0): 2})
    assert boundary_product([q]) == q


def test_boundary_product_box_roots():
    names = ["x", "v", "t"]
    polys = [parse_polynomial(s, names) for s in
             ["-x", "x + 2", "t", "10 - t"]]
    q = boundary_product(polys)
    assert q.degree() == 4
    # vanishes on each face, not inside
    assert q.evaluate([0.0, 3.0, 4.0]) == pytest.approx(0.0)
    assert q.evaluate([-2.0, 1.0, 4.0]) == pytest.approx(0.0)
    assert q.evaluate([-1.0, 0.0, 0.0]) == pytest.approx(0.0)
    assert q.evaluate([-1.0, 0.0, 10.0]) == pytest.approx(0.0)
    assert q.evaluate([-1.0, 0.0, 5.0]) > 0


def test_boundary_product_empty_rejected():
    with pytest.raises(ValueError):
        boundary_product([])


def test_reduced_equalities_frozen_interval_example():
    qprime = Polynomial(1, {(1,): 1, (2,): -1})  # x - x^2
    rows = reduced_boundary_equalities(qprime, 1, 2)
    assert rows == [
        {(1,): Fraction(1), (2,): Fraction(-1)},
        {(2,): Fraction(1), (3,): Fraction(-1)},
        {(3,): Fraction(1), (4,): Fraction(-1)},
    ]


def pair_loop_boundary_equalities(qprime, nvars, basis_degree):
    """Reference: one row per upper-triangle entry, deduplicated by the
    exact normalized pattern, in traversal order."""
    basis = enumerate_multi_indices(nvars, basis_degree)
    seen = set()
    rows = []
    for i in range(len(basis)):
        for j in range(i, len(basis)):
            beta = tuple(a + b for a, b in zip(basis[i], basis[j]))
            row: dict = {}
            for alpha, coef in qprime.items():
                target = tuple(a + b for a, b in zip(beta, alpha))
                row[target] = row.get(target, Fraction(0)) + coef
            row = {k: v for k, v in row.items() if v}
            if not row:
                continue
            lead = min(row, key=graded_lex_rank)
            pattern = tuple(sorted(
                ((k, v / row[lead]) for k, v in row.items()),
                key=lambda kv: graded_lex_rank(kv[0])))
            if pattern not in seen:
                seen.add(pattern)
                rows.append(row)
    return rows


@pytest.mark.parametrize("case", sorted(ASSEMBLY_CASES))
def test_reduced_equalities_match_pair_loop(case):
    make_model, K = ASSEMBLY_CASES[case]
    model = make_model()
    mp = build_moment_problem(model, "reduced", K, 1, "max")
    expected = pair_loop_boundary_equalities(mp.qprime, model.total_dim,
                                             K // 2)
    got = reduced_boundary_equalities(mp.qprime, model.total_dim, K,
                                      basis_degree=K // 2)
    assert got == expected
    assert [list(r) for r in got] == [list(r) for r in expected]
    assert mp.boundary_equalities == expected


def test_reduced_equalities_zero_polynomial_rejected():
    with pytest.raises(ValueError):
        reduced_boundary_equalities(Polynomial.zero(1), 1, 4)


def test_reduced_equalities_degree_guard():
    qprime = Polynomial(1, {(6,): 1})
    with pytest.raises(ValueError):
        reduced_boundary_equalities(qprime, 1, 4)


def test_reduced_equalities_hold_for_two_point_exit_law():
    # exit measure p*delta_1 + (1-p)*delta_0 gives b_k = p for k >= 1
    qprime = Polynomial(1, {(1,): 1, (2,): -1})
    rows = reduced_boundary_equalities(qprime, 1, 6)
    p = 0.37

    def b(k):
        return 1.0 if k == 0 else p

    for row in rows:
        total = sum(float(c) * b(sum(alpha)) for alpha, c in row.items())
        assert total == pytest.approx(0.0, abs=1e-12)


def test_reduced_equalities_deduplicate_patterns():
    qprime = Polynomial(1, {(1,): 1, (2,): -1})
    rows = reduced_boundary_equalities(qprime, 1, 6)
    # basis degree 3 gives beta in 0..6, one row per distinct beta
    assert len(rows) == 7


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n_user", [0, 2, 4])
def test_psd_size_law(n_user):
    model = box_model(n_user)
    K = 6  # large enough that deg(q') <= K for every box here
    for variant, factor in (("original", 3), ("reduced", 1)):
        program = assemble(model, variant, K, 1, "max")
        n_q = program.meta["n_q"]
        d_k = program.meta["d_k"]
        assert n_q == n_user + 2
        assert d_k == count_upto(model.total_dim, K // 2)
        assert program.psd_total_dim == (2 + factor * n_q) * d_k
        assert all(b.dim == d_k for b in program.blocks)


def test_reduced_variant_has_no_boundary_blocks():
    model = box_model(2)
    reduced = assemble(model, "reduced", 4, 1, "max")
    original = assemble(model, "original", 4, 1, "max")
    labels_r = [b.label for b in reduced.blocks]
    labels_o = [b.label for b in original.blocks]
    assert not any("b)#" in lab for lab in labels_r)
    assert sum("q' b)" in lab for lab in labels_o) == 2 * original.meta["n_q"]
    # reduced swaps the blocks for scalar equalities
    assert reduced.a_eq.shape[0] > original.a_eq.shape[0]


def test_objective_first_order_is_occupation_mass():
    model = box_model(2)
    program = assemble(model, "reduced", 4, 1, "max")
    c = program.objective
    (nz,) = np.nonzero(c)
    assert list(nz) == [0]  # m_{0,...,0} is the first variable
    assert c[0] == 1.0
    assert program.meta["objective_index"] == (0, 0)


def test_objective_higher_order_scaling():
    model = box_model(2)
    program = assemble(model, "reduced", 6, 3, "max")
    (nz,) = np.nonzero(program.objective)
    idx = program.meta["m_indices"][nz[0]]
    assert idx == (0, 2)  # t-exponent n-1
    assert program.objective[nz[0]] == 3.0


def test_variable_layout_extends_for_localizing_overshoot():
    model = box_model(2)
    K = 4
    program = assemble(model, "reduced", K, 1, "max")
    n = model.total_dim
    # interior polys are degree 1 here: occupation moments reach K + 1
    assert program.meta["num_m"] == count_upto(n, K + 1)
    # q' = y (1-y) (1-t) has degree 3 (start-time facet excluded)
    assert program.meta["num_b"] == count_upto(n, K + 3)
    assert program.num_vars == program.meta["num_m"] + program.meta["num_b"]


def test_mass_row_present():
    model = box_model(2)
    program = assemble(model, "reduced", 4, 1, "max")
    a = program.a_eq.toarray()
    num_m = program.meta["num_m"]
    # find the row with a single -1 on b_0
    target = np.zeros(program.num_vars)
    target[num_m] = -1.0
    hits = [r for r in range(a.shape[0])
            if np.array_equal(a[r], target) and program.rhs[r] == -1.0]
    assert len(hits) == 1


def test_duplicate_equality_rows_removed():
    model = box_model(2)
    program = assemble(model, "reduced", 4, 1, "max")
    a = program.a_eq.toarray()
    rows = {tuple(np.round(r / r[np.nonzero(r)[0][0]], 12)) for r in a}
    assert len(rows) == a.shape[0]


def test_assemble_precondition_checks():
    model = box_model(2)
    with pytest.raises(ValueError):
        assemble(model, "reduced", 4, 0, "max")
    with pytest.raises(ValueError):
        assemble(model, "reduced", 2, 5, "max")
    with pytest.raises(ValueError):
        assemble(model, "diagonal", 4, 1, "max")
    with pytest.raises(ValueError):
        assemble(model, "reduced", 4, 1, "extremize")


def test_psd_block_materialization_is_symmetric():
    model = box_model(2)
    program = assemble(model, "reduced", 4, 2, "max")
    rng = np.random.default_rng(0)
    z = rng.normal(size=program.num_vars)
    for block in program.blocks:
        mat = block.materialize(z)
        assert np.array_equal(mat, mat.T)


def per_entry_block(loc: LocalizingMap, offset: int, num_vars: int):
    """Reference lowering of one block through ``LocalizingMap.entries``."""
    rows, cols, vals = [], [], []
    pos = 0
    for i in range(loc.dim):
        for j in range(i, loc.dim):
            for coef, rank in loc.entries(i, j):
                rows.append(pos)
                cols.append(offset + rank)
                vals.append(float(coef))
            pos += 1
    mat = sp.csr_matrix((vals, (rows, cols)), shape=(pos, num_vars))
    mat.sum_duplicates()
    return mat


def assert_same_csr(got, expected):
    assert got.shape == expected.shape
    for name in ("indptr", "indices", "data"):
        a, b = getattr(got, name), getattr(expected, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name


@pytest.mark.parametrize("variant", ["original", "reduced"])
@pytest.mark.parametrize("case", sorted(ASSEMBLY_CASES))
def test_lowering_matches_per_entry_reference(case, variant):
    make_model, K = ASSEMBLY_CASES[case]
    model = make_model()
    n = model.total_dim
    mp = build_moment_problem(model, variant, K, 2, "min")
    program = lower_to_conic(mp)
    num_m = len(mp.m_indices)
    num_vars = program.num_vars
    base = MomentIndexMap(n, K, mp.moment_basis)
    polys = [(Polynomial.constant(n, 1), 0), (Polynomial.constant(n, 1), num_m)]
    polys += [(q, 0) for q in mp.interior_polys]
    if variant == "original":
        polys += [(sign * mp.qprime, num_m)
                  for _ in mp.interior_polys for sign in (1, -1)]
    assert len(program.blocks) == len(polys)
    for block, (q, offset) in zip(program.blocks, polys):
        assert_same_csr(block.mat,
                        per_entry_block(LocalizingMap(q, base), offset, num_vars))

    # equalities lowered from the pair-loop boundary rows
    ref_rows = (pair_loop_boundary_equalities(mp.qprime, n, K // 2)
                if variant == "reduced" else [])
    reference = lower_to_conic(
        dataclasses.replace(mp, boundary_equalities=ref_rows))
    assert_same_csr(program.a_eq, reference.a_eq)
    assert np.array_equal(program.rhs, reference.rhs)
    expected_c = np.zeros(num_vars)
    expected_c[graded_lex_rank(program.meta["objective_index"])] = 2.0
    assert np.array_equal(program.objective, expected_c)


def test_block_target_outside_the_variables_raises():
    base = MomentIndexMap(1, 2, enumerate_multi_indices(1, 1))
    loc = LocalizingMap(Polynomial(1, {(1,): 1}), base)
    # targets reach degree 3: four variables hold them, three do not
    assert _psd_block("q", loc, 0, 4, 4).mat.shape == (3, 4)
    with pytest.raises(KeyError):
        _psd_block("q", loc, 0, 3, 4)


def test_moment_problem_records_dropped_rows():
    spring = augment(SdeModel.from_strings(
        ["x", "v"], ["v", "-5*x - 9.81 + v*sin(x)"], [["0"], ["1"]],
        [-9.81 / 5, 0.0], 10.0, ["-x", "x + 2"]))
    mp = build_moment_problem(spring, "reduced", 4, 1, "max")
    assert mp.dropped_rows
    kept = {r.test_index for r in mp.rows}
    assert not kept.intersection(set(mp.dropped_rows))
