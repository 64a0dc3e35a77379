import collections
import dataclasses
import json
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp

import exitmoment.conic as conic
from exitmoment.augment import moment_unscale_factor
from exitmoment.cli import main
from exitmoment.conic import (
    SolverSettings,
    SolveResult,
    _Anderson,
    _ruiz_equilibrate,
    _SvecBlocks,
    presolve,
    solve,
)
from exitmoment.momentproblem import ConicProgram, PsdBlock, assemble

from circle_quotient import quotient_svec
from models import BROWNIAN, BROWNIAN_2D, BROWNIAN_MOMENTS, DISC, PENDULUM, scaled
from traced import traced_peak


@pytest.fixture(scope="module")
def brownian():
    return scaled(BROWNIAN)


@pytest.fixture(scope="module")
def pendulum():
    return scaled(PENDULUM)


# ---------------------------------------------------------------------------
# settings
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("max_iters", [0, -1, 2.5, True])
def test_settings_reject_max_iters_below_one(max_iters):
    with pytest.raises(ValueError, match="max_iters"):
        SolverSettings(max_iters=max_iters)


# ---------------------------------------------------------------------------
# batched PSD projection
# ---------------------------------------------------------------------------


def svec_program(dims):
    """A program whose blocks read consecutive svec slices of z."""
    blocks, offset = [], 0
    total = sum(d * (d + 1) // 2 for d in dims)
    for i, d in enumerate(dims):
        n_svec = d * (d + 1) // 2
        mat = sp.eye(n_svec, total, k=offset, format="csr")
        blocks.append(PsdBlock(f"b{i}", d, mat))
        offset += n_svec
    return ConicProgram(total, np.zeros(total), "min", sp.csr_matrix((0, total)),
                        np.zeros(0), blocks)


def svec_scale(d):
    iu, ju = np.triu_indices(d)
    return np.where(iu == ju, 1.0, math.sqrt(2.0))


def to_matrix(vec, d):
    iu, ju = np.triu_indices(d)
    out = np.zeros((d, d))
    out[iu, ju] = vec / svec_scale(d)
    out[ju, iu] = vec / svec_scale(d)
    return out


def from_matrix(mat):
    d = mat.shape[0]
    iu, ju = np.triu_indices(d)
    return mat[iu, ju] * svec_scale(d)


def project_reference(vec, dims):
    """One np.linalg.eigh per block."""
    out, offset = [], 0
    for d in dims:
        n_svec = d * (d + 1) // 2
        w, v = np.linalg.eigh(to_matrix(vec[offset:offset + n_svec], d))
        out.append(from_matrix((v * np.maximum(w, 0.0)) @ v.T))
        offset += n_svec
    return np.concatenate(out)


def split(vec, dims):
    offset = 0
    for d in dims:
        n_svec = d * (d + 1) // 2
        yield d, vec[offset:offset + n_svec]
        offset += n_svec


MIXED_DIMS = [15, 36, 21, 15, 21, 36, 21]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_batched_projection_matches_per_block_eigh(seed):
    blocks = _SvecBlocks(svec_program(MIXED_DIMS))
    vec = np.random.default_rng(seed).standard_normal(blocks.total)
    got = blocks.project(vec)
    np.testing.assert_allclose(got, project_reference(vec, MIXED_DIMS),
                               rtol=0, atol=1e-12)
    for d, part in split(got, MIXED_DIMS):
        assert np.linalg.eigvalsh(to_matrix(part, d))[0] >= -1e-12
    np.testing.assert_allclose(blocks.project(got), got, rtol=0, atol=1e-12)


def test_projection_leaves_psd_blocks_unchanged():
    rng = np.random.default_rng(3)
    parts = []
    for d in MIXED_DIMS:
        b = rng.standard_normal((d, d))
        parts.append(from_matrix(b @ b.T + np.eye(d)))
    vec = np.concatenate(parts)
    # one indefinite block among PSD ones of the same dimension
    vec[:parts[0].size] = rng.standard_normal(parts[0].size)
    got = _SvecBlocks(svec_program(MIXED_DIMS)).project(vec)
    np.testing.assert_allclose(got[parts[0].size:], vec[parts[0].size:],
                               rtol=0, atol=1e-12)
    assert not np.allclose(got[:parts[0].size], vec[:parts[0].size])


# ---------------------------------------------------------------------------
# equilibration
# ---------------------------------------------------------------------------


def ruiz_reference(a_eq, g, lengths, iters=10):
    """The per-pass loop that rebuilds both scaled matrices twice."""
    ends = np.cumsum(lengths)
    slices = list(zip(ends - lengths, ends))
    total = int(ends[-1]) if len(ends) else 0
    m_eq = a_eq.shape[0]
    n = a_eq.shape[1]
    d_eq = np.ones(m_eq)
    d_cone = np.ones(len(slices))
    e_col = np.ones(n)
    for _ in range(iters):
        a_s = sp.diags(d_eq) @ a_eq @ sp.diags(e_col) if m_eq else a_eq
        cone_scale_rows = np.concatenate([
            np.full(end - start, d_cone[i])
            for i, (start, end) in enumerate(slices)
        ]) if total else np.zeros(0)
        g_s = sp.diags(cone_scale_rows) @ g @ sp.diags(e_col)
        if m_eq:
            r = np.asarray(abs(a_s).max(axis=1).todense()).ravel()
            r[r == 0] = 1.0
            d_eq /= np.sqrt(r)
        for i, (start, end) in enumerate(slices):
            sub = g_s[start:end]
            r = abs(sub).max() if sub.nnz else 0.0
            if r > 0:
                d_cone[i] /= math.sqrt(r)
        a_s = sp.diags(d_eq) @ a_eq @ sp.diags(e_col) if m_eq else a_eq
        cone_scale_rows = np.concatenate([
            np.full(end - start, d_cone[i])
            for i, (start, end) in enumerate(slices)
        ]) if total else np.zeros(0)
        g_s = sp.diags(cone_scale_rows) @ g @ sp.diags(e_col)
        stack = sp.vstack([a_s, g_s], format="csc") if m_eq else g_s.tocsc()
        c = np.asarray(abs(stack).max(axis=0).todense()).ravel()
        c[c == 0] = 1.0
        e_col /= np.sqrt(c)
    return d_eq, d_cone, e_col


@pytest.mark.parametrize("which", [
    ("brownian", "reduced", 8, 1), ("brownian", "original", 8, 1),
    ("brownian", "reduced", 14, 3), ("pendulum", "original", 4, 1),
])
def test_ruiz_scalings_match_reference_loop_bit_for_bit(which, request):
    name, variant, K, order = which
    program = assemble(request.getfixturevalue(name), variant, K, order, "min")
    blocks = _SvecBlocks(program)
    a_eq = program.a_eq.tocsr().astype(float)
    g = blocks.stacked.astype(float)
    d_eq, d_cone, e_col, a_s, g_s = _ruiz_equilibrate(a_eq, g, blocks)
    ref = ruiz_reference(a_eq, g, blocks.lengths)
    for got, want in zip((d_eq, d_cone, e_col), ref):
        assert np.array_equal(got, want)
    cone_rows = np.repeat(d_cone, blocks.lengths)
    assert np.array_equal(
        a_s.toarray(), (sp.diags(d_eq) @ a_eq @ sp.diags(e_col)).toarray())
    assert np.array_equal(
        g_s.toarray(), (sp.diags(cone_rows) @ g @ sp.diags(e_col)).toarray())


def test_ruiz_without_equality_rows():
    program = svec_program([3, 4])
    program.blocks[1].mat = 2.0 * program.blocks[1].mat
    blocks = _SvecBlocks(program)
    a_eq = program.a_eq.tocsr().astype(float)
    d_eq, d_cone, e_col, a_s, _ = _ruiz_equilibrate(a_eq, blocks.stacked, blocks)
    ref = ruiz_reference(a_eq, blocks.stacked, blocks.lengths)
    assert d_eq.size == 0 and a_s.shape == (0, program.num_vars)
    for got, want in zip((d_eq, d_cone, e_col), ref):
        assert np.array_equal(got, want)


# ---------------------------------------------------------------------------
# Anderson acceleration
# ---------------------------------------------------------------------------


def anderson_reference(xs, ts, memory):
    """Type-II step from the full history of inputs xs and outputs ts."""
    k = min(len(xs) - 1, memory)
    if not k:
        return ts[-1]
    fs = [t - x for x, t in zip(xs, ts)]
    d_f = np.array([fs[i + 1] - fs[i] for i in range(len(fs) - k - 1, len(fs) - 1)])
    d_t = np.array([ts[i + 1] - ts[i] for i in range(len(ts) - k - 1, len(ts) - 1)])
    gram = d_f @ d_f.T
    reg = conic.AA_REGULARIZATION * np.trace(gram)
    gamma = np.linalg.solve(gram + reg * np.eye(k), d_f @ fs[-1])
    return ts[-1] - gamma @ d_t


def test_anderson_ring_buffer_matches_full_history():
    rng = np.random.default_rng(0)
    dim, memory = 8, 3
    m = rng.standard_normal((dim, dim))
    m *= 0.9 / np.abs(np.linalg.eigvals(m)).max()
    b = rng.standard_normal(dim)
    aa = _Anderson(dim, memory)
    xs, ts = [], []
    x = np.zeros(dim)
    for _ in range(12):  # wraps the ring buffer several times
        tx = m @ x + b
        xs.append(x)
        ts.append(tx)
        x = aa.step(tx, tx - x)
        np.testing.assert_allclose(x, anderson_reference(xs, ts, memory),
                                   rtol=1e-9, atol=1e-12)


def test_anderson_solves_a_linear_contraction_in_few_steps():
    rng = np.random.default_rng(1)
    dim = 6
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    m = q @ np.diag(np.linspace(0.5, 0.99, dim)) @ q.T
    b = rng.standard_normal(dim)
    fixed = np.linalg.solve(np.eye(dim) - m, b)
    aa = _Anderson(dim, 10)
    x = np.zeros(dim)
    for _ in range(dim + 2):
        tx = m @ x + b
        x = aa.step(tx, tx - x)
    assert np.linalg.norm(x - fixed) < 1e-6 * np.linalg.norm(fixed)
    # the plain iteration is still far off after the same number of steps
    y = np.zeros(dim)
    for _ in range(dim + 2):
        y = m @ y + b
    assert np.linalg.norm(y - fixed) > 0.1 * np.linalg.norm(fixed)


# ---------------------------------------------------------------------------
# presolve
# ---------------------------------------------------------------------------


def size(program):
    return len(program.blocks), program.a_eq.shape[0]


def block_arrays(program):
    return [a for b in program.blocks
            for a in (np.array([b.dim]), b.mat.indptr, b.mat.indices, b.mat.data)]


def program_arrays(program):
    """Every array of a program, block dimensions included, in order."""
    return [program.objective, program.rhs, program.a_eq.indptr,
            program.a_eq.indices, program.a_eq.data] + block_arrays(program)


def same_arrays(a, b):
    return len(a) == len(b) and all(
        x.dtype == y.dtype and np.array_equal(x, y) for x, y in zip(a, b))


def equality_rows(program):
    """The equality rows as a multiset of (columns, values, rhs)."""
    a_eq = program.a_eq.sorted_indices()
    bounds = zip(a_eq.indptr[:-1], a_eq.indptr[1:], program.rhs)
    return collections.Counter(
        (a_eq.indices[lo:hi].tobytes(), a_eq.data[lo:hi].tobytes(), float(r))
        for lo, hi, r in bounds)


@pytest.mark.parametrize("name, variant, K, before, after", [
    ("brownian", "reduced", 14, (4, 385), (4, 385)),
    ("brownian", "original", 8, (14, 45), (6, 90)),
    ("pendulum", "reduced", 6, (8, 1645), (8, 1645)),
    ("pendulum", "original", 4, (20, 187), (8, 313)),
], ids=["brownian-reduced-K14", "brownian-original-K8", "pendulum-reduced-K6",
        "pendulum-original-K4"])
def test_presolve_sizes(name, variant, K, before, after, request):
    program = assemble(request.getfixturevalue(name), variant, K, 1, "min")
    presolved = presolve(program)
    assert size(program) == before and size(presolved) == after
    if before == after:  # nothing to presolve: the program itself
        assert presolved is program
    # the variables do not change
    assert presolved.num_vars == program.num_vars
    assert presolved.objective is program.objective
    # a second pass finds nothing more
    assert presolve(presolved) is presolved


def with_left_out_parts(reduced, original):
    """The reduced program with what only the original variant states put
    back: the original's M(m), which the time box implies, its M(b), which
    two safe polynomials that sum to a positive constant imply, and each
    M(q m) that mirrors an earlier block under a reflection, in the
    original's block order; and without what only the reduced variant
    states: the M(q b) blocks, which the original lacks, and the rows
    after those the original presolves to (the symmetry rows, which
    restrict the reduced program to invariant moments, and the rows
    M(g b) = 0 of each circle g)."""
    kept = {b.label: b for b in reduced.blocks}
    blocks = [kept.get(b.label, b) for b in original.blocks if "q' b" not in b.label]
    rows = presolve(original).a_eq.shape[0]
    return dataclasses.replace(reduced, blocks=blocks, a_eq=reduced.a_eq[:rows],
                               rhs=reduced.rhs[:rows])


@pytest.mark.parametrize("order", [1, 3])
def test_presolved_brownian_variants_are_one_program(brownian, order):
    """Up to M(m) and M(b), which only the original variant states, M(y b),
    which only the reduced variant states, and the reflection y -> 1 - y,
    which only the reduced variant uses: it leaves out M((1 - y) m) and
    adds one row per moment with an odd power of y."""
    original = assemble(brownian, "original", 8, order, "min")
    reduced = presolve(assemble(brownian, "reduced", 8, order, "min"))
    kept = {b.label for b in reduced.blocks}
    assert [b.label for b in with_left_out_parts(reduced, original).blocks
            if b.label not in kept] == ["M(m)", "M(b)", "M(q1 m)"]
    assert [b.label for b in reduced.blocks
            if b.label not in {b.label for b in original.blocks}] == ["M(q0 b)"]
    assert reduced.a_eq.shape[0] - presolve(original).a_eq.shape[0] == 61
    assert not reduced.rhs[-61:].any()
    assert same_arrays(program_arrays(presolve(original)),
                       program_arrays(with_left_out_parts(reduced, original)))


@pytest.mark.parametrize("K, side", [pytest.param(4, 20, id="4"), pytest.param(6, 50, id="6")])
def test_presolved_pendulum_variants_share_blocks_and_rows(pendulum, K, side):
    """Up to M(m), which only the original variant states, and the circle
    quotient basis of the reduced blocks: each is the principal submatrix
    of its original twin at the monomials that s^2 does not divide."""
    assembled = assemble(pendulum, "original", K, 1, "min")
    original = presolve(assembled)
    own = presolve(assemble(pendulum, "reduced", K, 1, "min"))
    assert all(b.dim == side for b in own.blocks)
    reduced = with_left_out_parts(own, assembled)
    svec = quotient_svec(pendulum, K)
    assert len(svec) == side * (side + 1) // 2

    def principal(program):
        return dataclasses.replace(program, blocks=[
            b if b.dim == side else PsdBlock(b.label, side, b.mat[svec])
            for b in program.blocks])

    assert same_arrays(block_arrays(principal(original)), block_arrays(principal(reduced)))
    rows = equality_rows(original)
    assert rows == equality_rows(reduced)
    assert len(rows) == original.a_eq.shape[0]  # no row repeats


def test_presolve_merges_repeats_and_closes_each_pair_once():
    program = svec_program([2, 3])
    a, b = program.blocks
    neg_a = PsdBlock("-a", a.dim, -a.mat)
    program.blocks = [a, neg_a, neg_a, a, b]
    presolved = presolve(program)
    assert len(presolved.blocks) == 1 and presolved.blocks[0] is b
    # the three svec rows of the 2 x 2 block a, each once
    assert (presolved.a_eq != a.mat).nnz == 0
    assert np.array_equal(presolved.rhs, np.zeros(3))


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("sense", ["min", "max"])
def test_brownian_reduced_k8_order1_reaches_a_quarter(brownian, sense, monkeypatch):
    monkeypatch.setattr(conic, "IPM_MAX_FREE", -math.inf)
    res = solve(assemble(brownian, "reduced", 8, 1, sense))
    assert res.status == "optimal"
    bound = res.objective * moment_unscale_factor(brownian, 1)
    assert abs(bound - 0.25) <= 1e-6
    if sense == "max":
        assert res.iterations <= 3500
    assert all(len(entry) == 2 for entry in res.residual_history)
    assert res.residual_history[-1][0] == res.iterations
    assert isinstance(res.aa_rejected, int) and res.aa_rejected >= 0


@pytest.mark.parametrize("order", [1, 2], ids=["order1", "order2"])
@pytest.mark.parametrize("sense", ["min", "max"])
def test_brownian_reduced_k10_bounds_within_a_thousand_iterations(
        brownian, order, sense, monkeypatch):
    monkeypatch.setattr(conic, "IPM_MAX_FREE", -math.inf)
    exact = float(BROWNIAN_MOMENTS[order])
    res = solve(assemble(brownian, "reduced", 10, order, sense))
    assert res.status == "optimal"
    bound = res.objective * moment_unscale_factor(brownian, order)
    assert abs(bound - exact) <= 1e-6 * exact
    assert res.iterations <= 1000


def test_brownian_reduced_k14_order6_max_within_a_thousand_iterations(
        brownian, monkeypatch):
    """The dual residual |G'f + sigma z| of one map step stops this solve
    at 225 iterations; a residual that measured the jump between
    consecutive (Anderson-extrapolated) map inputs held it to 1,875 on
    the program with M(m) and M(b) and without the reflection
    y -> 1 - y."""
    monkeypatch.setattr(conic, "IPM_MAX_FREE", -math.inf)
    exact = float(BROWNIAN_MOMENTS[6])
    res = solve(assemble(brownian, "reduced", 14, 6, "max"))
    assert res.status == "optimal"
    bound = res.objective * moment_unscale_factor(brownian, 6)
    assert abs(bound - exact) <= 1e-3 * exact
    assert res.iterations <= 1000


def test_original_variant_solves_the_reduced_program(brownian, monkeypatch):
    monkeypatch.setattr(conic, "IPM_MAX_FREE", -math.inf)
    original = assemble(brownian, "original", 8, 1, "min")
    res = solve(original)
    assert res.status == "optimal"
    assert (res.psd_blocks, res.eq_rows) == (6, 90)
    # the dropped M(+q' b), M(-q' b) pair holds as equalities at z
    (pair,) = [b for b in original.blocks if b.label == "M(+q' b)#0"]
    assert np.abs(pair.mat @ res.z).max() <= conic.EPS_ABS
    # the presolved original is the reduced program with M(m), M(b) and
    # M((1 - y) m) put back and M(y b) and the symmetry rows taken off
    reduced = assemble(brownian, "reduced", 8, 1, "min")
    assert res.objective == solve(with_left_out_parts(reduced, original)).objective


def test_safeguard_rejections_are_counted(brownian, monkeypatch):
    """With a zero safeguard factor every accelerated point is dropped, so
    the solver falls back to the plain steps and still converges.  Each
    rejection clears the Anderson memory, and nothing else does."""
    resets = []

    class CountingAnderson(conic._Anderson):
        def reset(self):
            resets.append(self.count)
            super().reset()

    monkeypatch.setattr(conic, "IPM_MAX_FREE", -math.inf)
    monkeypatch.setattr(conic, "_Anderson", CountingAnderson)
    monkeypatch.setattr(conic, "AA_SAFEGUARD", 0.0)
    res = solve(assemble(brownian, "reduced", 8, 1, "min"))
    assert res.status == "optimal"
    assert abs(res.objective * moment_unscale_factor(brownian, 1) - 0.25) <= 1e-6
    assert res.aa_rejected >= res.iterations // 4
    assert len(resets) == res.aa_rejected


def test_the_plain_map_converges_without_acceleration(brownian, monkeypatch):
    monkeypatch.setattr(conic, "IPM_MAX_FREE", -math.inf)
    monkeypatch.setattr(conic, "AA_MEMORY", 0)
    res = solve(assemble(brownian, "reduced", 8, 1, "min"))
    assert res.status == "optimal" and res.aa_rejected == 0
    assert abs(res.objective * moment_unscale_factor(brownian, 1) - 0.25) <= 1e-6


def one_variable_program(rhs=1.0, entry=1.0, objective=1.0):
    """min objective * x  s.t.  x = rhs,  [entry * x] >= 0."""
    return ConicProgram(
        num_vars=1, objective=np.array([objective]), sense="min",
        a_eq=sp.csr_matrix(np.array([[1.0]])), rhs=np.array([rhs]),
        blocks=[PsdBlock("M", 1, sp.csr_matrix(np.array([[entry]])))])


# None of these solves may warn: tier-1 turns a RuntimeWarning into an error.


@pytest.mark.parametrize("data", [{"entry": math.nan}, {"rhs": math.inf},
                                  {"objective": math.nan}],
                         ids=["nan-entry", "inf-rhs", "nan-objective"])
def test_non_finite_program_data_is_rejected_up_front(data):
    res = solve(one_variable_program(**data))
    assert res.status == "numerical_failure"
    assert res.message == "non-finite program data"
    assert res.iterations == 0 and math.isnan(res.objective)


def test_a_program_without_psd_blocks_is_refused():
    """x = 1, minimize x, with no block: a status and a message, not an
    exception from the solvers' block bookkeeping."""
    program = one_variable_program()
    program.blocks = []
    res = solve(program)
    assert res.status == "numerical_failure"
    assert res.message.startswith("no PSD blocks")
    assert res.iterations == 0 and math.isnan(res.objective)


def failing_splu(kkt):
    raise RuntimeError("Factor is exactly singular")


def test_a_failed_kkt_factorization_is_reported(monkeypatch):
    monkeypatch.setattr(conic, "IPM_MAX_FREE", -math.inf)
    monkeypatch.setattr(conic.spla, "splu", failing_splu)
    res = solve(one_variable_program())
    assert res.status == "numerical_failure"
    assert res.message == "KKT factorization failed: Factor is exactly singular"
    assert res.iterations == 0


def test_non_finite_iterates_stop_at_the_first_check(monkeypatch):
    monkeypatch.setattr(conic, "IPM_MAX_FREE", -math.inf)
    monkeypatch.setattr(conic._SvecBlocks, "project",
                        lambda self, vec: np.full_like(vec, math.nan))
    res = solve(one_variable_program(), SolverSettings(max_iters=200))
    assert res.status == "numerical_failure"
    assert res.message == "iterates diverged"
    assert res.iterations == conic.CHECK_INTERVAL


def test_a_failed_eigendecomposition_is_reported(monkeypatch):
    def failing_eigh(mats):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(conic, "IPM_MAX_FREE", -math.inf)
    monkeypatch.setattr(np.linalg, "eigh", failing_eigh)
    res = solve(one_variable_program())
    assert res.status == "numerical_failure"
    assert res.message.startswith("factorization failed")
    assert res.iterations == 1


def test_the_optimality_gate_reads_every_block(brownian, monkeypatch):
    """ADMM stops ``optimal`` only once the least eigenvalue of every block
    at z, not only the first two, is at least -10 ``EPS_ABS``."""
    read, least_eigenvalue = [], conic._least_eigenvalue

    def recorded(mat):
        read.append(mat.shape[0])
        return least_eigenvalue(mat)

    monkeypatch.setattr(conic, "IPM_MAX_FREE", -math.inf)
    monkeypatch.setattr(conic, "_least_eigenvalue", recorded)
    program = assemble(brownian, "reduced", 8, 1, "min")
    res = solve(program)
    assert (res.status, res.method, res.psd_blocks) == ("optimal", "admm", 4)
    assert read == [b.dim for b in program.blocks]


def test_inconsistent_equality_rows_end_the_solve():
    """x = 1 and x = 2: the interior-point method refuses the program, and
    no ADMM run follows."""
    program = one_variable_program()
    program.a_eq = sp.csr_matrix(np.array([[1.0], [1.0]]))
    program.rhs = np.array([1.0, 2.0])
    res = solve(program)
    assert (res.status, res.method) == ("numerical_failure", "ipm")
    assert res.message == "inconsistent equality rows"
    assert res.iterations == 0 and math.isnan(res.objective)


def unbounded_program():
    """min z1 with z0 = 1 and the block [z0]: nothing bounds z1."""
    return ConicProgram(
        num_vars=2, objective=np.array([0.0, 1.0]), sense="min",
        a_eq=sp.csr_matrix(np.array([[1.0, 0.0]])), rhs=np.array([1.0]),
        blocks=[PsdBlock("M", 1, sp.csr_matrix(np.array([[1.0, 0.0]])))])


def test_dependent_equality_rows_are_solved_by_the_interior_point_method():
    """x = 1 and 2 x = 2: the rank of the equality rows is 1, and the
    interior-point method solves the program without a refusal."""
    program = one_variable_program()
    program.a_eq = sp.csr_matrix(np.array([[1.0], [2.0]]))
    program.rhs = np.array([1.0, 2.0])
    res = solve(program)
    assert (res.status, res.method, res.message) == ("optimal", "ipm", "")
    assert res.z == pytest.approx([1.0], abs=1e-12)


def test_an_objective_no_block_bounds_ends_the_solve():
    """The interior-point method refuses the program, and no ADMM run
    follows."""
    res = solve(unbounded_program())
    assert (res.status, res.method) == ("numerical_failure", "ipm")
    assert res.message == "the objective moves along a direction no PSD block bounds"
    assert res.iterations == 0 and math.isnan(res.objective)


def test_admm_does_not_call_an_unbounded_objective_optimal(monkeypatch):
    """ADMM alone: only the KKT step's sigma z holds z1 back, at about
    -1 / sigma = -1e9, where |G'f| reads 0.  A dual residual of |G'f|
    called that point optimal after 25 iterations; |G'f + sigma z| reads
    1 there."""
    monkeypatch.setattr(conic, "IPM_MAX_FREE", -math.inf)
    res = solve(unbounded_program(), SolverSettings(max_iters=100))
    assert (res.status, res.method, res.iterations) == ("max_iters", "admm", 100)
    assert res.dual_residual == pytest.approx(1.0, rel=1e-6)


# ---------------------------------------------------------------------------
# interior-point method
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("order", range(1, 7))
@pytest.mark.parametrize("sense", ["min", "max"])
def test_brownian_reduced_k14_bounds_by_the_interior_point_method(
        brownian, order, sense):
    exact = BROWNIAN_MOMENTS[order]
    res = solve(assemble(brownian, "reduced", 14, order, sense))
    assert (res.status, res.method, res.message) == ("optimal", "ipm", "")
    assert res.iterations <= 40
    bound = res.objective * moment_unscale_factor(brownian, order)
    assert abs(bound - float(exact)) <= 1e-5 * float(exact)
    # the reported end of the primal/dual pair lies on the side of a bound
    assert Fraction(bound) <= exact if sense == "min" else Fraction(bound) >= exact
    # one history entry per step; the last one met the stopping rule
    assert [i for i, _ in res.residual_history] == list(range(1, res.iterations + 1))
    assert res.residual_history[-1][1] <= conic.EPS_REL
    assert max(res.primal_residual, res.dual_residual) <= conic.EPS_REL


@pytest.mark.parametrize("K", [4, 6, 8, 10])
@pytest.mark.parametrize("order", [1, 2, 4])
@pytest.mark.parametrize("sense", ["min", "max"])
def test_held_out_brownian_bounds_end_on_their_side_by_the_interior_point_method(
        brownian, K, order, sense):
    """The 24 bounds off the benchmark that ``IPM_STEP`` was tuned on."""
    res = solve(assemble(brownian, "reduced", K, order, sense))
    assert (res.status, res.method) == ("optimal", "ipm")
    bound = Fraction(res.objective * moment_unscale_factor(brownian, order))
    exact = BROWNIAN_MOMENTS[order]
    assert bound <= exact if sense == "min" else bound >= exact


@pytest.mark.parametrize("K, order", [(6, 1), (6, 2), (6, 4), (10, 4)])
def test_interior_point_brackets_the_bounds_admm_leaves_unconverged(
        brownian, K, order):
    """ADMM stopped at 20,000 iterations on each "max" here while the
    exit measure had only M(b); with M(y b) it still does on K=6 order 4,
    and ends optimal after 675, 2,775 and 400 iterations on the others."""
    bound = {}
    for sense in ("min", "max"):
        res = solve(assemble(brownian, "reduced", K, order, sense))
        assert (res.status, res.method) == ("optimal", "ipm")
        bound[sense] = Fraction(res.objective * moment_unscale_factor(brownian, order))
    assert bound["min"] <= BROWNIAN_MOMENTS[order] <= bound["max"]


@pytest.mark.parametrize("K, order, bracket_without", [
    (4, 2, 1.76e-1), (8, 4, 2.20e-4), (10, 6, 3.34e-4)])
def test_exit_measure_localizers_narrow_the_brackets_a_hundredfold(
        brownian, K, order, bracket_without):
    """M(y b), the exit-measure localizer of the safe polynomial y (its
    mirror M((1 - y) b) is implied), narrows max - min to 2.5e-4, 8.1e-7
    and 1.8e-6 here; ``bracket_without`` is the bracket of the program with
    M(b) in its place, which states only that b is a measure."""
    bound = {}
    for sense in ("min", "max"):
        res = solve(assemble(brownian, "reduced", K, order, sense))
        assert (res.status, res.method) == ("optimal", "ipm")
        bound[sense] = Fraction(res.objective * moment_unscale_factor(brownian, order))
    assert bound["min"] <= BROWNIAN_MOMENTS[order] <= bound["max"]
    assert 100 * (bound["max"] - bound["min"]) <= bracket_without


def test_brownian_reduced_k22_order1_by_the_interior_point_method(brownian):
    """Without the exit-measure localizer the largest residual stopped
    halving after step 24, and the stall test handed this solve to ADMM;
    with it the interior-point method ends in 20 steps."""
    res = solve(assemble(brownian, "reduced", 22, 1, "min"))
    assert (res.status, res.method, res.message) == ("optimal", "ipm", "")
    bound = Fraction(res.objective * moment_unscale_factor(brownian, 1))
    assert bound <= BROWNIAN_MOMENTS[1]


def test_original_variant_min_by_the_interior_point_method_is_below_a_quarter(brownian):
    res = solve(assemble(brownian, "original", 8, 1, "min"))
    assert (res.status, res.method) == ("optimal", "ipm")
    assert res.objective < 0.25
    assert 0.25 - res.objective <= 1e-6


# ADMM's own stopping point on K=6 order-2 "min" is 9.9e-7 (relative) below
# the interior-point optimum; with EPS_ABS = EPS_REL = 1e-8 it stops within
# 1.7e-7 of it after 13,000 iterations, and on K=6 order-2 "max" it stops
# 1.1e-6 from it.  ADMM reaches the "max" bounds of K=6 orders 1-2 and K=8
# order 2 in 675, 2,775 and 500 iterations since the exit measure carries
# M(y b); with M(b) alone it did not reach the K=6 ones in 20,000, and K=8
# order 2 took 18,500.
@pytest.mark.parametrize("K, order, sense, rel", [
    (6, 1, "min", 1e-6), (6, 1, "max", 1e-6), (6, 2, "min", 2e-6),
    (6, 2, "max", 2e-6), (8, 1, "min", 1e-6), (8, 1, "max", 1e-6),
    (8, 2, "min", 1e-6), (8, 2, "max", 1e-6), (10, 1, "min", 1e-6),
    (10, 1, "max", 1e-6), (10, 2, "min", 1e-6), (10, 2, "max", 1e-6)])
def test_interior_point_agrees_with_admm(brownian, monkeypatch, K, order, sense, rel):
    program = assemble(brownian, "reduced", K, order, sense)
    ipm = solve(program)
    monkeypatch.setattr(conic, "IPM_MAX_FREE", -math.inf)
    admm = solve(program)
    assert (ipm.method, admm.method) == ("ipm", "admm")
    assert ipm.status == admm.status == "optimal"
    assert abs(ipm.objective - admm.objective) <= rel * abs(admm.objective)


def test_a_nearly_singular_moment_matrix_raises_no_exception(brownian):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = solve(assemble(brownian, "reduced", 4, 2, "max"))
    assert (res.status, res.method) == ("optimal", "ipm")


def test_a_program_without_free_moments_is_solved_by_the_interior_point_method():
    res = solve(one_variable_program())
    assert (res.status, res.method) == ("optimal", "ipm")
    assert np.array_equal(res.z, [1.0])
    # the reported "min" is the dual end, within the stopping gap
    # EPS_REL (|primal| + |dual|) below the exact minimum 1
    assert 1.0 - 2 * conic.EPS_REL <= res.objective <= 1.0


def test_a_program_without_equality_rows_is_solved_by_the_interior_point_method():
    """min z0 over [[z0, z1], [z1, z0]] >= 0: no reflector to apply, and
    the null space is every direction."""
    program = ConicProgram(
        num_vars=2, objective=np.array([1.0, 0.0]), sense="min",
        a_eq=sp.csr_matrix((0, 2)), rhs=np.zeros(0),
        blocks=[PsdBlock("M", 2, sp.csr_matrix(np.eye(2)[[0, 1, 0]]))])
    res = solve(program)
    assert (res.status, res.method, res.message) == ("optimal", "ipm", "")
    assert abs(res.objective) <= 1e-6


def test_an_interior_point_breakdown_returns_the_admm_result(brownian, monkeypatch):
    program = assemble(brownian, "reduced", 8, 1, "min")

    def singular(*args, **kwargs):
        raise np.linalg.LinAlgError("Schur matrix is singular")

    class CountedBlocks(conic._SvecBlocks):
        def __init__(self, program):
            built.append(program)
            super().__init__(program)

    built = []
    monkeypatch.setattr(conic.sla, "cho_factor", singular)
    monkeypatch.setattr(conic, "_SvecBlocks", CountedBlocks)
    res = solve(program)
    # both methods work from the one svec bookkeeping solve builds
    assert len(built) == 1
    monkeypatch.setattr(conic, "IPM_MAX_FREE", -math.inf)
    admm = solve(program)
    assert res.message == ("interior point stopped: "
                           "factorization failed: Schur matrix is singular")
    assert admm.message == ""
    for name in ("status", "objective", "primal_residual", "dual_residual",
                 "iterations", "psd_blocks", "eq_rows", "method",
                 "residual_history", "aa_rejected"):
        assert getattr(res, name) == getattr(admm, name), name
    assert np.array_equal(res.z, admm.z)


def test_an_interior_point_stall_hands_over_to_admm(brownian):
    """At Brownian K=26 the largest interior-point residual stops shrinking
    at 6.7e-6 after step 18, the stall test stops the method at step 22,
    and ADMM runs with the same budget.  At the command line's 200,000
    iterations ADMM ends optimal there, after 23,200 for "min" and 23,275
    for "max", on either side of 1/4.  (K=22 stalled the same way until
    the exit-measure localizer M(y b) took the place of M(b).)"""
    res = solve(assemble(brownian, "reduced", 26, 1, "min"), SolverSettings(max_iters=60))
    assert (res.method, res.status, res.iterations) == ("admm", "max_iters", 60)
    assert res.message == "interior point stopped: no progress in 5 steps"


def test_brownian_motion_in_a_box_is_solved_by_the_interior_point_method():
    """The IPM_MAX_FREE regime point with the most free moments: ADMM
    alone takes 5,200 iterations here, the interior-point method 20 steps."""
    program = assemble(scaled(BROWNIAN_2D), "reduced", 8, 1, "min")
    assert program.num_vars - program.a_eq.shape[0] == 450
    res = solve(program)
    assert (res.status, res.method) == ("optimal", "ipm")
    assert res.iterations <= 40


def test_brownian_motion_in_a_disc_is_solved_by_the_interior_point_method():
    """320 free moments; E[tau] from (0.2, 0.1) is (1 - 0.2^2 - 0.1^2) / 2."""
    model = scaled(BROWNIAN_2D, safe_polys=DISC)
    bound = {}
    for sense in ("min", "max"):
        res = solve(assemble(model, "reduced", 8, 1, sense))
        assert (res.status, res.method) == ("optimal", "ipm")
        assert res.iterations <= 40
        bound[sense] = Fraction(res.objective * moment_unscale_factor(model, 1))
    assert bound["min"] <= Fraction(475, 1000) <= bound["max"]


def random_group(dim, n_blocks, num_vars, free, seed):
    """An _LmiGroup of random dense blocks, with random positive definite
    X and Z stacks of the same shape."""
    rng = np.random.default_rng(seed)
    blocks = [PsdBlock(f"b{k}", dim, sp.csr_matrix(
        rng.standard_normal((dim * (dim + 1) // 2, num_vars)))) for k in range(n_blocks)]
    program = ConicProgram(num_vars, np.zeros(num_vars), "min",
                           sp.csr_matrix((0, num_vars)), np.zeros(0), blocks)
    svec, = _SvecBlocks(program).groups
    z0, basis = rng.standard_normal(num_vars), rng.standard_normal((num_vars, free))
    group = conic._LmiGroup(svec, z0, basis)
    x, z = (a @ a.transpose(0, 2, 1) + np.eye(dim)
            for a in rng.standard_normal((2, n_blocks, dim, dim)))
    return group, blocks, z0, basis, x, z


def test_the_gram_form_schur_matrix_matches_the_trace_formula():
    group, blocks, _, basis, x, z = random_group(7, 3, 40, 12, seed=3)
    schur = group.schur(conic._factors(x)[1], conic._factors(z)[0])
    coefs = [[b.materialize(basis[:, i]) for i in range(basis.shape[1])] for b in blocks]
    direct = np.array([[sum(np.trace(f[i] @ zk @ f[j] @ np.linalg.inv(xk))
                            for f, xk, zk in zip(coefs, x, z))
                        for j in range(basis.shape[1])] for i in range(basis.shape[1])])
    assert np.abs(schur - direct).max() <= 1e-12 * np.abs(direct).max()


def test_a_group_maps_moments_to_its_blocks_and_back():
    group, blocks, z0, basis, x, _ = random_group(5, 4, 30, 9, seed=4)
    w = np.random.default_rng(5).standard_normal(basis.shape[1])
    moved = np.array([b.materialize(z0 + basis @ w) for b in blocks])
    assert np.allclose(group.const + group.svec.matrices(w @ group.coef), moved,
                       rtol=1e-13, atol=1e-13)
    # <F_k,i, Y_k> for a Y that is not symmetric
    y = x @ np.triu(x)
    direct = [sum(np.vdot(b.materialize(basis[:, i]), yk) for b, yk in zip(blocks, y))
              for i in range(basis.shape[1])]
    assert np.allclose(group.adjoint(y), direct, rtol=1e-13, atol=1e-13)


def two_dimension_program():
    """min x^4 - 3 x^2 + x over [-2, 2] in the moments z = (1, x, ..., x^4):
    the 3 x 3 moment matrix and the 2 x 2 localizing matrix of 4 - x^2."""
    moments = sp.csr_matrix(np.eye(5)[[0, 1, 2, 2, 3, 4]])
    localizing = sp.csr_matrix(4 * np.eye(5)[[0, 1, 2]] - np.eye(5)[[2, 3, 4]])
    return ConicProgram(
        num_vars=5, objective=np.array([0.0, 1.0, -3.0, 0.0, 1.0]), sense="min",
        a_eq=sp.csr_matrix(np.eye(5)[:1]), rhs=np.array([1.0]),
        blocks=[PsdBlock("M", 3, moments), PsdBlock("L", 2, localizing)])


def test_blocks_of_two_dimensions_are_solved_by_the_interior_point_method(monkeypatch):
    program = two_dimension_program()
    assert [g.dim for g in _SvecBlocks(program).groups] == [2, 3]
    ipm = solve(program)
    monkeypatch.setattr(conic, "IPM_MAX_FREE", -math.inf)
    admm = solve(program)
    assert (ipm.method, admm.method) == ("ipm", "admm")
    assert ipm.status == admm.status == "optimal"
    assert abs(ipm.objective - admm.objective) <= 1e-6 * abs(admm.objective)


def test_an_interior_point_solve_stays_within_its_memory(brownian):
    """The numpy peak (tracemalloc) of reduced K=14 order 6 is 2.2 MB, of
    which the (4, 30, 666) coefficient array is 0.6 MB: the Schur matrix
    gathers one (36, 30, 36) block operand at a time, never a 4-D array.
    A free-moment step that formed the full Q and R of A' next to A and
    its copy peaked at 3.6 MB."""
    program = assemble(brownian, "reduced", 14, 6, "max")
    res, peak = traced_peak(solve, program)
    assert (res.status, res.method) == ("optimal", "ipm")
    assert peak <= 3_000_000


def test_free_moments_of_the_pendulum_stay_within_their_memory(pendulum, monkeypatch):
    """Pendulum reduced K=4: n = 1,254 variables, m = 439 equality rows of
    rank 427, so r = 827 free moments, and eight blocks of l = 210 svec
    rows.  The numpy peak (tracemalloc) is 24.9 MB, set in the Gram loop:
    the n x r null-space columns, the C-order copy of them that each
    sparse block product makes, the r x r Gram matrix and two l x r block
    images.  The bound is 8 bytes times 2 n r + r^2 + 2 l r = 24.8 MB, plus
    256 KiB for the vectors of length n and m and the block rows.  With the
    Gram matrix kept until W was formed, the peak was 26.2 MB; forming the
    full Q and R next to A and its copy peaked at 51.3 MB."""
    monkeypatch.setattr(conic, "IPM_MAX_FREE", math.inf)
    program = presolve(assemble(pendulum, "reduced", 4, 1, "min"))
    blocks = _SvecBlocks(program)
    n, m, r, l = program.num_vars, program.a_eq.shape[0], 827, max(blocks.lengths)
    (_, basis), peak = traced_peak(conic._free_moments, program, blocks, program.objective)
    assert (n, m, basis.shape[1], l) == (1254, 439, 332, 210)
    assert peak <= 8 * (2 * n * r + r * r + 2 * l * r) + 2 ** 18


def test_more_free_moments_by_rank_than_the_cutoff_hand_over_to_admm(brownian, monkeypatch):
    """Brownian reduced K=14 passes the screen at any cutoff of at least
    num_vars - eq_rows = -78, and its equality rows leave 34 free moments."""
    monkeypatch.setattr(conic, "IPM_MAX_FREE", 0)
    res = solve(assemble(brownian, "reduced", 14, 1, "min"))
    assert (res.status, res.method) == ("optimal", "admm")
    assert res.message == "interior point stopped: 34 free moments, above IPM_MAX_FREE = 0"


def test_the_pendulum_stays_on_admm(pendulum):
    program = assemble(pendulum, "reduced", 4, 1, "min")
    presolved = presolve(program)
    assert presolved.num_vars - presolved.a_eq.shape[0] > conic.IPM_MAX_FREE
    res = solve(program, SolverSettings(max_iters=1))
    assert (res.method, res.iterations, res.message) == ("admm", 1, "")


def pivoted_qr_free_moments(program, blocks):
    """The rank of A and W from the full Q and R of scipy's pivoted QR of
    A', kept as the reference for ``conic._free_moments``."""
    a = program.a_eq.toarray()
    q, tri, _ = sla.qr(a.T, pivoting=True)
    diag = np.abs(np.diag(tri))
    rank = int(np.count_nonzero(diag > diag.max(initial=0.0) * max(a.shape)
                                * np.finfo(float).eps))
    null = q[:, rank:]
    images = blocks.stacked @ null
    lam, vec = np.linalg.eigh(images.T @ images)
    keep = lam > lam.max() * null.shape[1] * np.finfo(float).eps
    return rank, null @ (vec[:, keep] / np.sqrt(lam[keep]))


@pytest.mark.parametrize("case", ["brownian K=14", "box K=8", "disc K=8", "pendulum K=4"])
def test_free_moments_span_what_a_pivoted_qr_spans(case, brownian, pendulum, monkeypatch):
    model, K = {
        "brownian K=14": (brownian, 14),
        "box K=8": (scaled(BROWNIAN_2D), 8),
        "disc K=8": (scaled(BROWNIAN_2D, safe_polys=DISC), 8),
        "pendulum K=4": (pendulum, 4),
    }[case]
    program = presolve(assemble(model, "reduced", K, 1, "min"))
    a, b, c = program.a_eq, program.rhs, program.objective
    blocks = _SvecBlocks(program)
    rank, reference = pivoted_qr_free_moments(program, blocks)
    free = program.num_vars - rank
    # the rank is the reference's: one free moment over the cutoff hands over
    monkeypatch.setattr(conic, "IPM_MAX_FREE", free - 1)
    with pytest.raises(conic._Failure, match=f"^{free} free moments, above"):
        conic._free_moments(program, blocks, c)
    monkeypatch.setattr(conic, "IPM_MAX_FREE", free)
    z0, basis = conic._free_moments(program, blocks, c)
    assert np.linalg.norm(a @ z0 - b) <= (conic.EPS_ABS * math.sqrt(len(b))
                                          + conic.EPS_REL * np.linalg.norm(b))
    assert np.abs(a @ basis).max() <= 1e-12 * np.abs(basis).max()
    # the reference's own images are orthonormal to 1.9e-10 in the box
    images = blocks.stacked @ basis
    assert np.abs(images.T @ images - np.eye(basis.shape[1])).max() <= 1e-9
    assert basis.shape == reference.shape
    assert sla.subspace_angles(basis, reference).max() <= 1e-8


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------


# the command line prints the solve record but its objective, z and history
CLI_KEYS = {"K", "order", "sense", "bound"} | {
    f.name for f in dataclasses.fields(SolveResult)} - {
    "objective", "z", "residual_history"}


def reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def cli(spec, *options):
    """The arguments of ``main`` that state the model ``spec``, then ``options``."""
    args = ["--names", *spec["names"], "--drift", *spec["drift"]]
    for row in spec["diffusion"]:
        args += ["--diffusion", *row]
    return [*args, "--x0", *map(str, spec["x0"]), "--horizon", str(spec["horizon"]),
            "--safe", *spec["safe_polys"], *options]


def test_cli_prints_one_bound_as_json(capsys):
    code = main(cli(BROWNIAN, "--K", "8", "--order", "1", "--sense", "min"))
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["status"] == "optimal"
    assert abs(out["bound"] - 0.25) <= 1e-6
    assert out["iterations"] > 0 and out["solve_time"] > 0
    assert out.keys() == CLI_KEYS
    # M(b) and the interior blocks but M((1 - y) m), the mirror of M(y m);
    # 90 martingale and boundary rows, and 61 symmetry rows
    assert (out["psd_blocks"], out["eq_rows"]) == (4, 151)


def test_cli_reads_division_by_a_constant(capsys):
    code = main(cli(dict(BROWNIAN, drift=["0/2"], diffusion=[["1/1"]]),
                    "--K", "8", "--sense", "min"))
    out = json.loads(capsys.readouterr().out)
    assert code == 0 and abs(out["bound"] - 0.25) <= 1e-6


def test_cli_prints_no_bound_for_an_unconverged_solve(capsys):
    # 5 steps stop the interior-point method short of optimal, with status
    # max_iters, and no ADMM run follows; the objective is no upper bound,
    # so none is printed
    code = main(cli(BROWNIAN, "--K", "8", "--sense", "max", "--max-iters", "5"))
    out = json.loads(capsys.readouterr().out)
    assert code == 1
    assert out["status"] == "max_iters" and out["iterations"] == 5
    assert (out["method"], out["message"]) == ("ipm", "")
    assert out["bound"] is None
    assert out.keys() == CLI_KEYS


def test_cli_prints_a_non_finite_residual_as_null(capsys, monkeypatch):
    """A failed KKT factorization leaves both residuals infinite; the output
    stays strict JSON."""
    monkeypatch.setattr(conic, "IPM_MAX_FREE", -math.inf)
    monkeypatch.setattr(conic.spla, "splu", failing_splu)
    code = main(cli(BROWNIAN, "--K", "4"))
    out = json.loads(capsys.readouterr().out, parse_constant=reject_constant)
    assert code == 1 and out["status"] == "numerical_failure"
    assert (out["primal_residual"], out["dual_residual"]) == (None, None)


def test_cli_reads_expressions_that_start_with_a_minus(capsys):
    """An Ornstein-Uhlenbeck drift -x on the benchmark pendulum's safe set
    {-x > 0, x + 2 > 0}: the same bound as with the expressions spelled
    with a leading space, which argparse never took for an option."""
    def bound(drift, safe):
        code = main(["--names", "x", "--drift", drift, "--diffusion", "1",
                     "--x0", "-1", "--horizon", "10", "--safe", safe, "x + 2",
                     "--K", "4"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        return out["bound"]

    assert bound("-x", "-x") == bound(" -x", " -x")


def test_a_coefficient_too_large_for_a_float_is_a_usage_error(capsys):
    huge = dict(BROWNIAN, drift=["1e308*y*y"])
    with pytest.raises(ValueError, match="too large for a float"):
        assemble(scaled(huge), "reduced", 4, 1, "min")
    with pytest.raises(SystemExit) as exc:
        main(cli(huge, "--K", "4"))
    assert exc.value.code == 2
    assert "too large for a float" in capsys.readouterr().err


def test_cli_prints_the_method(capsys):
    main(cli(BROWNIAN, "--K", "8"))
    assert json.loads(capsys.readouterr().out)["method"] == "ipm"


# messages pinned for some of the bad inputs below
USAGE_MESSAGES = {("--K", "-2"): "K must be non-negative",
                  ("--x0", "inf"): "x0 must be finite",
                  ("--x0", "nan"): "x0 must be finite",
                  # a number too large for a float: in the start-state check
                  # of a safe polynomial, in a sine's start value, and in
                  # x0^k of a martingale row
                  ("--safe", "1e400*y"): "a polynomial term is too large for a float",
                  ("--drift", "sin(1e400*y)"): "the argument of a sin is too large for a float",
                  ("--x0", "1e200"): "a polynomial term is too large for a float"}


@pytest.mark.parametrize("bad", [["--drift", "0 +"], ["--max-iters", "0"],
                                 ["--horizon", "-1"], ["--order", "0"],
                                 ["--order", "9"], ["--K", "0"],
                                 ["--K", "-2"], ["--x0", "inf"],
                                 ["--x0", "nan"], ["--safe", "1e400*y"],
                                 ["--drift", "sin(1e400*y)"], ["--x0", "1e200"]])
def test_cli_reports_bad_input_as_a_usage_error(bad, capsys):
    args = {"--names": "y", "--drift": "0", "--diffusion": "1", "--x0": "0.5",
            "--horizon": "10", "--K": "4"}
    args[bad[0]] = bad[1]
    with pytest.raises(SystemExit) as exc:
        main([token for item in args.items() for token in item])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "error" in err
    assert USAGE_MESSAGES.get(tuple(bad), "") in err
