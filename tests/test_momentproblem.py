import dataclasses
import math
import random
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from exitmoment.augment import augment
from exitmoment.generator import MartingaleRow, sigma_sigma_t
from exitmoment.expr import (
    Polynomial,
    count_upto,
    enumerate_multi_indices,
    graded_lex_ranks,
    mi_add,
    parse_polynomial,
)
from exitmoment.conic import distinct_rows
from exitmoment.momentproblem import (
    PsdBlock,
    _betas,
    _closed_rows,
    _localizing_rows,
    _mirrored,
    assemble,
    boundary_product,
    build_moment_problem,
    lower_to_conic,
    reflected,
    reflections,
)

from circle_quotient import circle_slots, quotient_reference
from models import (BOX, BROWNIAN, BROWNIAN_2D, COUPLED_PENDULUM, DISC, PENDULUM,
                    TRIG2D, scaled, sde)


def box_model(n_user_polys: int):
    """Driftless unit noise in a box with the requested number of user
    safe polynomials (0, 2 or 4), horizon 1, unscaled."""
    spec = {0: dict(BROWNIAN, x0=[0.0], safe_polys=[]), 2: BROWNIAN,
            4: dict(BOX, names=["y", "z"], x0=[0.5, 0.5],
                    safe_polys=BROWNIAN["safe_polys"] + ["z", "1 - z"])}[n_user_polys]
    return augment(sde(spec, horizon=1.0))


def circle_reduction(model, basis, kept):
    """T with x^u = sum_k T[k, u] x^kept[k] modulo the circles, for each u
    of ``basis``: s_j^2 x^gamma reduces to (1 - c_j^2) x^gamma, recursively."""
    position = {w: k for k, w in enumerate(kept)}
    pairs = circle_slots(model)

    def column(u):
        for s, c in pairs:
            if u[s] >= 2:
                gamma = u[:s] + (u[s] - 2,) + u[s + 1:]
                return column(gamma) - column(gamma[:c] + (gamma[c] + 2,) + gamma[c + 1:])
        out = np.zeros(len(kept))
        out[position[u]] = 1.0
        return out

    return np.column_stack([column(u) for u in basis])


# (model, K) pairs whose assembly the array code must reproduce exactly
ASSEMBLY_CASES = {
    "box0-K4": (lambda: box_model(0), 4),
    "box2-K4": (lambda: box_model(2), 4),
    "brownian-K4": (lambda: scaled(BROWNIAN), 4),
    "brownian-K8": (lambda: scaled(BROWNIAN), 8),
    "pendulum-K4": (lambda: scaled(PENDULUM), 4),
}


# ---------------------------------------------------------------------------
# moment and localizing matrices
# ---------------------------------------------------------------------------


def graded_lex_rank(alpha):
    """Reference rank, counted term by term: the indices of lower degree,
    then those of the same degree with a larger exponent in the first
    position where they differ (``graded_lex_ranks`` is its closed form)."""
    n, deg = len(alpha), sum(alpha)
    rank = count_upto(n, deg - 1) if deg > 0 else 0
    rem = deg
    for pos in range(n - 1):
        tail = n - pos - 1
        for lead in range(rem, alpha[pos], -1):
            # same-degree indices of ``tail`` variables with degree rem - lead
            rank += math.comb(tail + rem - lead - 1, rem - lead)
        rem -= alpha[pos]
    return rank


def entries(q, basis, i, j):
    """Reference entry (i, j) of the localizing matrix of q over ``basis``:
    one (coefficient, rank) per term, term alpha on the variable ranked
    rank(basis[i] + basis[j] + alpha)."""
    beta = mi_add(basis[i], basis[j])
    return [(coef, graded_lex_rank(mi_add(beta, alpha))) for alpha, coef in q.items()]


def localizing_block(q, nvars, basis_degree):
    """The localizing block of q over the basis of the given degree, as
    ``lower_to_conic`` builds it from ``_betas`` and ``_localizing_rows``,
    on as many variables as its targets need, and that basis as a list."""
    basis = enumerate_multi_indices(nvars, basis_degree)
    count = count_upto(nvars, 2 * basis_degree + max(q.degree(), 0))
    betas, where = _betas(np.array(basis, dtype=np.int64))
    block = PsdBlock("q", len(basis), _localizing_rows(q, betas, 0, count, count)[where])
    return block, basis


def moment_matrix_of_ranks(nvars, K):
    """M(K // 2) with z = arange: entry (i, j) is rank(basis[i] + basis[j])."""
    block, basis = localizing_block(Polynomial.constant(nvars, 1), nvars, K // 2)
    return block.materialize(np.arange(block.mat.shape[1], dtype=float)), basis


def row_terms(block, p):
    """(rank, coefficient) of svec row p of a block, by rank."""
    return matrix_rows(block.mat[p])[0]


def matrix_rows(mat):
    """Every row of a sparse matrix as sorted (column, value) pairs."""
    mat = mat.tocsr()
    return [sorted(zip(mat.indices[a:b].tolist(), mat.data[a:b].tolist()))
            for a, b in zip(mat.indptr[:-1], mat.indptr[1:])]


def test_moment_map_two_vars_degree_four():
    mm, basis = moment_matrix_of_ranks(2, 4)
    assert mm.shape == (6, 6)
    assert basis == [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]
    # first row/column walks the moment sequence itself
    for j in range(6):
        assert mm[0, j] == graded_lex_rank(basis[j])
        assert mm[j, 0] == mm[0, j]
    # displayed reference entries: M(1,1)=m20, M(1,2)=m11, M(3,5)=m22
    assert mm[1, 1] == graded_lex_rank((2, 0))
    assert mm[1, 2] == graded_lex_rank((1, 1))
    assert mm[3, 5] == graded_lex_rank((2, 2))


@pytest.mark.parametrize("nvars", [1, 2, 3, 4, 5])
def test_array_rank_matches_graded_lex_rank(nvars):
    indices = enumerate_multi_indices(nvars, 12)
    ranks = graded_lex_ranks(np.array(indices))
    assert ranks.dtype == np.int64
    assert ranks.tolist() == [graded_lex_rank(a) for a in indices]
    assert ranks.tolist() == list(range(len(indices)))


def test_moment_map_trivial():
    mm, basis = moment_matrix_of_ranks(1, 0)
    assert basis == [(0,)]
    assert mm.tolist() == [[0.0]]


def test_moment_map_exhaustive_three_vars():
    mm, basis = moment_matrix_of_ranks(3, 6)
    for i in range(len(basis)):
        for j in range(len(basis)):
            assert mm[i, j] == graded_lex_rank(mi_add(basis[i], basis[j]))
            assert mm[i, j] == mm[j, i]


def test_localizing_map_reference_example():
    # the displayed 1-d case: q = 1 + x^2 + x^4 over the basis (1, x)
    block, _ = localizing_block(
        Polynomial(1, {(0,): 1, (2,): 1, (4,): 1}), 1, 1)
    assert block.dim == 2
    # svec rows are the entries (0, 0), (0, 1), (1, 1)
    assert row_terms(block, 0) == [(0, 1.0), (2, 1.0), (4, 1.0)]
    assert row_terms(block, 1) == [(1, 1.0), (3, 1.0), (5, 1.0)]
    assert row_terms(block, 2) == [(2, 1.0), (4, 1.0), (6, 1.0)]


def test_localizing_map_with_unit_polynomial_degenerates():
    block, basis = localizing_block(Polynomial.constant(2, 1), 2, 2)
    iu, ju = np.triu_indices(len(basis))
    for p, (i, j) in enumerate(zip(iu, ju)):
        assert row_terms(block, p) == [
            (graded_lex_rank(mi_add(basis[i], basis[j])), 1.0)]


def test_localizing_map_matches_symbolic_expansion():
    rng = random.Random(5)
    idx2 = enumerate_multi_indices(2, 2)
    terms = {a: Fraction(rng.randint(-3, 3)) for a in idx2}
    q = Polynomial(2, {a: c for a, c in terms.items() if c})
    if q.is_zero():
        q = Polynomial(2, {(1, 0): 1})
    block, basis = localizing_block(q, 2, 2)
    iu, ju = np.triu_indices(len(basis))
    for p, (i, j) in enumerate(zip(iu, ju)):
        expansion = q * Polynomial.monomial(2, mi_add(basis[i], basis[j]))
        expected = sorted(
            (graded_lex_rank(a), float(c)) for a, c in expansion.terms.items())
        assert row_terms(block, p) == expected


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


def boundary_rows(qprime, nvars, K):
    """The reduced boundary rows: the ``distinct_rows`` of the
    ``localizing_block`` of q' over the basis of degree K // 2, as
    ``row_terms``."""
    block, _ = localizing_block(qprime, nvars, K // 2)
    return matrix_rows(block.mat[distinct_rows(block.mat)])


def as_terms(row: dict, offset: int = 0):
    """A multi-index -> coefficient row as sorted (variable, float) pairs."""
    return sorted((offset + graded_lex_rank(a), float(c)) for a, c in row.items())


def moment_indices(n, count):
    """The first ``count`` multi-indices of the graded lex enumeration."""
    degree = 0
    while count_upto(n, degree) < count:
        degree += 1
    return enumerate_multi_indices(n, degree)[:count]


def symmetry_rows(mp):
    """Reference symmetry rows as {variable: Fraction}: for each reflected
    coordinate i, and each occupation and then each exit moment alpha with
    odd alpha_i, m_alpha minus the moment of x^alpha o sigma, with
    (2 c - x_i)^alpha_i expanded by ``Polynomial`` arithmetic."""
    n = mp.model.total_dim
    rows = []
    for i in mp.reflections:
        mirror = (Polynomial.constant(n, 2 * Fraction(mp.model.x0[i]))
                  - Polynomial.variable(n, i))
        for offset, count in ((0, mp.num_m), (mp.num_m, mp.num_b)):
            for alpha in moment_indices(n, count):
                if alpha[i] % 2 == 0:
                    continue
                rest = alpha[:i] + (0,) + alpha[i + 1:]
                image = mirror ** alpha[i] * Polynomial.monomial(n, rest)
                row = {offset + graded_lex_rank(alpha): Fraction(1)}
                for beta, coef in image.terms.items():
                    v = offset + graded_lex_rank(beta)
                    row[v] = row.get(v, 0) - coef
                rows.append({v: c for v, c in row.items() if c})
    return rows


def test_reduced_equalities_frozen_interval_example():
    qprime = Polynomial(1, {(1,): 1, (2,): -1})  # x - x^2
    assert boundary_rows(qprime, 1, 2) == [
        [(1, 1.0), (2, -1.0)],
        [(2, 1.0), (3, -1.0)],
        [(3, 1.0), (4, -1.0)],
    ]


def pair_loop_equalities(g, nvars, basis_degree):
    """Reference rows of g = 0 (the boundary's q', or a circle): one row
    per upper-triangle entry of its localizing matrix, deduplicated by the
    exact normalized pattern, in traversal order."""
    basis = enumerate_multi_indices(nvars, basis_degree)
    seen = set()
    rows = []
    for i in range(len(basis)):
        for j in range(i, len(basis)):
            beta = tuple(a + b for a, b in zip(basis[i], basis[j]))
            row: dict = {}
            for alpha, coef in g.items():
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
    expected = pair_loop_equalities(mp.qprime, model.total_dim, K // 2)
    assert boundary_rows(mp.qprime, model.total_dim, K) == [
        as_terms(row) for row in expected]
    # the program's equalities follow the martingale rows with them, on the
    # exit moments, then with the circle rows, first on the occupation and
    # then on the exit moments, and then with the symmetry rows
    circles = [row for g in model.interior_eqs
               for row in pair_loop_equalities(g, model.total_dim, K // 2)]
    a_eq = lower_to_conic(mp).a_eq
    assert matrix_rows(a_eq[len(mp.rows):]) == [
        as_terms(row, mp.num_m) for row in expected] + [
        as_terms(row) for row in circles] + [
        as_terms(row, mp.num_m) for row in circles] + [
        sorted((v, float(c)) for v, c in row.items()) for row in symmetry_rows(mp)]


@pytest.mark.parametrize("case", sorted(ASSEMBLY_CASES))
def test_reduced_rows_are_the_distinct_rows_of_the_boundary_block(case):
    make_model, K = ASSEMBLY_CASES[case]
    model = make_model()
    reduced = build_moment_problem(model, "reduced", K, 1, "max")
    original = assemble(model, "original", K, 1, "max")
    (block,) = [b for b in original.blocks if b.label == "M(+q' b)#0"]
    distinct = []
    for row in matrix_rows(block.mat):
        if row not in distinct:
            distinct.append(row)
    # both variants end with the same circle rows on the occupation
    # moments, if any, and then the reduced variant with as many on the
    # exit moments and its symmetry rows
    circles = matrix_rows(original.a_eq[len(reduced.rows):])
    assert len(circles) == (count_upto(model.total_dim, 2 * (K // 2))
                            * len(model.interior_eqs))
    a_eq = lower_to_conic(reduced).a_eq
    plain = a_eq.shape[0] - len(symmetry_rows(reduced)) - len(circles)
    assert matrix_rows(a_eq[len(reduced.rows):plain]) == distinct + circles


@pytest.mark.parametrize("variant", ["original", "reduced"])
def test_circle_rows_vanish_on_the_unit_circle(variant):
    """The last rows are those of sin^2 + cos^2 - 1 = 0, one per distinct
    beta = basis[i] + basis[j], on the occupation moments and (reduced
    variant) then on the exit moments; on the moments of a point mass at
    an augmented state they read (s^2 + c^2 - 1) times that state's
    x^beta."""
    model = scaled(PENDULUM)
    K, n = 4, model.total_dim
    mp = build_moment_problem(model, variant, K, 1, "min")
    program = lower_to_conic(mp)
    count = count_upto(n, K)
    spans = [(0, mp.num_m)] + ([(mp.num_m, mp.num_b)] if variant == "reduced" else [])
    total = count * len(spans)
    assert np.array_equal(program.rhs[-total:], np.zeros(total))
    # right after the martingale and (reduced variant) boundary rows
    assert total == program.a_eq.shape[0] - len(mp.rows) - (
        len(boundary_rows(mp.qprime, n, K)) if variant == "reduced" else 0)
    assert mp.num_m == len(enumerate_multi_indices(n, K + 2))
    for k, (offset, num) in enumerate(spans):
        rows = program.a_eq[program.a_eq.shape[0] - total + k * count:][:count]
        indices = np.array(moment_indices(n, num))

        def point_mass(s, c):
            state = np.array([-0.3, 0.4, 0.2, s, c])  # x, v, t, sin, cos
            z = np.zeros(program.num_vars)
            z[offset:offset + num] = np.prod(state ** indices, axis=1)
            return rows @ z

        theta = 0.7
        assert np.abs(point_mass(math.sin(theta), math.cos(theta))).max() <= 1e-12
        off = point_mass(0.5, 0.5)
        # beta = 0 comes first and reads s^2 + c^2 - 1 itself
        assert off[0] == pytest.approx(-0.5, abs=1e-12)
        assert np.abs(off).min() > 0


def test_reduced_equalities_zero_polynomial_rejected():
    with pytest.raises(ValueError):
        boundary_product([Polynomial.zero(1)])


def test_reduced_equalities_degree_guard():
    # q' = y (1 - y) (1 - t) has degree 3
    model = box_model(2)
    with pytest.raises(ValueError, match="exceeds K = 2"):
        assemble(model, "reduced", 2, 1, "max")
    assert assemble(model, "original", 2, 1, "max").blocks


def test_reduced_equalities_hold_for_two_point_exit_law():
    # exit measure p*delta_1 + (1-p)*delta_0 gives b_k = p for k >= 1;
    # in one variable the rank of x^k is k
    qprime = Polynomial(1, {(1,): 1, (2,): -1})
    p = 0.37

    def b(k):
        return 1.0 if k == 0 else p

    for row in boundary_rows(qprime, 1, 6):
        total = sum(c * b(k) for k, c in row)
        assert total == pytest.approx(0.0, abs=1e-12)


def test_reduced_equalities_deduplicate_patterns():
    qprime = Polynomial(1, {(1,): 1, (2,): -1})
    # basis degree 3 gives beta in 0..6, one row per distinct beta
    assert len(boundary_rows(qprime, 1, 6)) == 7


def test_distinct_rows_keeps_first_appearances_of_nonzero_rows():
    mat = sp.csr_matrix(np.array([
        [0, 0, 0],
        [1, 2, 0],
        [0, 0, 3],
        [1, 2, 0],
        [0, 0, 0],
        [0, 0, 3],
        [2, 1, 0],
    ], dtype=float))
    assert distinct_rows(mat).tolist() == [1, 2, 6]
    # a row that stores only an explicit zero is a zero row too
    explicit = sp.csr_matrix(([0.0, 5.0], [1, 0], [0, 1, 2]), shape=(2, 2))
    assert distinct_rows(explicit).tolist() == [1]


# ---------------------------------------------------------------------------
# reflection symmetry
# ---------------------------------------------------------------------------


# model, reflected coordinates, mirrored inequality polynomials (the
# scaled box's x + 1 and 1 - x, ..., then t and 1 - t / 5), and the exit
# measure's blocks: M(b) with fewer than two safe polynomials, else one
# M(q b) per safe polynomial that mirrors no earlier one (in every case
# here two safe polynomials then sum to a positive constant, which leaves
# M(b) out)
REFLECTION_CASES = {
    "brownian-from-half": (BROWNIAN, [0], [1], ["M(q0 b)"]),
    "brownian-from-0.3": (dict(BROWNIAN, x0=[0.3]), [], [], ["M(q0 b)", "M(q1 b)"]),
    "box-from-origin": (BOX, [0, 1], [1, 3], ["M(q0 b)", "M(q2 b)"]),
    "disc-from-origin": (dict(BOX, safe_polys=DISC), [0, 1], [], ["M(b)"]),
    "box-from-(0.2,0.1)": (BROWNIAN_2D, [], [], ["M(q0 b)", "M(q1 b)", "M(q2 b)", "M(q3 b)"]),
    "disc-from-(0.2,0.1)": (dict(BROWNIAN_2D, safe_polys=DISC), [], [], ["M(b)"]),
    "pendulum": (PENDULUM, [], [], ["M(q0 b)", "M(q1 b)"]),
    "trig2d": (TRIG2D, [], [], ["M(b)"]),
}


@pytest.mark.parametrize("case", sorted(REFLECTION_CASES))
def test_reflections_of_the_start_state_are_detected(case):
    spec, coords, mirrored, exit_blocks = REFLECTION_CASES[case]
    model = scaled(spec)
    assert reflections(model, sigma_sigma_t(model.diffusion)) == coords
    reduced = build_moment_problem(model, "reduced", 6, 1, "min")
    assert (reduced.reflections, reduced.mirrored) == (coords, mirrored)
    labels = [b.label for b in lower_to_conic(reduced).blocks]
    # M(b) leads, and the M(q b) follow the M(q m)
    assert labels == ([label for label in exit_blocks if label == "M(b)"]
                      + [f"M(q{k} m)" for k in range(reduced.n_q) if k not in mirrored]
                      + [label for label in exit_blocks if label != "M(b)"])
    # the original variant, the paper's baseline, uses no symmetry
    original = build_moment_problem(model, "original", 6, 1, "min")
    assert (original.reflections, original.mirrored) == ([], [])


def test_a_reflection_needs_every_term_to_match():
    """Brownian motion from 1/2 with drift 1/2 - y is symmetric; with drift
    y - y^3 (odd about 0, not about 1/2), a noise y, or the safe set
    [0, 1] on the wrong side of the start it is not."""
    def coords(**overrides):
        model = scaled(BROWNIAN, **overrides)
        return reflections(model, sigma_sigma_t(model.diffusion))

    assert coords(drift=["1/2 - y"]) == [0]
    assert coords(drift=["y - y^3"]) == []
    assert coords(diffusion=[["y"]]) == []
    assert coords(diffusion=[["2*y - 1"]]) == [0]
    assert coords(x0=[0.0], safe_polys=["y + 1", "1 - y"], drift=["y - y^3"]) == [0]
    assert coords(x0=[0.0], safe_polys=["y + 1", "2 - y"]) == []


def test_a_reflection_needs_the_kept_rows_closed_under_it():
    """The kept martingale rows must hold x^k[i -> j] for each kept x^k and
    j < k_i; here x^(3, 0) is kept without x^(2, 0)."""
    rows = [MartingaleRow(k, {}, 0.0) for k in [(0, 0), (1, 0), (3, 0), (0, 1)]]
    assert _closed_rows(rows, 1) and not _closed_rows(rows, 0)


def test_mirrored_matches_positive_multiples_only():
    """About c = 1/2, y mirrors to 1 - y: 2 - 2y, written with its terms in
    the other order, is a positive multiple of it, y - 1 a negative one."""
    def mirrored(texts):
        return _mirrored([parse_polynomial(t, ["y"]) for t in texts], [0], [0.5])

    assert mirrored(["y", "-2*y + 2"]) == [1]
    assert mirrored(["y", "y - 1"]) == []


@pytest.mark.parametrize("spec, K", [
    pytest.param(BROWNIAN, 8, id="brownian-K8"),
    pytest.param(BOX, 6, id="box-K6"),
])
def test_a_mirrored_block_is_congruent_to_its_mirror_on_invariant_moments(spec, K):
    """On moments that satisfy the symmetry rows, M(q_j m) = lambda P'
    M(q_i m) P when q_j = lambda q_i o sigma, where column u of P holds the
    coefficients of (x o sigma)^u over the basis of degree K // 2; and so
    M(q_j b) = lambda P' M(q_i b) P for a safe q_j, such as M((1 - y) b)
    against M(y b)."""
    model = scaled(spec)
    mp = build_moment_problem(model, "reduced", K, 1, "min")
    program = lower_to_conic(mp)
    plain = lower_to_conic(dataclasses.replace(mp, reflections=[], mirrored=[]))
    rows = program.a_eq[plain.a_eq.shape[0]:].toarray()
    assert len(rows) == len(symmetry_rows(mp))
    null = sla.null_space(rows)
    z = null @ np.random.default_rng(7).standard_normal(null.shape[1])
    assert np.abs(rows @ z).max() <= 1e-12
    blocks = {b.label: b for b in plain.blocks}
    basis, polys = mp.moment_basis, model.interior_polys
    position = {u: k for k, u in enumerate(basis)}
    alpha = (0,) * model.total_dim  # every polynomial here has a constant
    for j in mp.mirrored:
        # a kept q_i whose reflection is a positive multiple of q_j
        (i, coord, lam), *_ = [
            (i, coord, polys[j].coefficient(alpha) / image.coefficient(alpha))
            for i in range(j) if i not in mp.mirrored for coord in mp.reflections
            for image in [reflected(polys[i], coord, Fraction(model.x0[coord]))]
            if image.coefficient(alpha)
            and polys[j] == image * (polys[j].coefficient(alpha)
                                     / image.coefficient(alpha))]
        assert lam > 0
        c = Fraction(model.x0[coord])
        P = np.zeros((len(basis), len(basis)))
        for u in basis:
            for w, coef in reflected(Polynomial.monomial(model.total_dim, u),
                                     coord, c).terms.items():
                P[position[w], position[u]] = float(coef)
        # every mirrored polynomial of these models is a safe one
        for measure in ("m", "b"):
            kept = blocks[f"M(q{i} {measure})"].materialize(z)
            mirrored = blocks[f"M(q{j} {measure})"].materialize(z)
            congruent = float(lam) * P.T @ kept @ P
            assert np.abs(mirrored - congruent).max() <= 1e-12
            assert np.abs(mirrored - kept).max() > 0.1


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------


# (model, K, N_q, N_mirrored, N_b, d_K, d'_K): K = 6 is large enough that
# deg(q') <= K for every box; the coupled pendulum is the paper's
# higher-dimensional case, with N_q = its safe polynomial, t, T - t and
# 1 - a^2 for each of its four atoms, and d_K = count_upto(9, 2).  The
# boxes start at their centres: 1 - y mirrors y, and 1 - z mirrors z.
# N_b counts the reduced exit-measure blocks: M(b) with fewer than two
# safe polynomials, else M(q b) per safe q that mirrors no earlier one
# (M(y b) and M(z b) for box 4; M(b) is implied there, and for box 2).
# d'_K is the side of the reduced blocks, the monomials of degree <= K // 2
# that no sine square divides: d_K for the boxes, which have no circle, and
# 55 - 2 for the coupled pendulum's two circles.
@pytest.mark.parametrize("make_model, K, n_q, n_mirrored, n_b, d_k, d_quotient", [
    pytest.param(lambda: box_model(0), 6, 2, 0, 1, 10, 10, id="0"),
    pytest.param(lambda: box_model(2), 6, 4, 1, 1, 10, 10, id="2"),
    pytest.param(lambda: box_model(4), 6, 6, 2, 2, 20, 20, id="4"),
    pytest.param(lambda: augment(sde(COUPLED_PENDULUM)), 4, 7, 0, 1, 55, 53,
                 id="coupled-pendulum-K4"),
])
def test_psd_size_law(make_model, K, n_q, n_mirrored, n_b, d_k, d_quotient):
    model = make_model()
    n, half = model.total_dim, K // 2
    assert d_k == count_upto(n, half)
    # inclusion-exclusion over the circles: s_j^2 ... s_l^2 (k of them)
    # divides count_upto(n, half - 2 k) monomials of degree <= half
    circles = len(model.interior_eqs)
    assert d_quotient == sum((-1) ** k * math.comb(circles, k) * count_upto(n, half - 2 * k)
                             for k in range(circles + 1) if 2 * k <= half)
    # original: M(m), M(b), M(q m) and a (q', -q') pair per q, over the
    # full basis; reduced: the N_b exit-measure blocks and M(q m) per q
    # that mirrors no earlier one, over the circle quotient basis
    for variant, sides, d in (("original", 2 + 3 * n_q, d_k),
                              ("reduced", n_b + n_q - n_mirrored, d_quotient)):
        mp = build_moment_problem(model, variant, K, 1, "max")
        program = lower_to_conic(mp)
        assert mp.n_q == n_q
        assert len(mp.mirrored) == (n_mirrored if variant == "reduced" else 0)
        assert len(mp.moment_basis) == d
        assert sum(b.dim for b in program.blocks) == sides * d
        assert all(b.dim == d for b in program.blocks)


def test_reduced_variant_has_no_boundary_blocks():
    model = box_model(2)
    reduced = assemble(model, "reduced", 4, 1, "max")
    mp = build_moment_problem(model, "original", 4, 1, "max")
    original = lower_to_conic(mp)
    labels_r = [b.label for b in reduced.blocks]
    labels_o = [b.label for b in original.blocks]
    assert not any("b)#" in lab for lab in labels_r)
    assert sum("q' b)" in lab for lab in labels_o) == 2 * mp.n_q
    # reduced swaps the blocks for scalar equalities
    assert reduced.a_eq.shape[0] > original.a_eq.shape[0]


def test_objective_first_order_is_occupation_mass():
    model = box_model(2)
    program = assemble(model, "reduced", 4, 1, "max")
    c = program.objective
    (nz,) = np.nonzero(c)
    assert list(nz) == [0]  # m_{0,...,0} is the first variable
    assert c[0] == 1.0


def test_objective_higher_order_scaling():
    model = box_model(2)
    program = assemble(model, "reduced", 6, 3, "max")
    (nz,) = np.nonzero(program.objective)
    idx = enumerate_multi_indices(model.total_dim, 6)[nz[0]]
    assert idx == (0, 2)  # t-exponent n-1
    assert program.objective[nz[0]] == 3.0


def test_variable_layout_extends_for_localizing_overshoot():
    model = box_model(2)
    K = 4
    mp = build_moment_problem(model, "reduced", K, 1, "max")
    program = lower_to_conic(mp)
    n = model.total_dim
    # interior polys are degree 1 here: occupation moments reach K + 1
    assert mp.num_m == count_upto(n, K + 1)
    # q' = y (1-y) (1-t) has degree 3 (start-time facet excluded)
    assert mp.num_b == count_upto(n, K + 3)
    assert program.num_vars == mp.num_m + mp.num_b


def test_mass_row_present():
    model = box_model(2)
    mp = build_moment_problem(model, "reduced", 4, 1, "max")
    program = lower_to_conic(mp)
    a = program.a_eq.toarray()
    num_m = mp.num_m
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
    for K in (4.0, True):
        with pytest.raises(ValueError, match="K must be"):
            assemble(model, "reduced", K, 1, "max")
    for order in (1.0, True):
        with pytest.raises(ValueError, match="moment order"):
            assemble(model, "reduced", 4, order, "max")


def test_psd_block_materialization_is_symmetric():
    model = box_model(2)
    program = assemble(model, "reduced", 4, 2, "max")
    rng = np.random.default_rng(0)
    z = rng.normal(size=program.num_vars)
    for block in program.blocks:
        mat = block.materialize(z)
        assert np.array_equal(mat, mat.T)


def per_entry_block(q, basis, offset: int, num_vars: int):
    """Reference lowering of one block through ``entries``."""
    rows, cols, vals = [], [], []
    pos = 0
    for i in range(len(basis)):
        for j in range(i, len(basis)):
            for coef, rank in entries(q, basis, i, j):
                rows.append(pos)
                cols.append(offset + rank)
                vals.append(float(coef))
            pos += 1
    mat = sp.csr_matrix((vals, (rows, cols)), shape=(pos, num_vars))
    mat.sum_duplicates()
    return mat


def dict_lowering(mp):
    """Reference lowering of the equalities: moments mapped to variables
    through dicts over the enumerated multi-indices, the pair-loop boundary
    rows (reduced) and circle rows, on the occupation and (reduced) then on
    the exit moments, every row dropped whose exact normalized pattern came
    before, and then the symmetry rows.  The pair loops run over the full
    basis of degree K // 2 in both variants, whatever the blocks' basis."""
    n, half = mp.model.total_dim, mp.K // 2
    max_int_deg = max((q.degree() for q in mp.model.interior_polys
                       + mp.model.interior_eqs), default=0)
    b_deg = mp.qprime.degree()
    if mp.variant == "reduced":  # M(q b) and M(g b) reach 2 half + deg q
        b_deg = max(b_deg, max_int_deg)
    m_indices = enumerate_multi_indices(n, max(mp.K, 2 * half + max_int_deg))
    b_indices = enumerate_multi_indices(n, max(mp.K, 2 * half + b_deg))
    assert (len(m_indices), len(b_indices)) == (mp.num_m, mp.num_b)
    m_of = {alpha: i for i, alpha in enumerate(m_indices)}
    b_of = {alpha: mp.num_m + i for i, alpha in enumerate(b_indices)}
    patterns, eq_rows, eq_rhs = set(), [], []

    def push(coeffs: dict, rhs):
        items = sorted(coeffs.items())
        lead = items[0][1]
        pattern = tuple((v, c / lead) for v, c in items) + (float(rhs) / float(lead),)
        if pattern not in patterns:
            patterns.add(pattern)
            eq_rows.append(items)
            eq_rhs.append(float(rhs))

    for row in mp.rows:
        coeffs = {m_of[j]: c for j, c in row.interior_coeffs.items()}
        coeffs[b_of[row.test_index]] = Fraction(-1)
        push(coeffs, -Fraction(row.constant).limit_denominator(10**15))
    if mp.variant == "reduced":
        for eq in pair_loop_equalities(mp.qprime, n, half):
            push({b_of[j]: c for j, c in eq.items()}, Fraction(0))
    for of in [m_of] + ([b_of] if mp.variant == "reduced" else []):
        for g in mp.model.interior_eqs:
            for eq in pair_loop_equalities(g, n, half):
                push({of[j]: c for j, c in eq.items()}, Fraction(0))
    # the symmetry rows may repeat an earlier row: none is dropped
    for eq in symmetry_rows(mp):
        eq_rows.append(sorted(eq.items()))
        eq_rhs.append(0.0)
    triplets = [(r, v, float(c)) for r, items in enumerate(eq_rows) for v, c in items]
    rows, cols, vals = zip(*triplets)
    a_eq = sp.csr_matrix((vals, (rows, cols)),
                         shape=(len(eq_rows), mp.num_m + mp.num_b))
    return a_eq, np.array(eq_rhs)


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
    num_m = mp.num_m
    num_vars = program.num_vars
    # M(m) is implied by the time box, and only the original variant has
    # it; in every case here with two safe polynomials, two of them sum to
    # a positive constant, which implies M(b), and the reduced variant
    # states M(q b) for each safe q that mirrors no earlier one instead
    safe = mp.model.interior_polys[:len(mp.model.exit_polys) - 1]
    exit_localized = variant == "reduced" and len(safe) >= 2
    polys = [(Polynomial.constant(n, 1), 0)] if variant == "original" else []
    if not exit_localized:
        polys += [(Polynomial.constant(n, 1), num_m)]
    polys += [(q, 0) for idx, q in enumerate(mp.model.interior_polys)
              if idx not in mp.mirrored]
    if exit_localized:
        polys += [(q, num_m) for idx, q in enumerate(safe) if idx not in mp.mirrored]
    if variant == "original":
        polys += [(sign * mp.qprime, num_m)
                  for _ in mp.model.interior_polys for sign in (1, -1)]
    # the reduced blocks take the circle quotient basis, and every
    # equality row the full basis (``dict_lowering``)
    basis = (quotient_reference(model, K) if variant == "reduced"
             else enumerate_multi_indices(n, K // 2))
    assert mp.moment_basis == basis
    assert len(program.blocks) == len(polys)
    for block, (q, offset) in zip(program.blocks, polys):
        assert_same_csr(block.mat, per_entry_block(q, basis, offset, num_vars))
    # each beta once, in the order it first appears in the upper triangle;
    # q' and the circles, which the program lowers as rows over the full
    # basis, lower over the blocks' basis as the per-entry reference does
    betas, where = _betas(np.array(basis, dtype=np.int64))
    pairs = list(zip(*np.triu_indices(len(basis))))
    first = {}
    for i, j in pairs:
        first.setdefault(mi_add(basis[i], basis[j]), len(first))
    assert [tuple(beta) for beta in betas.tolist()] == list(first)
    assert where.tolist() == [first[mi_add(basis[i], basis[j])] for i, j in pairs]
    for q in [mp.qprime, *model.interior_eqs]:
        count = count_upto(n, 2 * (K // 2) + q.degree())
        assert_same_csr(_localizing_rows(q, betas, 0, count, count)[where],
                        per_entry_block(q, basis, 0, count))

    a_eq, rhs = dict_lowering(mp)
    assert_same_csr(program.a_eq, a_eq)
    assert np.array_equal(program.rhs, rhs)
    expected_c = np.zeros(num_vars)
    # order 2: twice the occupation moment of t
    expected_c[graded_lex_rank(tuple(
        int(i == model.time_index) for i in range(n)))] = 2.0
    assert np.array_equal(program.objective, expected_c)


def test_block_target_outside_the_variables_raises():
    basis = np.array(enumerate_multi_indices(1, 1), dtype=np.int64)
    q = Polynomial(1, {(1,): 1})
    betas, where = _betas(basis)
    # targets reach degree 3: four variables hold them, three do not
    assert _localizing_rows(q, betas, 0, 4, 4)[where].shape == (3, 4)
    with pytest.raises(KeyError):
        _localizing_rows(q, betas, 0, 3, 4)


@pytest.mark.parametrize("make_model, K, rank", [
    pytest.param(lambda: scaled(PENDULUM), 4, 427, id="pendulum-K4"),
    pytest.param(lambda: scaled(PENDULUM), 6, None, id="pendulum-K6"),
    pytest.param(lambda: scaled(TRIG2D), 4, None, id="trig2d-K4"),
    pytest.param(lambda: augment(sde(COUPLED_PENDULUM)), 4, None, id="coupled-pendulum-K4"),
])
def test_dropped_basis_rows_are_kept_rows_modulo_the_circles(make_model, K, rank):
    """The premise of the circle quotient basis.  Modulo the circle rows,
    which hold over every beta of degree <= 2 (K // 2), the row of
    s_j^2 x^gamma in a localizing block is the row of (1 - c_j^2) x^gamma.
    So at any point with A z = b each block over the full basis equals
    T' M'_k(z) T, with M'_k the program's block over the quotient basis and
    T the ``circle_reduction``.  The point is the least-squares solution
    plus a random vector of the null space of A.  Circle rows lowered over
    the betas of the quotient basis alone would lose rank (410 of 427 at
    pendulum K=4) and break the identity."""
    model = make_model()
    n = model.total_dim
    mp = build_moment_problem(model, "reduced", K, 1, "min")
    program = lower_to_conic(mp)
    a_eq, rhs = program.a_eq, program.rhs
    if rank is not None:
        assert np.linalg.matrix_rank(a_eq.toarray()) == rank
    r = np.random.default_rng(3).standard_normal(program.num_vars)
    z = r - spla.lsmr(a_eq, a_eq @ r - rhs, atol=1e-16, btol=1e-16, maxiter=20_000)[0]
    assert np.abs(a_eq @ z - rhs).max() <= 1e-11
    full = enumerate_multi_indices(n, K // 2)
    kept = quotient_reference(model, K)
    assert mp.moment_basis == kept and len(kept) < len(full)
    T = circle_reduction(model, full, kept)
    safe = model.interior_polys[:len(model.exit_polys) - 1]
    localizers = {"M(b)": (Polynomial.constant(n, 1), mp.num_m)}
    localizers.update({f"M(q{k} m)": (q, 0) for k, q in enumerate(model.interior_polys)})
    localizers.update({f"M(q{k} b)": (q, mp.num_m) for k, q in enumerate(safe)})
    for block in program.blocks:
        q, offset = localizers[block.label]
        whole = PsdBlock(block.label, len(full),
                         per_entry_block(q, full, offset, program.num_vars)).materialize(z)
        assert block.dim == len(kept)
        folded = T.T @ block.materialize(z) @ T
        assert np.abs(whole - folded).max() <= 1e-9 * np.abs(whole).max()


def test_a_localizer_above_the_degree_of_the_circles_keeps_the_full_basis():
    """The quotient folds M(q m) only when deg q <= 2: for a cubic q the
    rows M(g m) = 0 do not reach the betas that folding its block needs
    (forced anyway, the block of the cubic safe polynomial -x (x^2 + 1)
    below misses T' M' T by 1.3 times its largest entry at pendulum K=6).
    So a model with such a q keeps the full basis."""
    model = scaled(PENDULUM, x0=[-1.0, 0.0], safe_polys=["-x*(x^2 + 1)", "x + 2"])
    assert model.interior_polys[0].degree() == 3
    mp = build_moment_problem(model, "reduced", 6, 1, "min")
    assert mp.moment_basis == enumerate_multi_indices(model.total_dim, 3)


@pytest.mark.parametrize("row, key", [
    # an exit moment beyond the num_b exit variables (degree <= 7)
    (MartingaleRow((0, 8), {}, 1.0), (0, 8)),
    # an occupation moment beyond the num_m occupation variables (degree
    # <= 5), though within the exit moments' range
    (MartingaleRow((0, 0), {(0, 6): Fraction(1)}, 1.0), (0, 6)),
])
def test_row_target_outside_the_variables_raises(row, key):
    mp = build_moment_problem(box_model(2), "reduced", 4, 1, "max")
    assert (mp.num_m, mp.num_b) == (count_upto(2, 5), count_upto(2, 7))
    with pytest.raises(KeyError) as exc:
        lower_to_conic(dataclasses.replace(mp, rows=[row]))
    assert exc.value.args[0] == key


def test_moment_problem_records_dropped_rows():
    mp = build_moment_problem(augment(sde(PENDULUM)), "reduced", 4, 1, "max")
    assert mp.dropped_rows
    kept = {r.test_index for r in mp.rows}
    assert not kept.intersection(set(mp.dropped_rows))
