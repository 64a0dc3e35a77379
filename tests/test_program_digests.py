"""Bit-identity of the assembled benchmark programs.

Each digest is the first 16 hex characters of the sha256 of the
equality matrix (indptr, indices, data), the right-hand side, the
objective and every PSD block's matrix (indptr, indices, data), in that
order.  A refactor of the assembly that changes no program leaves every
digest as it is; a change that means to alter a program records the new
digests with it.  Next to each assembled program's digest stands the
digest of the same program after ``conic.presolve``, over the same
arrays, so that a change to the presolve is pinned the same way.
"""

import dataclasses
import hashlib
import itertools
from fractions import Fraction

import pytest

from exitmoment.augment import SdeModel, augment, scale_model
from exitmoment.conic import presolve
from exitmoment.expr import Polynomial
from exitmoment.momentproblem import (assemble, boundary_product,
                                      build_moment_problem, lower_to_conic)

from circle_quotient import quotient_svec

MODELS = {
    "brownian": dict(names=["y"], drift=["0"], diffusion=[["1"]], x0=[0.5],
                     horizon=10.0, safe_polys=["y", "1 - y"]),
    "pendulum": dict(names=["x", "v"], drift=["v", "-5*x - 9.81 + v*sin(x)"],
                     diffusion=[["0"], ["1"]], x0=[-9.81 / 5, 0.0],
                     horizon=10.0, safe_polys=["-x", "x + 2"]),
    # two states, two noise columns, time inside a sinusoid
    "trig2d": dict(names=["x", "y"],
                   drift=["sin(x*y) - x", "cos(t) + 0.5*sin(2*x)"],
                   diffusion=[["0.3 + 0.1*y", "0.2*x"], ["0.1*x*y", "0.4"]],
                   x0=[0.1, -0.2], horizon=2.0, safe_polys=["1 - x^2 - y^2"]),
    # driftless in the box [-1, 1]^2 from its centre: two reflections
    "box": dict(names=["x", "y"], drift=["0", "0"],
                diffusion=[["1", "0"], ["0", "1"]], x0=[0.0, 0.0], horizon=10.0,
                safe_polys=["x + 1", "1 - x", "y + 1", "1 - y"]),
}

# (model, variant, K, moment order, digest, presolved digest); every
# program is "min".  No reduced program has anything to presolve (its
# boundary and circle equalities are lowered as rows, never as a pair of
# blocks of g and -g), so both digests agree.  Only the original variant
# has the block M(m), which the time box implies (see the last test).  The
# reduced Brownian programs, started at the middle of the interval, also
# restrict the moments to those invariant under y -> 1 - y and leave out
# M((1 - y) m), the mirror of M(y m); the box from its centre does the
# same under x -> -x and y -> -y and leaves out M((1 - x) m) and
# M((1 - y) m).  The pendulum and trig2d have no symmetry.  A reduced
# program with two or more safe polynomials has one block M(q b) per safe
# polynomial q that mirrors no earlier one (M(y b) for Brownian motion;
# M(-x b) and M((x + 2) b) for the pendulum; M((x + 1) b) and M((y + 1) b)
# for the box) and leaves out M(b), which two safe polynomials that sum to
# a positive constant imply (see the last test).  A reduced program with a
# circle g (the pendulum, trig2d) has the rows M(g b) = 0 after its rows
# M(g m) = 0, and its blocks take the circle quotient basis (20 of 21
# monomials at K=4 for the pendulum, 50 of 56 at K=6, 196 of 252 at K=10;
# 52 of 55 for trig2d, with three circles), while every row keeps the full
# basis: its equality rows are those of the full-basis program.
DIGESTS = [
    ("brownian", "reduced", 14, 1, "93e8c58b3309a7f4", "93e8c58b3309a7f4"),
    ("brownian", "reduced", 14, 2, "c792290c7635475a", "c792290c7635475a"),
    ("brownian", "reduced", 14, 3, "386a31e864505c4b", "386a31e864505c4b"),
    ("brownian", "reduced", 14, 4, "309ad4261491df4a", "309ad4261491df4a"),
    ("brownian", "reduced", 14, 5, "537cd3cb7f75ad79", "537cd3cb7f75ad79"),
    ("brownian", "reduced", 14, 6, "c56d131a82fda6a6", "c56d131a82fda6a6"),
    ("brownian", "original", 8, 1, "d55678d259d0174f", "e48230802e2af15f"),
    ("pendulum", "reduced", 10, 1, "f321f19aa6c46cf4", "f321f19aa6c46cf4"),
    ("pendulum", "reduced", 6, 1, "286a1de3275e31b7", "286a1de3275e31b7"),
    ("pendulum", "original", 4, 1, "585ec38c482d2ec2", "02715f6f9c0e44ba"),
    ("trig2d", "reduced", 4, 1, "ff2298d8c7e3b62d", "ff2298d8c7e3b62d"),
    ("trig2d", "original", 4, 1, "458534fde8d54f88", "5070d6d79e387e01"),
    ("box", "reduced", 6, 1, "cabd36503437a36c", "cabd36503437a36c"),
]
IDS = [f"{name}-{variant}-K{K}-o{order}" for name, variant, K, order, *_ in DIGESTS]


def digest(program) -> str:
    h = hashlib.sha256()
    arrays = [program.a_eq.indptr, program.a_eq.indices, program.a_eq.data,
              program.rhs, program.objective]
    for block in program.blocks:
        arrays += [block.mat.indptr, block.mat.indices, block.mat.data]
    for arr in arrays:
        h.update(arr.tobytes())
    return h.hexdigest()[:16]


def program(name, variant, K, order):
    model = scale_model(augment(SdeModel.from_strings(**MODELS[name])))
    return assemble(model, variant, K, order, "min")


@pytest.mark.parametrize("name, variant, K, order, expected, _", DIGESTS, ids=IDS)
def test_program_digest(name, variant, K, order, expected, _):
    assert digest(program(name, variant, K, order)) == expected


@pytest.mark.parametrize("name, variant, K, order, _, expected", DIGESTS, ids=IDS)
def test_presolved_program_digest(name, variant, K, order, _, expected):
    assert digest(presolve(program(name, variant, K, order))) == expected


REDUCED = [pytest.param(*case[:4], id=case_id)
           for case, case_id in zip(DIGESTS, IDS) if case[1] == "reduced"]


@pytest.mark.parametrize("name, variant, K, order", REDUCED)
def test_reduced_program_has_nothing_to_presolve(name, variant, K, order):
    assembled = program(name, variant, K, order)
    assert presolve(assembled) is assembled


def unit_pair(polys, nvars):
    """(i, j, w_i, w_j) with w_i, w_j >= 0 and w_i polys[i] + w_j polys[j]
    exactly 1, or None: the weights solve the equations of the constant
    term and of one other term, and the whole sum is then checked."""
    zero, one = (0,) * nvars, Polynomial.constant(nvars, 1)
    for i, j in itertools.combinations(range(len(polys)), 2):
        p, q = polys[i], polys[j]
        c, d = p.coefficient(zero), q.coefficient(zero)
        for alpha in (set(p.terms) | set(q.terms)) - {zero}:
            a, b = p.coefficient(alpha), q.coefficient(alpha)
            det = a * d - b * c
            if det:  # w_i a + w_j b = 0 and w_i c + w_j d = 1
                w_i, w_j = -b / det, a / det
                if w_i >= 0 and w_j >= 0 and p * w_i + q * w_j == one:
                    return i, j, w_i, w_j
    return None


@pytest.mark.parametrize("name", sorted(MODELS))
def test_the_time_box_implies_the_occupation_moment_matrix(name):
    """The reduced program leaves M(m) out because it is implied: two
    inequality polynomials whose blocks it keeps have nonnegative weights
    with w_i q_i + w_j q_j = 1, so M(m) = w_i M(q_i m) + w_j M(q_j m), a
    sum of PSD blocks.  The time box t, 1 - t / TIME_BOX is such a pair in
    every model; the search may find another first.  K is the least K >= 4
    at which the reduced program exists (deg q' <= K).  The reduced blocks
    of a trig model take the circle quotient basis, so the sum is the
    original's M(m) at the monomials that no sine square divides."""
    model = scale_model(augment(SdeModel.from_strings(**MODELS[name])))
    K = max(4, boundary_product(model.exit_polys).degree())
    original = assemble(model, "original", K, 1, "min")
    reduced = assemble(model, "reduced", K, 1, "min")
    labels = [b.label for b in reduced.blocks]
    assert "M(m)" not in labels
    kept = [k for k in range(len(model.interior_polys)) if f"M(q{k} m)" in labels]
    i, j, w_i, w_j = unit_pair([model.interior_polys[k] for k in kept],
                               model.total_dim)
    i, j = kept[i], kept[j]
    assert isinstance(w_i, Fraction) and isinstance(w_j, Fraction)
    (occupation,) = [b for b in original.blocks if b.label == "M(m)"]
    q_i, q_j = (reduced.blocks[labels.index(f"M(q{k} m)")] for k in (i, j))
    implied = float(w_i) * q_i.mat + float(w_j) * q_j.mat
    implied.eliminate_zeros()
    assert (implied != occupation.mat[quotient_svec(model, K)]).nnz == 0


@pytest.mark.parametrize("spec", [MODELS["brownian"], dict(MODELS["box"], x0=[0.2, 0.1])],
                         ids=["brownian", "box-from-(0.2,0.1)"])
def test_two_safe_polynomials_imply_the_exit_moment_matrix(spec):
    """The reduced program leaves M(b) out because it is implied: two safe
    polynomials sum to a positive constant c (y + (1 - y) = 1 on the
    interval, (x + 1) + (1 - x) = 2 in the box), so
    M(b) = (M(q_i b) + M(q_j b)) / c, a sum of PSD blocks.  For Brownian
    motion M((1 - y) b) is itself left out as the mirror of M(y b), so
    both blocks are lowered here without the reflection."""
    model = scale_model(augment(SdeModel.from_strings(**spec)))
    K = max(4, boundary_product(model.exit_polys).degree())
    original = assemble(model, "original", K, 1, "min")
    mp = build_moment_problem(model, "reduced", K, 1, "min")
    assert "M(b)" not in [b.label for b in lower_to_conic(mp).blocks]
    plain = lower_to_conic(dataclasses.replace(mp, reflections=[], mirrored=[]))
    assert plain.num_vars == original.num_vars
    safe = model.interior_polys[:len(model.exit_polys) - 1]
    zero = (0,) * model.total_dim
    (i, j, c), *_ = [(i, j, (safe[i] + safe[j]).coefficient(zero))
                     for i, j in itertools.combinations(range(len(safe)), 2)
                     if (safe[i] + safe[j]).degree() == 0]
    assert isinstance(c, Fraction) and c > 0
    (exit_block,) = [b for b in original.blocks if b.label == "M(b)"]
    q_i, q_j = ({b.label: b for b in plain.blocks}[f"M(q{k} b)"] for k in (i, j))
    implied = (q_i.mat + q_j.mat) / float(c)
    implied.eliminate_zeros()
    assert (implied != exit_block.mat).nnz == 0
