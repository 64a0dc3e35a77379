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

import hashlib

import pytest

from exitmoment.augment import SdeModel, augment, scale_model
from exitmoment.conic import presolve
from exitmoment.momentproblem import assemble

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
}

# (model, variant, K, moment order, digest, presolved digest); every
# program is "min".  No reduced program has anything to presolve (its
# boundary and circle equalities are lowered as rows, never as a pair of
# blocks of g and -g), so both digests agree.
DIGESTS = [
    ("brownian", "reduced", 14, 1, "14910f97eb5a2fa9", "14910f97eb5a2fa9"),
    ("brownian", "reduced", 14, 2, "19910387d8469160", "19910387d8469160"),
    ("brownian", "reduced", 14, 3, "8cc439a9438263ed", "8cc439a9438263ed"),
    ("brownian", "reduced", 14, 4, "ef3dc7eab9d5db04", "ef3dc7eab9d5db04"),
    ("brownian", "reduced", 14, 5, "87854862c65f53ff", "87854862c65f53ff"),
    ("brownian", "reduced", 14, 6, "1f1dc2604b1fb44b", "1f1dc2604b1fb44b"),
    ("brownian", "original", 8, 1, "d55678d259d0174f", "e48230802e2af15f"),
    ("pendulum", "reduced", 10, 1, "1fc0e24e476294a2", "1fc0e24e476294a2"),
    ("pendulum", "reduced", 6, 1, "d8c2e1b19e2c7154", "d8c2e1b19e2c7154"),
    ("pendulum", "original", 4, 1, "585ec38c482d2ec2", "02715f6f9c0e44ba"),
    ("trig2d", "reduced", 4, 1, "14d6486574bf7703", "14d6486574bf7703"),
    ("trig2d", "original", 4, 1, "458534fde8d54f88", "5070d6d79e387e01"),
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
