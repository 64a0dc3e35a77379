"""The models the tests share, each stated once.

A spec holds the keyword arguments of ``SdeModel.from_strings``.  The
paper's two examples are ``BROWNIAN``, Brownian motion on [0, 1] from its
middle, and ``PENDULUM``, the sinusoidal pendulum that state augmentation
makes polynomial; both are the benchmark's own (``test_models`` compares
them with ``perfbench/workloads.py``).  A test that needs another start
state, horizon, safe set or dynamics passes it as an override:
``sde(BROWNIAN, horizon=1.0)``, ``scaled(BOX, x0=[0.2, 0.1])``.
"""

from fractions import Fraction

from exitmoment.augment import SdeModel, augment, scale_model

BROWNIAN = dict(names=["y"], drift=["0"], diffusion=[["1"]], x0=[0.5],
                horizon=10.0, safe_polys=["y", "1 - y"])
PENDULUM = dict(names=["x", "v"], drift=["v", "-5*x - 9.81 + v*sin(x)"],
                diffusion=[["0"], ["1"]], x0=[-9.81 / 5, 0.0],
                horizon=10.0, safe_polys=["-x", "x + 2"])
# the unit disc, as a safe set
DISC = ["1 - x^2 - y^2"]
# one state inside a sine and a cosine: dX = sin(X) dt + cos(X) dB
SINE = dict(names=["x"], drift=["sin(x)"], diffusion=[["cos(x)"]], x0=[0.5],
            horizon=1.0, safe_polys=["x", "1 - x"])
# two states, two noise columns, time inside a sinusoid: three circles
TRIG2D = dict(names=["x", "y"], drift=["sin(x*y) - x", "cos(t) + 0.5*sin(2*x)"],
              diffusion=[["0.3 + 0.1*y", "0.2*x"], ["0.1*x*y", "0.4"]],
              x0=[0.1, -0.2], horizon=2.0, safe_polys=DISC)
# driftless in the box [-1, 1]^2 from its centre, which two reflections
# map to itself
BOX = dict(names=["x", "y"], drift=["0", "0"], diffusion=[["1", "0"], ["0", "1"]],
           x0=[0.0, 0.0], horizon=10.0, safe_polys=["x + 1", "1 - x", "y + 1", "1 - y"])
# the same motion from (0.2, 0.1), which no reflection maps to itself; in
# the box, or with ``DISC`` as its safe set, in the unit disc
BROWNIAN_2D = dict(BOX, x0=[0.2, 0.1])
# two damped pendulums joined by a spring, noise on both velocities:
# 4 states, 9 augmented variables (t and a sin/cos pair per angle)
COUPLED_PENDULUM = dict(
    names=["x", "y", "u", "w"],
    drift=["u", "w", "-sin(x) + 0.5*(y - x) - 0.1*u", "-sin(y) + 0.5*(x - y) - 0.1*w"],
    diffusion=[["0", "0"], ["0", "0"], ["1", "0"], ["0", "1"]],
    x0=[0.2, -0.1, 0.0, 0.0], horizon=10.0, safe_polys=DISC)

# E[tau^n] of Brownian motion from 1/2 on [0, 1], exact
BROWNIAN_MOMENTS = {1: Fraction(1, 4), 2: Fraction(5, 48), 3: Fraction(61, 960),
                    4: Fraction(277, 5376), 5: Fraction(50521, 967680),
                    6: Fraction(540553, 8515584)}


def sde(spec, **overrides) -> SdeModel:
    """The model of ``spec`` with the given fields replaced."""
    return SdeModel.from_strings(**{**spec, **overrides})


def scaled(spec, **overrides):
    """The augmented model of ``spec``, scaled to the unit box, as the
    command line and the benchmark assemble it."""
    return scale_model(augment(sde(spec, **overrides)))
