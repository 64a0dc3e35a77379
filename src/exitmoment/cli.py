"""Command line: one exit-time moment bound, printed as JSON.

Example (Brownian motion on [0, 1] from 1/2, lower bound on E[tau ^ T]):

    exitmoment --names y --drift 0 --diffusion 1 --x0 0.5 --horizon 10 \\
        --safe y "1 - y" --K 8 --order 1 --sense min

The exit code is 0 when the solve ends ``optimal`` and 1 otherwise; the
objective of an unconverged iterate is no bound, so "bound" is then null.
The ``SolveResult`` fields but ``objective``, ``z`` and
``residual_history`` follow "bound"; a non-finite number prints as null.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys

from .augment import SdeModel, augment, moment_unscale_factor, scale_model
from .conic import SolverSettings, solve
from .momentproblem import assemble


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="exitmoment",
        description="Bound the exit-time moment E[(tau ^ T)^n] of an SDE "
                    "with a moment SDP relaxation.")
    p.add_argument("--names", nargs="+", required=True,
                   help="state variable names")
    p.add_argument("--drift", nargs="+", required=True,
                   help="one drift expression per state")
    p.add_argument("--diffusion", nargs="+", action="append", required=True,
                   metavar="ENTRY",
                   help="one diffusion row per state; repeat the option per row")
    p.add_argument("--x0", nargs="+", type=float, required=True,
                   help="initial state")
    p.add_argument("--horizon", type=float, required=True, help="time horizon T")
    p.add_argument("--safe", nargs="*", default=[],
                   help="polynomials q with safe set {q > 0}")
    p.add_argument("--K", type=int, required=True, help="relaxation degree")
    p.add_argument("--order", type=int, default=1, help="moment order n")
    p.add_argument("--sense", choices=("min", "max"), default="min")
    p.add_argument("--max-iters", type=int, default=SolverSettings.max_iters,
                   help="most interior-point steps, or ADMM iterations, of the "
                        "method that runs (default %(default)s)")
    return p


def main(argv=None) -> int:
    parser = _parser()
    # a space before an argument with one leading "-" but -h, such as -x or -1,
    # makes argparse read a value, which the expression and number parsers strip
    args = parser.parse_args([" " + a if a.startswith("-") and a[1:2] != "-" and a != "-h" else a
                              for a in (sys.argv[1:] if argv is None else argv)])
    try:
        sde = SdeModel.from_strings(args.names, args.drift, args.diffusion,
                                    args.x0, args.horizon, args.safe)
        settings = SolverSettings(max_iters=args.max_iters)
        model = scale_model(augment(sde))
        program = assemble(model, "reduced", args.K, args.order, args.sense)
    except ValueError as exc:  # unreadable model or out-of-range setting
        parser.error(str(exc))
    res = solve(program, settings)
    optimal = res.status == "optimal"
    record = {"K": args.K, "order": args.order, "sense": args.sense,
              "bound": (res.objective * moment_unscale_factor(model, args.order)
                        if optimal else None)}
    record.update((f.name, getattr(res, f.name)) for f in dataclasses.fields(res)
                  if f.name not in ("objective", "z", "residual_history"))
    print(json.dumps({key: None if isinstance(value, float) and not math.isfinite(value)
                      else value for key, value in record.items()}))
    return 0 if optimal else 1


if __name__ == "__main__":
    raise SystemExit(main())
