"""Command line: one exit-time moment bound, printed as JSON.

Example (Brownian motion on [0, 1] from 1/2, lower bound on E[tau ^ T]):

    exitmoment --names y --drift 0 --diffusion 1 --x0 0.5 --horizon 10 \\
        --safe y "1 - y" --K 8 --order 1 --sense min

The exit code is 0 when the solve ends ``optimal`` and 1 otherwise; the
objective of an unconverged iterate is no bound, so "bound" is then null.
"""

from __future__ import annotations

import argparse
import json

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
    p.add_argument("--max-iters", type=int, default=SolverSettings.max_iters)
    return p


def main(argv=None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
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
    print(json.dumps({
        "K": args.K,
        "order": args.order,
        "sense": args.sense,
        "bound": (res.objective * moment_unscale_factor(model, args.order)
                  if optimal else None),
        "status": res.status,
        "method": res.method,
        "iterations": res.iterations,
        "psd_blocks": res.psd_blocks,
        "eq_rows": res.eq_rows,
        "primal_residual": res.primal_residual,
        "dual_residual": res.dual_residual,
        "aa_rejected": res.aa_rejected,
        "solve_time": res.solve_time,
        "message": res.message,
    }))
    return 0 if optimal else 1


if __name__ == "__main__":
    raise SystemExit(main())
