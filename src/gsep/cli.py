"""Command-line front end.

Subcommands: ``check`` (verdict for one state), ``certify`` (verdict plus
an explicit certificate or witness), ``sweep`` (verdicts along a noise
ray, CSV), ``threshold`` (bisection for the separability threshold), and
``gen`` (fixture generation).  Exit codes: 0 when a result was computed,
2 on malformed or invalid input, 3 on numerical failure.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import __version__
from .certify import CertificateError, reconstruct, verify_certificate, witness
from .engine import (
    EngineError,
    VerdictKind,
    decide,
    decide_robust,
    find_threshold,
    sweep,
)
from .gaussian import (
    BipartiteCM,
    random_cm,
    random_separable_cm,
    tmss,
)
from .io import _canonical, dump_certificate, dump_cm, load_cm
from .matlin import DEFAULT_TOL, ToleranceConfig

__all__ = ["main"]


def _tolerances(args) -> ToleranceConfig:
    return ToleranceConfig(
        psd_tol=args.tol_psd,
        pinv_rcond=args.tol_pinv,
        decision_margin=args.margin,
    )


def _write(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)


def _parse_eps_grid(spec: str) -> np.ndarray:
    parts = spec.split(":")
    if len(parts) not in (3, 4) or (len(parts) == 4 and parts[3] != "log"):
        raise ValueError(
            f"--eps-grid must look like LO:HI:POINTS or LO:HI:POINTS:log, got {spec!r}"
        )
    lo, hi, points = float(parts[0]), float(parts[1]), int(parts[2])
    if points < 2 or not lo < hi:
        raise ValueError("--eps-grid needs LO < HI and at least 2 points")
    if len(parts) == 4:
        if lo <= 0:
            raise ValueError("log-spaced --eps-grid needs LO > 0")
        return np.geomspace(lo, hi, points)
    return np.linspace(lo, hi, points)


def _cmd_check(args) -> int:
    cm = load_cm(args.input)
    tol = _tolerances(args)
    if args.eps is not None:
        verdict = decide_robust(cm, args.eps, tol, args.max_iter)
    else:
        verdict = decide(cm, tol, args.max_iter)
    doc = {
        "verdict": verdict.kind.value,
        "step": verdict.step,
        "margin": verdict.margin,
        "reason": verdict.reason,
        "c_opnorm_history": list(verdict.trace.c_opnorm_history),
    }
    _write(_canonical(doc), args.output)
    return 0


def _cmd_certify(args) -> int:
    """Verdict plus evidence: a verified certificate, or :func:`~gsep.certify.witness`."""
    cm = load_cm(args.input)
    tol = _tolerances(args)
    verdict = decide(cm, tol, args.max_iter)
    if verdict.kind is VerdictKind.SEPARABLE:
        certificate = reconstruct(verdict.trace, tol)
        report = verify_certificate(cm, certificate, tol)
        _write(dump_certificate(certificate, report.margins), args.output)
        return 0
    if verdict.kind is VerdictKind.ENTANGLED:
        lambda_min, vector = witness(verdict.trace)
        doc = {"verdict": "entangled", "step": verdict.step, "lambda_min": lambda_min,
               "witness_real": vector.real.tolist(), "witness_imag": vector.imag.tolist()}
        _write(_canonical(doc), args.output)
        return 0
    doc = {"verdict": "undecided", "step": verdict.step, "margin": verdict.margin,
           "reason": verdict.reason}
    _write(_canonical(doc), args.output)
    return 0


def _cmd_sweep(args) -> int:
    cm = load_cm(args.input)
    tol = _tolerances(args)
    if args.eps_grid is not None:
        grid = _parse_eps_grid(args.eps_grid)
    elif args.eps:
        grid = np.array(args.eps, dtype=float)
    else:
        raise ValueError("sweep needs --eps values or --eps-grid")
    pert = load_cm(args.perturbation).gamma if args.perturbation else np.eye(2 * (cm.n + cm.m))
    points = sweep(cm, pert, grid, tol, args.max_iter,
                   stop_after_separable=args.stop_after_separable)
    lines = ["eps,verdict,steps"]
    lines += [f"{p.eps!r},{p.kind.value},{p.steps}" for p in points]
    _write("\n".join(lines) + "\n", args.output)
    return 0


def _cmd_threshold(args) -> int:
    cm = load_cm(args.input)
    tol = _tolerances(args)
    pert = load_cm(args.perturbation).gamma if args.perturbation else None
    eps = find_threshold(cm, pert, tol, args.max_iter, eps_max=args.eps_max)
    _write(_canonical({"threshold": eps}), args.output)
    return 0


def _cmd_gen(args) -> int:
    if args.kind == "tmss":
        cm = tmss(args.r)
    elif args.kind == "random":
        cm = random_cm(args.n, args.m, purity=args.purity, seed=args.seed)
    else:  # separable
        cm, _, _ = random_separable_cm(args.n, args.m, seed=args.seed)
    _write(dump_cm(cm), args.output)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gsep",
        description="Separability analysis for bipartite Gaussian states "
                    "from their correlation matrices.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")

    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--output", help="write result to this file instead of stdout")
    # the input, tolerances and the iteration limit, for the commands that decide
    common = argparse.ArgumentParser(add_help=False, parents=[output])
    common.add_argument("--input", required=True, help="correlation-matrix JSON file")
    common.add_argument("--tol-psd", type=float, default=DEFAULT_TOL.psd_tol,
                        help="relative PSD tolerance for inputs and certificates "
                             "(default %(default)g)")
    common.add_argument("--tol-pinv", type=float, default=DEFAULT_TOL.pinv_rcond,
                        help="relative pseudoinverse cutoff (default %(default)g)")
    common.add_argument("--margin", type=float, default=DEFAULT_TOL.decision_margin,
                        help="absolute decision band of every termination test "
                             "(default %(default)g)")
    common.add_argument("--max-iter", type=int, default=200,
                        help="iteration limit (default 200)")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", parents=[common],
                       help="decide separability of one state")
    p.add_argument("--eps", type=float,
                   help="robust mode: decide up to +/- eps of identity noise")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("certify", parents=[common],
                       help="decide and emit a certificate or witness")
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("sweep", parents=[common],
                       help="decide along gamma + eps*P for a grid of eps")
    p.add_argument("--eps", type=float, action="append",
                   help="explicit eps value (repeatable)")
    p.add_argument("--eps-grid", help="LO:HI:POINTS or LO:HI:POINTS:log")
    p.add_argument("--perturbation",
                   help="CM JSON file with the PSD perturbation (default identity)")
    p.add_argument("--stop-after-separable", action="store_true",
                   help="stop at the first separable verdict")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("threshold", parents=[common],
                       help="bisect for the smallest separating eps")
    p.add_argument("--perturbation",
                   help="CM JSON file with the PSD perturbation (default identity)")
    p.add_argument("--eps-max", type=float, default=1e6,
                   help="give up bracketing above this eps (default 1e6)")
    p.set_defaults(func=_cmd_threshold)

    p = sub.add_parser("gen", parents=[output], help="generate fixture states")
    p.add_argument("kind", choices=["tmss", "random", "separable"])
    p.add_argument("--r", type=float, default=1.0, help="squeezing for tmss")
    p.add_argument("--n", type=int, default=1, help="modes on the first side")
    p.add_argument("--m", type=int, default=1, help="modes on the second side")
    p.add_argument("--purity", choices=["pure", "mixed"], default="mixed")
    p.add_argument("--seed", type=int, help="RNG seed for reproducible output")
    p.set_defaults(func=_cmd_gen)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        # malformed files, bad schemas, invalid input states, bad flags
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (EngineError, CertificateError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
