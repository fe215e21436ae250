"""Command-line surface.

Subcommands: run, sweep, toy, eig, bound, check-grad. Exit codes: 0 on
success, 1 for validation problems, 2 for numeric failures, 3 for I/O.
"""
from __future__ import annotations

import argparse
import dataclasses
import sys

from .analysis import GenBoundInputs, classify_minimum, generalization_bound, power_iteration
from .config import FORMATS, parse_config, parse_sweep_config, toy_preset
from .core import DomainError, l2_norm
from .objectives import check_gradients
from .runner import (
    NumericBlowup,
    _start,
    build_objective,
    emit,
    format_eig,
    format_sweep,
    format_trajectory,
    run,
    sweep,
)
from .sam import MODES

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_NUMERIC = 2
EXIT_IO = 3


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad usage by default; 2 means numeric failure here,
    # so route usage problems to the validation code instead
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_VALIDATION, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    parser = _Parser(prog="sharpopt", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_run = sub.add_parser("run", help="execute one configured optimization run")
    p_run.add_argument("--config", required=True, help="path to an INI run document")
    p_run.set_defaults(handler=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="run every cell of a hyperparameter grid")
    p_sweep.add_argument("--config", required=True, help="config with a [sweep] section")
    p_sweep.set_defaults(handler=_cmd_sweep)
    for p in (p_run, p_sweep):
        p.add_argument("--out", help="output path (default: [run] out, else stdout)")
        p.add_argument("--format", choices=FORMATS, help="default: [run] format, else csv")

    p_toy = sub.add_parser("toy", help="two-minima trajectory demo")
    p_toy.add_argument("--gamma", type=float, required=True)
    p_toy.add_argument("--mode", default="coupled", choices=MODES)
    p_toy.add_argument("--steps", type=int, default=150)
    p_toy.add_argument("--seed", type=int, default=0)
    p_toy.add_argument("--record-every", type=int, default=1)
    p_toy.add_argument("--out", default=None, help="CSV destination (default stdout)")
    p_toy.add_argument("--format", default="csv", choices=FORMATS)
    p_toy.set_defaults(handler=_cmd_toy)

    p_eig = sub.add_parser("eig", help="dominant Hessian eigenvalue of a configured run")
    p_eig.add_argument("--config", required=True)
    p_eig.add_argument("--at", default="final", choices=("final", "init"))
    # [run] out and format name the run's own output, which eig must not overwrite
    p_eig.add_argument("--out", default=None, help="output path (default stdout)")
    p_eig.add_argument("--format", default="csv", choices=FORMATS)
    p_eig.set_defaults(handler=_cmd_eig)

    p_bound = sub.add_parser("bound", help="generalization-bound calculator")
    p_bound.add_argument("--d", type=int, required=True, help="VC dimension")
    p_bound.add_argument("--m", type=int, required=True, help="sample count")
    p_bound.add_argument("--n", type=int, required=True, help="parameter dimension")
    p_bound.add_argument("--rho", type=float, required=True)
    p_bound.add_argument("--gamma", type=float, required=True)
    p_bound.add_argument("--delta", type=float, required=True)
    p_bound.add_argument("--wnorm", type=float, required=True)
    p_bound.add_argument("--loss", type=float, required=True, help="empirical weighted loss")
    p_bound.set_defaults(handler=_cmd_bound)

    p_check = sub.add_parser("check-grad", help="analytic gradients vs the finite-difference oracle")
    p_check.set_defaults(handler=_cmd_check_grad)
    return parser


def _load_text(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write(text: str, out: str | None, summary: str | None) -> None:
    """Emit text to out and the summary to stdout, or text to stdout and the summary to stderr.

    Written to out, the summary also names the bytes and the path; None prints no summary.
    """
    n = emit(text, out)
    if summary is None:
        return
    if out is not None:
        print(f"{summary} wrote={n}B path={out}")
    else:
        print(summary, file=sys.stderr)


def _with_flags(cfg, args):
    """cfg with the --out and --format given on the command line over its [run] out and format."""
    flags = {k: v for k, v in (("out", args.out), ("out_format", args.format)) if v is not None}
    return dataclasses.replace(cfg, **flags) if flags else cfg


def _cmd_run(args) -> int:
    cfg = _with_flags(parse_config(_load_text(args.config)), args)
    obj = build_objective(cfg)
    traj = run(cfg, obj)
    text = format_trajectory(traj, cfg.out_format, cfg.record_every)
    loss, grad = obj.loss_grad(traj.final_w)
    summary = f"steps={cfg.steps} final_loss={loss:.6g} final_grad_norm={l2_norm(grad):.6g}"
    if cfg.objective.kind == "toy":
        summary += f" minimum={classify_minimum(traj.final_w)}"
    _write(text, cfg.out, summary)
    return EXIT_OK


def _cmd_sweep(args) -> int:
    cfg, spec = parse_sweep_config(_load_text(args.config))
    cfg = _with_flags(cfg, args)
    rows = sweep(cfg, spec)
    text = format_sweep(rows, cfg.out_format)
    diverged = sum(1 for r in rows if r.status != "ok")
    _write(text, cfg.out, f"cells={len(rows)} diverged={diverged}")
    return EXIT_OK


def _cmd_toy(args) -> int:
    cfg = dataclasses.replace(
        toy_preset(gamma=args.gamma, mode=args.mode, steps=args.steps, seed=args.seed),
        record_every=args.record_every,
    )
    traj = run(cfg)
    text = format_trajectory(traj, args.format, cfg.record_every)
    # the streamed trajectory is the whole of toy's output
    summary = None if args.out is None else f"minimum={classify_minimum(traj.final_w)}"
    _write(text, args.out, summary)
    return EXIT_OK


def _cmd_eig(args) -> int:
    cfg = parse_config(_load_text(args.config))
    obj = build_objective(cfg)
    w = run(cfg, obj).final_w if args.at == "final" else _start(cfg, obj)
    try:
        est = power_iteration(obj, w, seed=cfg.seed)
    except DomainError as exc:
        print(f"sharpopt: power iteration left the objective's domain: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    # the estimate is the whole of eig's output on stdout
    summary = None if args.out is None else f"lambda_max={est.lambda_max:.6g}"
    _write(format_eig(est, args.format), args.out, summary)
    return EXIT_OK


def _cmd_bound(args) -> int:
    inp = GenBoundInputs(
        vc_dim=args.d, sample_count=args.m, param_dim=args.n, rho=args.rho,
        gamma=args.gamma, delta=args.delta, weight_norm=args.wnorm,
        empirical_wsam_loss=args.loss,
    )
    print(f"{generalization_bound(inp):.17g}")
    return EXIT_OK


def _cmd_check_grad(args) -> int:
    results = check_gradients()
    failed = False
    for name, worst, ok in results:
        marker = "ok" if ok else "FAIL"
        print(f"{name}: max relative error {worst:.3e} ({marker})")
        failed = failed or not ok
    return EXIT_NUMERIC if failed else EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except ValueError as exc:
        print(f"sharpopt: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except NumericBlowup as exc:
        rec = exc.last_finite_record
        detail = ""
        if rec is not None:
            detail = f" (last finite step {rec.t}, loss {rec.loss:.6g})"
        print(f"sharpopt: {exc}{detail}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:
        print(f"sharpopt: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
