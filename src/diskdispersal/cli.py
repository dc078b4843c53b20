"""Command-line front end.

Subcommands: solve, kernelize, validate, generate, render, graph.
Exit codes follow the per-command contracts: solve uses 0/1/2 for
yes/no/unknown, validate uses 0/1/2 for accept/reject/indeterminate,
and an unknown subcommand or usage error exits with 64.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from pathlib import Path

from . import generators, gridtiling
from .instance_io import (
    DEFAULT_EPS,
    Instance,
    ParseError,
    expand_blocks,
    parse_instance,
    parse_witness,
    validate_witness,
    write_instance,
    write_witness,
)
from .kernel import coordinate_stat, kernelize, shrink_kernel
from .numerics import IndeterminateError, parse_int, parse_rational
from .oracle import GuardError, oracle
from .render import RenderOptions, render_svg
from .solver import SolverConfig, solve
from .udg import build_graph

USAGE_EXIT = 64
BLOCK_CAP = 10 ** 6


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _rational(text: str) -> Fraction:
    """A rational option in the file formats' number grammar."""
    try:
        return parse_rational(text)
    except ValueError as e:
        raise argparse.ArgumentTypeError(str(e)) from None


def _integer(text: str) -> int:
    """An integer option in the file formats' number grammar."""
    try:
        return parse_int(text)
    except ValueError as e:
        raise argparse.ArgumentTypeError(str(e)) from None


def _nonnegative(parse, strict: bool = False, real: bool = False):
    """An option type: ``parse`` of the text, which must be at least 0, or
    above 0 when ``strict`` (either test also rejects a float nan), and
    within float range when ``real``, for a value used as a float."""
    def check(text: str):
        value = parse(text)
        if not (value > 0 if strict else value >= 0):
            bound = "above 0" if strict else "at least 0"
            raise argparse.ArgumentTypeError(f"must be {bound}: {text!r}")
        if real:
            try:
                float(value)
            except OverflowError:
                raise argparse.ArgumentTypeError(
                    f"beyond float range: {text!r}") from None
        return value

    check.__name__ = parse.__name__  # argparse names the type in errors
    return check


def _integers(text: str) -> list[int]:
    """An option type: comma-separated integers, as in ``1,3,2``."""
    try:
        return [parse_int(v) for v in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"not comma-separated integers: {text!r}") from None


def _build_parser() -> _Parser:
    p = _Parser(prog="diskdispersal",
                description="Exact toolkit for the disk dispersal problem")
    sub = p.add_subparsers(dest="command")

    sp = sub.add_parser("solve", parents=[], help="decide an instance")
    sp.add_argument("instance", type=Path)
    sp.add_argument("--witness", type=Path, help="write a witness here on yes")
    sp.add_argument("--delta", type=_nonnegative(_rational, strict=True),
                    default=None,
                    help="finest refutation grid resolution (default: the "
                         "solver's 1/64, the oracle's 1/16)")
    sp.add_argument("--time-budget",
                    type=_nonnegative(_rational, real=True), default=None,
                    help="seconds for the whole solve, as a rational: 5/2 "
                         "for 2.5 s")
    sp.add_argument("--oracle", action="store_true",
                    help="run the independent brute-force oracle instead "
                         "(takes --delta only)")
    sp.add_argument("--expand-blocks", action="store_true",
                    help="materialise lattice blocks before solving")

    kp = sub.add_parser("kernelize", help="reduce an instance")
    kp.add_argument("instance", type=Path)
    kp.add_argument("output", type=Path)
    kp.add_argument("--shrink", action="store_true",
                    help="also compact coordinates")
    kp.add_argument("--expand-blocks", action="store_true")

    vp = sub.add_parser("validate", help="check a witness")
    vp.add_argument("instance", type=Path)
    vp.add_argument("witness", type=Path)
    vp.add_argument("--tolerant", nargs="?", type=_nonnegative(_rational),
                    const=DEFAULT_EPS, default=None, metavar="EPS",
                    help="relax constraints by EPS (default 1/10^9)")

    gp = sub.add_parser("generate", help="build instances")
    gsub = gp.add_subparsers(dest="family")
    rp = gsub.add_parser("random")
    rp.add_argument("output", type=Path)
    rp.add_argument("--n", type=_nonnegative(_integer), required=True)
    rp.add_argument("--side", type=_nonnegative(_integer, strict=True),
                    required=True)
    rp.add_argument("--seed", type=_integer, default=0)
    rp.add_argument("--k", type=_nonnegative(_integer), default=1)
    rp.add_argument("--d2", type=_nonnegative(_rational), default=Fraction(1))
    rp.add_argument("--variant", choices=["euclidean", "rectilinear"],
                    default="euclidean")
    cp = gsub.add_parser("colocated")
    cp.add_argument("output", type=Path)
    cp.add_argument("--m", type=_nonnegative(_integer), required=True)
    cp.add_argument("--k", type=_nonnegative(_integer), required=True)
    cp.add_argument("--d2", type=_nonnegative(_rational), required=True)
    cp.add_argument("--variant", choices=["euclidean", "rectilinear"],
                    default="euclidean")
    ap = gsub.add_parser("appending")
    ap.add_argument("output", type=Path)
    ap.add_argument("--a", type=_nonnegative(_integer), required=True)
    ap.add_argument("--kappa", type=_nonnegative(_integer), required=True)
    xp = gsub.add_parser("crosscompose")
    xp.add_argument("output", type=Path)
    xp.add_argument("--t", type=_nonnegative(_integer), required=True)
    xp.add_argument("--a", type=_nonnegative(_integer), required=True)
    xp.add_argument("--kappa", type=_nonnegative(_integer), required=True)
    tp = gsub.add_parser("gridtiling")
    tp.add_argument("input", type=Path, help="grid-tiling set description")
    tp.add_argument("output", type=Path)
    wp = gsub.add_parser("gridtiling-witness")
    wp.add_argument("input", type=Path)
    wp.add_argument("instance", type=Path)
    wp.add_argument("output", type=Path)
    wp.add_argument("--rows", type=_integers, required=True,
                    help="comma-separated row values")
    wp.add_argument("--cols", type=_integers, required=True,
                    help="comma-separated column values")

    dp = sub.add_parser("render", help="draw an instance as SVG")
    dp.add_argument("instance", type=Path)
    dp.add_argument("output", type=Path)
    dp.add_argument("--witness", type=Path, default=None)
    dp.add_argument("--scale",
                    type=_nonnegative(_rational, strict=True, real=True),
                    default=Fraction(12))

    ep = sub.add_parser("graph", help="emit the intersection graph edge list")
    ep.add_argument("instance", type=Path)
    return p


def _read_instance(path: Path) -> Instance:
    return parse_instance(path.read_text())


def _maybe_expand(inst: Instance, flag: bool, what: str) -> Instance:
    if not inst.blocks:
        return inst
    if not flag:
        raise _UsageError(
            f"{what} needs explicit disks; rerun with --expand-blocks")
    try:
        return expand_blocks(inst, BLOCK_CAP)
    except ValueError:
        raise _UsageError(
            f"refusing to expand more than {BLOCK_CAP} block disks") from None


def _cmd_solve(args) -> int:
    if args.oracle and args.time_budget is not None:
        raise _UsageError("--oracle takes --delta, not --time-budget")
    inst = _read_instance(args.instance)
    inst = _maybe_expand(inst, args.expand_blocks, "solve")
    delta = {} if args.delta is None else {"delta": args.delta}
    if args.oracle:
        ans = oracle(inst, **delta)
    else:
        budget = None if args.time_budget is None else float(args.time_budget)
        cfg = SolverConfig(time_budget=budget, **delta)
        ans = solve(inst, cfg)
    print(ans)
    for line in ans.log:
        print(f"# {line}")
    if ans.verdict == "yes" and args.witness:
        args.witness.write_text(write_witness(ans.witness))
    return {"yes": 0, "no": 1, "unknown": 2}[ans.verdict]


def _cmd_kernelize(args) -> int:
    inst = _read_instance(args.instance)
    inst = _maybe_expand(inst, args.expand_blocks, "kernelize")
    kr = kernelize(inst)
    if kr is None:
        print("trivially-no: conflict matching exceeds the budget")
        return 1
    kinst, report = kr
    if args.shrink:
        kinst = shrink_kernel(kinst)
    header = [
        f"# cover: {list(report.cover)}",
        f"# threshold: {report.threshold}",
        f"# kept: {len(report.kept)} of {len(inst.disks)}",
        f"# removed: {list(report.removed)}",
        f"# size_bound: {report.size_bound}",
        f"# coord_stat: {coordinate_stat(inst.disks)}",
    ]
    args.output.write_text("\n".join(header) + "\n" + write_instance(kinst))
    print(f"kept {len(report.kept)} of {len(inst.disks)} disks")
    return 0


def _cmd_validate(args) -> int:
    inst = _read_instance(args.instance)
    w = parse_witness(args.witness.read_text())
    res = validate_witness(inst, w, args.tolerant)
    print(res)
    return {"accept": 0, "reject": 1, "indeterminate": 2}[res.status]


def _cmd_generate(args) -> int:
    fam = args.family
    if fam == "random":
        inst = generators.gen_random(args.n, args.side, args.seed, args.k,
                                     args.d2, args.variant)
    elif fam == "colocated":
        inst = generators.gen_colocated(args.m, args.k, args.d2, args.variant)
    elif fam == "appending":
        frame = generators.gen_appending_frame(args.a, args.kappa)
        inst = Instance("euclidean", args.kappa, Fraction(0), frame.packing)
    elif fam == "crosscompose":
        frames = [generators.gen_appending_frame(args.a, args.kappa)
                  for _ in range(args.t)]
        inst, report = generators.gen_crosscompose(frames)
        for name, value, ok in zip(
                ("stack_to_gadget_max_sq", "stack_to_square_min_sq",
                 "gadget_to_own_square_max_sq",
                 "gadget_to_other_square_min_sq"),
                (report.stack_to_gadget_max_sq, report.stack_to_square_min_sq,
                 report.gadget_to_own_square_max_sq,
                 report.gadget_to_other_square_min_sq),
                report.verdicts):
            print(f"# {name}: {value} verdict={ok}")
    elif fam == "gridtiling":
        gt = gridtiling.parse_gridtiling(args.input.read_text())
        inst = gridtiling.gen_gridtiling(gt)
        print(f"# disks: {len(inst.disks)}  k: {inst.k}  d2: {inst.d2}")
    elif fam == "gridtiling-witness":
        gt = gridtiling.parse_gridtiling(args.input.read_text())
        inst = _read_instance(args.instance)
        w = gridtiling.gridtiling_witness(gt, inst, args.rows, args.cols)
        args.output.write_text(write_witness(w))
        print(f"wrote {len(w.moves)} moves")
        return 0
    else:
        raise _UsageError("unknown generate family")
    args.output.write_text(write_instance(inst))
    return 0


def _cmd_render(args) -> int:
    inst = _read_instance(args.instance)
    w = parse_witness(args.witness.read_text()) if args.witness else None
    svg = render_svg(inst, w, RenderOptions(scale=args.scale))
    args.output.write_text(svg)
    return 0


def _cmd_graph(args) -> int:
    inst = _read_instance(args.instance)
    if inst.blocks:
        print(f"# note: {len(inst.blocks)} lattice blocks not included")
    g = build_graph(inst.disks)
    print(f"vertices: {g.n}")
    for i, j in g.edges:
        print(f"{i} {j}")
    return 0


def dispatch(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        print(parser.format_usage(), file=sys.stderr, end="")
        return USAGE_EXIT
    except SystemExit as e:  # argparse --help path
        return 0 if e.code in (0, None) else USAGE_EXIT
    if args.command is None:
        print(parser.format_usage(), file=sys.stderr, end="")
        return USAGE_EXIT
    try:
        if args.command == "solve":
            return _cmd_solve(args)
        if args.command == "kernelize":
            return _cmd_kernelize(args)
        if args.command == "validate":
            return _cmd_validate(args)
        if args.command == "generate":
            if getattr(args, "family", None) is None:
                raise _UsageError("generate needs a family")
            return _cmd_generate(args)
        if args.command == "render":
            return _cmd_render(args)
        if args.command == "graph":
            return _cmd_graph(args)
    except _UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return USAGE_EXIT
    except (ParseError, GuardError, ValueError, OSError,
            IndeterminateError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    print(parser.format_usage(), file=sys.stderr, end="")
    return USAGE_EXIT


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
