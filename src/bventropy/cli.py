"""Command-line front end: every pipeline as a subcommand with CSV outputs.

Each run writes a ``manifest.json`` echoing all parameters, so any output
directory can be reproduced from its manifest alone.  A subcommand writes no
file: it returns its files by name, and ``main`` writes them after the
subcommand returns, so a refused run leaves only the manifest.  Outputs are
written atomically (temp file + rename), with the mode a plain ``open`` would
give under the current umask.  Exit codes: 0 success, 1 usage,
configuration or out-of-range input error (an input too large for memory
included), 2 violated invariant.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

import numpy as np

from . import __version__, claw, metric_core
from .bv_codec import (
    decode,
    encode_bv,
    encode_bvpsi,
    net_from_token,
    read_codeword,
    upper_bound_bits,
    write_codeword,
)
from .claw import (
    Flux,
    calibrate_gamma,
    evolve,
    flux_gauge,
    make_grid,
    solution_entropy_bound,
    support_check,
    to_step_function,
)
from .entropy_estimator import (
    ClassParams,
    block_grid_ensemble,
    entropy_scan,
)
from .errors import BudgetViolation, BVEntropyError, ConfigError, GaugeViolation, OutOfRange
from .gauge_variation import Gauge, l1_distance, read_step, tv, tv_psi, write_step
from .metric_core import (
    covering_number,
    dimension_report,
    lattice,
    line_points,
    packing_number,
    read_matrix_csv,
    uniform_random,
)
from .witness_lab import build_family, verify_packing


def _atomic(path: str, write) -> None:
    """Write a new temp file beside ``path``, then rename it over ``path``: a
    failed writer leaves neither a partial file nor the temp.  ``write`` is
    the text, or a function that writes the file at the path it is given."""
    tmp = f"{path}.{os.urandom(8).hex()}.tmp"
    # created with the mode open() gives: 0o666 under the umask
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, "w") as fh:
            if isinstance(write, str):
                fh.write(write)
            else:
                write(tmp)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_manifest(args: argparse.Namespace) -> None:
    payload = {k: v for k, v in vars(args).items() if k != "func"}
    payload["version"] = __version__
    _atomic(os.path.join(args.out, "manifest.json"),
            json.dumps(payload, indent=2, default=str) + "\n")


def _load_space(args):
    if args.matrix:
        return read_matrix_csv(args.matrix)
    token = args.generate
    if token is None:
        raise ConfigError("need --matrix or --generate")
    parts = token.split(":")
    try:
        if parts[0] == "line":
            return line_points(int(parts[1]), float(parts[2]))
        if parts[0] == "lattice":
            return lattice(int(parts[1]), int(parts[2]), float(parts[3]))
        if parts[0] == "uniform":
            return uniform_random(int(parts[1]), float(parts[2]),
                                  args.seed, int(parts[3]))
    except (IndexError, ValueError) as exc:
        raise ConfigError(f"bad generator token {token!r}: {exc}") from exc
    raise ConfigError(f"unknown generator {parts[0]!r}")


def _parse_gauge(token: str) -> Gauge:
    # an inadmissible user table is bad input, not a broken invariant
    try:
        return Gauge.parse(token)
    except GaugeViolation as exc:
        raise ConfigError(f"gauge {token!r} fails the {exc.check} check: {exc}") from exc


def _check_numbers(args, positive=(), nonnegative=()) -> None:
    """Reject an infinite or NaN number option, or one out of its range."""
    for name in positive:
        value = getattr(args, name.replace("-", "_"))
        if not 0 < value < math.inf:
            raise ConfigError(f"--{name} must be positive and finite, got {value}")
    for name in nonnegative:
        value = getattr(args, name.replace("-", "_"))
        if not 0 <= value < math.inf:
            raise ConfigError(f"--{name} must be at least 0 and finite, got {value}")


# --- subcommands -----------------------------------------------------------


def cmd_metric(args) -> dict:
    space = _load_space(args)
    mode = "exact" if space.n <= metric_core.DEFAULT_EXACT_CAP else "greedy"
    lines = ["alpha,count,mode,witness_indices"]
    alphas = [float(a) for a in args.alpha] or space.pairwise_distances()
    for cover, pack in zip(covering_number(space, None, alphas, mode=mode),
                           packing_number(space, None, alphas, mode=mode)):
        lines += [cover.csv_row(), pack.csv_row()]
    files = {"cover_pack.csv": "\n".join(lines) + "\n"}
    if args.window:
        files["dimensions.csv"] = ("d,p,p_tilde,window_lo,window_hi\n"
                                   + dimension_report(space, args.window).csv_row() + "\n")
    return files


def cmd_variation(args) -> dict:
    f = read_step(args.input)
    gauge = _parse_gauge(args.gauge)
    return {"variation.csv": "tv,tv_psi,gauge\n" f"{tv(f)},{tv_psi(f, gauge)},{gauge.token}\n"}


def cmd_encode(args) -> dict:
    _check_numbers(args, positive=("epsilon",), nonnegative=("budget",))
    f = read_step(args.input)
    gauge = _parse_gauge(args.gauge)
    if gauge.kind == "identity":
        cw = encode_bv(f, args.budget, args.epsilon)
    else:
        cw = encode_bvpsi(f, gauge, args.budget, args.epsilon)
    net = net_from_token(cw.net_token, cw.h2)
    err = l1_distance(decode(cw, net), f)
    bound = upper_bound_bits(
        f.L, args.budget, args.epsilon, gauge, 1,
        np.log2(max((f.values.max() - f.values.min())
                    / (args.epsilon / (2.0 * f.L)), 1.0)),
    )
    if err > args.epsilon:
        raise BudgetViolation(f"decode error {err} exceeds epsilon {args.epsilon}")
    return {"codeword.bvc": functools.partial(write_codeword, cw),
            "encode_report.csv": "epsilon,budget,bits,bound_bits,l1_error\n"
            f"{args.epsilon},{args.budget},{cw.bit_length},{bound},{err}\n"}


def cmd_decode(args) -> dict:
    cw = read_codeword(args.input)
    net = net_from_token(cw.net_token, cw.h2)
    return {"decoded.step": functools.partial(write_step, decode(cw, net))}


def cmd_witness(args) -> dict:
    _check_numbers(args, positive=("epsilon", "L"), nonnegative=("budget",))
    space = _load_space(args)
    rep = dimension_report(space, args.window)
    fam = build_family(
        args.L, args.budget, args.epsilon, _parse_gauge(args.gauge),
        space, args.center, rep.p_tilde, seed=args.seed,
    )
    sep = verify_packing(fam)
    return {"separation.csv": sep.CSV_HEADER + "\n" + sep.csv_row() + "\n"}


def cmd_scan(args) -> dict:
    if args.gamma < 1:
        raise ConfigError(f"--gamma must be at least 1, got {args.gamma}")
    if args.gamma > 2:
        raise ConfigError(f"--gamma must be at most 2 (a 6,561-member grid), got {args.gamma}")
    grid = sorted((float(e) for e in args.eps_grid.split(",")), reverse=True)
    ens = block_grid_ensemble(args.gamma)
    params = ClassParams(L=1.0, V=1.0, gauge=Gauge.power(args.gamma)
                         if args.gamma > 1 else Gauge.identity())
    return {"scan.csv": entropy_scan(ens, grid, params).to_csv()}


def cmd_claw(args) -> dict:
    _check_numbers(args, positive=("T", "L", "M", "epsilon"), nonnegative=("gamma-lm",))
    with np.errstate(all="ignore"):         # an infinite 2M gives NaN steps
        widths = np.linspace(0.05, 2.0 * args.M, 32)     # the flux gauge's windows
        increasing = np.all(np.diff(widths) > 0)
    if not increasing:
        raise ConfigError(f"--M must exceed 0.025, with 2M finite, for the flux gauge's "
                          f"window widths from 0.05 to 2M, got {args.M}")
    flux = Flux.parse(args.flux, args.M)
    if not flux.is_wgn():
        raise ConfigError(f"flux {args.flux!r} is affine: the bound needs a weakly "
                          "genuinely nonlinear flux")
    x = make_grid(args.L, args.M, args.T, flux, args.dx)
    inside = np.abs(x) <= args.L        # the Gaussian overflows far outside
    u0 = np.zeros_like(x)
    u0[inside] = args.M * np.exp(-8.0 * (x[inside] / args.L) ** 2)
    sol = evolve(u0, flux, args.T, args.dx, cfl=args.cfl, x=x)
    if not support_check(sol, args.L, args.M, args.T, flux):
        raise OutOfRange("support grew beyond the certified light cone")
    fg = flux_gauge(flux, args.M, widths)
    gamma = args.gamma_lm
    if args.calibrate:
        gamma = calibrate_gamma(flux, args.L, args.M, args.T, fg.gauge,
                                dx=args.dx, seed=args.seed).gamma_lm
    bound = solution_entropy_bound(args.epsilon, args.L, args.M, args.T,
                                   flux, fg.gauge, gamma)
    snap = to_step_function(sol)

    rows = "\n".join(f"{xi},{ui}" for xi, ui in zip(sol.x, sol.cells))
    tab = "\n".join(f"{h},{d},{p}" for h, d, p
                    in zip(fg.h_grid, fg.d_table, fg.phi_table))
    return {"solution.csv": "x,u\n" + rows + "\n",
            "flux_gauge.csv": "h,gap,phi\n" + tab + "\n",
            "claw_report.csv": "epsilon,gamma_lm,calibrated,bound_bits,snapshot_tv,mass\n"
            f"{args.epsilon},{gamma},{args.calibrate},{bound},{tv(snap)},{sol.mass}\n"}


# --- parser ----------------------------------------------------------------


@functools.cache                # one parse leaves the parser as it was
def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="bventropy")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("metric", help="covering/packing tables and dimensions")
    common(p)
    p.add_argument("--seed", type=int, default=0, help="seed of the uniform: generator")
    p.add_argument("--matrix", help="distance matrix CSV")
    p.add_argument("--generate", help="line:n:len | lattice:d:n:s | uniform:n:ext:d")
    p.add_argument("--alpha", action="append", default=[])
    p.add_argument("--window", nargs=2, type=float)
    p.set_defaults(func=cmd_metric)

    p = sub.add_parser("variation", help="tv and generalized variation of a step file")
    common(p)
    p.add_argument("--input", required=True)
    p.add_argument("--gauge", default="id")
    p.set_defaults(func=cmd_variation)

    p = sub.add_parser("encode", help="compress a step function with certified error")
    common(p)
    p.add_argument("--input", required=True)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--budget", type=float, required=True)
    p.add_argument("--gauge", default="id")
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("decode", help="reconstruct a step function from a codeword")
    common(p)
    p.add_argument("--input", required=True)
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("witness", help="build and verify a packing witness family")
    common(p)
    p.add_argument("--seed", type=int, default=0, help="seed of uniform: and sampled families")
    p.add_argument("--matrix")
    p.add_argument("--generate")
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--budget", type=float, required=True)
    p.add_argument("--gauge", default="id")
    p.add_argument("--L", type=float, default=1.0)
    p.add_argument("--center", type=int, default=0)
    p.add_argument("--window", nargs=2, type=float, required=True)
    p.set_defaults(func=cmd_witness)

    p = sub.add_parser("scan", help="empirical entropy scan with exponent fit")
    common(p)
    p.add_argument("--gamma", type=int, default=1)
    p.add_argument("--eps-grid", default="0.1,0.05,0.025,0.0125")
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("claw", help="conservation-law evolution and entropy bound")
    common(p)
    p.add_argument("--seed", type=int, default=0, help="seed of the --calibrate data")
    p.add_argument("--flux", default="burgers")
    p.add_argument("--T", type=float, default=1.0)
    p.add_argument("--dx", type=float, default=0.01)
    p.add_argument("--cfl", type=float, default=claw.CFL)
    p.add_argument("--L", type=float, default=1.0)
    p.add_argument("--M", type=float, default=1.0)
    p.add_argument("--epsilon", type=float, default=0.1)
    p.add_argument("--gamma-lm", type=float, default=1.0)
    p.add_argument("--calibrate", action="store_true")
    p.set_defaults(func=cmd_claw)
    return ap


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on a usage error; 2 is kept for violated invariants
        return 1 if exc.code else 0
    try:
        os.makedirs(args.out, exist_ok=True)
        _write_manifest(args)
        for name, write in args.func(args).items():
            _atomic(os.path.join(args.out, name), write)
        return 0
    except (ConfigError, ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BVEntropyError as exc:
        print(f"invariant violated: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
