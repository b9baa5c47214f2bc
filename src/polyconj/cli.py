"""Command-line front end.

Exit codes: 0 = yes / solved / valid, 1 = no / unsolvable / invalid,
2 = usage, parse, or resource errors (an integer past Python's 4300-digit
int/str limit among them).  Witnesses and reduced instances go to stdout in
the text formats of :mod:`polyconj.formats`; diagnostics go to stderr.
``reduce`` and ``pullback`` compose the hops of ``reductions.HOPS``.
"""

from __future__ import annotations

import argparse
import sys
from functools import cache, partial
from pathlib import Path
from typing import Sequence

from . import bench as bench_mod
from . import _sweep, reductions
from .conjugacy import decide_conjugate, search_conjugator, verify_certificate
from .errors import InvalidParameterError, PolyconjError
from .formats import KINDS, CertificateFile, SolutionFile, parse_instance, serialize_instance
from .generate import GenSpec, generate
from .reductions import (
    CHAIN,
    HOPS,
    solve_ssp_brute,
    solve_ssp_dp,
    solve_sspprime_brute,
    solve_sspprime_dp,
    ssp_search_via_decision,
)
from .tssp import solve_tssp_brute, solve_tssp_dp


def _load(path: str, kind: str):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise InvalidParameterError(
            f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})"
        ) from None
    obj = parse_instance(text)
    if not isinstance(obj, KINDS[kind]):
        raise InvalidParameterError(
            f"{path}: expected a {kind!r} file, found {type(obj).__name__}"
        )
    return obj


def _emit(obj) -> None:
    sys.stdout.write(serialize_instance(obj))


def _cmd_solve(args) -> int:
    inst = _load(args.file, args.problem)
    if args.search and args.problem != "ssp":
        raise InvalidParameterError("--search only applies to ssp (the decision-to-search wrapper)")

    if args.method == "brute":
        solve = {"ssp": solve_ssp_brute, "sspp": solve_sspprime_brute,
                 "tssp": solve_tssp_brute}[args.problem]
    else:
        solve = partial({"ssp": solve_ssp_dp, "sspp": solve_sspprime_dp,
                         "tssp": solve_tssp_dp}[args.problem], max_states=args.max_states)
    if args.search:
        if solve(inst) is None:
            return 1
        witness = ssp_search_via_decision(lambda i: solve(i) is not None, inst)
    else:
        witness = solve(inst)

    if witness is None:
        return 1
    _emit(SolutionFile(values=tuple(witness)))
    return 0


def _cmd_reduce(args) -> int:
    src, dst = args.which.split("-to-")
    inst = _load(args.file, src)
    for i in range(CHAIN.index(src), CHAIN.index(dst)):
        inst = getattr(reductions, HOPS[i][0])(inst)
    _emit(inst)
    return 0


def _cmd_pullback(args) -> int:
    reduced, src = args.which.split("-to-")
    sources = [_load(args.original, src)]
    if reduced == "conj":
        witness = _load(args.witness, "cert").certificate.w
    else:
        witness = _load(args.witness, "sol").values
    hops = range(CHAIN.index(src), CHAIN.index(reduced))
    for i in hops[:-1]:
        sources.append(getattr(reductions, HOPS[i][0])(sources[-1]))
    for i, source in zip(reversed(hops), reversed(sources)):
        witness = getattr(reductions, HOPS[i][1])(source, witness)
    _emit(SolutionFile(values=witness))
    return 0


def _cmd_conj(args) -> int:
    if args.action == "verify" and args.certificate is None:
        raise InvalidParameterError("conj verify needs both an instance and a cert file")
    if args.action != "verify" and args.certificate is not None:
        raise InvalidParameterError(
            f"conj {args.action} takes one instance file, got extra {args.certificate!r}"
        )
    inst = _load(args.file, "conj")
    if args.action == "decide":
        return 0 if decide_conjugate(inst.ctx, inst.u, inst.v, max_states=args.max_states) else 1
    if args.action == "search":
        cert = search_conjugator(inst.ctx, inst.u, inst.v, max_states=args.max_states)
        if cert is None:
            return 1
        _emit(CertificateFile(ctx=inst.ctx, certificate=cert))
        return 0
    cert_file = _load(args.certificate, "cert")
    if cert_file.ctx != inst.ctx:
        raise InvalidParameterError(
            f"certificate lives in G({cert_file.ctx.n}) but the instance is in G({inst.ctx.n})"
        )
    return 0 if verify_certificate(inst.ctx, inst.u, inst.v, cert_file.certificate) else 1


def _cmd_gen(args) -> int:
    spec = GenSpec(kind=args.kind, n=args.n, bound=args.bound, seed=args.seed, solvable=args.solvable)
    _emit(generate(spec))
    return 0


def _cmd_bench(args) -> int:
    tables = []
    for name in bench_mod.SUITES if args.suite == "all" else (args.suite,):
        title, rows, columns = bench_mod.SUITES[name]
        tables.append(f"{title}\n{bench_mod.format_table(rows(seed=args.seed), columns)}")
    print("\n\n".join(tables))
    return 0


def _state_cap(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _add_state_cap(p: argparse.ArgumentParser) -> None:
    p.add_argument("--max-states", type=_state_cap, default=_sweep.MAX_STATES,
                   help="cap on the states the reachability sweep may touch (default 10^7)")


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The argparse tree, built on the first call and reused by every later ``run``."""
    parser = argparse.ArgumentParser(
        prog="polyconj",
        description="Subset-sum variants, their reductions, and conjugacy in the groups G(n).",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    routes = [(a, b) for i, a in enumerate(CHAIN) for b in CHAIN[i + 1:]]

    p = sub.add_parser("solve", help="decide an instance and print a witness when one exists")
    p.add_argument("problem", choices=CHAIN[:-1])
    p.add_argument("file", help="instance file")
    p.add_argument("--method", choices=("brute", "dp"), default="dp",
                   help="brute enumeration or the pseudo-polynomial sweep (default)")
    p.add_argument("--search", action="store_true",
                   help="ssp only: recover the witness through the decision oracle")
    _add_state_cap(p)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("reduce", help="transform an instance along one reduction hop")
    p.add_argument("which", choices=[f"{a}-to-{b}" for a, b in routes])
    p.add_argument("file")
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("pullback", help="map a reduced-instance witness back to the source")
    p.add_argument("which", choices=[f"{b}-to-{a}" for a, b in routes])
    p.add_argument("original", help="the source instance file")
    p.add_argument("witness", help="solution or certificate file for the reduced instance")
    p.set_defaults(func=_cmd_pullback)

    p = sub.add_parser("conj", help="conjugacy decision, search, and verification")
    p.add_argument("action", choices=("decide", "search", "verify"))
    p.add_argument("file", help="conj instance file")
    p.add_argument("certificate", nargs="?", help="cert file (verify only)")
    _add_state_cap(p)
    p.set_defaults(func=_cmd_conj)

    p = sub.add_parser("gen", help="generate a random instance deterministically")
    p.add_argument("kind", choices=CHAIN)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--bound", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--solvable", action="store_true",
                   help="pick the target as the image of a random witness")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("bench", help="print solver scaling tables")
    p.add_argument("--suite", choices=(*bench_mod.SUITES, "all"), default="all")
    p.add_argument("--seed", type=int, default=20250809)
    p.set_defaults(func=_cmd_bench)

    return parser


def run(argv: Sequence[str] | None = None) -> int:
    """Parse and dispatch; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (PolyconjError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())
