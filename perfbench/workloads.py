"""The benchmark's workloads: input generation, one op, and its check.

Every op drives ``polyconj.cli.run`` in this process with the arguments a
user would type, captures what the command prints, and writes it to a file
when a later step reads it, as a shell pipeline would.  Inputs come from
``polyconj.generate`` with seeds drawn from the benchmark seed, and are
written to files in set-up.  Checks run outside the timed region and
re-derive every answer with the package's own referees.

Cases come in rounds; a round holds one case of each size class, and runs
always end on a round boundary, so every run has the same mix of classes.
The classes of a workload are chosen so that the median and the tail
percentile fall inside a class rather than between two, which keeps those
figures steady across seeds.  Each workload fixes its tail percentile, so
that runs of two versions report the same one however many ops fit in a
run; it is the highest with ten samples beyond it in a run of the seed
code.
"""

from __future__ import annotations

import io
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

from polyconj import cli, group
from polyconj.conjugacy import Certificate, decide_conjugate
from polyconj.formats import (
    CertificateFile,
    ConjugacyInstance,
    parse_instance,
    serialize_instance,
)
from polyconj.generate import GenSpec, generate
from polyconj.reductions import (
    signed_sum,
    solve_ssp_brute,
    ssp_to_sspprime,
    sspprime_to_tssp,
    subset_sum,
    tssp_to_conjugacy,
)
from polyconj.tssp import twisted_sum


class CheckFailed(Exception):
    """An op's answer disagrees with the referee."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass
class Case:
    label: str
    inst: object
    files: dict[str, Path]
    extra: dict = field(default_factory=dict)


def call(*argv) -> tuple[int, str]:
    """Run one polyconj command; returns its exit code and standard output."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = cli.run([str(a) for a in argv])
    return code, out.getvalue()


def _write(path: Path, obj) -> Path:
    path.write_text(serialize_instance(obj), encoding="utf-8")
    return path


def _seed(rng: random.Random) -> int:
    return rng.getrandbits(63)


def _no_exit_2(codes) -> None:
    require(2 not in codes, f"a command exited 2: codes {codes}")


class Chain:
    """reduce ssp-to-conj -> conj search -> conj verify -> pullback conj-to-ssp."""

    name = "chain"
    tail_percentile = 90  # inside the n = 6 class, the slowest fifth

    def __init__(self, tiny: bool):
        # Sorted by cost the three n = 5 sweeps fill the middle three fifths,
        # so the median is an n = 5 op and p90 an n = 6 op.
        self.ns = (3, 2, 3, 4, 3) if tiny else (5, 4, 5, 6, 5)
        self.bound = 10
        # A run cycles the pool.  Every case is a file that set-up creates,
        # and file creation time swings with the machine, so the pool is
        # kept small to keep setup_s steady.
        self.pool_rounds = 20

    def setup(self, work: Path, rng: random.Random) -> list[list[Case]]:
        rounds = []
        for r in range(self.pool_rounds):
            cases = []
            for solvable in (True, False):
                for i, n in enumerate(self.ns):
                    inst = generate(GenSpec("ssp", n, self.bound, _seed(rng), solvable))
                    path = _write(work / f"r{r}-{i}-n{n}-{int(solvable)}.ssp", inst)
                    label = f"n{n}-{'solvable' if solvable else 'unbiased'}"
                    cases.append(Case(label, inst, {"ssp": path}))
            rounds.append(cases)
        return rounds

    def op(self, case: Case, scratch: Path):
        ssp = case.files["ssp"]
        conj, cert = scratch / "inst.conj", scratch / "found.cert"
        code, text = call("reduce", "ssp-to-conj", ssp)
        codes = [code]
        if code != 0:
            return codes, None
        conj.write_text(text, encoding="utf-8")
        code, text = call("conj", "search", conj)
        codes.append(code)
        if code != 0:
            return codes, None
        cert.write_text(text, encoding="utf-8")
        codes.append(call("conj", "verify", conj, cert)[0])
        code, sol = call("pullback", "conj-to-ssp", ssp, cert)
        codes.append(code)
        return codes, sol

    def expected(self, case: Case) -> bool:
        return solve_ssp_brute(case.inst) is not None

    def check(self, case: Case, answer, span) -> None:
        codes, sol = answer
        _no_exit_2(codes)
        require(codes[0] == 0, "reduce failed")
        found = codes[1] == 0
        require(found == case.extra["expected"], f"conj search says {found}, brute disagrees")
        if found:
            require(codes[2:] == [0, 0], f"verify/pullback codes {codes[2:]}")
            bits = parse_instance(sol).values
            require(subset_sum(case.inst.coefficients, bits) == case.inst.target,
                    "pulled-back subset misses the target")


class Dense:
    """solve tssp / solve sspp --method dp in the pseudo-polynomial regime."""

    name = "dense"
    # A 25 s run holds about 80 ops, too few for p90 to have ten samples
    # beyond it, so the tail is p75, inside the tssp n = 200, bound 10
    # class (see the cost order below).
    tail_percentile = 75

    def __init__(self, tiny: bool):
        # (kind, n, bound).  Sorted by cost (about 70, 150, 230, 330 and
        # 700 ms) the four sspp ops hold the median, the three tssp n = 200,
        # bound 10 ops the 75th percentile, and the two bound 20 ops the
        # 90th.  Classes are interleaved so a slow spell hits several.
        s, t1, t2 = ("sspp", 100, 10), ("tssp", 200, 10), ("tssp", 200, 20)
        self.classes = (
            (("tssp", 8, 5), ("sspp", 6, 5)) if tiny else
            (s, t1, ("tssp", 100, 10), s, t2, t1, s, ("tssp", 100, 20), t1, s, t2)
        )
        self.pool_rounds = 8

    def setup(self, work: Path, rng: random.Random) -> list[list[Case]]:
        rounds = []
        for r in range(self.pool_rounds):
            cases = []
            for i, (kind, n, bound) in enumerate(self.classes):
                solvable = (r + i) % 2 == 0
                inst = generate(GenSpec(kind, n, bound, _seed(rng), solvable))
                path = _write(work / f"r{r}-{i}-{kind}-{n}-{bound}.{kind}", inst)
                cases.append(Case(f"{kind}-n{n}-b{bound}", inst, {kind: path}, {"kind": kind}))
            rounds.append(cases)
        return rounds

    def op(self, case: Case, scratch: Path):
        kind = case.extra["kind"]
        return call("solve", kind, case.files[kind], "--method", "dp")

    def expected(self, case: Case) -> bool:
        inst = case.inst
        twisted = inst if case.extra["kind"] == "tssp" else sspprime_to_tssp(inst)
        bridge = tssp_to_conjugacy(twisted)
        return decide_conjugate(bridge.ctx, bridge.u, bridge.v)

    def check(self, case: Case, answer, span) -> None:
        code, sol = answer
        _no_exit_2([code])
        inst, kind = case.inst, case.extra["kind"]
        require((code == 0) == case.extra["expected"],
                f"solve {kind} exit {code}, conjugacy sweep disagrees")
        if code == 0:
            values = parse_instance(sol).values
            total = (twisted_sum if kind == "tssp" else signed_sum)(inst.coefficients, values)
            require(total == inst.target, "witness misses the target")


class ConjLarge:
    """conj verify of a dense claimed certificate, then conj search and a
    verify of the certificate it returns, in G(n) with large h."""

    name = "conj_large"
    tail_percentile = 90  # inside the h = 2001, 256-bit class, the slowest third

    def __init__(self, tiny: bool):
        # (n, exponent bits); h = 2n + 1.
        self.classes = ((3, 8), (10, 16)) if tiny else ((100, 64), (1000, 64), (1000, 256))
        # The h = 2001 instances cost ~60 ms each to build, so a small pool
        # is cycled; cost depends on h and bit size, not on the values.
        self.pool_rounds = 4

    def setup(self, work: Path, rng: random.Random) -> list[list[Case]]:
        rounds = []
        for r in range(self.pool_rounds):
            cases = []
            for i, (n, bits) in enumerate(self.classes):
                bound = (1 << bits) - 1
                u = generate(GenSpec("conj", n, bound, _seed(rng))).u
                w = generate(GenSpec("conj", n, bound, _seed(rng))).u
                ctx = group.make_context(n)
                v = group.conjugate(ctx, w, u)
                stale = (r + i) % 4 == 3
                if stale:
                    v = (v[0] + 1,) + v[1:]
                stem = f"r{r}-n{n}-b{bits}"
                inst = ConjugacyInstance(ctx=ctx, u=u, v=v)
                files = {
                    "conj": _write(work / f"{stem}.conj", inst),
                    "claimed": _write(work / f"{stem}.cert", CertificateFile(ctx, Certificate(w))),
                }
                cases.append(Case(f"h{ctx.hirsch}-b{bits}", inst, files, {"stale": stale}))
            rounds.append(cases)
        return rounds

    def op(self, case: Case, scratch: Path):
        conj, found = case.files["conj"], scratch / "found.cert"
        claimed_code = call("conj", "verify", conj, case.files["claimed"])[0]
        code, text = call("conj", "search", conj)
        if code != 0:
            return [claimed_code, code], None
        found.write_text(text, encoding="utf-8")
        return [claimed_code, code, call("conj", "verify", conj, found)[0]], text

    def check(self, case: Case, answer, span) -> None:
        codes, text = answer
        _no_exit_2(codes)
        want = 1 if case.extra["stale"] else 0
        require(codes[0] == want, f"claimed certificate: exit {codes[0]}, expected {want}")
        require(codes[1:] == [0, 0], f"search/verify codes {codes[1:]}")
        inst = case.inst
        ctx, u, v = inst.ctx, inst.u, inst.v
        w = parse_instance(text).certificate.w
        require(group.conjugate(ctx, w, u) == v, "found certificate does not conjugate u to v")
        if sum(1 for k in w if k) == 1:
            # Definitional cross-check of a single-syllable certificate.
            with span("check"):
                product = group.multiply(ctx, group.multiply(ctx, w, u), group.inverse(ctx, w))
            require(product == v, "w u w^-1 by multiply/inverse disagrees with conjugate")


class Referee:
    """solve ssp|sspp|tssp --method brute on an ssp instance and on its
    reduced sspp and tssp images."""

    name = "referee"
    tail_percentile = 90  # inside the n = 5 class, see below

    def __init__(self, tiny: bool):
        # Unbiased n = 5 targets are unsolvable (a full 2^20 scan, ~250 ms)
        # or solvable (often ~5 ms) at a rate that swings with the seed, so
        # n = 5 instances are solvable by construction.  Sorted by cost the
        # n = 5 ops fill the top three fifths, holding the median and p90.
        self.slots = ((3, True), (2, True), (3, True), (2, False), (3, True)) if tiny else (
            (5, True), (4, True), (5, True), (4, False), (5, True))
        self.bound = 10
        self.pool_rounds = 20  # cycled; see Chain

    def setup(self, work: Path, rng: random.Random) -> list[list[Case]]:
        rounds = []
        for r in range(self.pool_rounds):
            cases = []
            for i, (n, solvable) in enumerate(self.slots):
                inst = generate(GenSpec("ssp", n, self.bound, _seed(rng), solvable))
                prime = ssp_to_sspprime(inst)
                twisted = sspprime_to_tssp(prime)
                stem = work / f"r{r}-{i}-n{n}-{int(solvable)}"
                files = {
                    "ssp": _write(stem.with_suffix(".ssp"), inst),
                    "sspp": _write(stem.with_suffix(".sspp"), prime),
                    "tssp": _write(stem.with_suffix(".tssp"), twisted),
                }
                images = {"ssp": inst, "sspp": prime, "tssp": twisted}
                label = f"n{n}-{'solvable' if solvable else 'unbiased'}"
                cases.append(Case(label, inst, files, {"images": images}))
            rounds.append(cases)
        return rounds

    def op(self, case: Case, scratch: Path):
        return [call("solve", kind, case.files[kind], "--method", "brute")
                for kind in ("ssp", "sspp", "tssp")]

    def check(self, case: Case, answer, span) -> None:
        codes = [code for code, _ in answer]
        _no_exit_2(codes)
        require(len(set(codes)) == 1, f"brute answers disagree: codes {codes}")
        images = case.extra["images"]
        for (code, sol), (kind, evaluate) in zip(
            answer, (("ssp", subset_sum), ("sspp", signed_sum), ("tssp", twisted_sum))
        ):
            if code == 0:
                inst = images[kind]
                values = parse_instance(sol).values
                require(evaluate(inst.coefficients, values) == inst.target,
                        f"{kind} witness misses the target")


def expected_answers(workload, cases: list[Case]) -> list:
    """The referee's answer for each case, for workloads whose check needs
    one computed; run in a child process (see run.py)."""
    return [workload.expected(case) for case in cases]


WORKLOADS = {w.name: w for w in (Chain, Dense, ConjLarge, Referee)}
