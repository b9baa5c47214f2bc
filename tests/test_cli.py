import contextlib
import io
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyconj import (
    Certificate,
    SolutionFile,
    SspInstance,
    SspPrimeInstance,
    conjugate,
    conjugator_to_assignment,
    make_context,
    parse_instance,
    pullback_sspprime_to_ssp,
    pullback_tssp_to_sspprime,
    search_conjugator,
    serialize_instance,
    solve_sspprime_dp,
    solve_tssp_dp,
    ssp_to_sspprime,
    sspprime_to_tssp,
    subset_sum,
    tssp_to_conjugacy,
    twisted_sum,
)
from polyconj import cli
from polyconj.cli import run
from polyconj.formats import CertificateFile, ConjugacyInstance, TsspInstance


@pytest.fixture
def write(tmp_path):
    def _write(name, obj):
        path = tmp_path / name
        path.write_text(serialize_instance(obj) if not isinstance(obj, str) else obj)
        return str(path)

    return _write


def run_cli(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSolve:
    def test_tssp_dp_solvable(self, write, capsys):
        path = write("i.tssp", TsspInstance((3, 5), -2))
        code, out, _ = run_cli(capsys, "solve", "tssp", path, "--method", "dp")
        assert code == 0
        sol = parse_instance(out)
        assert isinstance(sol, SolutionFile)
        assert twisted_sum((3, 5), sol.values) == -2

    def test_tssp_unsolvable(self, write, capsys):
        path = write("i.tssp", TsspInstance((3, 5), 4))
        code, out, _ = run_cli(capsys, "solve", "tssp", path)
        assert code == 1 and out == ""

    @pytest.mark.parametrize("method", ["brute", "dp"])
    def test_ssp_both_methods(self, write, capsys, method):
        path = write("i.ssp", SspInstance((3, 5, 7), 8))
        code, out, _ = run_cli(capsys, "solve", "ssp", path, "--method", method)
        assert code == 0
        assert subset_sum((3, 5, 7), parse_instance(out).values) == 8

    def test_ssp_search_wrapper(self, write, capsys):
        path = write("i.ssp", SspInstance((3, 5, 7), 8))
        code, out, _ = run_cli(capsys, "solve", "ssp", path, "--search")
        assert code == 0
        assert parse_instance(out).values == (1, 1, 0)

    @pytest.mark.parametrize("solvable", [True, False], ids=["solvable", "unbiased"])
    @pytest.mark.parametrize("bound", [3, 10, 100])
    def test_ssp_search_prints_what_dp_prints(self, write, capsys, bound, solvable):
        # the wrapper skips k_i exactly when the prefix still reaches the
        # remaining target, which is the branch the dp back-trace prefers
        # from residual 0, so any correct oracle gives dp's witness
        from polyconj import GenSpec, generate

        for seed in range(100):
            n = 1 + seed % 14
            path = write("i.ssp", generate(GenSpec("ssp", n, bound, seed=seed, solvable=solvable)))
            expected = run_cli(capsys, "solve", "ssp", path, "--method", "dp")
            assert run_cli(capsys, "solve", "ssp", path, "--search") == expected
            if n <= 12:
                assert run_cli(capsys, "solve", "ssp", path, "--method", "brute",
                               "--search") == expected

    def test_search_rejected_for_tssp(self, write, capsys):
        path = write("i.tssp", TsspInstance((3, 5), -2))
        code, _, err = run_cli(capsys, "solve", "tssp", path, "--search")
        assert code == 2 and "search" in err

    def test_sspp_dp_route(self, write, capsys):
        from polyconj import SspPrimeInstance

        path = write("i.sspp", SspPrimeInstance((3, 5), 2))
        code, out, _ = run_cli(capsys, "solve", "sspp", path, "--method", "dp")
        assert code == 0
        values = parse_instance(out).values
        assert sum(k * x for k, x in zip((3, 5), values)) == 2

    def test_kind_mismatch(self, write, capsys):
        path = write("i.ssp", TsspInstance((3, 5), -2))
        code, _, err = run_cli(capsys, "solve", "ssp", path)
        assert code == 2 and "expected" in err

    def test_max_states_flag(self, write, capsys):
        # two huge coefficients touch four states: the cap counts work, not S
        path = write("i.tssp", TsspInstance((10**9, 10**9), 0))
        code, _, err = run_cli(capsys, "solve", "tssp", path, "--max-states", "3")
        assert code == 2 and "states" in err
        code, out, _ = run_cli(capsys, "solve", "tssp", path, "--max-states", "4")
        assert code == 0 and parse_instance(out).values == (0, 0)

    @pytest.mark.parametrize("kind, branches", [("tssp", ((1, 0), (-1, 1))),
                                                ("sspp", ((1, 0), (1, -1), (1, 1)))],
                             ids=["tssp", "sspp"])
    def test_max_states_flag_in_the_dense_regime(self, write, capsys, kind, branches):
        # the cap counts reachable values whether a stage is a dict or a
        # dense row, so it fails at the stage, and with the line, of the
        # dict sweep
        from polyconj import GenSpec, StateLimitError, generate
        from polyconj._sweep import sweep

        inst = generate(GenSpec(kind, 100, 10, seed=1, solvable=True))
        path = write(f"i.{kind}", inst)
        start = inst.target if kind == "tssp" else 0
        total = sum(len(stage) for stage in sweep(start, inst.coefficients, branches))
        for cap in (total // 3, total - 1):
            with pytest.raises(StateLimitError) as exc:
                sweep(start, inst.coefficients, branches, cap)
            code, _, err = run_cli(capsys, "solve", kind, path, "--method", "dp",
                                   "--max-states", str(cap))
            assert code == 2 and err == f"error: {exc.value}\n"
        code, out, _ = run_cli(capsys, "solve", kind, path, "--method", "dp",
                               "--max-states", str(total))
        assert code == 0 and isinstance(parse_instance(out), SolutionFile)

    @pytest.mark.parametrize("command", [("solve", "tssp"), ("conj", "decide")])
    @pytest.mark.parametrize("value", ["0", "-5", "many"])
    def test_max_states_rejects_bad_values(self, write, capsys, command, value):
        path = write("i.txt", "")
        code, _, err = run_cli(capsys, *command, path, "--max-states", value)
        assert code == 2 and "--max-states" in err


class TestReduceAndPullback:
    def test_reduce_ssp_to_conj(self, write, capsys):
        path = write("i.ssp", SspInstance((3, 5, 7), 8))
        code, out, _ = run_cli(capsys, "reduce", "ssp-to-conj", path)
        assert code == 0
        conj = parse_instance(out)
        assert isinstance(conj, ConjugacyInstance)
        assert conj.ctx.n == 12  # 3 -> 6 signed -> 12 twisted coefficients

    def test_full_pipeline_recovers_subset(self, write, capsys, tmp_path):
        inst = SspInstance((3, 5, 7), 8)
        ssp_path = write("i.ssp", inst)
        code, conj_text, _ = run_cli(capsys, "reduce", "ssp-to-conj", ssp_path)
        assert code == 0
        conj_path = tmp_path / "i.conj"
        conj_path.write_text(conj_text)

        code, cert_text, _ = run_cli(capsys, "conj", "search", str(conj_path))
        assert code == 0
        cert_path = tmp_path / "i.cert"
        cert_path.write_text(cert_text)

        code, sol_text, _ = run_cli(capsys, "pullback", "conj-to-ssp", ssp_path, str(cert_path))
        assert code == 0
        bits = parse_instance(sol_text).values
        assert subset_sum((3, 5, 7), bits) == 8

    def test_intermediate_hops(self, write, capsys, tmp_path):
        ssp_path = write("i.ssp", SspInstance((2, 6), 8))
        code, sspp_text, _ = run_cli(capsys, "reduce", "ssp-to-sspp", ssp_path)
        assert code == 0
        sspp_path = tmp_path / "i.sspp"
        sspp_path.write_text(sspp_text)

        code, tssp_text, _ = run_cli(capsys, "reduce", "sspp-to-tssp", str(sspp_path))
        assert code == 0
        tssp_path = tmp_path / "i.tssp"
        tssp_path.write_text(tssp_text)

        code, sol_text, _ = run_cli(capsys, "solve", "tssp", str(tssp_path))
        assert code == 0
        sol_path = tmp_path / "assign.sol"
        sol_path.write_text(sol_text)

        code, values_text, _ = run_cli(
            capsys, "pullback", "tssp-to-sspp", str(sspp_path), str(sol_path)
        )
        assert code == 0
        values_path = tmp_path / "values.sol"
        values_path.write_text(values_text)

        code, bits_text, _ = run_cli(
            capsys, "pullback", "sspp-to-ssp", ssp_path, str(values_path)
        )
        assert code == 0
        assert subset_sum((2, 6), parse_instance(bits_text).values) == 8

    def test_pullback_rejects_bogus_witness(self, write, capsys):
        ssp_path = write("i.ssp", SspInstance((3, 5), 8))
        sol_path = write("w.sol", SolutionFile((0, 0, 0, 0)))
        code, _, err = run_cli(capsys, "pullback", "sspp-to-ssp", ssp_path, sol_path)
        assert code == 2 and "error" in err

    def test_pullback_rejects_a_solution_of_the_wrong_length(self, write, capsys):
        ssp_path = write("i.ssp", SspInstance((3, 5), 8))
        sol_path = write("w.sol", SolutionFile((0, 1, 0)))
        assert run_cli(capsys, "pullback", "sspp-to-ssp", ssp_path, sol_path) == (
            2, "", "error: solution has length 3, expected 4 (x then y half)\n"
        )

    def test_pullback_rejects_an_assignment_entry_that_is_not_a_bit(self, write, capsys):
        sspp_path = write("i.sspp", SspPrimeInstance((1, 2), 3))
        sol_path = write("a.sol", SolutionFile((0, 1, -1, 1)))
        assert run_cli(capsys, "pullback", "tssp-to-sspp", sspp_path, sol_path) == (
            2, "", "error: assignment entries must be bits\n"
        )

    def test_pullback_rejects_an_assignment_of_the_wrong_length(self, write, capsys):
        code, ssp_text, _ = run_cli(capsys, "gen", "ssp", "--n", "5", "--bound", "10", "--seed", "1",
                                    "--solvable")
        assert code == 0
        code, sspp_text, _ = run_cli(capsys, "reduce", "ssp-to-sspp", write("i.ssp", ssp_text))
        assert code == 0
        sspp_path = write("i.sspp", sspp_text)
        sol_path = write("a.sol", "sol\n3\n1 0 1\n")
        assert run_cli(capsys, "pullback", "tssp-to-sspp", sspp_path, sol_path) == (
            2, "", "error: assignment has length 3, expected 20\n"
        )

    def test_pipeline_over_generated_instances(self, capsys, tmp_path):
        # every solvable generated instance survives the whole command chain
        from polyconj import GenSpec, generate

        for seed in range(25):
            inst = generate(GenSpec(kind="ssp", n=1 + seed % 5, bound=9, seed=seed, solvable=True))
            ssp_path = tmp_path / f"{seed}.ssp"
            ssp_path.write_text(serialize_instance(inst))

            code, conj_text, _ = run_cli(capsys, "reduce", "ssp-to-conj", str(ssp_path))
            assert code == 0
            conj_path = tmp_path / f"{seed}.conj"
            conj_path.write_text(conj_text)

            code, cert_text, _ = run_cli(capsys, "conj", "search", str(conj_path))
            assert code == 0
            cert_path = tmp_path / f"{seed}.cert"
            cert_path.write_text(cert_text)

            code, sol_text, _ = run_cli(
                capsys, "pullback", "conj-to-ssp", str(ssp_path), str(cert_path)
            )
            assert code == 0
            bits = parse_instance(sol_text).values
            assert subset_sum(inst.coefficients, bits) == inst.target


# One solvable instance at every level of the chain, and one witness of each.
_SSP = SspInstance((3, 5, 7), 8)
_SSPP = ssp_to_sspprime(_SSP)
_TSSP = sspprime_to_tssp(_SSPP)
_CONJ = tssp_to_conjugacy(_TSSP)
_IMAGES = {"ssp": _SSP, "sspp": _SSPP, "tssp": _TSSP, "conj": _CONJ}
_VALUES = solve_sspprime_dp(_SSPP)
_ASSIGN = solve_tssp_dp(_TSSP)
_CERT = CertificateFile(_CONJ.ctx, search_conjugator(_CONJ.ctx, _CONJ.u, _CONJ.v))
_WITNESS_FILES = {"sspp": SolutionFile(_VALUES), "tssp": SolutionFile(_ASSIGN), "conj": _CERT}


def _from_certificate(w):
    return conjugator_to_assignment(_CONJ.ctx, w)


_PULLED_BACK = {
    "sspp-to-ssp": pullback_sspprime_to_ssp(_SSP, _VALUES),
    "tssp-to-sspp": pullback_tssp_to_sspprime(_SSPP, _ASSIGN),
    "tssp-to-ssp": pullback_sspprime_to_ssp(_SSP, pullback_tssp_to_sspprime(_SSPP, _ASSIGN)),
    "conj-to-tssp": _from_certificate(_CERT.certificate.w),
    "conj-to-sspp": pullback_tssp_to_sspprime(_SSPP, _from_certificate(_CERT.certificate.w)),
    "conj-to-ssp": pullback_sspprime_to_ssp(
        _SSP, pullback_tssp_to_sspprime(_SSPP, _from_certificate(_CERT.certificate.w))
    ),
}


class TestRouteMatrix:
    """Every reduce and pullback route prints what the library hops compose to."""

    @pytest.mark.parametrize(
        "route",
        ["ssp-to-sspp", "sspp-to-tssp", "ssp-to-tssp", "tssp-to-conj", "ssp-to-conj", "sspp-to-conj"],
    )
    def test_reduce(self, write, capsys, route):
        src, dst = route.split("-to-")
        path = write(f"i.{src}", _IMAGES[src])
        assert run_cli(capsys, "reduce", route, path) == (0, serialize_instance(_IMAGES[dst]), "")

    @pytest.mark.parametrize("route", sorted(_PULLED_BACK))
    def test_pullback(self, write, capsys, route):
        reduced, src = route.split("-to-")
        original = write(f"i.{src}", _IMAGES[src])
        witness = write("w.txt", _WITNESS_FILES[reduced])
        expected = serialize_instance(SolutionFile(_PULLED_BACK[route]))
        assert run_cli(capsys, "pullback", route, original, witness) == (0, expected, "")

    @pytest.mark.parametrize("route", ["conj-to-tssp", "conj-to-ssp"])
    @pytest.mark.parametrize(
        "cert",
        [
            CertificateFile(make_context(2), Certificate((0, 1, 0, 0, 0))),  # other G(n)
            CertificateFile(_CONJ.ctx, Certificate((0,) * _CONJ.ctx.hirsch)),  # no solution
        ],
        ids=["wrong-group", "non-solving"],
    )
    def test_pullback_rejects_bad_certificate(self, write, capsys, route, cert):
        src = route.split("-to-")[1]
        original = write(f"i.{src}", _IMAGES[src])
        witness = write("w.cert", cert)
        code, out, err = run_cli(capsys, "pullback", route, original, witness)
        assert code == 2 and out == "" and err.startswith("error:")


def test_hops_are_looked_up_at_call_time(write, capsys, monkeypatch):
    # a function replaced on polyconj.reductions is the one the commands call
    from polyconj import reductions

    calls = []

    def recording(name, fn):
        def wrapper(*args):
            calls.append(name)
            return fn(*args)

        return wrapper

    for name in [name for hop in reductions.HOPS for name in hop]:
        monkeypatch.setattr(reductions, name, recording(name, getattr(reductions, name)))
    forward, pullback = zip(*reductions.HOPS)
    original = write("i.ssp", _SSP)
    assert run_cli(capsys, "reduce", "ssp-to-conj", original)[0] == 0
    assert calls == list(forward)
    calls.clear()
    witness = write("w.cert", _CERT)
    assert run_cli(capsys, "pullback", "conj-to-ssp", original, witness)[0] == 0
    assert calls == [*forward[:-1], *reversed(pullback)]


class TestConjCommands:
    def test_decide_yes_no(self, write, capsys):
        ctx = make_context(1)
        yes = write("y.conj", ConjugacyInstance(ctx, (0, 0, 5), (-5, 0, 5)))
        no = write("n.conj", ConjugacyInstance(ctx, (0, 0, 5), (-4, 0, 5)))
        assert run_cli(capsys, "conj", "decide", yes)[0] == 0
        assert run_cli(capsys, "conj", "decide", no)[0] == 1

    def test_search_and_verify(self, write, capsys, tmp_path):
        ctx = make_context(1)
        inst = ConjugacyInstance(ctx, (0, 0, 5), (-5, 0, 5))
        path = write("i.conj", inst)
        code, cert_text, _ = run_cli(capsys, "conj", "search", path)
        assert code == 0
        cert = parse_instance(cert_text)
        assert isinstance(cert, CertificateFile)
        assert conjugate(ctx, cert.certificate.w, inst.u) == inst.v

        cert_path = tmp_path / "w.cert"
        cert_path.write_text(cert_text)
        assert run_cli(capsys, "conj", "verify", path, str(cert_path))[0] == 0

        bad = tmp_path / "bad.cert"
        bad.write_text("cert\n1\n0 0 0\n")
        assert run_cli(capsys, "conj", "verify", path, str(bad))[0] == 1

    def test_search_not_conjugate(self, write, capsys):
        ctx = make_context(1)
        path = write("n.conj", ConjugacyInstance(ctx, (0, 0, 5), (-4, 0, 5)))
        code, out, _ = run_cli(capsys, "conj", "search", path)
        assert code == 1 and out == ""

    @pytest.mark.parametrize("action", ["decide", "search"])
    def test_max_states_flag(self, write, capsys, action):
        # three huge addends meet in the middle: one forward stage of 2
        # values, then backward layers of 2 and 4, so 8 states in all
        ctx = make_context(3)
        u = (0, 0, 10**9, 0, 10**12, 0, 10**15)
        v = conjugate(ctx, (0, 1, 0, 0, 0, 1, 0), u)
        path = write("i.conj", ConjugacyInstance(ctx, u, v))
        code, _, err = run_cli(capsys, "conj", action, path, "--max-states", "7")
        assert code == 2 and "states" in err
        code, out, _ = run_cli(capsys, "conj", action, path, "--max-states", "8")
        assert code == 0
        if action == "search":
            assert parse_instance(out).certificate.w == (0, 1, 0, 0, 0, 1, 0)

    def test_verify_rejects_a_certificate_from_another_group(self, write, capsys):
        path = write("i.conj", ConjugacyInstance(make_context(1), (0, 0, 5), (-5, 0, 5)))
        cert = write("w.cert", CertificateFile(make_context(2), Certificate((0, 1, 0, 0, 0))))
        assert run_cli(capsys, "conj", "verify", path, cert) == (
            2, "", "error: certificate lives in G(2) but the instance is in G(1)\n"
        )

    def test_verify_needs_certificate_argument(self, write, capsys):
        ctx = make_context(1)
        path = write("i.conj", ConjugacyInstance(ctx, (0, 0, 5), (-5, 0, 5)))
        code, _, err = run_cli(capsys, "conj", "verify", path)
        assert code == 2 and "cert" in err

    @pytest.mark.parametrize("action", ["decide", "search"])
    def test_decide_and_search_reject_a_certificate_argument(self, write, capsys, action):
        ctx = make_context(1)
        path = write("i.conj", ConjugacyInstance(ctx, (0, 0, 5), (-5, 0, 5)))
        code, out, err = run_cli(capsys, "conj", action, path, "nonexistent.file")
        assert code == 2 and out == "" and err.startswith("error:") and "extra" in err

    @pytest.mark.parametrize("argv, message", [
        (("verify", "a.conj"), "conj verify needs both an instance and a cert file"),
        (("decide", "a.conj", "b"), "conj decide takes one instance file, got extra 'b'"),
    ])
    def test_wrong_number_of_files_is_refused_before_any_is_read(
        self, tmp_path, monkeypatch, capsys, argv, message
    ):
        # neither file exists: the arity refusal comes first
        monkeypatch.chdir(tmp_path)
        assert run_cli(capsys, "conj", *argv) == (2, "", f"error: {message}\n")


class TestGen:
    def test_deterministic(self, capsys):
        first = run_cli(capsys, "gen", "tssp", "--n", "5", "--bound", "100", "--seed", "1", "--solvable")
        second = run_cli(capsys, "gen", "tssp", "--n", "5", "--bound", "100", "--seed", "1", "--solvable")
        assert first == second and first[0] == 0

    def test_solvable_bias(self, capsys):
        from polyconj import solve_tssp_brute

        code, out, _ = run_cli(
            capsys, "gen", "tssp", "--n", "5", "--bound", "100", "--seed", "1", "--solvable"
        )
        assert code == 0
        inst = parse_instance(out)
        assert solve_tssp_brute(inst) is not None

    def test_unbiased_parses(self, capsys):
        code, out, _ = run_cli(capsys, "gen", "ssp", "--n", "3", "--bound", "10", "--seed", "7")
        assert code == 0
        assert isinstance(parse_instance(out), SspInstance)


class TestErrorsAndUsage:
    def test_parse_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.ssp"
        bad.write_text("ssp\n2\n3 5\n")
        code, _, err = run_cli(capsys, "solve", "ssp", str(bad))
        assert code == 2 and "line" in err

    def test_non_utf8_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.tssp"
        bad.write_bytes(b"tssp\n1\n\xff\xfe\n0\n")
        code, _, err = run_cli(capsys, "solve", "tssp", str(bad))
        assert code == 2 and err.startswith("error:") and "UTF-8" in err

    def test_integer_past_the_digit_limit_is_a_parse_error(self, tmp_path, capsys):
        big = tmp_path / "big.ssp"
        big.write_text("ssp\n1\n" + "7" * (sys.get_int_max_str_digits() + 1) + "\n0\n")
        code, out, err = run_cli(capsys, "solve", "ssp", str(big))
        assert code == 2 and out == "" and err.startswith("error: line 3, column 1:")

    def test_group_size_at_the_digit_limit_is_a_parse_error(self, tmp_path, capsys):
        # n parses, but a row of 2n + 1 values has a length past the limit
        big = tmp_path / "big.conj"
        big.write_text("conj\n" + "9" * sys.get_int_max_str_digits() + "\n0 0 0\n0 0 0\n")
        code, out, err = run_cli(capsys, "conj", "decide", str(big))
        assert code == 2 and out == "" and err.startswith("error: line 3, column 6:")

    def test_non_ascii_digits_are_a_parse_error(self, tmp_path, capsys):
        # int() reads Arabic-Indic and fullwidth digits, but the format is ASCII
        odd = tmp_path / "odd.ssp"
        odd.write_text("ssp\n\u0661\n\u0663\n\uff13\n", encoding="utf-8")
        code, out, err = run_cli(capsys, "solve", "ssp", str(odd))
        assert code == 2 and out == "" and err.startswith("error: line 2, column 1:")

    def test_integer_past_the_digit_limit_is_not_written(self, tmp_path, capsys):
        # the coefficient parses, but 4 times it has one digit too many
        big = tmp_path / "big.ssp"
        big.write_text("ssp\n1\n" + "9" * sys.get_int_max_str_digits() + "\n0\n")
        code, out, err = run_cli(capsys, "reduce", "ssp-to-sspp", str(big))
        assert code == 2 and out == "" and err.startswith("error:") and "digits" in err

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "solve", "ssp", "/nonexistent/i.ssp")
        assert code == 2

    @pytest.mark.parametrize("command", [("solve", "ssp"), ("conj", "decide")])
    def test_directory_is_an_os_error(self, tmp_path, capsys, command):
        # reading a directory raises an OSError other than FileNotFoundError
        code, out, err = run_cli(capsys, *command, str(tmp_path))
        assert code == 2 and out == ""
        assert err.startswith("error:") and "Traceback" not in err

    def test_out_of_memory_is_a_resource_error(self, tmp_path, monkeypatch, capsys):
        def exhausted(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(cli, "decide_conjugate", exhausted)
        inst = tmp_path / "i.conj"
        inst.write_text("conj\n1\n0 0 0\n0 0 0\n")
        code, out, err = run_cli(capsys, "conj", "decide", str(inst))
        assert code == 2 and out == ""
        assert err.startswith("error:") and "Traceback" not in err

    def test_usage_error(self, capsys):
        assert run_cli(capsys, "frobnicate")[0] == 2

    def test_help_exits_zero(self, capsys):
        assert run_cli(capsys, "--help")[0] == 0


class TestBenchCommand:
    def test_scaling_suite_prints_table(self, capsys):
        code = run(["bench", "--suite", "scaling", "--seed", "5"])
        out = capsys.readouterr().out
        assert code == 0
        assert "S" in out and "states" in out and "seconds" in out
        assert "unary-scaled" in out

    def test_adversarial_suite_times_meet(self, capsys):
        code = run(["bench", "--suite", "adversarial", "--seed", "5"])
        out = capsys.readouterr().out
        assert code == 0
        assert "bit-length" in out and "states" in out and "meet_seconds" in out

    def test_dense_suite_times_sweep_and_solver(self, capsys):
        code = run(["bench", "--suite", "dense", "--seed", "5"])
        lines = capsys.readouterr().out.splitlines()
        assert code == 0 and "pseudo-polynomial" in lines[0]
        assert lines[1].split() == ["n", "S", "states", "seconds", "dp_seconds"]
        rows = [line.split() for line in lines[2:]]
        assert [(int(r[0]), len(r)) for r in rows] == [(n, 5) for n in (100, 100, 200, 200, 300, 300)]
        # small coefficients: S grows with n and the bound, states with n * S
        assert all(int(r[1]) <= 20 * int(r[0]) and int(r[2]) > int(r[1]) for r in rows)


_FILE, _OTHER = "FILE", "OTHER"
_long_digits = st.integers(4295, 4305).map(lambda k: "9" * k)  # both sides of the digit limit
_odd_token = st.one_of(_long_digits, st.sampled_from(["x", "1.5", "+-3", "0", "-7"]))


@st.composite
def _document(draw, kinds):
    """File bytes: an instance of one of ``kinds``, often with one token
    replaced, dropped or added, or else arbitrary bytes."""
    shape = draw(st.sampled_from(["valid", "valid", "damaged", "bytes"]))
    if shape == "bytes":
        return draw(st.binary(max_size=64))
    kind = draw(st.sampled_from(kinds))
    n = draw(st.integers(1, 3))
    entry = st.integers(-1, 1) if kind == "sol" else st.integers(-20, 20)
    widths = {"conj": (2 * n + 1, 2 * n + 1), "cert": (2 * n + 1,), "sol": (n,)}.get(kind, (n, 1))
    rows = [[kind], [str(n)], *([str(draw(entry)) for _ in range(w)] for w in widths)]
    if shape == "damaged":
        row = rows[draw(st.integers(1, len(rows) - 1))]
        at = draw(st.integers(0, len(row) - 1))
        change = draw(st.sampled_from(["replace", "drop", "add"]))
        if change == "drop":
            del row[at]
        else:
            row.insert(at, draw(_odd_token))
            if change == "replace":
                del row[at + 1]
    return "\n".join(" ".join(row) for row in rows).encode()


_cap = st.sampled_from([[], ["--max-states", "3"], ["--max-states", "10000"], ["--max-states", "0"],
                        ["--max-states", "9" * 5000]])


def _one(*choices):
    return st.sampled_from(choices).map(lambda c: [c])


_argv = st.one_of(
    st.tuples(_one("solve"), _one("ssp", "sspp", "tssp", "conj"), _one(_FILE),
              st.sampled_from([[], ["--method", "brute"], ["--method", "dp"]]),
              st.sampled_from([[], ["--search"]]), _cap),
    st.tuples(_one("reduce"),
              _one("ssp-to-sspp", "sspp-to-tssp", "ssp-to-tssp", "tssp-to-conj", "ssp-to-conj",
                   "sspp-to-conj"),
              _one(_FILE)),
    st.tuples(_one("pullback"),
              _one("sspp-to-ssp", "tssp-to-sspp", "tssp-to-ssp", "conj-to-tssp", "conj-to-ssp",
                   "ssp-to-conj"),
              st.just([_FILE, _OTHER])),
    st.tuples(_one("conj"), _one("decide", "search", "verify"),
              st.sampled_from([[_FILE], [_FILE, _OTHER]]), _cap),
    st.tuples(_one("gen"), _one("ssp", "sspp", "tssp", "conj", "cert"),
              st.sampled_from(["1", "2", "3", "0"]).map(lambda n: ["--n", n]),
              st.one_of(st.integers(-1, 50).map(str), _long_digits).map(lambda b: ["--bound", b]),
              st.one_of(st.integers(-1, 50).map(str), _odd_token).map(lambda s: ["--seed", s]),
              st.sampled_from([[], ["--solvable"]])),
).map(lambda parts: [arg for part in parts for arg in part])


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_exit_code_contract(data):
    # whatever the arguments and the file contents, run() returns 0, 1 or 2
    # and no exception gets out; files mostly hold the kinds the command names
    argv = data.draw(_argv)
    words = {word for arg in argv for word in arg.split("-to-")}
    named = tuple(k for k in ("ssp", "sspp", "tssp", "conj") if k in words)
    kinds = named + named + ("cert", "sol")
    with tempfile.TemporaryDirectory() as tmp:
        paths = {_FILE: Path(tmp) / "a", _OTHER: Path(tmp) / "b"}
        for path in paths.values():
            path.write_bytes(data.draw(_document(kinds)))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run([str(paths.get(arg, arg)) for arg in argv])
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "polyconj", "gen", "tssp", "--n", "2", "--bound", "5", "--seed", "3"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("tssp\n2\n")


def test_importing_the_cli_loads_no_numpy():
    # numpy is a test dependency only, so no command pays for importing it
    proc = subprocess.run(
        [sys.executable, "-c", "import polyconj.cli, sys; assert 'numpy' not in sys.modules"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr


def test_cached_parser_keeps_calls_independent(write, capsys):
    # the argparse tree is built once per process; no option, default or
    # error of one call may leak into the next, so every call gives the
    # stdout and exit code it gives in a fresh process
    ssp = write("i.ssp", SspInstance((3, 5, 7), 8))
    tssp = write("i.tssp", TsspInstance((10**9, 10**9), 0))
    conj = write("i.conj", ConjugacyInstance(make_context(1), (0, 0, 5), (-5, 0, 5)))
    calls = [
        (["solve", "ssp", "--search", ssp], 0),
        (["solve", "ssp", ssp], 0),
        (["solve", "tssp", tssp, "--max-states", "1"], 2),
        (["solve", "tssp", tssp], 0),
        (["frobnicate"], 2),
        (["solve", "ssp", ssp], 0),
        (["conj", "verify", conj], 2),
        (["conj", "search", conj], 0),
    ]
    cli._build_parser.cache_clear()
    for argv, expected in calls:
        code, out, _ = run_cli(capsys, *argv)
        fresh = subprocess.run([sys.executable, "-m", "polyconj", *argv],
                               capture_output=True, text=True)
        assert (code, out) == (fresh.returncode, fresh.stdout) == (expected, out), argv


def test_target_past_the_coefficient_sum_exits_1(write, capsys):
    # |M| > sum|k| has no solution; the sweep never starts, so no cap binds
    coefficients = tuple((-1) ** i * (i % 11) for i in range(40))
    path = write("far.tssp", TsspInstance(coefficients, 10**6))
    code, out, err = run_cli(capsys, "solve", "tssp", path, "--max-states", "50")
    assert (code, out, err) == (1, "", "")
