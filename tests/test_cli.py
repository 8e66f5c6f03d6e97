import doctest
import json
import os
import re
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from factorlab import fermat
from factorlab.cli import (
    BENCH_METHODS,
    JSON_KEYS,
    METHOD_FLAGS,
    METHODS,
    RunConfig,
    UsageError,
    _config_from_args,
    bench,
    build_parser,
    demo_lines,
    gap_semiprime,
    grid_lines,
    lattice_lines,
    main,
    ratio_semiprime,
    run,
)
from factorlab.coppersmith import certified_regime

from conftest import box_oracle, lsb_problem

import random
from fractions import Fraction


REPO = Path(__file__).resolve().parents[1]


def factor_config(**kw) -> RunConfig:
    return RunConfig(command="factor", **kw)


class TestRun:
    def test_triangular_worked_example(self):
        report = run(factor_config(method="triangular", n=2599))
        assert report.outcome == "factored"
        assert report.factors == (23, 113)
        assert report.steps == 3

    def test_standard(self):
        report = run(factor_config(method="standard", n=15))
        assert report.factors == (3, 5)

    def test_ratio_requires_r(self):
        with pytest.raises(UsageError):
            run(factor_config(method="ratio", n=20909))
        report = run(factor_config(method="ratio", n=20909, r="2"))
        assert report.factors == (103, 203)

    @pytest.mark.parametrize(
        "config, message",
        [
            (factor_config(method="nosuch", n=15), "unknown method 'nosuch'"),
            (factor_config(method="standard"), "--n is required"),
        ],
    )
    def test_unknown_method_or_no_n_is_a_usage_error(self, config, message):
        with pytest.raises(UsageError, match=message):
            run(config)

    def test_residue_method(self):
        report = run(factor_config(method="residue", n=10807, mod=10))
        assert report.factors == (101, 107)

    def test_residue_method_gcd_shortcut(self):
        report = run(factor_config(method="residue", n=15 * 101, mod=15))
        assert report.outcome == "factored"
        assert report.factors == (15, 101)

    @pytest.mark.parametrize("n, mod", [(7, 14), (15, 30)])
    def test_residue_method_gcd_equal_to_n_exhausts(self, n, mod):
        # gcd(n, mod) = n splits nothing, and no pair has both residues prime
        # to mod
        assert run(factor_config(method="residue", n=n, mod=mod)).outcome == "exhausted"
        assert main(["factor", "--method", "residue", "--n", str(n), "--mod", str(mod)]) == 2

    def test_landry_pepin(self):
        report = run(
            factor_config(method="landry-pepin", n=10807, mod=10, mod2=10, c=1, d=7,
                          t_bound=8)
        )
        assert report.factors == (101, 107)

    def test_coppersmith_methods(self):
        report = run(factor_config(method="coppersmith-msb", n=4305481, p0=2060))
        assert report.factors == (2063, 2087)
        assert report.certified in (True, False)
        report = run(factor_config(method="coppersmith-lsb", n=2599, lsb_value=7, lsb_bits=4))
        assert report.factors == (23, 113)
        # tiny N: every column is scanned, so no lattice attempt sets lattice_dim
        report = run(factor_config(method="coppersmith-lsb", n=15, lsb_value=3, lsb_bits=4))
        assert (report.factors, report.lattice_dim) == ((3, 5), None)
        report = run(factor_config(method="theorem4", n=10807, mod=100))
        assert report.factors == (101, 107)

    @given(
        n=st.integers(min_value=1, max_value=599).map(lambda h: 2 * h + 1),
        k=st.integers(min_value=1, max_value=6),
        hint=st.integers(min_value=0, max_value=63),
    )
    @example(n=5, k=3, hint=1)
    @example(n=15, k=4, hint=1)
    @settings(max_examples=500)
    def test_coppersmith_lsb_matches_the_full_box(self, n, k, hint):
        # the report names the box scan's first root with 1 < p < N
        v = 2 * hint + 1
        report = run(factor_config(method="coppersmith-lsb", n=n, lsb_value=v, lsb_bits=k))
        prob = lsb_problem(n, v, k)
        proper = [p for _, _, p, _ in box_oracle(prob) if 1 < p < n]
        outcome, factors = "no-root", None
        if proper:
            outcome, factors = "factored", tuple(sorted((proper[0], n // proper[0])))
        assert (report.outcome, report.factors, report.certified) == (
            outcome, factors, certified_regime(prob)
        )
        assert report.lattice_dim in (3, None)

    def test_trivariate_method(self):
        from factorlab.arith import next_prime

        q = next_prime(2**17 + 123)
        p = next_prime(2**17 + 7)
        a = (-q) % 7
        mult = (q + a) // 7
        report = run(
            factor_config(method="trivariate", n=p * q, p0=p, mult=mult, z_max=10,
                          a_max=9)
        )
        assert report.factors == tuple(sorted((p, q)))
        assert report.params["z0"] == 7

    def test_params_follow_the_flag_table(self):
        report = run(
            factor_config(method="landry-pepin", n=10807, mod=10, mod2=10, c=1, d=7)
        )
        assert list(report.params) == ["mod", "mod2", "c", "d", "t_bound"]
        report = run(factor_config(method="trivariate", n=10807, p0=101, mult=107))
        assert list(report.params) == ["p0", "mult", "z0"]

    def test_outcomes(self):
        assert run(factor_config(method="standard", n=13)).outcome == "trivial-only"
        assert (
            run(factor_config(method="standard", n=2599, budget=10)).outcome
            == "exhausted"
        )
        assert (
            run(factor_config(method="coppersmith-msb", n=4305481, p0=3000)).outcome
            == "no-root"
        )
        # the only root in the box around p0 = 1 is the trivial p = 1, q = N
        assert run(factor_config(method="coppersmith-msb", n=2599, p0=1)).outcome == "no-root"

    def test_factors_always_multiply_back(self):
        report = run(factor_config(method="triangular", n=2599))
        product = 1
        for f in report.factors:
            product *= f
        assert product == report.n


class TestJsonSchema:
    def test_keys_and_string_numbers(self):
        report = run(factor_config(method="standard", n=2599))
        obj = report.to_json_obj()
        assert tuple(obj) == JSON_KEYS
        assert obj["n"] == "2599"
        assert obj["factors"] == ["23", "113"]
        assert isinstance(obj["steps"], int)
        assert json.loads(json.dumps(obj)) == obj

    def test_unfactored_fields_null(self):
        obj = run(factor_config(method="standard", n=13)).to_json_obj()
        assert obj["factors"] is None and obj["outcome"] == "trivial-only"


class TestBench:
    def test_gap_profile_standard_all_factored(self):
        reports, summary = bench(
            RunConfig(command="bench", method="standard", profile="gap", bits=28,
                      instances=8, seed=5)
        )
        assert summary["factored"] == 8 == summary["count"]
        assert all(r.outcome == "factored" for r in reports)
        assert summary["median_steps"] is not None

    def test_ratio_profile_comparison(self):
        cfg = dict(command="bench", profile="ratio", bits=28, instances=5, seed=5, r="2")
        ratio_reports, ratio_summary = bench(RunConfig(method="ratio", **cfg))
        std_reports, std_summary = bench(RunConfig(method="standard", budget=3000, **cfg))
        assert ratio_summary["factored"] == 5
        # the consecutive scan needs orders of magnitude more steps on the
        # stretched population (or gives up at the budget)
        assert all(
            r.outcome == "exhausted" or r.steps > 20 * ratio_summary["median_steps"]
            for r in std_reports
        )

    def test_deterministic_modulo_walltime(self):
        cfg = RunConfig(command="bench", method="triangular", profile="gap", bits=24,
                        instances=6, seed=9)
        first = [r.to_json_obj() for r in bench(cfg)[0]]
        second = [r.to_json_obj() for r in bench(cfg)[0]]
        for a, b in zip(first, second):
            a.pop("time_ms"), b.pop("time_ms")
            assert a == b

    def test_msb_profile_hints_the_top_bits(self):
        reports, summary = bench(
            RunConfig(command="bench", method="coppersmith-msb", bits=40, instances=4,
                      seed=1)
        )
        assert summary["factored"] == 4
        for r in reports:
            ell = r.n.bit_length() // 4
            assert r.params["p0"] == (r.params["p"] >> ell) << ell

    @pytest.mark.parametrize("field", ["profile", "method"])
    def test_unknown_profile_or_method_is_a_usage_error(self, field):
        config = RunConfig(command="bench", method="standard", bits=24, instances=1, seed=1)
        setattr(config, field, "nosuch")
        with pytest.raises(UsageError, match=f"unknown {field} 'nosuch'"):
            bench(config)

    def test_instances_labeled_with_construction(self):
        reports, _ = bench(
            RunConfig(command="bench", method="standard", profile="gap", bits=24,
                      instances=2, seed=3)
        )
        for r in reports:
            assert {"profile", "bits", "seed", "index", "p", "q"} <= set(r.params)
            assert r.params["p"] * r.params["q"] == r.n


class TestGenerators:
    def test_gap_profile_bound(self):
        from factorlab.arith import isqrt

        rng = random.Random(4)
        for _ in range(10):
            n, p, q = gap_semiprime(rng, 30)
            assert p * q == n and q - p <= isqrt(isqrt(n))

    def test_ratio_profile_bound(self):
        from factorlab.arith import isqrt

        rng = random.Random(4)
        for _ in range(10):
            n, p, q = ratio_semiprime(rng, 30, Fraction(2))
            assert p * q == n and abs(q - 2 * p) <= isqrt(isqrt(n))


class TestCommands:
    def test_grid_text(self):
        lines = grid_lines(RunConfig(command="grid"))
        assert len(lines) == 21
        assert "0.707" in lines[0] and "1.414427" in lines[0]
        assert "0.986048" in lines[20] and "1.01415" in lines[20]

    def test_grid_json(self):
        lines = grid_lines(RunConfig(command="grid", fmt="json-lines"))
        rows = [json.loads(line) for line in lines]
        assert rows[1] == {"index": 1, "r": "0.720952", "s": "1.387054"}

    def test_lattice_command(self):
        lines = lattice_lines(RunConfig(command="lattice", rows="4,1;7,2", fmt="json-lines"))
        obj = json.loads(lines[0])
        assert obj["det"] == "1"
        assert obj["first_vector_norm_sq"] == "1"
        assert obj["hadamard_ok"] is True

    @pytest.mark.parametrize(
        "rows, message",
        [
            (None, "lattice requires --rows"),
            ("", "lattice requires --rows"),
            ("1,0;0", "bad --rows"),  # ragged
            (";", "bad --rows"),  # no row
        ],
    )
    def test_lattice_rows_errors(self, rows, message):
        with pytest.raises(UsageError, match=message):
            lattice_lines(RunConfig(command="lattice", rows=rows))

    def test_demo_walkthrough(self):
        text = "\n".join(demo_lines())
        for token in ("105", "120", "136", "90", "23 * 113", "35"):
            assert token in text


class TestMain:
    def test_exit_codes(self, capsys):
        assert main(["factor", "--method", "triangular", "--n", "2599"]) == 0
        assert "23*113" in capsys.readouterr().out
        assert main(["factor", "--method", "standard", "--n", "13"]) == 2
        assert main(["factor", "--method", "triangular", "--n", "2599", "--budget", "2"]) == 2
        # 3063 = 3 * 1021: the cofactor sits at y0 = 7, outside the box |y| <= 1
        assert main(["factor", "--method", "coppersmith-lsb", "--n", "3063",
                     "--lsb-value", "3", "--lsb-bits", "7"]) == 2
        assert "no-root" in capsys.readouterr().out
        # k = 2^63 searches the box of k = 5 instead of building 2^k
        assert main(["factor", "--method", "coppersmith-lsb", "--n", "15",
                     "--lsb-value", "1", "--lsb-bits", str(2**63),
                     "--format", "json-lines"]) == 2
        captured = capsys.readouterr()
        assert captured.err == ""
        assert json.loads(captured.out)["params"]["lsb_bits"] == str(2**63)
        assert main(["factor", "--method", "ratio", "--n", "15"]) == 1  # missing --r
        assert "requires --r" in capsys.readouterr().err

    def test_trivariate_huge_z_max(self, capsys):
        # only the windows reaching the x box are walked, not every z0 <= 10^12
        assert main(["factor", "--method", "trivariate", "--n", "10807", "--p0", "101",
                     "--mult", "107", "--z-max", "1000000000000",
                     "--format", "json-lines"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert json.loads(captured.out)["factors"] == ["101", "107"]
        # with no root anywhere those walks find no co-factor and the run ends
        assert main(["factor", "--method", "trivariate", "--n", "10807", "--p0", "50",
                     "--mult", "7", "--z-max", "1000000000000",
                     "--format", "json-lines"]) == 2
        captured = capsys.readouterr()
        assert captured.err == ""
        assert json.loads(captured.out)["outcome"] == "exhausted"

    @pytest.mark.parametrize(
        "args, flag",
        [
            (["--method", "landry-pepin", "--n", "10807", "--mod", "10", "--d", "7"],
             "--mod2"),
            (["--method", "coppersmith-lsb", "--n", "2599", "--lsb-bits", "4"],
             "--lsb-value"),
            (["--method", "trivariate", "--n", "2599"], "--p0"),
        ],
    )
    def test_missing_flag_names_the_first(self, capsys, args, flag):
        assert main(["factor", *args]) == 1
        method = args[1]
        assert capsys.readouterr().err == f"error: method {method!r} requires {flag}\n"

    @pytest.mark.parametrize(
        "args",
        [
            ["--method", "coppersmith-lsb", "--n", "2598", "--lsb-value", "7",
             "--lsb-bits", "4"],  # even N
            ["--method", "standard", "--n", "2598"],  # even N
            ["--method", "ratio", "--n", "2599", "--r", "abc"],
            ["--method", "landry-pepin", "--n", "2599", "--mod", "10", "--mod2", "10",
             "--c", "2", "--d", "4"],  # residues not coprime to the moduli
            ["--method", "residue", "--n", "2599", "--mod", "1"],
            ["--method", "coppersmith-msb", "--n", "2599", "--p0", "0"],
            ["--method", "theorem4", "--n", "2599", "--mod", "0"],
            ["--method", "landry-pepin", "--n", "2599", "--mod", "10", "--mod2", "0",
             "--c", "1", "--d", "7"],
            ["--method", "landry-pepin", "--n", "2599", "--mod", "0", "--mod2", "10",
             "--c", "1", "--d", "7"],
            ["--method", "theorem4", "--n", "1", "--mod", "100"],
            ["--method", "landry-pepin", "--n", "2599", "--mod", "10", "--mod2", "10",
             "--c", "1", "--d", "7", "--t-bound", "-5"],
            ["--method", "landry-pepin", "--n", "2599", "--mod", "10", "--mod2", "1",
             "--c", "1", "--d", "0"],  # gcd(0, 1) = 1, but d = 0
            ["--method", "residue", "--n", "0", "--mod", "10"],
            ["--method", "residue", "--n", "-15", "--mod", "6"],
            ["--method", "landry-pepin", "--n", "1", "--mod", "10", "--mod2", "10",
             "--c", "1", "--d", "7"],
            ["--method", "landry-pepin", "--n", "0", "--mod", "10", "--mod2", "10",
             "--c", "1", "--d", "7"],
            ["--method", "landry-pepin", "--n", "-10807", "--mod", "10", "--mod2", "10",
             "--c", "1", "--d", "7"],
            ["--method", "coppersmith-msb", "--n", "1", "--p0", "1"],
            ["--method", "coppersmith-lsb", "--n", "1", "--lsb-value", "7",
             "--lsb-bits", "4"],
            ["--method", "trivariate", "--n", "1", "--p0", "1", "--mult", "1"],
            ["--method", "coppersmith-lsb", "--n", "-2599", "--lsb-value", "7",
             "--lsb-bits", "4"],
            ["bench", "--method", "standard", "--seed", "1", "--instances", "-1"],
            ["bench", "--method", "standard", "--seed", "1", "--bits", "3"],
        ],
    )
    def test_precondition_errors_are_usage_errors(self, capsys, args):
        assert main(args if args[0] == "bench" else ["factor", *args]) == 1
        captured = capsys.readouterr()
        err_lines = captured.err.strip().splitlines()
        assert len(err_lines) == 1 and err_lines[0].startswith("error: ")
        assert "Traceback" not in captured.err + captured.out
        if "--n" in args and int(args[args.index("--n") + 1]) < 2:  # rejected before dispatch
            assert err_lines == ["error: N must be >= 2"]
        if "--bits" in args:  # the flag the user gave, not a helper's bound
            assert err_lines == ["error: --bits must be >= 4"]

    @pytest.mark.parametrize(
        "argv",
        [
            ["factor", "--method", "ratio", "--n", "15", "--r", "1/0"],
            ["bench", "--method", "standard", "--profile", "ratio", "--r", "1/0",
             "--seed", "1"],
            ["grid", "--lower", "1/0"],
            ["lattice", "--rows", "1,0;0,1", "--delta", "1/0"],
        ],
    )
    def test_zero_denominator_is_a_usage_error(self, capsys, argv):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: zero denominator in '1/0'\n"
        assert captured.out == ""

    @pytest.mark.parametrize(
        "argv",
        [
            ["factor", "--method", "standard"],  # no --n
            ["factor", "--method", "nosuch", "--n", "15"],
            ["factor", "--method", "standard", "--n", "abc"],
            ["bench", "--method", "standard"],  # no --seed
        ],
    )
    def test_parser_errors_are_usage_errors(self, capsys, argv):
        assert main(argv) == 1
        captured = capsys.readouterr()
        err_lines = captured.err.strip().splitlines()
        assert len(err_lines) == 1 and err_lines[0].startswith("error: ")
        assert captured.out == ""

    @pytest.mark.parametrize("method", METHODS)
    def test_bench_offers_only_the_methods_it_can_run(self, capsys, method):
        argv = ["bench", "--method", method, "--bits", "24", "--instances", "1",
                "--seed", "1"]
        mod = ["--mod", "10"] if "mod" in METHOD_FLAGS[method] else []
        code = main(argv + mod)
        captured = capsys.readouterr()
        if method in BENCH_METHODS:
            assert code in (0, 2) and captured.err == ""
        else:
            assert method in ("landry-pepin", "trivariate")  # need --mod2 --c --d, --mult
            assert code == 1 and captured.out == ""
            err_lines = captured.err.splitlines()
            assert len(err_lines) == 1
            assert err_lines[0].startswith("error: argument --method: invalid choice")

    @pytest.mark.parametrize(
        "argv, required, fmt",
        [
            (["factor", "--method", "standard", "--n", "15"],
             dict(method="standard", n=15), "text"),
            (["bench", "--method", "standard", "--seed", "1"],
             dict(method="standard", seed=1), "json-lines"),
            (["grid"], {}, "text"),
            (["lattice", "--rows", "4,1;7,2"], dict(rows="4,1;7,2"), "text"),
        ],
    )
    def test_unset_flags_take_the_config_defaults(self, argv, required, fmt):
        config = _config_from_args(build_parser().parse_args(argv))
        assert config == RunConfig(command=argv[0], fmt=fmt, **required)

    @pytest.mark.parametrize(
        "extra",
        [
            ["--profile", "ratio", "--r", "1/2"],
            ["--profile", "ratio", "--r", "0"],
            ["--bits", "5"],  # p is always 3 at 5 bits, and no q is close enough
            ["--bits", "4"],
        ],
    )
    def test_unsatisfiable_bench_profile_is_a_usage_error(self, extra):
        # in a subprocess, so that a generator that never returns fails the
        # test at the timeout instead of hanging the suite
        argv = ["bench", "--method", "standard", *extra, "--seed", "1", "--instances", "1"]
        path = os.pathsep.join(
            filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")])
        )
        done = subprocess.run(
            [sys.executable, "-m", "factorlab.cli", *argv], capture_output=True,
            text=True, timeout=20, env=dict(os.environ, PYTHONPATH=path),
        )
        assert done.returncode == 1 and done.stdout == ""
        err_lines = done.stderr.splitlines()
        assert len(err_lines) == 1 and err_lines[0].startswith("error: ")

    def test_readme_examples_run(self, capsys):
        lines = [
            line for line in (REPO / "README.md").read_text().splitlines()
            if line.startswith("factorlab ")
        ]
        assert len(lines) >= 12
        for line in lines:
            assert main(shlex.split(line)[1:]) == 0, line
            assert capsys.readouterr().err == "", line

    def test_readme_python_blocks_pass_as_doctests(self):
        # each ```python block with its fences stripped: a doctest of the
        # whole file would read a closing fence as expected output
        text = (REPO / "README.md").read_text()
        blocks = re.findall(r"^```python\n(.*?)^```$", text, re.M | re.S)
        parser, runner, report = doctest.DocTestParser(), doctest.DocTestRunner(), []
        failed = attempted = 0
        for i, block in enumerate(blocks):
            test = parser.get_doctest(block, {}, f"README python block {i}", "README.md", 0)
            f, a = runner.run(test, out=report.append)
            failed, attempted = failed + f, attempted + a
        assert failed == 0, "".join(report)
        assert attempted >= 4

    @pytest.mark.parametrize("method", METHOD_FLAGS)
    def test_every_small_n_ends_cleanly(self, capsys, method):
        # a factor pair (0), a typed outcome (2) or one usage-error line (1),
        # never a traceback; the scans get a budget so that primes end
        scan = ["--budget", "100000"]
        flags = {
            "standard": scan,
            "triangular": scan,
            "ratio": ["--r", "3/2", *scan],
            "residue": ["--mod", "7"],
            "landry-pepin": ["--mod", "7", "--mod2", "5", "--c", "1", "--d", "1"],
            "coppersmith-msb": ["--p0", "5"],
            "coppersmith-lsb": ["--lsb-value", "1", "--lsb-bits", "3"],
            "trivariate": ["--p0", "5", "--mult", "3"],
            "theorem4": ["--mod", "7"],
        }[method]
        for n in range(-3, 100):
            code = main(["factor", "--method", method, "--n", str(n), *flags])
            err = capsys.readouterr().err
            assert code in (0, 1, 2), (n, code)
            if code == 1:
                err_lines = err.splitlines()
                assert len(err_lines) == 1 and err_lines[0].startswith("error: "), (n, err)
            else:
                assert err == "", n

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["factor", "--help"])
        assert info.value.code == 0
        assert "--method" in capsys.readouterr().out

    @pytest.mark.parametrize("method", ["standard", "triangular", "ratio"])
    def test_negative_budget_is_a_usage_error(self, capsys, method):
        argv = ["factor", "--method", method, "--n", "2599", "--budget", "-1"]
        assert main(argv + (["--r", "2"] if method == "ratio" else [])) == 1
        assert capsys.readouterr().err == "error: budget must be >= 0\n"

    def test_factors_of_another_n_are_an_internal_error(self, capsys, monkeypatch):
        # a valid FermatResult, but 4*15 = 8^2 - 2^2: run re-multiplies the
        # factors before anything is printed
        wrong = fermat.FermatResult(p=3, q=5, steps=1)
        monkeypatch.setattr(fermat, "fermat_standard", lambda n, budget: wrong)
        assert main(["factor", "--method", "standard", "--n", "2599"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: internal error: (3, 5) does not multiply to 2599\n"

    def test_json_lines_output(self, capsys):
        code = main(
            ["factor", "--method", "standard", "--n", "2599", "--format", "json-lines"]
        )
        assert code == 0
        obj = json.loads(capsys.readouterr().out.strip())
        assert obj["factors"] == ["23", "113"] and obj["steps"] == 35

    def test_bench_stream(self, capsys):
        code = main(
            ["bench", "--method", "standard", "--profile", "gap", "--bits", "24",
             "--instances", "3", "--seed", "1", "--format", "json-lines"]
        )
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 4  # three instances plus the summary
        for line in lines[:-1]:
            assert tuple(json.loads(line)) == JSON_KEYS
        assert json.loads(lines[-1])["summary"] is True

    def test_bench_writes_nothing_to_stderr(self, capsys):
        # the LSB boxes leave the certified regime; the json says so, and
        # neither the library nor the CLI warns about it
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["bench", "--method", "coppersmith-lsb", "--bits", "40",
                         "--instances", "3", "--seed", "3"])
        assert code == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        reports = [json.loads(line) for line in captured.out.splitlines()[:-1]]
        assert [r["certified"] for r in reports] == [False] * 3
