"""CLI: commands, CSV format, determinism, exit codes."""

import argparse
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import tribell
from tribell import bounds, cli, optimize, rates, verification
from tribell.bell import spec_by_name
from tribell.cli import main

RUN = [sys.executable, "-m", "tribell.cli"]
# the child interpreter imports the same tribell as this one
SRC = str(Path(tribell.__file__).resolve().parents[1])
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    [SRC] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def assert_usage_error(capsys, args, *names):
    """argparse refuses args (exit 2, nothing on stdout), naming each of names."""
    with pytest.raises(SystemExit) as exc:
        main(args)
    out = capsys.readouterr()
    assert (exc.value.code, out.out) == (2, "")
    for name in names:
        assert name in out.err


class TestBound:
    def test_holz_one_outcome_at_max(self, capsys):
        code, out, _ = run_cli(["bound", "--inequality", "holz", "--beta", "1.5"],
                               capsys)
        assert code == 0
        assert out.strip() == "1.0"

    def test_mabk_two_outcome(self, capsys):
        code, out, _ = run_cli(["bound", "--inequality", "mabk", "--two-outcome",
                                "--beta", "4"], capsys)
        assert code == 0
        assert out.strip() == "2.0"

    def test_recycled(self, capsys):
        code, out, _ = run_cli(["bound", "--inequality", "chsh", "--recycled",
                                "--beta", str(2 * np.sqrt(2))], capsys)
        assert code == 0
        assert float(out) == pytest.approx(1.6008760, abs=1e-6)

    def test_grid_csv(self, tmp_path, capsys):
        out_file = tmp_path / "curve.csv"
        code, _, _ = run_cli(["bound", "--inequality", "holz", "--grid",
                              "1:1.5:11", "--out", str(out_file)], capsys)
        assert code == 0
        lines = out_file.read_text().splitlines()
        assert lines[0] == "quantity,inequality,noise,p,beta,value,flags"
        assert len(lines) == 12
        assert lines[1].startswith("bound-one,holz,,,1.0,0.0")

    def test_two_outcome_asym_alpha_rejected(self, capsys):
        code, out, err = run_cli(["bound", "--inequality", "asym-chsh",
                                  "--alpha", "2", "--two-outcome",
                                  "--beta", "4.2"], capsys)
        assert code == 2
        assert out == ""
        assert "alpha=1" in err

    def test_missing_beta(self, capsys):
        code, _, err = run_cli(["bound", "--inequality", "holz"], capsys)
        assert code == 2
        assert "beta" in err


# what `bound --beta <quantum bound>` prints per inequality and outcome flag
# (None: exit 2); asym-chsh at its default alpha=1 is CHSH
AT_QUANTUM_BOUND = {
    "holz": ("1.0", "1.81127812", None),
    "parity-chsh": ("1.0", "1.60087604", None),
    "mabk": ("1.0", "2.0", None),
    "chsh": ("1.0", "1.60087602", "1.60087604"),
    "asym-chsh": ("1.0", "1.60087602", "1.60087604"),
}
OUTCOME_FLAGS = ([], ["--two-outcome"], ["--recycled"])


class TestBoundDomain:
    @pytest.mark.parametrize("ineq", sorted(AT_QUANTUM_BOUND))
    @pytest.mark.parametrize("which", range(3))
    def test_quantum_bound_edge(self, capsys, ineq, which):
        qb = float(spec_by_name(ineq).quantum_bound)
        argv = ["bound", "--inequality", ineq] + OUTCOME_FLAGS[which]
        for beta in (repr(qb + 1e-6), "nan"):
            code, out, _ = run_cli(argv + ["--beta", beta], capsys)
            assert (code, out) == (2, "")
        code, out, _ = run_cli(argv + ["--beta", repr(qb)], capsys)
        want = AT_QUANTUM_BOUND[ineq][which]
        assert (code, out.strip()) == ((2, "") if want is None else (0, want))


class TestRate:
    def test_dire_recycled_noiseless(self, capsys):
        code, out, _ = run_cli(["rate", "--dire", "recycled", "--inequality",
                                "chsh", "--noise", "global", "--p", "1.0"], capsys)
        assert code == 0
        assert float(out) == pytest.approx(1.6008760, abs=1e-6)

    @pytest.mark.parametrize("argv", [
        ["rate", "--dire", "recycled", "--p", "1.0"],
        ["threshold", "--rate", "dire-recycled"],
        ["sweep", "--quantity", "rate-dire-recycled", "--grid", "0.9:1:3"],
    ])
    def test_recycled_needs_chsh(self, tmp_path, capsys, argv):
        out_csv = tmp_path / "r.csv"
        extra = ["--out", str(out_csv)] if argv[0] == "sweep" else []
        code, out, err = run_cli(argv + ["--inequality", "holz"] + extra, capsys)
        assert code == 2
        assert out == ""
        assert "recycled" in err
        assert not out_csv.exists()

    def test_dicka_needs_mode(self, capsys):
        code, _, err = run_cli(["rate", "--inequality", "holz", "--p", "0.9"],
                               capsys)
        assert code == 2

    def test_mabk_dicka_rejected(self, capsys):
        code, _, err = run_cli(["rate", "--dicka", "--inequality", "mabk",
                                "--p", "1.0"], capsys)
        assert code == 2
        assert "DICKA" in err

    def test_asym_dicka_alpha_one(self, capsys):
        # DICKA maximizes over alpha itself, so `rate` takes no --alpha
        argv = ["rate", "--dicka", "--inequality", "asym-chsh", "--p", "0.95"]
        code, out, _ = run_cli(argv, capsys)
        assert code == 0
        assert out.strip() == "0.137485256"
        assert_usage_error(capsys, argv + ["--alpha", "1"], "--alpha")

    @pytest.mark.parametrize("argv", [
        ["rate", "--dicka", "--p", "0.95", "--alpha", "2"],
        ["threshold", "--rate", "dicka", "--alpha", "3"],
    ])
    def test_asym_dicka_alpha_rejected(self, capsys, argv):
        assert_usage_error(capsys, argv + ["--inequality", "asym-chsh"], "--alpha")

    @pytest.mark.parametrize("argv", [
        ["rate", "--dicka", "--gamma", "5", "--p", "0.95"],
        ["rate", "--dire", "recycled", "--inequality", "chsh", "--gamma", "-1",
         "--p", "1.0"],
        ["threshold", "--rate", "dicka", "--gamma", "2"],
    ])
    def test_gamma_range_checked_for_every_kind(self, capsys, argv):
        code, out, err = run_cli(argv, capsys)
        assert code == 2
        assert out == ""
        assert "gamma" in err and "outside [0, 1]" in err


class TestThreshold:
    def test_holz_dicka_local(self, capsys):
        code, out, _ = run_cli(["threshold", "--rate", "dicka", "--inequality",
                                "holz", "--noise", "local"], capsys)
        assert code == 0
        assert float(out) == pytest.approx(0.934, abs=1e-3)

    @pytest.mark.parametrize("noise, want", [("local", "0.922846169"),
                                             ("global", "0.851645052")])
    def test_asym_chsh_dicka(self, capsys, noise, want):
        code, out, _ = run_cli(["threshold", "--rate", "dicka", "--inequality",
                                "asym-chsh", "--noise", noise], capsys)
        assert code == 0
        assert out.strip() == want

    # the thresholds with a closed form print its 9 digits
    @pytest.mark.parametrize("kind, ineq, noise, want", [
        ("dire-spot", "mabk", "local", "0.793700526"),  # 2^(-1/3)
        ("dire-spot", "mabk", "global", "0.5"),
        ("dire-spot", "holz", "global", "0.666666667"),  # 2/3
        ("dire-recycled", "chsh", "local", "0.840896415"),  # 2^(-1/4)
        ("dire-recycled", "chsh", "global", "0.707106781"),  # 2^(-1/2)
    ])
    def test_analytic_closed_form_digits(self, capsys, kind, ineq, noise, want):
        code, out, _ = run_cli(["threshold", "--rate", kind, "--inequality",
                                ineq, "--noise", noise], capsys)
        assert code == 0
        assert out.strip() == want

    def test_numeric_failure_exit_code(self, capsys):
        code, _, err = run_cli(["threshold", "--rate", "dire-spot",
                                "--inequality", "mabk", "--noise", "local",
                                "--gamma", "0.45"], capsys)
        assert code == 3
        assert "sign" in err


class TestOptimize:
    def test_single_point(self, capsys):
        code, out, _ = run_cli(["optimize", "--inequality", "chsh", "--beta",
                                str(2 * np.sqrt(2)), "--restarts", "8",
                                "--seed", "1"], capsys)
        assert code == 0
        assert "entropy 1.600876" in out
        assert "converged True" in out

    def test_zero_restarts_rejected(self, capsys):
        code, _, err = run_cli(["optimize", "--inequality", "chsh", "--beta",
                                "2.7", "--restarts", "0"], capsys)
        assert code == 2
        assert "restarts" in err

    def test_unknown_minimizer(self, capsys):
        code, _, err = run_cli(["optimize", "--inequality", "mabk", "--beta",
                                "3.0"], capsys)
        assert code == 2

    def test_grid_csv_pinned(self, tmp_path, capsys):
        # warm-started descending sweep; fixed-seed bytes
        path = tmp_path / "g.csv"
        code, _, _ = run_cli(["optimize", "--inequality", "holz", "--grid",
                              "1.05:1.5:5", "--restarts", "8", "--seed", "0",
                              "--out", str(path)], capsys)
        assert code == 0
        assert path.read_text() == (
            "quantity,inequality,noise,p,beta,value,flags\n"
            "optimize-two,holz,,,1.05,0.0752579666,non-certified\n"
            "optimize-two,holz,,,1.1625,0.27093067,non-certified\n"
            "optimize-two,holz,,,1.275,0.516855263,non-certified\n"
            "optimize-two,holz,,,1.3875,0.863843106,non-certified\n"
            "optimize-two,holz,,,1.5,1.81127811,non-certified\n")

    def test_grid_at_classical_bound_rejected_before_solving(
            self, tmp_path, capsys, monkeypatch):
        calls = []
        monkeypatch.setitem(optimize.MINIMIZERS, "holz",
                            lambda *a, **k: calls.append(a))
        path = tmp_path / "fig3.csv"
        code, out, err = run_cli(["optimize", "--inequality", "holz", "--grid",
                                  "1.0:1.5:60", "--out", str(path)], capsys)
        assert (code, out, calls) == (2, "", [])
        assert "beta=1.0" in err
        assert not path.exists()

    @pytest.mark.parametrize("points", ["0", "1"])
    def test_regen_too_few_points(self, tmp_path, capsys, monkeypatch, points):
        calls = []
        for ineq in rates.NUMERIC_CURVES:
            monkeypatch.setitem(optimize.MINIMIZERS, ineq,
                                lambda *a, **k: calls.append(a))
        path = tmp_path / "t.json"
        code, out, err = run_cli(["optimize", "--regen-tables", "--points", points,
                                  "--out", str(path)], capsys)
        assert (code, out, calls) == (2, "", [])
        assert "at least 2 points" in err
        assert not path.exists()

    def test_regen_round_trip(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "t.json"
        code, _, _ = run_cli(["optimize", "--regen-tables", "--points", "6",
                              "--restarts", "4", "--seed", "7",
                              "--out", str(path)], capsys)
        assert code == 0
        curves = json.loads(path.read_text())["curves"]
        monkeypatch.setenv(rates.TABLE_ENV, str(path))
        rates._load_tables.cache_clear()
        try:
            for ineq, curve in curves.items():
                assert len(curve["beta"]) == 6
                got = [rates.two_outcome_numeric(ineq, b) for b in curve["beta"]]
                assert got == curve["value"]
        finally:
            monkeypatch.delenv(rates.TABLE_ENV)
            rates._load_tables.cache_clear()


class TestOptimizeRefusesIgnoredOptions:
    """Options `optimize` would drop exit 2, naming the option, before any
    solve."""

    def refused(self, argv, monkeypatch, capsys):
        def solve(*a, **k):
            pytest.fail("solved despite an ignored option")

        for ineq in list(optimize.MINIMIZERS):
            monkeypatch.setitem(optimize.MINIMIZERS, ineq, solve)
        code, out, err = run_cli(["optimize", "--inequality", "holz"] + argv,
                                 capsys)
        assert (code, out) == (2, "")
        return err

    def test_alpha(self, capsys):
        assert_usage_error(capsys, ["optimize", "--inequality", "holz",
                                    "--beta", "1.3", "--alpha", "3"], "--alpha")

    def test_points_without_regen(self, monkeypatch, capsys):
        err = self.refused(["--beta", "1.3", "--points", "50"], monkeypatch, capsys)
        assert "--points" in err

    def test_beta_with_grid(self, tmp_path, monkeypatch, capsys):
        path = tmp_path / "g.csv"
        err = self.refused(["--beta", "1.3", "--grid", "1.1:1.2:2",
                            "--out", str(path)], monkeypatch, capsys)
        assert "--beta" in err and "--grid" in err
        assert not path.exists()


class TestSweepDeterminism:
    def test_byte_identical_and_sorted(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        args = ["sweep", "--quantity", "rate-dicka", "--inequality", "holz",
                "--noise", "local", "--grid", "0.9:1:7"]
        assert run_cli(args + ["--out", str(a)], capsys)[0] == 0
        assert run_cli(args + ["--out", str(b)], capsys)[0] == 0
        assert a.read_bytes() == b.read_bytes()
        lines = a.read_text().splitlines()
        ps = [float(l.split(",")[3]) for l in lines[1:]]
        assert ps == sorted(ps)

    def test_flags_column(self, tmp_path, capsys):
        out = tmp_path / "dire.csv"
        code, _, _ = run_cli(["sweep", "--quantity", "rate-dire-spot",
                              "--inequality", "holz", "--noise", "global",
                              "--grid", "0.8:1:3", "--gamma", "0",
                              "--out", str(out)], capsys)
        assert code == 0
        for line in out.read_text().splitlines()[1:]:
            assert line.split(",")[6] == "conjectured"


class TestSweepOptimizeAlpha:
    @pytest.mark.parametrize("quantity, ineq", [
        ("bound-one", "holz"), ("bound-two", "chsh"), ("rate-dicka", "asym-chsh"),
        ("beta", "chsh"),
    ])
    def test_rejected_where_ignored(self, tmp_path, capsys, quantity, ineq):
        out = tmp_path / "s.csv"
        code, _, err = run_cli(["sweep", "--quantity", quantity, "--inequality",
                                ineq, "--optimize-alpha", "--grid", "0.9:1:3",
                                "--out", str(out)], capsys)
        assert code == 2
        assert "--optimize-alpha" in err
        assert not out.exists()

    def test_chsh_bound_one(self, tmp_path, capsys):
        out = tmp_path / "s.csv"
        code, _, _ = run_cli(["sweep", "--quantity", "bound-one", "--inequality",
                              "chsh", "--optimize-alpha", "--grid", "0.95:0.95:1",
                              "--out", str(out)], capsys)
        assert code == 0
        value = float(out.read_text().splitlines()[1].split(",")[5])
        assert value > bounds.asym_chsh_one_outcome(2 * np.sqrt(2) * 0.95 ** 2, 1.0)


class TestVerify:
    def test_quick_run_passes(self, capsys):
        code, out, _ = run_cli(["verify", "--samples", "300"], capsys)
        assert code == 0
        assert "unexpected failures" in out
        assert "[FAIL]" not in out
        # the known MABK two-outcome concavity is reported, not fatal
        assert "KNOWN-FAIL" in out

    def test_single_sample_rejected(self, capsys, monkeypatch):
        # the one draw is a random state, so appendix B would see no
        # violating-side sample and report a failure
        monkeypatch.setattr(verification, "run_all",
                            lambda **k: pytest.fail("run_all called"))
        code, out, err = run_cli(["verify", "--samples", "1"], capsys)
        assert (code, out) == (2, "")
        assert "--samples" in err

    @pytest.mark.parametrize("samples", ["0", "-5"])
    def test_samples_below_one_rejected(self, capsys, monkeypatch, samples):
        monkeypatch.setattr(verification, "run_all",
                            lambda **k: pytest.fail("run_all called"))
        code, out, err = run_cli(["verify", "--samples", samples], capsys)
        assert code == 2
        assert out == ""
        assert "--samples" in err


class TestGridNeedsOut:
    @pytest.mark.parametrize("argv", [
        ["bound", "--inequality", "holz", "--grid", "1:1.5:3"],
        ["rate", "--dicka", "--grid", "0.9:1:3"],
        ["optimize", "--inequality", "chsh", "--grid", "2.5:2.6:2",
         "--restarts", "2"],
    ])
    def test_fails_before_computing(self, capsys, monkeypatch, argv):
        def boom(*a, **k):
            pytest.fail("computed without --out")

        monkeypatch.setattr(cli, "_map_parallel", boom)
        monkeypatch.setattr(optimize, "sweep_two_outcome", boom)
        code, out, err = run_cli(argv, capsys)
        assert code == 2
        assert out == ""
        assert "--out" in err


class TestPointWithGridRefused:
    @pytest.mark.parametrize("argv, point", [
        (["bound", "--inequality", "holz", "--beta", "1.2", "--grid", "1:1.5:3"],
         "--beta"),
        (["rate", "--dicka", "--p", "0.95", "--grid", "0.9:1:2"], "--p"),
    ])
    def test_fails_before_computing(self, tmp_path, capsys, monkeypatch,
                                    argv, point):
        monkeypatch.setattr(cli, "_map_parallel",
                            lambda *a: pytest.fail("computed despite " + point))
        path = tmp_path / "g.csv"
        code, out, err = run_cli(argv + ["--out", str(path)], capsys)
        assert (code, out) == (2, "")
        assert point in err and "--grid" in err
        assert not path.exists()


def test_bound_two_outcome_excludes_recycled(capsys):
    assert_usage_error(capsys, ["bound", "--inequality", "chsh", "--beta", "2.7",
                                "--two-outcome", "--recycled"],
                       "--two-outcome", "--recycled")


class TestOutDirectoryMissing:
    @pytest.mark.parametrize("argv", [
        ["bound", "--inequality", "holz", "--grid", "1:1.5:3"],
        ["rate", "--dicka", "--grid", "0.9:1:3"],
        ["sweep", "--quantity", "beta", "--grid", "0.9:1:3"],
        ["optimize", "--inequality", "chsh", "--grid", "2.5:2.6:2"],
        ["optimize", "--regen-tables"],
    ])
    def test_fails_before_computing(self, tmp_path, capsys, monkeypatch, argv):
        def boom(*a, **k):
            pytest.fail("computed although --out cannot be written")

        monkeypatch.setattr(cli, "_map_parallel", boom)
        monkeypatch.setattr(optimize, "sweep_two_outcome", boom)
        monkeypatch.setattr(rates, "generate_two_outcome_table", boom)
        path = tmp_path / "missing" / "out.csv"
        code, out, err = run_cli(argv + ["--out", str(path)], capsys)
        assert (code, out) == (2, "")
        assert "--out" in err
        assert not path.parent.exists()


def test_negative_seed_refused(capsys, monkeypatch):
    monkeypatch.setitem(optimize.MINIMIZERS, "holz",
                        lambda *a, **k: pytest.fail("solved with a negative seed"))
    code, out, err = run_cli(["optimize", "--inequality", "holz", "--beta", "1.3",
                              "--seed", "-1"], capsys)
    assert (code, out) == (2, "")
    assert "seed" in err


class TestNonFiniteArguments:
    @pytest.mark.parametrize("argv, name", [
        (["bound", "--beta", "nan"], "--beta"),
        (["bound", "--inequality", "asym-chsh", "--beta", "inf"], "--beta"),
        (["bound", "--inequality", "asym-chsh", "--alpha", "nan",
          "--beta", "2.5"], "--alpha"),
        (["rate", "--dire", "spot", "--p", "0.9", "--gamma", "inf"], "--gamma"),
        (["threshold", "--rate", "dicka", "--gamma", "nan"], "--gamma"),
    ])
    def test_rejected_with_name(self, capsys, argv, name):
        code, out, err = run_cli(argv, capsys)
        assert code == 2
        assert out == ""
        assert name in err and "not finite" in err


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(RUN + ["bound", "--inequality", "parity-chsh",
                                     "--beta", "1.2"],
                              capture_output=True, text=True, timeout=120,
                              env=ENV)
        assert proc.returncode == 0
        float(proc.stdout)

    def test_usage_error_exit_2(self):
        proc = subprocess.run(RUN + ["bound", "--inequality", "svetlichny",
                                     "--beta", "1.0"],
                              capture_output=True, text=True, timeout=120,
                              env=ENV)
        assert proc.returncode == 2


# ---------------------------------------------------------------------------
# every option acts or is refused

def subparsers():
    """command -> its subparser, read from cli.build_parser()."""
    action = next(a for a in cli.build_parser()._actions
                  if isinstance(a, argparse._SubParsersAction))
    return action.choices


# valid argument lists of each command; every option is tried in each
CONTEXTS = {
    "bound": [["--beta", "1.2"], ["--grid", "1:1.5:3", "--out", "{tmp}/g.csv"],
              ["--inequality", "asym-chsh", "--beta", "2.5"]],
    "rate": [["--dicka", "--p", "0.9"],
             ["--dire", "spot", "--grid", "0.9:1:3", "--out", "{tmp}/g.csv"]],
    "threshold": [["--rate", "dicka"], ["--rate", "dire-spot"]],
    "optimize": [["--beta", "1.3"], ["--grid", "1.1:1.3:3", "--out", "{tmp}/g.csv"],
                 ["--regen-tables", "--out", "{tmp}/t.json"]],
    "verify": [[]],
    "sweep": [["--quantity", quantity, "--inequality", ineq, "--grid", "0.9:1:3",
               "--out", "{tmp}/g.csv"] + extra
              for quantity, ineq, extra in [("bound-one", "holz", []),
                                            ("rate-dire-spot", "holz", []),
                                            ("bound-one", "asym-chsh", []),
                                            ("bound-one", "chsh", ["--optimize-alpha"])]],
}
# a valid non-default value for each option that takes one and has no
# choices; an option missing here fails the test below
VALUES = {"gamma": "0.25", "alpha": "0.5", "beta": "1.25", "p": "0.95",
          "grid": "0.9:0.95:2", "out": "{tmp}/other.csv", "restarts": "3", "seed": "5",
          "points": "5", "samples": "50"}


def option_cases():
    """(command, context index, the option's flag and value) for every option
    of every command, in every context that does not already set it."""
    for command, parser in subparsers().items():
        for i, context in enumerate(CONTEXTS[command]):
            current = parser.parse_args(context)
            for action in parser._actions:
                if not action.option_strings or action.dest == "help":
                    continue
                flag, now = action.option_strings[0], getattr(current, action.dest)
                if action.nargs == 0:
                    if now == action.default:
                        yield command, i, [flag]
                elif action.choices:
                    yield command, i, [flag, next(c for c in action.choices if c != now)]
                else:
                    yield command, i, [flag, VALUES[action.dest]]


class TestEveryOptionActsOrIsRefused:
    """Each option set away from its default either changes what reaches the
    library (the recorded calls) or what is printed, or `main` exits 2 naming
    it before any library call."""

    @pytest.fixture
    def record(self, monkeypatch):
        calls = []

        def data(x):
            if callable(x):  # a sort key or a closure, new on every run
                return "<fn>"
            return x.tolist() if isinstance(x, np.ndarray) else x

        def recorder(name, result):
            def call(*args, **kwargs):
                calls.append(repr((name, [data(a) for a in args],
                                   {k: data(v) for k, v in kwargs.items()})))
                return result(*args) if callable(result) else result
            return call

        rate = SimpleNamespace(rate=0.5, beta_at_p=1.0, flags=())
        opt = SimpleNamespace(entropy=0.5, achieved_beta=1.0, converged=True,
                              restarts_used=1)
        for name in ("dicka_rate", "dire_rate_spot", "dire_rate_recycled"):
            monkeypatch.setattr(rates, name, recorder(name, rate))
        monkeypatch.setattr(rates, "bound_curve", recorder("bound_curve", SimpleNamespace(
            fn=recorder("fn", 0.5), flags=())))
        monkeypatch.setattr(rates, "beta_of_p", recorder("beta_of_p", 2.0))
        monkeypatch.setattr(rates, "best_alpha_one_outcome",
                            recorder("best_alpha", (1.0, 0.5, 2.5)))
        monkeypatch.setattr(rates, "threshold_p", lambda fn: fn(0.9))
        monkeypatch.setattr(rates, "generate_two_outcome_table",
                            recorder("table", {}))
        for ineq in list(optimize.MINIMIZERS):
            monkeypatch.setitem(optimize.MINIMIZERS, ineq, recorder(ineq, opt))
        monkeypatch.setattr(optimize, "sweep_two_outcome", recorder(
            "sweep_two_outcome", lambda ineq, grid, cfg: [opt] * len(grid)))
        monkeypatch.setattr(verification, "run_all", recorder("run_all", []))
        monkeypatch.setattr(cli, "_write_csv", recorder("write_csv", None))
        return calls

    @pytest.mark.parametrize("command, context, extra", list(option_cases()),
                             ids=lambda case: str(case).replace(" ", ""))
    def test_option(self, tmp_path, capsys, record, command, context, extra):
        def run(argv):
            record.clear()
            try:
                code = main([a.format(tmp=tmp_path) for a in argv])
            except SystemExit as exc:
                code = exc.code
            out, err = capsys.readouterr()
            return code, out, err, list(record)

        base = [command] + CONTEXTS[command][context]
        code0, out0, _, calls0 = run(base)
        assert code0 == 0 and calls0
        code, out, err, calls = run(base + extra)
        if code == 2:
            assert extra[0] in err and out == "" and calls == []
        else:
            assert code == 0
            assert (calls, out) != (calls0, out0), f"{extra} changed nothing"


def readme_command_lines():
    text = Path(__file__).resolve().parents[1].joinpath("README.md").read_text()
    for block in re.findall(r"^```\n(.*?)^```", text, flags=re.M | re.S):
        for line in block.replace("\\\n", " ").splitlines():
            words = shlex.split(line, comments=True)
            while words and "=" in words[0]:  # VAR=value prefixes
                words.pop(0)
            if words[:1] == ["tribell"]:
                yield words[1:]


@pytest.mark.parametrize("argv", list(readme_command_lines()), ids=" ".join)
def test_readme_examples_pass_the_option_check(tmp_path, monkeypatch, argv):
    reached = []
    for command in subparsers():
        monkeypatch.setattr(cli, f"cmd_{command}", lambda args: reached.append(args) or 0)
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 0
    assert [args.command for args in reached] == [argv[0]]
