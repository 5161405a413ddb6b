"""CLI: commands, CSV format, determinism, exit codes."""

import argparse
import csv
import io
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

import pins
import tribell
from tribell import bell, bounds, cli, optimize, rates, verification
from tribell.bell import INEQUALITIES, spec_by_name
from tribell.cli import main
from tribell.errors import ValidationError

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
        # DICKA maximizes over alpha itself, so `rate` takes no --alpha;
        # pins.json pins what it prints
        argv = ["rate", "--dicka", "--inequality", "asym-chsh", "--p", "0.95"]
        assert run_cli(argv, capsys)[0] == 0
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

    @pytest.mark.parametrize("argv", [
        ["rate", "--dicka", "--inequality", "mabk", "--p", "2"],
        ["rate", "--dire", "spot", "--p", "2"],
    ])
    def test_p_range_named_before_the_rate(self, capsys, argv):
        # the option's domain is checked before the rate's kind and inequality
        code, out, err = run_cli(argv, capsys)
        assert (code, out, err.strip()) == (2, "", "error: --p=2.0 outside [0, 1]")


class TestThreshold:
    # the thresholds with a closed form print its 9 digits, as pins.json pins them
    @pytest.mark.parametrize("kind, ineq, noise, want", [
        ("dire-spot", "mabk", "local", "0.793700526"),
        ("dire-spot", "mabk", "global", "0.5"),
        ("dire-spot", "holz", "global", "0.666666667"),
        ("dire-recycled", "chsh", "local", "0.840896415"),
        ("dire-recycled", "chsh", "global", "0.707106781"),
    ])
    def test_analytic_closed_form_digits(self, kind, ineq, noise, want):
        exact = {"0.793700526": 2.0 ** (-1.0 / 3.0), "0.5": 0.5, "0.666666667": 2.0 / 3.0,
                 "0.840896415": 2.0 ** (-0.25), "0.707106781": 2.0 ** (-0.5)}[want]
        assert cli._fmt(exact) == want
        argv = ["threshold", "--rate", kind, "--inequality", ineq, "--noise", noise]
        assert [e["stdout"] for e in pins.load() if e.get("argv") == argv] == [want + "\n"]

    def test_numeric_failure_exit_code(self, capsys):
        code, _, err = run_cli(["threshold", "--rate", "dire-spot",
                                "--inequality", "mabk", "--noise", "local",
                                "--gamma", "0.45"], capsys)
        assert code == 3
        assert err == ("numeric failure: the dire-spot rate of mabk under local noise at"
                       " gamma=0.45 does not change sign on p in [0, 1]:"
                       " rate(p=0)=-2.34277, rate(p=1)=-0.342774\n")


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

    def test_grid_rows_equal_single_solves(self, tmp_path, capsys):
        # a descending grid: each printed row is the `--beta` solve's entropy
        path = tmp_path / "g.csv"
        assert run_cli(["optimize", "--inequality", "parity-chsh", "--grid", "1.2:1.1:3",
                        "--restarts", "4", "--seed", "2", "--out", str(path)],
                       capsys)[0] == 0
        rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
        assert [r[4] for r in rows] == ["1.1", "1.15", "1.2"]
        for row in rows:
            code, out, _ = run_cli(["optimize", "--inequality", "parity-chsh", "--beta",
                                    row[4], "--restarts", "4", "--seed", "2"], capsys)
            assert (code, out.split()[:2]) == (0, ["entropy", row[5]])

    def test_grid_infeasible_flags_stay_with_their_rows(self, tmp_path, capsys, monkeypatch):
        # a descending grid whose first solve did not converge
        monkeypatch.setattr(optimize, "sweep_two_outcome", lambda ineq, grid, cfg: [
            SimpleNamespace(entropy=float(b) / 2, converged=b != 1.5) for b in grid])
        path = tmp_path / "g.csv"
        assert run_cli(["optimize", "--inequality", "holz", "--grid", "1.5:1:3",
                        "--out", str(path)], capsys) == (0, "", "")
        assert path.read_text() == (
            "quantity,inequality,noise,p,beta,value,flags\n"
            "optimize-two,holz,,,1.0,0.5,non-certified\n"
            "optimize-two,holz,,,1.25,0.625,non-certified\n"
            "optimize-two,holz,,,1.5,0.75,non-certified infeasible\n")

    def test_grid_at_classical_bound_rejected_before_solving(
            self, tmp_path, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr(optimize, "_multistart", lambda *a: calls.append(a))
        path = tmp_path / "fig3.csv"
        code, out, err = run_cli(["optimize", "--inequality", "holz", "--grid",
                                  "1.0:1.5:60", "--out", str(path)], capsys)
        assert (code, out, calls) == (2, "", [])
        assert "beta=1.0" in err
        assert not path.exists()

    @pytest.mark.parametrize("points", ["0", "1"])
    def test_regen_too_few_points(self, tmp_path, capsys, monkeypatch, points):
        calls = []
        monkeypatch.setattr(optimize, "_multistart", lambda *a: calls.append(a))
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
        monkeypatch.setattr(optimize, "_multistart", solve)
        code, out, err = run_cli(["optimize", "--inequality", "holz"] + argv,
                                 capsys)
        assert (code, out) == (2, "")
        return err

    @pytest.mark.parametrize("argv, flag", [
        (["--beta", "1.3", "--restarts", "0"], "--restarts"),
        (["--beta", "1.3", "--restarts", "-4"], "--restarts"),
        (["--beta", "1.3", "--seed", "-1"], "--seed"),
        (["--regen-tables", "--points", "1", "--out", "{tmp}/t.json"], "--points"),
        (["--regen-tables", "--points", "0", "--out", "{tmp}/t.json"], "--points"),
        (["--regen-tables", "--points", str(10**16), "--out", "{tmp}/t.json"], "--points"),
        (["--regen-tables", "--points", str(10**20), "--out", "{tmp}/t.json"], "--points"),
    ])
    def test_out_of_domain(self, tmp_path, monkeypatch, capsys, argv, flag):
        err = self.refused([a.format(tmp=tmp_path) for a in argv], monkeypatch, capsys)
        assert err.startswith(f"error: {flag}=")
        assert list(tmp_path.iterdir()) == []

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

    def test_overwrite_keeps_only_the_new_bytes(self, tmp_path, capsys):
        fresh, reused = tmp_path / "fresh.csv", tmp_path / "reused.csv"
        args = ["sweep", "--quantity", "rate-dicka", "--inequality", "holz",
                "--noise", "local", "--grid"]
        assert run_cli(args + ["0.9:1:7", "--out", str(fresh)], capsys)[0] == 0
        assert run_cli(args + ["0.9:1:21", "--out", str(reused)], capsys)[0] == 0
        longer = reused.stat().st_size
        assert run_cli(args + ["0.9:1:7", "--out", str(reused)], capsys)[0] == 0
        assert reused.stat().st_size < longer
        assert reused.read_bytes() == fresh.read_bytes()

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


def point_columns(quantity, spec, noise, gamma, p):
    """One p's (value, beta, flags) from one-point calls: rates.rate_grid, or
    rates.betas_of_p and the bound curve."""
    kind = quantity.removeprefix("rate-")
    if kind in rates.RATE_KINDS:
        r = rates.rate_grid(kind, spec, noise, [p], gamma)
        return r.rate[0], r.beta_at_p[0], r.flags
    beta = float(rates.betas_of_p(spec, noise, [p])[0])
    if quantity == "beta":
        return beta, "", ()
    curve = rates.bound_curve(spec, quantity.removeprefix("bound-"))
    return curve.fn(beta), beta, curve.flags


def point_csv(quantity, ineq, noise, gamma, grid):
    """The CSV text of rows built point by point in ascending p, each float
    printed by _fmt; ValidationError if a point is refused."""
    spec = spec_by_name(ineq)
    rows = []
    for p in sorted(grid.tolist()):
        val, beta, flags = point_columns(quantity, spec, noise, gamma, p)
        rows.append([quantity, ineq, noise, cli._fmt(p),
                     "" if quantity == "beta" else cli._fmt(beta), cli._fmt(val),
                     " ".join(flags)])
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(cli.CSV_HEADER)
    writer.writerows(rows)
    return buf.getvalue()


GRID_QUANTITIES = ["beta", "bound-one", "bound-two"] + [f"rate-{k}" for k in rates.RATE_KINDS]


class TestGridRowsEqualPoints:
    """Each p-grid CSV, computed in one batched call, holds exactly the rows
    that per-point calls give, in ascending p."""

    GRID = "0:1:13"

    def check(self, tmp_path, capsys, argv, quantity, ineq, noise, gamma):
        grid = cli._parse_grid(self.GRID)
        path = tmp_path / "g.csv"
        code, out, err = run_cli(argv + ["--inequality", ineq, "--noise", noise,
                                         "--grid", self.GRID, "--out", str(path)], capsys)
        try:
            want = point_csv(quantity, ineq, noise, gamma, grid)
        except ValidationError:
            assert (code, out) == (2, "") and err.startswith("error: ")
            assert not path.exists()
            return
        assert (code, out, err) == (0, "", "")
        assert path.read_text(encoding="utf-8") == want

    @pytest.mark.parametrize("noise", ["local", "global"])
    @pytest.mark.parametrize("ineq", ["holz", "parity-chsh", "mabk", "chsh"])
    @pytest.mark.parametrize("quantity", GRID_QUANTITIES)
    def test_sweep(self, tmp_path, capsys, quantity, ineq, noise):
        gamma = 0.01 if quantity == "rate-dire-spot" else rates.GAMMA_DEFAULT
        extra = ["--gamma", "0.01"] if quantity == "rate-dire-spot" else []
        self.check(tmp_path, capsys, ["sweep", "--quantity", quantity] + extra,
                   quantity, ineq, noise, gamma)

    @pytest.mark.parametrize("noise", ["local", "global"])
    @pytest.mark.parametrize("ineq", ["holz", "parity-chsh", "mabk", "chsh"])
    @pytest.mark.parametrize("kind", rates.RATE_KINDS)
    def test_rate_grid(self, tmp_path, capsys, kind, ineq, noise):
        argv = ["rate", "--dicka"] if kind == "dicka" else ["rate", "--dire", kind[5:]]
        self.check(tmp_path, capsys, argv, f"rate-{kind}", ineq, noise, rates.GAMMA_DEFAULT)


class TestGridRowsEqualPointsDescending(TestGridRowsEqualPoints):
    """The same on a descending grid, whose p differ from the ascending
    grid's in the last bits: the rows come back sorted."""

    GRID = "1:0:13"

    def test_grid_is_descending_and_not_the_ascending_one(self):
        grid = cli._parse_grid(self.GRID)
        assert (np.diff(grid) < 0).all()
        assert not np.array_equal(grid[::-1], cli._parse_grid(TestGridRowsEqualPoints.GRID))


# every printed float follows one rule, pinned here by literal strings: 9
# significant digits, ".0" appended to text that reads as an integer
NUMBER_TEXTS = [(0.0, "0.0"), (-0.0, "-0.0"), (1.0, "1.0"), (123456789.0, "123456789.0"),
                (1234567890.0, "1.23456789e+09"), (1e-5, "1e-05"), (1e16, "1e+16"),
                (2.0 / 3.0, "0.666666667"), (5e-324, "4.94065646e-324"),
                (float("nan"), "nan"), (float("inf"), "inf"), (float("-inf"), "-inf")]


class TestNumberText:
    @pytest.mark.parametrize("x, want", NUMBER_TEXTS, ids=[t for _, t in NUMBER_TEXTS])
    def test_fmt(self, x, want):
        assert cli._fmt(x) == want

    def test_csv_column(self, tmp_path):
        xs = [x for x, _ in NUMBER_TEXTS]
        path = tmp_path / "n.csv"
        cli._write_csv(path, "q", "i", "", p=np.arange(len(xs), dtype=float), value=xs,
                       flags="")
        rows = list(csv.reader(path.read_text(encoding="utf-8").splitlines()))
        assert rows[0] == cli.CSV_HEADER
        assert [row[5] for row in rows[1:]] == [t for _, t in NUMBER_TEXTS]
        assert [row[3] for row in rows[1:]] == [f"{i}.0" for i in range(len(xs))]
        assert {row[4] for row in rows[1:]} == {""}


# what would make csv.writer quote a field; _write_csv joins its fields unquoted
CSV_SPECIAL = frozenset(',"\r\n')


def csv_writer_argvs():
    """Every CSV-writing command over each word it writes into a field: the
    quantity, inequality, noise kind and flags, each on a 3-point grid."""
    for ineq in INEQUALITIES:
        for outcome in ([], ["--two-outcome"], ["--recycled"]):
            yield ["bound", "--inequality", ineq, "--grid", "0:1.2:3"] + outcome
        for noise in ("local", "global"):
            where = ["--inequality", ineq, "--noise", noise, "--grid", "0.9:1:3"]
            for quantity in subparsers()["sweep"]._option_string_actions["--quantity"].choices:
                yield ["sweep", "--quantity", quantity] + where
            for kind in (["--dicka"], ["--dire", "spot"], ["--dire", "recycled"]):
                yield ["rate"] + kind + where
    for noise in ("local", "global"):
        yield ["sweep", "--quantity", "bound-one", "--inequality", "chsh", "--optimize-alpha",
               "--noise", noise, "--grid", "0.9:1:3"]
    for ineq in optimize.MINIMIZERS:
        yield ["optimize", "--inequality", ineq, "--grid", "1.1:1.3:3"]


class TestCsvNeedsNoQuoting:
    """_write_csv joins fields with commas and quotes none, as csv.writer
    does only while no field holds a comma, a quote or a line break."""

    def test_vocabulary(self):
        words = set(cli.CSV_HEADER) | set(INEQUALITIES) | {"local", "global"}
        words |= {f"bound-{outcome}" for outcome in ("one", "two", "recycled")}
        words |= {f"rate-{kind}" for kind in rates.RATE_KINDS}
        words |= set(subparsers()["sweep"]._option_string_actions["--quantity"].choices)
        for ineq in INEQUALITIES:
            for outcome in ("one", "two", "recycled"):
                try:
                    curve = rates.bound_curve(spec_by_name(ineq), outcome)
                except ValidationError:
                    continue
                words |= {curve.name, " ".join(curve.flags)}
        words |= set(cli._texts([x for x, _ in NUMBER_TEXTS]))
        assert not [word for word in words if CSV_SPECIAL & set(word)]

    def test_every_writer_round_trips(self, tmp_path, capsys, monkeypatch):
        # optimize's two flags, from a stand-in sweep whose middle solve failed
        monkeypatch.setattr(optimize, "sweep_two_outcome", lambda ineq, grid, cfg: [
            SimpleNamespace(entropy=0.5, converged=i != 1) for i in range(len(grid))])
        written, write = [], cli._write_csv

        def recorded(path, *fields, **columns):
            written.append((fields, columns["flags"]))
            return write(path, *fields, **columns)

        monkeypatch.setattr(cli, "_write_csv", recorded)
        commands, flags = set(), set()
        for argv in csv_writer_argvs():
            path = tmp_path / "w.csv"
            path.unlink(missing_ok=True)
            del written[:]
            code, _, _ = run_cli(argv + ["--out", str(path)], capsys)
            if code == 2:  # a refused combination writes nothing
                assert not path.exists() and not written
                continue
            assert code == 0 and len(written) == 1
            (fields, flag), = written
            assert not [f for f in fields if CSV_SPECIAL & set(f)]
            flags.update([flag] if isinstance(flag, str) else flag)
            text = path.read_text(encoding="utf-8")
            assert not CSV_SPECIAL & set(text.replace(",", "").replace("\n", ""))
            lines = text.split("\n")
            assert lines.pop() == ""
            with path.open(newline="", encoding="utf-8") as fh:
                assert list(csv.reader(fh)) == [line.split(",") for line in lines]
            assert {len(line.split(",")) for line in lines} == {len(cli.CSV_HEADER)}
            assert lines[0].split(",") == cli.CSV_HEADER and len(lines) == 4
            commands.add(argv[0])
        assert commands == {"bound", "sweep", "rate", "optimize"}
        assert {"non-certified", "non-certified infeasible", "conjectured"} <= flags
        assert not [f for f in flags if CSV_SPECIAL & set(f)]


class TestParserBuiltOnce:
    def test_main_builds_one_parser_per_process(self, monkeypatch, capsys):
        built = []
        build = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
        cli._parser.cache_clear()
        try:
            first = run_cli(["bound", "--inequality", "holz", "--beta", "1.5"], capsys)
            assert_usage_error(capsys, ["bound", "--inequality", "svetlichny"],
                               "--inequality")
            assert run_cli(["rate", "--dicka", "--p", "0.95"], capsys)[0] == 0
            assert run_cli(["bound", "--inequality", "holz", "--beta", "1.5"],
                           capsys) == first == (0, "1.0\n", "")
        finally:
            cli._parser.cache_clear()
        assert built == [1]

    def test_build_parser_returns_a_new_parser(self):
        assert cli.build_parser() is not cli.build_parser()

    def test_main_runs_the_command_patched_after_the_parser_was_built(self, monkeypatch,
                                                                      capsys):
        assert run_cli(["bound", "--beta", "1.2"], capsys)[0] == 0  # the parser exists
        reached = []
        monkeypatch.setattr(cli, "cmd_verify", lambda args: reached.append(args.samples) or 0)
        assert main(["verify", "--samples", "7"]) == 0
        assert reached == [7]


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

    @pytest.mark.parametrize("samples", [10**16, 10**20])
    def test_samples_numpy_cannot_allocate_rejected(self, capsys, samples):
        code, out, err = run_cli(["verify", "--samples", str(samples)], capsys)
        assert (code, out) == (2, "")
        assert err == f"error: --samples={samples} asks for more floats than numpy can allocate\n"

    def test_unexpected_failure_exits_one(self, capsys, monkeypatch):
        monkeypatch.setattr(verification, "run_all", lambda **k: [
            verification.CheckResult("fine", True, "ok detail"),
            verification.CheckResult("broken", False, "margin -1"),
            verification.CheckResult("known", False, "concave", expected_failure=True)])
        code, out, _ = run_cli(["verify", "--samples", "300"], capsys)
        assert code == 1
        assert out.splitlines() == ["[PASS] fine: ok detail", "[FAIL] broken: margin -1",
                                    "[KNOWN-FAIL] known: concave",
                                    "3 checks, 1 unexpected failures"]


def forbid_grid_work(monkeypatch, why):
    """Fail the test if any CLI grid path computes: the batched p-grid
    entries."""
    def boom(*a, **k):
        pytest.fail(why)

    monkeypatch.setattr(rates, "best_alpha_one_outcome", boom)
    monkeypatch.setattr(rates, "rate_grid", boom)
    monkeypatch.setattr(rates, "betas_of_p", boom)
    return boom


BAD_GRIDS = [
    ("1:2", "bad grid '1:2', expected start:stop:steps"),
    ("a:1:3", "bad grid 'a:1:3', expected start:stop:steps"),
    ("0:1:0", "grid needs at least one point"),
    ("0.5:inf:5", "--grid '0.5:inf:5' has a non-finite endpoint"),
    ("nan:1:5", "--grid 'nan:1:5' has a non-finite endpoint"),
    # numpy refuses either size at once, allocating nothing
    *[(f"0:1:{n}", f"--grid '0:1:{n}' asks for more floats than numpy can allocate")
      for n in (10**16, 10**20)],
]


class TestBadGrid:
    @pytest.mark.parametrize("grid, message", BAD_GRIDS)
    def test_refused_before_computing(self, tmp_path, capsys, monkeypatch, grid, message):
        forbid_grid_work(monkeypatch, "computed on a bad grid")
        path = tmp_path / "b.csv"
        code, out, err = run_cli(["bound", "--inequality", "holz", "--grid", grid,
                                  "--out", str(path)], capsys)
        assert (code, out) == (2, "")
        assert message in err
        assert not path.exists()

    @pytest.mark.parametrize("grid, message", BAD_GRIDS)
    @pytest.mark.parametrize("argv", [
        ["sweep", "--quantity", "beta"], ["sweep", "--quantity", "rate-dire-spot"],
        ["rate", "--dicka"], ["optimize", "--inequality", "holz"]])
    def test_p_grids_refused_before_computing(self, tmp_path, capsys, monkeypatch,
                                              argv, grid, message):
        boom = forbid_grid_work(monkeypatch, "computed on a bad grid")
        monkeypatch.setattr(optimize, "sweep_two_outcome", boom)
        path = tmp_path / "b.csv"
        code, out, err = run_cli(argv + ["--grid", grid, "--out", str(path)], capsys)
        assert (code, out) == (2, "")
        assert message in err
        assert "RuntimeWarning" not in err
        assert not path.exists()


class TestPlainFloatsInErrors:
    """A grid value or asym-CHSH alpha outside its domain is named as a plain
    float, not as a numpy scalar repr."""

    @pytest.mark.parametrize("argv, message", [
        (["sweep", "--quantity", "beta", "--grid", "0.5:1.2:5"],
         "error: depolarization parameter p=1.025 outside [0, 1]"),
        (["sweep", "--quantity", "rate-dire-spot", "--grid", "0.5:1.2:5"],
         "error: depolarization parameter p=1.025 outside [0, 1]"),
        (["rate", "--dicka", "--inequality", "chsh", "--grid", "0.5:1.2:5"],
         "error: depolarization parameter p=1.025 outside [0, 1]"),
        (["bound", "--inequality", "holz", "--grid", "1:2:5"],
         "error: beta=1.75 above the quantum bound 3/2"),
        (["sweep", "--quantity", "beta", "--inequality", "asym-chsh", "--alpha", "0", "--grid",
          "0.5:1:5"], "error: alpha=0.0 leaves the local bound at the quantum bound"),
    ])
    def test_message(self, tmp_path, capsys, argv, message):
        path = tmp_path / "e.csv"
        code, out, err = run_cli(argv + ["--out", str(path)], capsys)
        assert (code, out) == (2, "")
        assert err.strip() == message
        assert "np." not in err
        assert not path.exists()

    @pytest.mark.parametrize("argv, message", [
        (["optimize", "--inequality", "chsh", "--beta", "2.0"],
         "error: beta=2.0 outside (2.0, 2.8284271247461903] for chsh"),
        (["optimize", "--inequality", "parity-chsh", "--beta", "1.5"],
         "error: beta=1.5 outside (1.0, 1.4142135623730951] for parity-chsh"),
    ], ids=["chsh", "parity-chsh"])
    def test_optimize_message(self, capsys, argv, message):
        code, out, err = run_cli(argv, capsys)
        assert (code, out, err.strip()) == (2, "", message)

    def test_library_messages(self):
        with pytest.raises(ValidationError, match=r"p=1\.025 outside") as exc:
            rates.qber("local", np.float64(1.025))
        assert "np." not in str(exc.value)
        with pytest.raises(ValidationError, match=r"p=nan outside"):
            rates.betas_of_p(spec_by_name("holz"), "local", [0.5, np.nan])
        with pytest.raises(ValidationError, match=r"^beta=1\.75 above") as exc:
            bounds.holz_one_outcome(np.float64(1.75))
        assert "np." not in str(exc.value)
        with pytest.raises(ValidationError, match=r"^beta=3\.0 exceeds the quantum bound"
                                                   r" 2\.8284271247461903$"):
            bell.BellValue(3.0, bell.chsh())


@pytest.mark.parametrize("call, message", [
    (lambda: bounds.theta_x_domain(np.float64(1.2)), "beta=1.2 outside (sqrt2, 3/2]"),
    (lambda: bounds.solve_x(np.float64(1.2)), "beta=1.2 outside (sqrt2, 3/2]"),
    (lambda: bounds.solve_x(np.array([1.45, 1.6])), "beta=1.6 outside (sqrt2, 3/2]"),
    (lambda: bounds.theta(np.float64(1.45), np.float64(0.9)),
     "(beta=1.45, x=0.9) outside the theta domain"),
    (lambda: bounds.asym_chsh_one_outcome(2.5, np.float64(np.nan)), "alpha=nan is not finite"),
    (lambda: bounds.asym_chsh_one_outcome(np.float64(3.0), 1.0),
     "beta=3.0 above the quantum bound 2.8284271247461903"),
    (lambda: bounds.asym_chsh_one_outcome(1e300, np.float64(1e308)),
     "alpha=1e+308 has no finite quantum bound"),
    (lambda: rates.two_outcome_numeric("chsh", np.array([2.5, 3.0])),
     "beta=3.0 above the quantum bound 2.8284271247461903"),
    (lambda: bounds.holz_two_outcome(np.array([1.2, np.nan, 1.75])), "beta=nan is not finite"),
], ids=["theta_x_domain", "solve_x", "solve_x-grid", "theta", "asym-alpha", "asym-beta",
        "asym-alpha-overflow", "numeric", "holz-two-grid"])
def test_curve_errors_name_plain_floats(call, message):
    with pytest.raises(ValidationError) as exc:
        call()
    assert str(exc.value) == message


class TestGridNeedsOut:
    @pytest.mark.parametrize("argv", [
        ["bound", "--inequality", "holz", "--grid", "1:1.5:3"],
        ["rate", "--dicka", "--grid", "0.9:1:3"],
        ["optimize", "--inequality", "chsh", "--grid", "2.5:2.6:2",
         "--restarts", "2"],
    ])
    def test_fails_before_computing(self, capsys, monkeypatch, argv):
        boom = forbid_grid_work(monkeypatch, "computed without --out")
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
        forbid_grid_work(monkeypatch, "computed despite " + point)
        path = tmp_path / "g.csv"
        code, out, err = run_cli(argv + ["--out", str(path)], capsys)
        assert (code, out) == (2, "")
        assert point in err and "--grid" in err
        assert not path.exists()


def test_bound_two_outcome_excludes_recycled(capsys):
    assert_usage_error(capsys, ["bound", "--inequality", "chsh", "--beta", "2.7",
                                "--two-outcome", "--recycled"],
                       "--two-outcome", "--recycled")


OUT_ARGVS = [
    ["bound", "--inequality", "holz", "--grid", "1:1.5:3"],
    ["rate", "--dicka", "--grid", "0.9:1:3"],
    ["sweep", "--quantity", "beta", "--grid", "0.9:1:3"],
    ["optimize", "--inequality", "chsh", "--grid", "2.5:2.6:2"],
    ["optimize", "--regen-tables"],
]


def refused_out(argv, path, capsys, monkeypatch) -> str:
    """Run argv with --out path; assert exit 2 naming --out before computing."""
    boom = forbid_grid_work(monkeypatch, "computed although --out cannot be written")
    monkeypatch.setattr(optimize, "sweep_two_outcome", boom)
    monkeypatch.setattr(rates, "generate_two_outcome_table", boom)
    code, out, err = run_cli(argv + ["--out", str(path)], capsys)
    assert (code, out) == (2, "")
    assert "--out" in err
    return err


class TestOutDirectoryMissing:
    @pytest.mark.parametrize("argv", OUT_ARGVS)
    def test_fails_before_computing(self, tmp_path, capsys, monkeypatch, argv):
        path = tmp_path / "missing" / "out.csv"
        refused_out(argv, path, capsys, monkeypatch)
        assert not path.parent.exists()


class TestOutIsDirectory:
    @pytest.mark.parametrize("argv", OUT_ARGVS)
    def test_fails_before_computing(self, tmp_path, capsys, monkeypatch, argv):
        assert "is a directory" in refused_out(argv, tmp_path, capsys, monkeypatch)
        assert list(tmp_path.iterdir()) == []


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

    @pytest.mark.parametrize("argv", [["verify", "--samples", "200"],
                                      ["bound", "--inequality", "holz", "--beta", "1.2"],
                                      ["--help"], ["verify", "--help"]])
    def test_closed_pipe_exit_141(self, argv):
        # a stdout reader that has gone is not a crash: no traceback, and
        # the status a SIGPIPE kill reports, as `yes | head` gives; with
        # stdout buffered and unbuffered, where argparse fails differently
        for unbuffered in ("", "1"):
            read, write = os.pipe()
            os.close(read)
            try:
                proc = subprocess.run(RUN + argv, stdout=write, stderr=subprocess.PIPE,
                                      timeout=120, env=dict(ENV, PYTHONUNBUFFERED=unbuffered))
            finally:
                os.close(write)
            assert proc.stderr == b""
            assert proc.returncode == 141


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

        opt = SimpleNamespace(entropy=0.5, achieved_beta=1.0, converged=True,
                              restarts_used=1)
        monkeypatch.setattr(rates, "bound_curve", recorder("bound_curve", SimpleNamespace(
            name="curve", fn=recorder("fn", lambda beta: np.full(np.shape(beta), 0.5)),
            flags=())))
        monkeypatch.setattr(rates, "betas_of_p", recorder(
            "betas_of_p", lambda spec, noise, ps: np.full(len(ps), 2.0)))
        monkeypatch.setattr(rates, "rate_grid", recorder(
            "rate_grid", lambda kind, spec, noise, ps, gamma: SimpleNamespace(
                rate=np.full(len(ps), 0.5), beta_at_p=np.full(len(ps), 1.0),
                bound_used="curve", flags=())))
        monkeypatch.setattr(rates, "best_alpha_one_outcome", recorder(
            "best_alpha", lambda noise, ps: (np.ones(len(ps)), np.full(len(ps), 0.5),
                                             np.full(len(ps), 2.5))))
        monkeypatch.setattr(rates, "threshold_p", recorder("threshold_p", 0.9))
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


def readme_cli_results():
    """(argv, stated output) of each `tribell` line of README's `## CLI` block
    whose comment states its output after `->`."""
    text = Path(__file__).resolve().parents[1].joinpath("README.md").read_text()
    block = re.search(r"^```\n(.*?)^```", text.split("\n## CLI\n", 1)[1], flags=re.M | re.S)
    for line in block.group(1).replace("\\\n", " ").splitlines():
        command, _, comment = line.partition("#")
        if command.startswith("tribell ") and "->" in comment:
            yield shlex.split(command)[1:], comment.split("->", 1)[1].strip()


@pytest.mark.parametrize("argv, stated", list(readme_cli_results()),
                         ids=lambda x: " ".join(x) if isinstance(x, list) else x)
def test_readme_cli_results(capsys, argv, stated):
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    first = out.splitlines()[0]
    if stated.startswith("~"):  # rounds to the stated digits
        assert round(float(first), len(stated.partition(".")[2])) == float(stated[1:])
    else:
        assert first == stated
