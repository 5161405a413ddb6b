"""CLI: commands, CSV format, determinism, exit codes."""

import subprocess
import sys

import numpy as np
import pytest

from tribell import bounds
from tribell.bell import spec_by_name
from tribell.cli import main

RUN = [sys.executable, "-m", "tribell.cli"]


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


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
        code, out, _ = run_cli(["rate", "--dire", "recycled", "--noise", "global",
                                "--p", "1.0"], capsys)
        assert code == 0
        assert float(out) == pytest.approx(1.6008760, abs=1e-6)

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
        code, out, _ = run_cli(["rate", "--dicka", "--inequality", "asym-chsh",
                                "--alpha", "1", "--p", "0.95"], capsys)
        assert code == 0
        assert out.strip() == "0.137485256"

    @pytest.mark.parametrize("argv", [
        ["rate", "--dicka", "--p", "0.95", "--alpha", "2"],
        ["threshold", "--rate", "dicka", "--alpha", "3"],
    ])
    def test_asym_dicka_alpha_rejected(self, capsys, argv):
        code, out, err = run_cli(argv + ["--inequality", "asym-chsh"], capsys)
        assert code == 2
        assert out == ""
        assert "alpha must be 1" in err


class TestThreshold:
    def test_holz_dicka_local(self, capsys):
        code, out, _ = run_cli(["threshold", "--rate", "dicka", "--inequality",
                                "holz", "--noise", "local"], capsys)
        assert code == 0
        assert float(out) == pytest.approx(0.934, abs=1e-3)

    @pytest.mark.parametrize("noise, want", [("local", "0.922846317"),
                                             ("global", "0.851644993")])
    def test_asym_chsh_dicka(self, capsys, noise, want):
        code, out, _ = run_cli(["threshold", "--rate", "dicka", "--inequality",
                                "asym-chsh", "--noise", noise], capsys)
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
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0
        float(proc.stdout)

    def test_usage_error_exit_2(self):
        proc = subprocess.run(RUN + ["bound", "--inequality", "svetlichny",
                                     "--beta", "1.0"],
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 2
