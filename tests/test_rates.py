"""rates: honest violations, QBER, DICKA/DIRE rates, thresholds, tables."""

import dataclasses
import functools
import json
import re
from functools import partial
from importlib import resources

import numpy as np
import pytest

from tribell import bounds, rates, states
from tribell.bell import INEQUALITIES, asym_chsh, spec_by_name
from tribell.errors import NumericError, ValidationError
from tribell.qmath import kron_all
from tribell.rates import (beta_of_p_closed_form, betas_of_p, qber, rate_grid, threshold_p,
                           two_outcome_numeric)
from tribell.states import (I2, X, Y, Z, depolarize_global, depolarize_local, ghz_state,
                            observable_matrices)

import pins

SQRT2 = np.sqrt(2.0)


def beta_of_p(spec, noise, p):
    """The honest violation at one p: betas_of_p's one-point grid."""
    return float(betas_of_p(spec, noise, [p])[0])


def rate(kind, spec, noise, p, gamma=rates.GAMMA_DEFAULT):
    """The RateResult at one p: rate_grid's one-point grid, its arrays read
    as their one float."""
    r = rate_grid(kind, spec, noise, [p], gamma)
    return dataclasses.replace(r, rate=float(r.rate[0]), beta_at_p=float(r.beta_at_p[0]))


def h2(x):
    if x <= 0.0 or x >= 1.0:
        return 0.0
    return float(-x * np.log2(x) - (1 - x) * np.log2(1 - x))


class TestBetaOfP:
    @pytest.mark.parametrize("ineq", ["holz", "parity-chsh", "mabk", "chsh"])
    @pytest.mark.parametrize("noise", ["global"])
    def test_matrix_vs_closed_form(self, ineq, noise):
        # local betas_of_p is the closed form itself, clamped; it meets the
        # matrix construction in TestBetaOfPBitIdentical::test_beta_of_p
        spec = spec_by_name(ineq)
        ps = np.linspace(0.0, 1.0, 201)
        closed = beta_of_p_closed_form(spec, noise, ps)
        assert closed.shape == ps.shape
        np.testing.assert_allclose(betas_of_p(spec, noise, ps), closed, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("ineq, alpha", [
        ("holz", 1.0), ("parity-chsh", 1.0), ("mabk", 1.0), ("chsh", 1.0), ("asym-chsh", 0.3)])
    @pytest.mark.parametrize("noise", ["local", "global"])
    def test_closed_form_float_formula_bit_for_bit(self, ineq, alpha, noise):
        # a grid is elementwise the float's value, and a float the closed
        # form written on Python floats, p^2 and p^3 as the products p * p
        # and (p * p) * p
        spec = spec_by_name(ineq, alpha)
        qb = spec.quantum_bound
        formula = {"holz": lambda p: 0.75 * (p * p * p + p * p),
                   "parity-chsh": lambda p: (p * p * p + p * p) / SQRT2,
                   "mabk": lambda p: 4.0 * (p * p * p),
                   "asym-chsh": lambda p: qb * (p * p)}[spec.kind]
        ps = np.linspace(0.0, 1.0, 10001)
        got = [beta_of_p_closed_form(spec, noise, p) for p in ps.tolist()]
        assert all(type(b) is float for b in got)
        want = [qb * p if noise == "global" else formula(p) for p in ps.tolist()]
        np.testing.assert_array_equal(np.array(got).view(np.uint64),
                                      np.array(want).view(np.uint64))
        np.testing.assert_array_equal(beta_of_p_closed_form(spec, noise, ps).view(np.uint64),
                                      np.array(want).view(np.uint64))

    def test_asym_closed_form(self):
        spec = spec_by_name("asym-chsh", alpha=1.7)
        assert beta_of_p(spec, "local", 0.9) == pytest.approx(
            2 * np.hypot(1, 1.7) * 0.81, abs=1e-12)

    def test_named_points(self):
        assert beta_of_p(spec_by_name("mabk"), "local", 2 ** (-1 / 3)) \
            == pytest.approx(2.0, abs=1e-12)
        assert beta_of_p(spec_by_name("chsh"), "global", 2 ** -0.5) \
            == pytest.approx(2.0, abs=1e-12)
        assert beta_of_p(spec_by_name("holz"), "global", 2 / 3) \
            == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("noise_kind, p, message", [
        ("thermal", 0.5, "unknown noise kind"), ("local", np.nan, "p=nan outside"),
        ("global", 1.5, r"p=1\.5 outside")])
    def test_closed_form_refuses(self, noise_kind, p, message):
        with pytest.raises(ValidationError, match=message):
            beta_of_p_closed_form(spec_by_name("holz"), noise_kind, p)


def fresh_depolarize_local(rho, p, n):
    """depolarize_local with its Pauli strings built on every call."""
    c0 = (1.0 + 3.0 * p) / 4.0
    c1 = (1.0 - p) / 4.0
    out = rho
    for q in range(n):
        ops = [kron_all(*(P if j == q else I2 for j in range(n))) for P in (X, Y, Z)]
        out = c0 * out + c1 * sum(op @ out @ op for op in ops)
    return out


def fresh_beta_of_p(spec, noise, p):
    """The honest violation at p with every operator built on every call: the
    noise channel's Pauli strings and each Bell term's observable string,
    summed as written."""
    n = spec.parties
    rho = (fresh_depolarize_local(ghz_state(n), p, n) if noise == "local"
           else depolarize_global(ghz_state(n), p))

    def corr(*observables):
        op = kron_all(*(I2 if o is None else o for o in observables))
        return float(complex(np.trace(rho @ op)).real)

    angles, plane = spec.angles, spec.plane
    a0, a1, b0, b1 = (observable_matrices(plane, a) for a in angles[:4])
    if spec.kind == "asym-chsh":
        al = spec.alpha
        return (al * corr(a0, b0) + al * corr(a0, b1)
                + corr(a1, b0) - corr(a1, b1))
    c0, c1 = (observable_matrices(plane, a) for a in angles[4:])
    bp, bm = 0.5 * (b0 + b1), 0.5 * (b0 - b1)
    if spec.kind == "holz":
        cp, cm = 0.5 * (c0 + c1), 0.5 * (c0 - c1)
        return (corr(a1, bp, cp) - corr(a0, bm, None)
                - corr(a0, None, cm) - corr(None, bm, cm))
    if spec.kind == "parity-chsh":
        return corr(a1, bm, c0) + corr(a0, bp, None)
    return (corr(a0, b0, c1) + corr(a0, b1, c0)
            + corr(a1, b0, c0) - corr(a1, b1, c1))


# the most betas_of_p's local closed form may differ from the per-call
# matrix construction, in ulps of the quantum bound: 6 measured, Holz at
# 200001 p in [0, 1] (within 10 ulps of beta itself on p in [0.5, 1])
LOCAL_ORACLE_ULPS = 8


class TestBetaOfPBitIdentical:
    """betas_of_p has the bits of its definition: under global noise the
    per-call matrix construction's, under local noise the closed form's
    clamped to the quantum bound, within LOCAL_ORACLE_ULPS of the matrix
    construction."""

    PS = np.concatenate([np.linspace(0.0, 1.0, 2001),
                         np.random.default_rng(2024).random(500)])

    @pytest.mark.parametrize("ineq, alpha", [
        ("holz", 1.0), ("parity-chsh", 1.0), ("mabk", 1.0), ("chsh", 1.0),
        ("asym-chsh", 0.3), ("asym-chsh", 2.0)])
    @pytest.mark.parametrize("noise", ["local", "global"])
    def test_beta_of_p(self, ineq, alpha, noise):
        spec = spec_by_name(ineq, alpha)
        got = betas_of_p(spec, noise, self.PS)
        want = np.array([fresh_beta_of_p(spec, noise, p) for p in self.PS])
        if noise == "global":
            np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))
            return
        closed = np.minimum(beta_of_p_closed_form(spec, noise, self.PS), spec.quantum_bound)
        np.testing.assert_array_equal(got.view(np.uint64), closed.view(np.uint64))
        assert np.abs(got - want).max() <= LOCAL_ORACLE_ULPS * np.spacing(spec.quantum_bound)

    @pytest.mark.parametrize("n", [2, 3])
    def test_depolarize_local(self, n):
        rng = np.random.default_rng(n)
        for _ in range(50):
            g = rng.normal(size=(2 ** n, 2 ** n)) + 1j * rng.normal(size=(2 ** n, 2 ** n))
            rho = g @ g.conj().T
            rho /= np.trace(rho).real
            p = rng.random()
            got = depolarize_local(rho, p, n)
            np.testing.assert_array_equal(got.view(np.uint64),
                                          fresh_depolarize_local(rho, p, n).view(np.uint64))

    @pytest.mark.parametrize("ineq, alpha", [
        ("holz", 1.0), ("parity-chsh", 1.0), ("mabk", 1.0), ("chsh", 1.0),
        ("asym-chsh", 0.3), ("asym-chsh", 2.0)])
    @pytest.mark.parametrize("noise", ["local", "global"])
    def test_grid_equals_points(self, ineq, alpha, noise):
        spec = spec_by_name(ineq, alpha)
        got = betas_of_p(spec, noise, self.PS)
        want = np.array([beta_of_p(spec, noise, p) for p in self.PS])
        assert got.shape == want.shape
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_cached_operators_are_read_only(self):
        ops = list(rates._honest_terms(spec_by_name("holz"))[1])
        ops += [table for tables in states._pauli_conjugations(3) for table in tables]
        for op in ops:
            with pytest.raises(ValueError):
                op[0, 0] = 7.0
        assert beta_of_p(spec_by_name("holz"), "global", 1.0) == pytest.approx(1.5, abs=1e-12)
        np.testing.assert_array_equal(depolarize_local(ghz_state(3), 1.0, 3), ghz_state(3))


class TestLocalNoiseBuildsNoState:
    """Under local noise betas_of_p, rate_grid and threshold_p read the
    closed form alone: they run with the noiseless state and bell's sum of
    terms made to fail."""

    PS = np.linspace(0.0, 1.0, 201)

    @pytest.fixture(autouse=True)
    def no_state(self, monkeypatch):
        monkeypatch.setattr(rates, "_bell_sum", lambda *args: pytest.fail("summed Bell terms"))
        monkeypatch.setattr(rates, "_noiseless", lambda *args: pytest.fail("built a state"))

    @pytest.mark.parametrize("ineq, alpha", [
        ("holz", 1.0), ("parity-chsh", 1.0), ("mabk", 1.0), ("chsh", 1.0),
        ("asym-chsh", 0.3), ("asym-chsh", 2.0)])
    def test_betas_of_p(self, ineq, alpha):
        assert betas_of_p(spec_by_name(ineq, alpha), "local", self.PS).shape == self.PS.shape

    @pytest.mark.parametrize("ineq", sorted(INEQUALITIES))
    def test_rate_grid(self, ineq):
        spec = spec_by_name(ineq)
        for kind in rates.RATE_KINDS:
            try:
                rates.rate_curve(kind, spec, 0.0)
            except ValidationError:  # no such rate
                continue
            assert rate_grid(kind, spec, "local", self.PS, 0.0).rate.shape == self.PS.shape

    @pytest.mark.parametrize("entry", [e for e in pins.calls("threshold_p")
                                       if e["noise"] == "local"],
                             ids=lambda e: f"{e['kind']}-{e['inequality']}")
    def test_threshold_p(self, entry):
        assert pins.mismatches(entry) == []

    @pytest.mark.parametrize("ineq, ulps_below", [("holz", 0), ("mabk", 0), ("chsh", 0),
                                                  ("parity-chsh", 1)])
    def test_noiseless_is_the_quantum_bound(self, ineq, ulps_below):
        # 2/sqrt2 rounds one ulp below sqrt2
        spec = spec_by_name(ineq)
        qb = spec.quantum_bound
        assert beta_of_p(spec, "local", 1.0) == qb - ulps_below * np.spacing(qb)

    def test_holz_dire_spot_noiseless_runs_no_root(self, monkeypatch):
        # at beta = 3/2 exactly the curve's solve_x has no lane to solve
        lanes, roots = [], bounds.bracketed_roots
        monkeypatch.setattr(bounds, "bracketed_roots",
                            lambda f, lo, hi: lanes.append(len(lo)) or roots(f, lo, hi))
        rate_grid("dire-spot", spec_by_name("holz"), "local", [1.0], 0.0)
        assert lanes and not any(lanes)


class TestRateGrid:
    """rate_grid is its one-point grid at every p, whatever the type of the p
    it is given."""

    PS = [0.0, 0.3, 2 ** -0.5, 0.8, 0.93, 0.9999, 1.0]

    @pytest.mark.parametrize("kind", rates.RATE_KINDS)
    @pytest.mark.parametrize("ineq", ["holz", "parity-chsh", "mabk", "chsh"])
    @pytest.mark.parametrize("noise", ["local", "global"])
    def test_equals_rate(self, kind, ineq, noise):
        spec = spec_by_name(ineq)
        for ps in (self.PS, np.array(self.PS)):
            try:
                want = [rate(kind, spec, noise, p, 0.02) for p in ps]
            except ValidationError as exc:
                with pytest.raises(ValidationError, match=re.escape(str(exc))):
                    rates.rate_grid(kind, spec, noise, ps, 0.02)
                continue
            got = rates.rate_grid(kind, spec, noise, ps, 0.02)
            assert [x.hex() for x in got.rate.tolist()] == [r.rate.hex() for r in want]
            assert [x.hex() for x in got.beta_at_p.tolist()] \
                == [r.beta_at_p.hex() for r in want]
            assert {(got.bound_used, got.flags)} == {(r.bound_used, r.flags) for r in want}

    def test_every_p_checked_before_any_alpha_search(self, monkeypatch):
        monkeypatch.setattr(bounds, "best_alpha_bound",
                            lambda scale: pytest.fail("searched alpha"))
        with pytest.raises(ValidationError, match=r"p=1\.5 outside"):
            rates.rate_grid("dicka", spec_by_name("chsh"), "local", [0.9, 1.5])

    def test_asym_local_scale_is_p_squared_as_a_float(self):
        p = float.fromhex("0x1.b4f6633355186p-2")  # p * p is one ulp below p ** 2 here
        alpha, _, beta = rates.best_alpha_one_outcome("local", [p])
        assert beta[0] == 2.0 * np.hypot(1.0, alpha[0]) * (p * p)

    def test_asym_dicka_empty_grid(self):
        r = rates.rate_grid("dicka", spec_by_name("chsh"), "local", [])
        assert r.rate.shape == r.beta_at_p.shape == (0,)

    @pytest.mark.parametrize("noise", ["local", "global"])
    @pytest.mark.parametrize("ps", [np.linspace(0.0, 1.0, 21), np.linspace(1.0, 0.5, 11),
                                    [1.0, 0.97, 0.0, 0.93, 0.93, 2 ** -0.5, 0.95, 1.0]],
                             ids=["ascending", "descending", "duplicates"])
    def test_asym_dicka_grid_is_each_point_bit_for_bit(self, noise, ps):
        def hexes(searches):
            return [[x.hex() for x in arr.tolist()] for arr in searches]

        grid = hexes(rates.best_alpha_one_outcome(noise, ps))
        alone = [hexes(rates.best_alpha_one_outcome(noise, [p])) for p in ps]
        assert grid == [sum(column, []) for column in zip(*alone)]
        spec = spec_by_name("chsh")
        rows = rates.rate_grid("dicka", spec, noise, ps)
        points = [rate("dicka", spec, noise, p) for p in ps]
        assert [(r.hex(), b.hex(), rows.bound_used)
                for r, b in zip(rows.rate.tolist(), rows.beta_at_p.tolist())] \
            == [(r.rate.hex(), r.beta_at_p.hex(), r.bound_used) for r in points]
        assert (rows.rate.dtype, rows.beta_at_p.dtype) == (float, float)

    @pytest.mark.parametrize("args, message", [
        (("local", [[0.5]]), "1-d grid"),
        (("depolarizing", [0.5]), "unknown noise kind"),
        (("global", [0.5, -0.1]), r"p=-0\.1 outside"),
        (("local", [np.inf]), r"p=inf outside"),
    ])
    def test_betas_of_p_refuses(self, args, message):
        with pytest.raises(ValidationError, match=message):
            rates.betas_of_p(spec_by_name("holz"), *args)

    def test_betas_of_p_empty_grid(self):
        got = rates.betas_of_p(spec_by_name("holz"), "local", [])
        assert got.shape == (0,) and got.dtype == float

    @pytest.mark.parametrize("kind, ineq", [("dicka", "holz"), ("dicka", "parity-chsh"),
                                            ("dicka", "asym-chsh"), ("dire-spot", "holz"),
                                            ("dire-spot", "mabk"), ("dire-recycled", "chsh")])
    @pytest.mark.parametrize("noise", ["local", "global"])
    def test_grid_checked_once(self, monkeypatch, kind, ineq, noise):
        checked, check = [], rates._checked_grid
        monkeypatch.setattr(rates, "_checked_grid",
                            lambda *args: checked.append(args) or check(*args))
        for ps in ([0.9], self.PS):
            checked.clear()
            rates.rate_grid(kind, spec_by_name(ineq), noise, ps, 0.0)
            assert len(checked) == 1


def qber_from_state(noise, p, parties):
    """Q from first principles: the Z(x)Z disagreement probability of the
    first two parties on the depolarized GHZ/Bell state."""
    rho = (depolarize_local(ghz_state(parties), p, parties) if noise == "local"
           else depolarize_global(ghz_state(parties), p))
    zz = kron_all(Z, Z, *[I2] * (parties - 2))
    return (1.0 - np.trace(rho @ zz).real) / 2.0


class TestQber:
    @pytest.mark.parametrize("noise", ["local", "global"])
    def test_formula_vs_state(self, noise):
        for p in (0.6, 0.85, 1.0):
            assert qber(noise, p) == pytest.approx(qber_from_state(noise, p, 3), abs=1e-12)
            assert qber(noise, p) == pytest.approx(qber_from_state(noise, p, 2), abs=1e-12)

    def test_caption_formulas(self):
        assert qber("local", 0.9) == pytest.approx((1 - 0.81) / 2)
        assert qber("global", 0.9) == pytest.approx(0.05)

    def test_local_grid_is_the_float_formula_bit_for_bit(self):
        # p * p (and numpy's ps ** 2, which squares) is one ulp below p ** 2 at this p
        special = float.fromhex("0x1.b4f6633355186p-2")
        ps = np.concatenate([np.linspace(0.0, 1.0, 100001), [special],
                             np.random.default_rng(33).random(100000)])
        got = qber("local", ps)
        want = [(1.0 - p * p) / 2.0 for p in ps.tolist()]
        assert got.shape == ps.shape
        assert [q.hex() for q in got.tolist()] == [q.hex() for q in want]
        assert qber("local", special) == (1.0 - special * special) / 2.0
        assert type(qber("local", special)) is float

    @pytest.mark.parametrize("noise_kind, p, message", [
        ("bogus", 0.5, "unknown noise kind 'bogus'"), ("bogus", [0.5], "unknown noise kind"),
        ("local", np.nan, "p=nan outside"), ("global", [0.5, np.nan], "p=nan outside"),
        ("local", 1.5, r"p=1\.5 outside"), ("global", [[0.5]], "1-d grid")])
    def test_refuses(self, noise_kind, p, message):
        with pytest.raises(ValidationError, match=message):
            qber(noise_kind, p)


class TestDicka:
    def test_holz_noiseless(self):
        r = rate("dicka", spec_by_name("holz"), "local", 1.0)
        assert r.rate == pytest.approx(1.0, abs=1e-9)
        assert r.bound_used == "holz-one"
        assert r.flags == ()

    def test_holz_threshold_sign_change(self):
        below, above = rate_grid("dicka", spec_by_name("holz"), "local", [0.93, 0.94], 0.0).rate
        assert below < 0 < above

    def test_mabk_unsupported(self):
        with pytest.raises(ValidationError):
            rate("dicka", spec_by_name("mabk"), "local", 1.0)

    def test_asym_factor_half(self):
        r = rate("dicka", spec_by_name("asym-chsh"), "local", 1.0)
        assert r.rate == pytest.approx(0.5, abs=1e-9)  # (1 - h(0))/2


class TestDireSpot:
    def test_mabk_no_test_cost(self):
        r = rate("dire-spot", spec_by_name("mabk"), "global", 1.0, 0.0)
        assert r.rate == pytest.approx(2.0, abs=1e-12)
        assert r.bound_used == "mabk-two"

    def test_mabk_gamma_cost(self):
        gamma = 0.00033
        r = rate("dire-spot", spec_by_name("mabk"), "local", 1.0, gamma)
        oracle = 2.0 - 3.0 * gamma - h2(gamma)
        assert r.rate == pytest.approx(oracle, abs=1e-12)
        assert r.rate == pytest.approx(1.9947175, abs=1e-6)

    def test_holz_flags_conjectured(self):
        r = rate("dire-spot", spec_by_name("holz"), "local", 0.95, 0.0)
        assert "conjectured" in r.flags

    def test_numeric_tables_flagged(self):
        r = rate("dire-spot", spec_by_name("parity-chsh"), "local", 0.95, 0.0)
        assert "non-certified" in r.flags
        r = rate("dire-spot", spec_by_name("chsh"), "local", 0.95, 0.0)
        assert r.bound_used == "numeric:chsh-two"

    def test_gamma_zero_equals_bound(self):
        for ineq in ("mabk", "holz", "parity-chsh", "chsh"):
            spec = spec_by_name(ineq)
            r = rate("dire-spot", spec, "local", 0.93, 0.0)
            bound = rates.bound_curve(spec, "two").fn(beta_of_p(spec, "local", 0.93))
            assert r.rate == bound

    def test_input_bit_costs(self):
        gamma = 0.01
        for ineq, r_bits in (("mabk", 3), ("holz", 3), ("parity-chsh", 2),
                             ("chsh", 2)):
            spec = spec_by_name(ineq)
            with_g = rate("dire-spot", spec, "local", 1.0, gamma).rate
            without = rate("dire-spot", spec, "local", 1.0, 0.0).rate
            assert without - with_g == pytest.approx(
                r_bits * gamma + h2(gamma), abs=1e-12)

    def test_gamma_validation(self):
        with pytest.raises(ValidationError):
            rate("dire-spot", spec_by_name("mabk"), "local", 1.0, 1.5)


CHSH = spec_by_name("chsh")


class TestDireRecycled:
    def test_noiseless(self):
        r = rate("dire-recycled", CHSH, "global", 1.0)
        assert r.rate == pytest.approx(1.6008760, abs=1e-6)
        assert "conjectured" in r.flags

    def test_zero_at_global_sqrt_half(self):
        r = rate("dire-recycled", CHSH, "global", 2 ** -0.5)
        assert r.rate == pytest.approx(0.0, abs=1e-12)

    def test_zero_at_local_fourth_root(self):
        r = rate("dire-recycled", CHSH, "local", 2 ** -0.25)
        assert r.rate == pytest.approx(0.0, abs=1e-12)


# the asym-CHSH DICKA thresholds' float.hex() by noise kind, as pins.json records them
ASYM_DICKA = {e["noise"]: e["out"]["gamma=0.0"] for e in pins.calls("threshold_p")
              if (e["kind"], e["inequality"]) == ("dicka", "asym-chsh")}


# every (kind, inequality) with a threshold in the paper's tables
PAPER_RATES = [("dicka", "holz"), ("dicka", "parity-chsh"), ("dicka", "asym-chsh"),
               ("dire-spot", "mabk"), ("dire-spot", "parity-chsh"), ("dire-spot", "holz"),
               ("dire-spot", "chsh"), ("dire-recycled", "chsh")]
# the pins.json entries of the 16 paper thresholds (Tables 2 and 3, gamma = 0),
# which the CLI pins print to 9 digits, in the tables' order
PAPER_THRESHOLD_ENTRIES = sorted(
    (e for e in pins.calls("threshold_p") if (e["kind"], e["inequality"]) in PAPER_RATES),
    key=lambda e: PAPER_RATES.index((e["kind"], e["inequality"])))


# every (kind, inequality) whose rate reads a bound curve
CURVE_RATES = [("dicka", "holz"), ("dicka", "parity-chsh"), ("dire-spot", "mabk"),
               ("dire-spot", "parity-chsh"), ("dire-spot", "holz"), ("dire-spot", "chsh"),
               ("dire-recycled", "chsh")]


def bisected_threshold(kind, spec, noise, gamma):
    """Plain bisection on one-point rate_grid calls, run until no float lies
    between its ends: the smallest p evaluated whose rate is positive."""
    lo, hi = 0.0, 1.0
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        if rate(kind, spec, noise, mid, gamma).rate <= 0.0:
            lo = mid
        else:
            hi = mid
    assert hi == np.nextafter(lo, 1.0)
    return hi


@pytest.fixture(autouse=True)
def cold_asym_root():
    """Every test starts and ends without a kept asym-CHSH DICKA root, so a
    test that replaces rates._rates sees the root solved through it."""
    rates._asym_dicka_root.cache_clear()
    yield
    rates._asym_dicka_root.cache_clear()


def search_calls(monkeypatch) -> list:
    """Every call from now on of rates._rates, the function a threshold
    searches (rate_grid's own rates), as its p and its rates in two lists."""
    calls, rates_at = [], rates._rates

    def recorded(kind, spec, curve, noise, gamma, ps):
        values, betas = rates_at(kind, spec, curve, noise, gamma, ps)
        calls.append((np.asarray(ps).tolist(), values.tolist()))
        return values, betas

    monkeypatch.setattr(rates, "_rates", recorded)
    return calls


def proved_bracket(rates_by_p) -> tuple:
    """The bracket the rates evaluated so far (a dict p -> rate) prove: the
    smallest p whose rate is not <= 0 (a NaN is the high side), and the
    largest p evaluated below it."""
    hi = min(p for p, r in rates_by_p.items() if not r <= 0.0)
    return max(p for p in rates_by_p if p < hi), hi


def assert_probes(calls, result) -> None:
    """The search contract on calls, the (p, rates) lists of one search's
    calls in order: every call after the first evaluates sorted distinct p,
    none evaluated before, strictly inside the bracket the calls before it
    proved; result is the upper end of the last bracket, one ulp above its
    lower end."""
    rates_by_p = {}
    for ps, values in calls:
        if rates_by_p:
            lo, hi = proved_bracket(rates_by_p)
            assert ps == sorted(set(ps)) and not rates_by_p.keys() & set(ps)
            assert lo < ps[0] and ps[-1] < hi
        rates_by_p.update(zip(ps, values))
    lo, hi = proved_bracket(rates_by_p)
    assert result == hi == np.nextafter(lo, 1.0)


class TestThresholds:
    @pytest.mark.parametrize("entry", pins.calls("threshold_p"),
                             ids=lambda e: f"{e['kind']}-{e['inequality']}-{e['noise']}")
    def test_threshold_table(self, entry):
        # pins.json's thresholds, run here so that they also run in a process
        # of their own, each entry from a cold asym-CHSH root
        assert pins.mismatches(entry) == []

    @pytest.mark.parametrize("entry", PAPER_THRESHOLD_ENTRIES,
                             ids=lambda e: f"{e['kind']}-{e['inequality']}-{e['noise']}")
    def test_paper_threshold_bits(self, entry):
        thr = threshold_p(entry["kind"], spec_by_name(entry["inequality"]), entry["noise"],
                          gamma=0.0)
        assert type(thr) is float
        assert thr.hex() == entry["out"]["gamma=0.0"]

    def test_no_sign_change_error(self, monkeypatch):
        calls = search_calls(monkeypatch)
        with pytest.raises(NumericError, match=re.escape(
                "the dire-spot rate of mabk under local noise at gamma=0.45 does not"
                " change sign on p in [0, 1]: rate(p=0)=-2.34277, rate(p=1)=-0.342774")):
            threshold_p("dire-spot", spec_by_name("mabk"), "local", gamma=0.45)
        assert [len(ps) for ps, _ in calls] == [3]  # p = 0, p_cl and 1; the message costs no evaluation of its own

    def test_no_sign_change_error_one_lane(self, monkeypatch):
        sizes, rates_at = [], rates._rates

        def negative(kind, spec, curve, noise, gamma, ps):
            sizes.append(len(ps))
            values, betas = rates_at(kind, spec, curve, noise, gamma, ps)
            return -2.0 - values, betas

        monkeypatch.setattr(rates, "_rates", negative)
        # the message names the caller's noise kind, and a failed root is not kept
        for noise in ("global", "local", "global"):
            sizes.clear()
            with pytest.raises(NumericError, match=re.escape(
                    f"the dicka rate of asym-chsh(alpha=1.0) under {noise} noise at gamma=0.0"
                    " does not change sign on p in [0, 1]: rate(p=0)=-1.5, rate(p=1)=-2.5")):
                threshold_p("dicka", spec_by_name("asym-chsh"), noise)
            assert sizes == [4]  # the ends and both starts in one call, the message none

    @pytest.mark.parametrize("kind, ineq", [("dicka", "asym-chsh"), ("dire-spot", "holz")])
    def test_failure_inside_the_rate_passes_through(self, monkeypatch, kind, ineq):
        calls, rates_at = [], rates._rates

        def failing(*args):
            calls.append(args)
            if len(calls) == fail_at:
                raise NumericError("inner search failed")
            return rates_at(*args)

        # asym-chsh's root is one call, at the ends and around the shipped
        # root; holz's second call is its first call of probes inside the
        # bracket the first proved
        fail_at = 1 if ineq == "asym-chsh" else 2
        monkeypatch.setattr(rates, "_rates", failing)
        with pytest.raises(NumericError, match="^inner search failed$"):
            threshold_p(kind, spec_by_name(ineq), "local")
        assert len(calls) == fail_at

    @pytest.mark.parametrize("kind, ineq, noise, gamma",
                             [(k, i, n, 0.0)
                              for k, i in CURVE_RATES + [("dicka", "asym-chsh"), ("dicka", "chsh")]
                              for n in ("local", "global")]
                             + [("dire-spot", i, n, g) for i in ("holz", "parity-chsh", "mabk", "chsh")
                                for n in ("local", "global") for g in (3.3e-4, 0.01)])
    def test_equals_one_point_bisection(self, kind, ineq, noise, gamma):
        spec = spec_by_name(ineq)
        want = bisected_threshold(kind, spec, noise, gamma)
        assert threshold_p(kind, spec, noise, gamma).hex() == want.hex()

    @pytest.mark.parametrize("ineq", ["holz", "parity-chsh", "mabk", "chsh"])
    @pytest.mark.parametrize("noise", ["local", "global"])
    def test_dire_threshold_calls(self, monkeypatch, ineq, noise):
        # p = 0, p_cl and 1 in one call, then calls of probes inside the
        # bracket proved so far, which evaluate no p twice; rate_grid itself
        # is not called
        grid_calls = []
        calls = search_calls(monkeypatch)
        monkeypatch.setattr(rates, "rate_grid", lambda *args: grid_calls.append(args))
        got = threshold_p("dire-spot", spec_by_name(ineq), noise, gamma=0.0)
        assert len(calls[0][0]) == 3 and len(calls) > 1
        assert_probes(calls, got)
        assert grid_calls == []

    @pytest.mark.parametrize("ineq, noise, ends", [
        ("holz", "local", 2), ("holz", "global", 2),
        ("parity-chsh", "local", 2), ("parity-chsh", "global", 2),
        ("asym-chsh", "local", 2), ("asym-chsh", "global", 2),
        ("chsh", "local", 2), ("chsh", "global", 2)])
    def test_dicka_threshold_calls(self, monkeypatch, ineq, noise, ends):
        # the first call reads the two ends, p = 0 and 1, and the starts.
        # holz and parity-chsh read a bound curve: one start, p_cl, then
        # calls of probes inside the bracket proved so far.  asym-chsh and
        # chsh check the one root in s = p (the global rate's) under either
        # noise kind: the shipped root and the float below it, and no probe
        calls = search_calls(monkeypatch)
        got = threshold_p("dicka", spec_by_name(ineq), noise)
        if ineq in ("asym-chsh", "chsh"):
            assert [len(ps) for ps, _ in calls] == [ends + 2]
            assert_probes(calls, float.fromhex(ASYM_DICKA["global"]))
        else:
            assert len(calls[0][0]) == ends + 1 and len(calls) > 1
            assert_probes(calls, got)

    @pytest.mark.parametrize("kind, ineq, noise", [
        ("dicka", "holz", "local"), ("dicka", "parity-chsh", "global"),
        ("dire-spot", "mabk", "global"), ("dire-spot", "chsh", "local"),
        ("dire-recycled", "chsh", "global")])
    @pytest.mark.parametrize("shift", [-1e-6, 1e-6, 1.0])
    def test_seed_off_takes_the_fallback(self, monkeypatch, kind, ineq, noise, shift):
        # the search's start (its seed) moved off p_cl by 1e-6 either way, or
        # to the float below 1, whose rate is positive, so that the lane
        # searches [0, start]: the same bits from any bracket
        spec = spec_by_name(ineq)
        start = min(rates._classical_p(spec, noise) + shift, float(np.nextafter(1.0, 0.0)))
        assert shift != 1.0 or rate(kind, spec, noise, start, 0.0).rate > 0.0
        want = bisected_threshold(kind, spec, noise, 0.0)
        monkeypatch.setattr(rates, "_classical_p", lambda spec, noise: start)
        calls = search_calls(monkeypatch)
        assert threshold_p(kind, spec, noise).hex() == want.hex()
        assert len(calls[0][0]) == 3

    @pytest.mark.parametrize("first", ["local", "global"])
    def test_asym_dicka_root_solved_once(self, monkeypatch, first):
        calls = search_calls(monkeypatch)
        assert threshold_p("dicka", spec_by_name("asym-chsh"), first).hex() == ASYM_DICKA[first]
        solved = len(calls)
        for ineq in ("asym-chsh", "chsh"):
            for noise in ("local", "global"):
                for gamma in (0.0, 0.5, 1.0):
                    assert threshold_p("dicka", spec_by_name(ineq), noise, gamma).hex() \
                        == ASYM_DICKA[noise]
        assert len(calls) == solved

    @pytest.mark.parametrize("spec, noise, gamma, message", [
        (asym_chsh(0.9), "local", 0.0, "alpha must be 1"),
        (asym_chsh(0.9), "global", 0.0, "alpha must be 1"),
        (asym_chsh(1.0), "Global", 0.0, "unknown noise kind 'Global'"),
        (asym_chsh(1.0), "", 0.0, "unknown noise kind ''"),
        (asym_chsh(1.0), "global", 1.5, r"gamma=1.5 outside \[0, 1\]"),
        (asym_chsh(1.0), "local", -0.1, r"gamma=-0.1 outside \[0, 1\]"),
        (asym_chsh(1.0), "global", float("nan"), r"gamma=nan outside \[0, 1\]")])
    def test_arguments_checked_before_the_kept_root(self, monkeypatch, spec, noise, gamma,
                                                    message):
        threshold_p("dicka", spec_by_name("asym-chsh"), "global")
        calls = search_calls(monkeypatch)
        with pytest.raises(ValidationError, match=message):
            threshold_p("dicka", spec, noise, gamma)
        assert calls == []

    def test_shipped_asym_root_is_the_full_search(self):
        # _sign_change without a start searches [0, 1] on the global rate
        rates_at = partial(rates._rates, "dicka", asym_chsh(1.0), None, "global", 0.0)
        assert rates._sign_change(rates_at, ()).hex() == rates._ASYM_DICKA_ROOT.hex()

    def test_nan_rate_is_the_high_side(self):
        # a start whose rate is NaN is above the sign change, as in every
        # later call: next to a start whose rate is <= 0 it is the threshold
        def rates_at(ps):
            return np.where(ps == 0.5, np.nan, ps - 0.5), ps

        below = float(np.nextafter(0.5, 0.0))
        assert rates._sign_change(rates_at, (below, 0.5)) == 0.5

    @pytest.mark.parametrize("shift", [-1e-9, 1e-9])
    def test_asym_root_off_takes_the_fallback(self, monkeypatch, shift):
        # a shipped root 1e-9 off leaves the sign change outside its first
        # call: the search on the bracket that call proved gives both
        # thresholds' bits
        monkeypatch.setattr(rates, "_ASYM_DICKA_ROOT", rates._ASYM_DICKA_ROOT + shift)
        calls = search_calls(monkeypatch)
        for noise in ("local", "global"):
            rates._asym_dicka_root.cache_clear()
            calls.clear()
            got = threshold_p("dicka", spec_by_name("asym-chsh"), noise)
            assert len(calls[0][0]) == 4 and len(calls) > 1
            assert_probes(calls, float.fromhex(ASYM_DICKA["global"]))  # the root in s = p
            assert got.hex() == ASYM_DICKA[noise]

    @pytest.mark.parametrize("ineq", list(INEQUALITIES))
    @pytest.mark.parametrize("noise", ["local", "global"])
    def test_classical_p(self, monkeypatch, ineq, noise):
        # the largest float whose closed-form violation is classical, found
        # from the closed form alone: no state and no bound curve
        def refuse(*args):
            raise AssertionError("p_cl read a state or a bound curve")

        monkeypatch.setattr(rates, "_betas", refuse)
        monkeypatch.setattr(rates, "_rates", refuse)
        spec = spec_by_name(ineq)
        p_cl = rates._classical_p(spec, noise)
        assert type(p_cl) is float
        assert beta_of_p_closed_form(spec, noise, p_cl) <= spec.local_bound \
            < beta_of_p_closed_form(spec, noise, float(np.nextafter(p_cl, 1.0)))

    @pytest.mark.parametrize("s", [float.fromhex(ASYM_DICKA["global"]),
                                   1.0, 0.5, 0.81, 0.49, 2.0 ** -60, 0.7071067811865476])
    def test_least_p_is_the_smallest_float(self, s):
        # the float p found, and not the one below it, reaches s under each noise kind
        for noise in ("local", "global"):
            p = rates._least_p(noise, s)
            below = np.nextafter(p, 0.0)
            assert rates._honest_scale(noise, np.array([p]))[0] >= s
            assert rates._honest_scale(noise, np.array([below]))[0] < s

    @pytest.mark.parametrize("ulps", [-rates._LEAST_FLOAT_STEPS // 2, -1, 0, 1,
                                      rates._LEAST_FLOAT_STEPS // 2])
    def test_least_float_walks_from_a_near_guess(self, ulps):
        guess = float((np.array(0.5).view(np.int64) + ulps).view(float))
        assert rates._least_float(lambda x: x >= 0.5, guess) == 0.5

    @pytest.mark.parametrize("guess", [1.0, 0.25, 0.0])
    def test_least_float_refuses_a_far_guess(self, guess):
        # each guess is at least 2^52 floats from 0.5: the walk stops at its
        # bound and names the guess instead of stepping there float by float
        with pytest.raises(NumericError, match=re.escape(
                f"from the guess p={guess!r} walked {rates._LEAST_FLOAT_STEPS} floats")):
            rates._least_float(lambda x: x >= 0.5, guess)


def above(p, n):
    """The float n ulps above the non-negative float p."""
    return float((np.array(p).view(np.int64) + n).view(float))


def probed_search(rates_at, starts):
    """_sign_change's result on rates_at, a function from an array of p to
    their rates, and its calls as (p, rates) lists."""
    calls = []

    def recorded(ps):
        values = np.asarray(rates_at(ps), dtype=float)
        calls.append((ps.tolist(), values.tolist()))
        return values, ps

    return rates._sign_change(recorded, starts), calls


def bisection(rates_at, starts):
    """(result, calls) of plain bisection after _sign_change's first call,
    one midpoint a call until no float lies between the ends of the
    bracket."""
    ps = np.array([0.0, *starts, 1.0])
    k = int(np.argmax(~(rates_at(ps) <= 0.0)))
    (lo, hi), calls = ps[k - 1:k + 1].tolist(), 1
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        calls += 1
        if rates_at(np.array([mid]))[0] <= 0.0:
            lo = mid
        else:
            hi = mid
    return hi, calls


def _steps(t):
    return lambda ps: np.where(ps < t, -1.0, 1.0)


def _lines(t):
    below = np.nextafter(t, 0.0)
    return lambda ps: ps - below


PCL = rates._classical_p(spec_by_name("holz"), "local")
# (rates_at, starts, threshold) of sign changes monotone in p: a step and a
# line through known floats in brackets 1, 2, 16, 17, 18 and 2^52 floats
# wide, at each end of the bracket and inside it; a NaN, an infinite and a
# tiny high side; a flat zero low side; a sign change at p_cl's neighbour
MONOTONE = {
    **{f"{name}-{n}-wide-at-{at}": (shape(t), (0.25, above(0.25, n)), t)
       for n in (1, 2, 16, 17, 18, 2 ** 52)
       for at, t in (("first", above(0.25, 1)), ("middle", above(0.25, max(n // 2, 1))),
                     ("last", above(0.25, n)))
       for name, shape in (("steps", _steps), ("lines", _lines))},
    "nan-high-side": (lambda ps: np.where(ps == 1.0, 1.0, np.where(ps < 0.3, -1.0, np.nan)),
                      (), 0.3),
    "inf-high-side": (lambda ps: np.where(ps < 0.3, -1.0, np.inf), (), 0.3),
    "tiny-high-side": (lambda ps: np.where(ps < 0.3, -1.0, 5e-324), (0.1, 0.9), 0.3),
    "flat-zero-low-side": (lambda ps: np.maximum(ps - 0.7, 0.0), (0.5,), above(0.7, 1)),
    "p_cl-neighbour": (lambda ps: np.maximum(ps - PCL, 0.0), (PCL,), above(PCL, 1)),
    "p_cl-neighbour-below-zero": (lambda ps: np.where(ps <= PCL, -1.0, 1e-300), (PCL,),
                                  above(PCL, 1)),
    "near-zero": (lambda ps: ps - 1e-300, (), above(1e-300, 1)),
    "near-one": (_steps(np.nextafter(1.0, 0.0)), (), np.nextafter(1.0, 0.0)),
}
# rates whose sign changes more than once in p
NOT_MONOTONE = {
    "wiggle": (lambda ps: 2.0 * ps - 1.0 + 0.6 * np.sin(40.0 * ps), ()),
    "islands": (lambda ps: np.where(((ps > 0.2) & (ps < 0.21)) | (ps > 0.7), 1.0, -1.0),
                (0.5,)),
    "nan-islands": (lambda ps: np.where(ps == 1.0, 1.0, np.where(np.sin(1e3 * ps) > 0.0,
                                                                 np.nan, -1.0)), ()),
}


class TestSignChange:
    """_sign_change on synthetic rates: each call after the first evaluates
    sorted distinct p strictly inside the bracket proved so far, and the
    result, the upper end of the last bracket, is plain bisection's in no
    more calls."""

    @pytest.mark.parametrize("case", MONOTONE)
    def test_monotone_equals_bisection(self, case):
        rates_at, starts, want = MONOTONE[case]
        got, calls = probed_search(rates_at, starts)
        bisected, bisection_calls = bisection(rates_at, starts)
        assert got.hex() == bisected.hex() == float(want).hex()
        assert_probes(calls, got)
        assert len(calls) <= bisection_calls

    @pytest.mark.parametrize("n", [1, 2, 16, 17, 18])
    def test_narrow_bracket_is_scanned(self, n):
        # a bracket with at most 16 floats inside is evaluated whole in one
        # call, and one with 17 is not
        lo = 0.25
        _, calls = probed_search(_steps(above(lo, (n + 1) // 2)), (lo, above(lo, n)))
        inside = [above(lo, i) for i in range(1, n)]
        if n == 1:
            assert len(calls) == 1
        elif len(inside) <= 16:
            assert len(calls) == 2 and calls[1][0] == inside
        else:
            assert len(calls) > 2 and len(calls[1][0]) < len(inside)

    def test_p_cl_neighbour_in_two_calls(self):
        # a rate that is 0 up to p_cl: its secant point is p_cl, moved one
        # ulp inside, the threshold
        rates_at, starts, want = MONOTONE["p_cl-neighbour"]
        got, calls = probed_search(rates_at, starts)
        assert got == want and len(calls) == 2

    @pytest.mark.parametrize("case", NOT_MONOTONE)
    def test_not_monotone_keeps_the_contract(self, case):
        # the result is the smallest p evaluated whose rate is not <= 0, one
        # ulp above a p evaluated whose rate is
        rates_at, starts = NOT_MONOTONE[case]
        got, calls = probed_search(rates_at, starts)
        assert_probes(calls, got)
        rates_by_p = {p: r for ps, values in calls for p, r in zip(ps, values)}
        assert not rates_by_p[got] <= 0.0 and rates_by_p[np.nextafter(got, 0.0)] <= 0.0
        assert all(r <= 0.0 for p, r in rates_by_p.items() if p < got)

    def test_calls_over_the_pinned_thresholds(self, monkeypatch):
        # each of pins.json's threshold_p entries from a cold asym-CHSH root
        calls = search_calls(monkeypatch)
        for entry in pins.calls("threshold_p"):
            rates._asym_dicka_root.cache_clear()
            assert pins.mismatches(entry) == []
        assert len(calls) <= 600

    def test_calls_over_the_paper_thresholds(self, monkeypatch):
        calls = search_calls(monkeypatch)
        for entry in PAPER_THRESHOLD_ENTRIES:
            thr = threshold_p(entry["kind"], spec_by_name(entry["inequality"]), entry["noise"])
            assert thr.hex() == entry["out"]["gamma=0.0"]
        assert len(calls) <= 60


class TestMonotonicity:
    @pytest.mark.parametrize("kind,ineq", [
        ("dicka", "holz"), ("dicka", "parity-chsh"),
        ("dire-spot", "mabk"), ("dire-spot", "holz"),
        ("dire-spot", "parity-chsh"), ("dire-spot", "chsh"),
        ("dire-recycled", "chsh"),
    ])
    @pytest.mark.parametrize("noise", ["local", "global"])
    def test_rates_nonincreasing_as_p_decreases(self, kind, ineq, noise):
        ps = np.linspace(0.0, 1.0, 100)
        vals = rate_grid(kind, spec_by_name(ineq), noise, ps, 0.0).rate
        assert np.all(np.diff(vals) >= -1e-10)


class TestNumericTables:
    def test_monotone_and_endpoints(self):
        tab = rates._load_tables()
        for name, expect_hi in (("parity-chsh", 1.6008760), ("chsh", 1.6008760)):
            grid, vals = tab[name]
            assert not (grid.flags.writeable or vals.flags.writeable)
            assert len(grid) == 200
            assert vals[0] == 0.0
            assert np.all(np.diff(vals) >= 0.0)
            assert vals[-1] == pytest.approx(expect_hi, abs=1e-3)

    def test_interpolation_clamps_below_classical(self):
        assert two_outcome_numeric("parity-chsh", 0.9) == 0.0
        assert two_outcome_numeric("chsh", 1.5) == 0.0

    def test_unknown_table(self):
        with pytest.raises(ValidationError):
            two_outcome_numeric("mabk", 3.0)

    def test_curves_decorated_once(self, monkeypatch):
        # a call decorates nothing: each numeric curve is built once, at import
        wrapped, update_wrapper = [], functools.update_wrapper
        monkeypatch.setattr(functools, "update_wrapper",
                            lambda *args, **kw: wrapped.append(args) or update_wrapper(*args, **kw))
        for _ in range(2):
            two_outcome_numeric("parity-chsh", 1.3)
            two_outcome_numeric("chsh", np.array([2.1, 2.5]))
            rate_grid("dire-spot", spec_by_name("chsh"), "local", [0.95], 0.0)
        assert wrapped == []

    def test_regenerated_parity_table_is_chsh_table_at_half_beta(self):
        # the Parity-CHSH solve is CHSH's at 2 beta, and halving the grid's
        # ends halves every linspace point exactly
        parity = rates.generate_two_outcome_table("parity-chsh", 4, 2, 3)
        chsh = rates.generate_two_outcome_table("chsh", 4, 2, 3)
        assert parity["value"] == chsh["value"]
        assert parity["beta"] == [b / 2.0 for b in chsh["beta"]]

    @pytest.mark.parametrize("ineq", ["parity-chsh", "chsh"])
    def test_domain_checked(self, ineq):
        qb = spec_by_name(ineq).quantum_bound
        for beta in (np.nan, np.inf, qb + 1e-6):
            with pytest.raises(ValidationError):
                two_outcome_numeric(ineq, beta)


# (inequality, outcome) -> (name, flags) of every curve in the registry
REGISTRY = {
    ("holz", "one"): ("holz-one", ()),
    ("holz", "two"): ("holz-two", ("conjectured",)),
    ("parity-chsh", "one"): ("parity-chsh-one", ()),
    ("parity-chsh", "two"): ("numeric:parity-chsh-two", ("non-certified",)),
    ("mabk", "one"): ("mabk-one", ()),
    ("mabk", "two"): ("mabk-two", ()),
    ("chsh", "one"): ("asym-chsh-one(alpha=1.0)", ()),
    ("chsh", "two"): ("numeric:chsh-two", ("non-certified",)),
    ("chsh", "recycled"): ("colbeck-recycled", ("conjectured",)),
}


class TestBoundCurveRegistry:
    @pytest.mark.parametrize("ineq", ["holz", "parity-chsh", "mabk", "chsh"])
    @pytest.mark.parametrize("outcome", ["one", "two", "recycled"])
    def test_entries(self, ineq, outcome):
        spec = spec_by_name(ineq)
        if (ineq, outcome) not in REGISTRY:
            with pytest.raises(ValidationError):
                rates.bound_curve(spec, outcome)
            return
        curve = rates.bound_curve(spec, outcome)
        assert (curve.name, curve.flags) == REGISTRY[(ineq, outcome)]
        assert curve.domain == (spec.local_bound, spec.quantum_bound)
        lo, qb = curve.domain
        assert curve.fn(lo) == 0.0
        assert curve.fn(qb + 1e-10) == curve.fn(qb)  # clamped within the slack
        for beta in (np.nan, np.inf, qb + 1e-6):
            with pytest.raises(ValidationError):
                curve.fn(beta)

    def test_asym_alpha(self):
        curve = rates.bound_curve(asym_chsh(0.5), "one")
        assert curve.name == "asym-chsh-one(alpha=0.5)"
        assert curve.fn(2.2) == bounds.asym_chsh_one_outcome(2.2, 0.5)
        for outcome in ("two", "recycled"):
            with pytest.raises(ValidationError, match="alpha=1"):
                rates.bound_curve(asym_chsh(2.0), outcome)

    def test_unknown_outcome(self):
        with pytest.raises(ValidationError):
            rates.bound_curve(spec_by_name("holz"), "three")

    def test_rate_results_carry_curve(self):
        for ineq in ("holz", "parity-chsh"):
            r = rate("dicka", spec_by_name(ineq), "local", 0.95)
            assert (r.bound_used, r.flags) == REGISTRY[(ineq, "one")]
        for ineq in ("holz", "parity-chsh", "mabk", "chsh"):
            r = rate("dire-spot", spec_by_name(ineq), "local", 0.95, 0.0)
            assert (r.bound_used, r.flags) == REGISTRY[(ineq, "two")]
        r = rate("dire-recycled", spec_by_name("chsh"), "local", 0.95)
        assert (r.bound_used, r.flags) == REGISTRY[("chsh", "recycled")]


def floored_curves():
    """Every (inequality, outcome) whose registry curve bounds two outcomes."""
    pairs = []
    for ineq in INEQUALITIES:
        for outcome in ("two", "recycled"):
            try:
                rates.bound_curve(spec_by_name(ineq), outcome)
            except ValidationError:
                continue
            pairs.append((ineq, outcome))
    return pairs


class TestChainRuleFloor:
    """H(A0B0|E) = H(A0|E) + H(B0|A0E) >= H(A0|E), since B0 is classical, and
    H(AB|XYE) >= H(A|XE) for recycled inputs: every two-outcome and recycled
    curve is at or above its inequality's one-outcome curve."""

    def test_every_curve_is_checked(self):
        assert floored_curves() == [("holz", "two"), ("parity-chsh", "two"), ("mabk", "two"),
                                    ("chsh", "two"), ("chsh", "recycled"),
                                    ("asym-chsh", "two"), ("asym-chsh", "recycled")]

    @pytest.mark.parametrize("ineq, outcome", floored_curves())
    def test_not_below_the_one_outcome_curve(self, ineq, outcome):
        spec = spec_by_name(ineq)
        beta = np.linspace(spec.local_bound, spec.quantum_bound, 20001)
        gap = rates.bound_curve(spec, outcome).fn(beta) - rates.bound_curve(spec, "one").fn(beta)
        i = int(np.argmin(gap))
        assert gap[i] >= 0.0, f"beta={beta[i]!r}: {gap[i]:.3e} below the one-outcome curve"


class TestRateDispatch:
    def test_kinds(self):
        spec, p = spec_by_name("holz"), 0.97
        beta = beta_of_p(spec, "global", p)
        assert rate("dicka", spec, "global", p).rate \
            == pytest.approx(bounds.holz_one_outcome(beta) - h2(qber("global", p)), abs=1e-15)
        assert rate("dire-spot", spec, "global", p, 0.01).rate \
            == pytest.approx(bounds.holz_two_outcome(beta) - 3 * 0.01 - h2(0.01), abs=1e-15)
        chsh = spec_by_name("chsh")
        assert rate("dire-recycled", chsh, "global", p).rate \
            == bounds.colbeck_recycled_two_outcome(beta_of_p(chsh, "global", p))
        with pytest.raises(ValidationError, match="recycled"):
            rate("dire-recycled", spec, "global", p)

    def test_unknown_kind(self):
        with pytest.raises(ValidationError, match="unknown rate kind 'dire-batch'"):
            rate("dire-batch", spec_by_name("holz"), "local", 1.0)


def _shipped_tables() -> dict:
    shipped = resources.files("tribell").joinpath("data/two_outcome_numeric.json")
    return json.loads(shipped.read_text(encoding="utf-8"))


def _break(field, fn):
    def edit(data):
        fn(data["curves"]["chsh"][field])
    return edit


class TestTableFile:
    @pytest.fixture
    def use_file(self, tmp_path, monkeypatch):
        path = tmp_path / "tables.json"

        def use(text):
            path.write_text(text)
            monkeypatch.setenv(rates.TABLE_ENV, str(path))
            rates._load_tables.cache_clear()
            return path

        yield use
        monkeypatch.delenv(rates.TABLE_ENV, raising=False)
        rates._load_tables.cache_clear()

    def test_good_file_is_used(self, use_file):
        data = _shipped_tables()
        curve = data["curves"]["parity-chsh"]
        curve["value"] = [0.5 * v for v in curve["value"]]
        use_file(json.dumps(data))
        shipped = np.interp(1.3, curve["beta"], curve["value"])
        assert two_outcome_numeric("parity-chsh", 1.3) == pytest.approx(shipped)

    def test_last_knot_past_quantum_bound(self, use_file):
        # the loader accepts a last knot up to 1e-12 from qb; a beta within
        # the 1e-9 slack above qb reads the table at qb itself
        data = _shipped_tables()
        qb = spec_by_name("chsh").quantum_bound
        data["curves"]["chsh"]["beta"][-1] = qb + 1e-13
        use_file(json.dumps(data))
        at_qb = two_outcome_numeric("chsh", qb)
        assert at_qb < data["curves"]["chsh"]["value"][-1]
        assert two_outcome_numeric("chsh", qb + 1e-10) == at_qb

    @pytest.mark.parametrize("edit, why", [
        (lambda d: d["curves"].pop("parity-chsh"), "KeyError: 'parity-chsh'"),
        (lambda d: d.pop("curves"), "KeyError: 'curves'"),
        (_break("beta", lambda b: b.pop()), "differ in length"),
        (_break("value", lambda v: v.append(1.7)), "differ in length"),
        (_break("beta", lambda b: b.__setitem__(5, b[4])), "strictly increasing"),
        (_break("beta", lambda b: b.__setitem__(-1, 2.9)), "must run from"),
        (_break("beta", lambda b: b.__setitem__(0, 2.0 + 1e-9)), "must run from"),
        (_break("value", lambda v: v.__setitem__(0, 1e-6)), "is not 0"),
        (_break("value", lambda v: v.__setitem__(-1, 2.5)), r"leave \[0, 2\]"),
        (_break("value", lambda v: v.__setitem__(1, -1e-3)), r"leave \[0, 2\]"),
        (_break("value", lambda v: v.__setitem__(3, None)), r"leave \[0, 2\]"),
        (_break("value", lambda v: v.__setitem__(100, v[100] + 0.3)),
         "leave .* or decrease"),
        (lambda d: d["curves"]["chsh"].update(beta=[2.0], value=[0.0]),
         "1 point"),
    ])
    def test_malformed_rejected(self, use_file, edit, why):
        data = _shipped_tables()
        edit(data)
        path = use_file(json.dumps(data))
        with pytest.raises(ValidationError, match=str(path)) as info:
            two_outcome_numeric("chsh", 2.5)
        info.match(why)

    def test_unreadable_rejected(self, use_file):
        path = use_file("{not json")
        with pytest.raises(ValidationError, match=str(path)):
            two_outcome_numeric("chsh", 2.5)
