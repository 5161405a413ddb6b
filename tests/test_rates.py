"""rates: honest violations, QBER, DICKA/DIRE rates, thresholds, tables."""

import json
import re
from importlib import resources

import numpy as np
import pytest

from tribell import bounds, rates, states
from tribell.bell import INEQUALITIES, asym_chsh, spec_by_name
from tribell.errors import NumericError, ValidationError
from tribell.qmath import kron_all
from tribell.rates import (beta_of_p, beta_of_p_closed_form, qber, rate,
                           rate_function, threshold_p, two_outcome_numeric)
from tribell.states import (I2, NoiseModel, X, Y, Z, depolarize_global,
                            depolarize_local, ghz_state, observable_matrices)

SQRT2 = np.sqrt(2.0)


def h2(x):
    if x <= 0.0 or x >= 1.0:
        return 0.0
    return float(-x * np.log2(x) - (1 - x) * np.log2(1 - x))


class TestBetaOfP:
    @pytest.mark.parametrize("ineq", ["holz", "parity-chsh", "mabk", "chsh"])
    @pytest.mark.parametrize("noise", ["local", "global"])
    def test_matrix_vs_closed_form(self, ineq, noise):
        spec = spec_by_name(ineq)
        for p in np.linspace(0.0, 1.0, 11):
            nm = NoiseModel(noise, p)
            assert beta_of_p(spec, nm) == pytest.approx(
                beta_of_p_closed_form(spec, nm), abs=1e-12)

    def test_asym_closed_form(self):
        spec = spec_by_name("asym-chsh", alpha=1.7)
        nm = NoiseModel("local", 0.9)
        assert beta_of_p(spec, nm) == pytest.approx(
            2 * np.hypot(1, 1.7) * 0.81, abs=1e-12)

    def test_named_points(self):
        assert beta_of_p(spec_by_name("mabk"), NoiseModel("local", 2 ** (-1 / 3))) \
            == pytest.approx(2.0, abs=1e-12)
        assert beta_of_p(spec_by_name("chsh"), NoiseModel("global", 2 ** -0.5)) \
            == pytest.approx(2.0, abs=1e-12)
        assert beta_of_p(spec_by_name("holz"), NoiseModel("global", 2 / 3)) \
            == pytest.approx(1.0, abs=1e-12)


def fresh_depolarize_local(rho, p, n):
    """depolarize_local with its Pauli strings built on every call."""
    c0 = (1.0 + 3.0 * p) / 4.0
    c1 = (1.0 - p) / 4.0
    out = rho
    for q in range(n):
        ops = [kron_all(*(P if j == q else I2 for j in range(n))) for P in (X, Y, Z)]
        out = c0 * out + c1 * sum(op @ out @ op for op in ops)
    return out


def fresh_beta_of_p(spec, noise):
    """beta_of_p with every operator built on every call: the noise channel's
    Pauli strings and each Bell term's observable string, summed as written."""
    n = spec.parties
    rho = (fresh_depolarize_local(ghz_state(n), noise.p, n) if noise.kind == "local"
           else depolarize_global(ghz_state(n), noise.p))

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


class TestBetaOfPBitIdentical:
    """The operators beta_of_p builds once per process give the bits of the
    per-call construction."""

    PS = np.concatenate([np.linspace(0.0, 1.0, 2001),
                         np.random.default_rng(2024).random(500)])

    @pytest.mark.parametrize("ineq, alpha", [
        ("holz", 1.0), ("parity-chsh", 1.0), ("mabk", 1.0), ("chsh", 1.0),
        ("asym-chsh", 0.3), ("asym-chsh", 2.0)])
    @pytest.mark.parametrize("noise", ["local", "global"])
    def test_beta_of_p(self, ineq, alpha, noise):
        spec = spec_by_name(ineq, alpha)
        got = np.array([beta_of_p(spec, NoiseModel(noise, p)) for p in self.PS])
        want = np.array([fresh_beta_of_p(spec, NoiseModel(noise, p)) for p in self.PS])
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))

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
        got = rates.betas_of_p(spec, noise, self.PS)
        want = np.array([beta_of_p(spec, NoiseModel(noise, p)) for p in self.PS])
        assert got.shape == want.shape
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_cached_operators_are_read_only(self):
        ops = list(rates._honest_terms(spec_by_name("holz"))[1])
        ops += [op for string in states._pauli_strings(3) for op in string]
        for op in ops:
            with pytest.raises(ValueError):
                op[0, 0] = 7.0
        assert beta_of_p(spec_by_name("holz"), NoiseModel("local", 1.0)) \
            == pytest.approx(1.5, abs=1e-12)


class TestRateGrid:
    """rate_grid is rate at every p, whatever the type of the p it is given."""

    PS = [0.0, 0.3, 2 ** -0.5, 0.8, 0.93, 0.9999, 1.0]

    @pytest.mark.parametrize("kind", rates.RATE_KINDS)
    @pytest.mark.parametrize("ineq", ["holz", "parity-chsh", "mabk", "chsh"])
    @pytest.mark.parametrize("noise", ["local", "global"])
    def test_equals_rate(self, kind, ineq, noise):
        spec = spec_by_name(ineq)
        for ps in (self.PS, np.array(self.PS)):
            try:
                want = [rates.rate(kind, spec, NoiseModel(noise, p), 0.02) for p in ps]
            except ValidationError as exc:
                with pytest.raises(ValidationError, match=re.escape(str(exc))):
                    rates.rate_grid(kind, spec, noise, ps, 0.02)
                continue
            got = rates.rate_grid(kind, spec, noise, ps, 0.02)
            assert got == want
            assert [np.float64(r.rate).view(np.uint64) for r in got] \
                == [np.float64(r.rate).view(np.uint64) for r in want]

    def test_every_p_checked_before_any_alpha_search(self, monkeypatch):
        monkeypatch.setattr(bounds, "best_alpha_bound",
                            lambda scale: pytest.fail("searched alpha"))
        with pytest.raises(ValidationError, match=r"p=1\.5 outside"):
            rates.rate_grid("dicka", spec_by_name("chsh"), "local", [0.9, 1.5])

    def test_asym_local_scale_is_p_squared_as_a_float(self):
        p = float.fromhex("0x1.b4f6633355186p-2")  # p * p is one ulp below p ** 2 here
        alpha, _, beta = rates.best_alpha_one_outcome("local", [p])
        assert beta[0] == 2.0 * np.hypot(1.0, alpha[0]) * p ** 2

    def test_asym_dicka_empty_grid(self):
        assert rates.rate_grid("dicka", spec_by_name("chsh"), "local", []) == []

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
        points = [rate("dicka", spec, NoiseModel(noise, p)) for p in ps]
        assert [(r.rate.hex(), r.beta_at_p.hex(), r.bound_used) for r in rows] \
            == [(r.rate.hex(), r.beta_at_p.hex(), r.bound_used) for r in points]
        assert {(type(r.rate), type(r.beta_at_p)) for r in rows} == {(float, float)}

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


def qber_from_state(noise, parties):
    """Q from first principles: the Z(x)Z disagreement probability of the
    first two parties on the depolarized GHZ/Bell state."""
    rho = noise.apply(ghz_state(parties), parties)
    zz = kron_all(Z, Z, *[I2] * (parties - 2))
    return (1.0 - np.trace(rho @ zz).real) / 2.0


class TestQber:
    @pytest.mark.parametrize("noise", ["local", "global"])
    def test_formula_vs_state(self, noise):
        for p in (0.6, 0.85, 1.0):
            nm = NoiseModel(noise, p)
            assert qber(nm) == pytest.approx(qber_from_state(nm, 3), abs=1e-12)
            assert qber(nm) == pytest.approx(qber_from_state(nm, 2), abs=1e-12)

    def test_caption_formulas(self):
        assert qber(NoiseModel("local", 0.9)) == pytest.approx((1 - 0.81) / 2)
        assert qber(NoiseModel("global", 0.9)) == pytest.approx(0.05)


class TestDicka:
    def test_holz_noiseless(self):
        r = rate("dicka", spec_by_name("holz"), NoiseModel("local", 1.0))
        assert r.rate == pytest.approx(1.0, abs=1e-9)
        assert r.bound_used == "holz-one"
        assert r.flags == ()

    def test_holz_threshold_sign_change(self):
        fn = rate_function("dicka", "holz", "local")
        assert fn(0.93) < 0 < fn(0.94)

    def test_mabk_unsupported(self):
        with pytest.raises(ValidationError):
            rate("dicka", spec_by_name("mabk"), NoiseModel("local", 1.0))

    def test_asym_factor_half(self):
        r = rate("dicka", spec_by_name("asym-chsh"), NoiseModel("local", 1.0))
        assert r.rate == pytest.approx(0.5, abs=1e-9)  # (1 - h(0))/2


class TestDireSpot:
    def test_mabk_no_test_cost(self):
        r = rate("dire-spot", spec_by_name("mabk"), NoiseModel("global", 1.0), 0.0)
        assert r.rate == pytest.approx(2.0, abs=1e-12)
        assert r.bound_used == "mabk-two"

    def test_mabk_gamma_cost(self):
        gamma = 0.00033
        r = rate("dire-spot", spec_by_name("mabk"), NoiseModel("local", 1.0), gamma)
        oracle = 2.0 - 3.0 * gamma - h2(gamma)
        assert r.rate == pytest.approx(oracle, abs=1e-12)
        assert r.rate == pytest.approx(1.9947175, abs=1e-6)

    def test_holz_flags_conjectured(self):
        r = rate("dire-spot", spec_by_name("holz"), NoiseModel("local", 0.95), 0.0)
        assert "conjectured" in r.flags

    def test_numeric_tables_flagged(self):
        r = rate("dire-spot", spec_by_name("parity-chsh"), NoiseModel("local", 0.95), 0.0)
        assert "non-certified" in r.flags
        r = rate("dire-spot", spec_by_name("chsh"), NoiseModel("local", 0.95), 0.0)
        assert r.bound_used == "numeric:chsh-two"

    def test_gamma_zero_equals_bound(self):
        for ineq in ("mabk", "holz", "parity-chsh", "chsh"):
            spec = spec_by_name(ineq)
            nm = NoiseModel("local", 0.93)
            r = rate("dire-spot", spec, nm, 0.0)
            bound = rates.bound_curve(spec, "two").fn(beta_of_p(spec, nm))
            assert r.rate == bound

    def test_input_bit_costs(self):
        gamma = 0.01
        nm = NoiseModel("local", 1.0)
        for ineq, r_bits in (("mabk", 3), ("holz", 3), ("parity-chsh", 2),
                             ("chsh", 2)):
            spec = spec_by_name(ineq)
            with_g = rate("dire-spot", spec, nm, gamma).rate
            without = rate("dire-spot", spec, nm, 0.0).rate
            assert without - with_g == pytest.approx(
                r_bits * gamma + h2(gamma), abs=1e-12)

    def test_gamma_validation(self):
        with pytest.raises(ValidationError):
            rate("dire-spot", spec_by_name("mabk"), NoiseModel("local", 1.0), 1.5)


CHSH = spec_by_name("chsh")


class TestDireRecycled:
    def test_noiseless(self):
        r = rate("dire-recycled", CHSH, NoiseModel("global", 1.0))
        assert r.rate == pytest.approx(1.6008760, abs=1e-6)
        assert "conjectured" in r.flags

    def test_zero_at_global_sqrt_half(self):
        r = rate("dire-recycled", CHSH, NoiseModel("global", 2 ** -0.5))
        assert r.rate == pytest.approx(0.0, abs=1e-12)

    def test_zero_at_local_fourth_root(self):
        r = rate("dire-recycled", CHSH, NoiseModel("local", 2 ** -0.25))
        assert r.rate == pytest.approx(0.0, abs=1e-12)


class TestThresholds:
    def test_parity_dicka_local(self):
        thr = threshold_p(rate_function("dicka", "parity-chsh", "local"))
        assert thr == pytest.approx(0.936, abs=1e-3)

    def test_holz_dire_local(self):
        thr = threshold_p(rate_function("dire-spot", "holz", "local", gamma=0.0))
        assert thr == pytest.approx(0.849, abs=1e-3)

    def test_parity_dire_local(self):
        thr = threshold_p(rate_function("dire-spot", "parity-chsh", "local",
                                        gamma=0.0))
        assert thr == pytest.approx(0.870, abs=1e-3)

    def test_analytic_cross_checks(self):
        cases = [
            ("dire-spot", "mabk", "local", 2 ** (-1 / 3)),
            ("dire-spot", "mabk", "global", 0.5),
            ("dire-spot", "holz", "global", 2 / 3),
            ("dire-recycled", "chsh", "local", 2 ** -0.25),
            ("dire-recycled", "chsh", "global", 2 ** -0.5),
        ]
        for kind, ineq, noise, expect in cases:
            thr = threshold_p(rate_function(kind, ineq, noise, gamma=0.0))
            assert thr == pytest.approx(expect, abs=1e-6)

    def test_no_sign_change_error(self):
        fn = rate_function("dire-spot", "mabk", "local", gamma=0.45)
        with pytest.raises(NumericError):
            threshold_p(fn)


class TestMonotonicity:
    @pytest.mark.parametrize("kind,ineq", [
        ("dicka", "holz"), ("dicka", "parity-chsh"),
        ("dire-spot", "mabk"), ("dire-spot", "holz"),
        ("dire-spot", "parity-chsh"), ("dire-spot", "chsh"),
        ("dire-recycled", "chsh"),
    ])
    @pytest.mark.parametrize("noise", ["local", "global"])
    def test_rates_nonincreasing_as_p_decreases(self, kind, ineq, noise):
        fn = rate_function(kind, ineq, noise, gamma=0.0)
        ps = np.linspace(0.0, 1.0, 100)
        vals = np.array([fn(p) for p in ps])
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
        nm = NoiseModel("local", 0.95)
        for ineq in ("holz", "parity-chsh"):
            r = rate("dicka", spec_by_name(ineq), nm)
            assert (r.bound_used, r.flags) == REGISTRY[(ineq, "one")]
        for ineq in ("holz", "parity-chsh", "mabk", "chsh"):
            r = rate("dire-spot", spec_by_name(ineq), nm, 0.0)
            assert (r.bound_used, r.flags) == REGISTRY[(ineq, "two")]
        r = rate("dire-recycled", spec_by_name("chsh"), nm)
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
        spec, nm = spec_by_name("holz"), NoiseModel("global", 0.97)
        beta = beta_of_p(spec, nm)
        assert rates.rate("dicka", spec, nm).rate \
            == pytest.approx(bounds.holz_one_outcome(beta) - h2(qber(nm)), abs=1e-15)
        assert rates.rate("dire-spot", spec, nm, 0.01).rate \
            == pytest.approx(bounds.holz_two_outcome(beta) - 3 * 0.01 - h2(0.01), abs=1e-15)
        chsh = spec_by_name("chsh")
        assert rates.rate("dire-recycled", chsh, nm).rate \
            == bounds.colbeck_recycled_two_outcome(beta_of_p(chsh, nm))
        with pytest.raises(ValidationError, match="recycled"):
            rates.rate("dire-recycled", spec, nm)

    def test_unknown_kind(self):
        with pytest.raises(ValidationError):
            rates.rate("dire-batch", spec_by_name("holz"), NoiseModel("local", 1.0))


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
