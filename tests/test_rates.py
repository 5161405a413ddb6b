"""rates: honest violations, QBER, DICKA/DIRE rates, thresholds, tables."""

import json

import numpy as np
import pytest

from tribell import bounds, rates
from tribell.bell import asym_chsh, spec_by_name
from tribell.errors import NumericError, ValidationError
from tribell.rates import (beta_of_p, beta_of_p_closed_form, dicka_rate,
                           dire_rate_recycled, dire_rate_spot, qber,
                           qber_from_state, rate_function, threshold_p,
                           two_outcome_numeric)
from tribell.states import NoiseModel

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
        r = dicka_rate(spec_by_name("holz"), NoiseModel("local", 1.0))
        assert r.rate == pytest.approx(1.0, abs=1e-9)
        assert r.bound_used == "holz-one"
        assert not r.conjectured

    def test_holz_threshold_sign_change(self):
        fn = rate_function("dicka", "holz", "local")
        assert fn(0.93) < 0 < fn(0.94)

    def test_mabk_unsupported(self):
        with pytest.raises(ValidationError):
            dicka_rate(spec_by_name("mabk"), NoiseModel("local", 1.0))

    def test_asym_factor_half(self):
        r = dicka_rate(spec_by_name("asym-chsh"), NoiseModel("local", 1.0))
        assert r.rate == pytest.approx(0.5, abs=1e-9)  # (1 - h(0))/2


class TestDireSpot:
    def test_mabk_no_test_cost(self):
        r = dire_rate_spot(spec_by_name("mabk"), NoiseModel("global", 1.0), 0.0)
        assert r.rate == pytest.approx(2.0, abs=1e-12)
        assert r.bound_used == "mabk-two"

    def test_mabk_gamma_cost(self):
        gamma = 0.00033
        r = dire_rate_spot(spec_by_name("mabk"), NoiseModel("local", 1.0), gamma)
        oracle = 2.0 - 3.0 * gamma - h2(gamma)
        assert r.rate == pytest.approx(oracle, abs=1e-12)
        assert r.rate == pytest.approx(1.9947175, abs=1e-6)

    def test_holz_flags_conjectured(self):
        r = dire_rate_spot(spec_by_name("holz"), NoiseModel("local", 0.95), 0.0)
        assert r.conjectured
        assert "conjectured" in r.flags

    def test_numeric_tables_flagged(self):
        r = dire_rate_spot(spec_by_name("parity-chsh"), NoiseModel("local", 0.95), 0.0)
        assert "non-certified" in r.flags
        r = dire_rate_spot(spec_by_name("chsh"), NoiseModel("local", 0.95), 0.0)
        assert r.bound_used == "numeric:chsh-two"

    def test_gamma_zero_equals_bound(self):
        for ineq in ("mabk", "holz", "parity-chsh", "chsh"):
            spec = spec_by_name(ineq)
            nm = NoiseModel("local", 0.93)
            r = dire_rate_spot(spec, nm, 0.0)
            bound = rates.bound_curve(spec, "two").fn(beta_of_p(spec, nm))
            assert r.rate == bound

    def test_input_bit_costs(self):
        gamma = 0.01
        nm = NoiseModel("local", 1.0)
        for ineq, r_bits in (("mabk", 3), ("holz", 3), ("parity-chsh", 2),
                             ("chsh", 2)):
            spec = spec_by_name(ineq)
            with_g = dire_rate_spot(spec, nm, gamma).rate
            without = dire_rate_spot(spec, nm, 0.0).rate
            assert without - with_g == pytest.approx(
                r_bits * gamma + h2(gamma), abs=1e-12)

    def test_gamma_validation(self):
        with pytest.raises(ValidationError):
            dire_rate_spot(spec_by_name("mabk"), NoiseModel("local", 1.0), 1.5)


class TestDireRecycled:
    def test_noiseless(self):
        r = dire_rate_recycled(NoiseModel("global", 1.0))
        assert r.rate == pytest.approx(1.6008760, abs=1e-6)
        assert r.conjectured

    def test_zero_at_global_sqrt_half(self):
        r = dire_rate_recycled(NoiseModel("global", 2 ** -0.5))
        assert r.rate == pytest.approx(0.0, abs=1e-12)

    def test_zero_at_local_fourth_root(self):
        r = dire_rate_recycled(NoiseModel("local", 2 ** -0.25))
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
        tab = rates._load_tables()["curves"]
        for name, expect_hi in (("parity-chsh", 1.6008760), ("chsh", 1.6008760)):
            grid = np.array(tab[name]["beta"])
            vals = np.array(tab[name]["value"])
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
            r = dicka_rate(spec_by_name(ineq), nm)
            assert (r.bound_used, r.flags) == REGISTRY[(ineq, "one")]
        for ineq in ("holz", "parity-chsh", "mabk", "chsh"):
            r = dire_rate_spot(spec_by_name(ineq), nm, 0.0)
            assert (r.bound_used, r.flags) == REGISTRY[(ineq, "two")]
        r = dire_rate_recycled(nm)
        assert (r.bound_used, r.flags) == REGISTRY[("chsh", "recycled")]


class TestRateDispatch:
    def test_kinds(self):
        spec, nm = spec_by_name("holz"), NoiseModel("global", 0.97)
        assert rates.rate("dicka", spec, nm) == dicka_rate(spec, nm)
        assert rates.rate("dire-spot", spec, nm, 0.01) == dire_rate_spot(spec, nm, 0.01)
        assert rates.rate("dire-recycled", spec, nm) == dire_rate_recycled(nm)

    def test_unknown_kind(self):
        with pytest.raises(ValidationError):
            rates.rate("dire-batch", spec_by_name("holz"), NoiseModel("local", 1.0))


def _shipped_tables() -> dict:
    rates._load_tables.cache_clear()
    return json.loads(json.dumps(rates._load_tables()))


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
