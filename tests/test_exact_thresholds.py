"""Exact thresholds: each float threshold whose curve is a closed form or
a shipped table, at every gamma of pins.json's threshold_p entries, against
the smallest float p whose rate, evaluated in 40-digit mpmath at that p, is
positive.

The exact rate reads the closed-form honest violation beta(p) (q p under
global noise, the local forms of rates._closed_form as exact polynomials),
the curve's formula or exact linear interpolation between the table's float
knots, and then subtracts the QBER's h((1 - s)/2) (DICKA) or the test cost
input_bits gamma + h(gamma), gamma the float itself (DIRE-spot).  The
DIRE-recycled rate, of CHSH and of asym-CHSH at alpha = 1 alike, is the
recycled-input bound itself: 0 at beta <= 2 and positive above it (a line,
then colbeck_g1), so its sign is that of beta - 2.  Bisection over the floats of [0, 1] on the sign gives the exact
threshold, which the library's float must meet within MAX_ULPS.  The DICKA
and DIRE-recycled rates read no gamma: the exact threshold is found once,
and the library's float is the same at every gamma.  At gamma = 0.9 no
DIRE-spot rate changes sign.  Global-noise thresholds read the matrix
path's beta, which can round a few ulps off the closed form."""

import functools
import struct

import pytest

from tribell import rates
from tribell.bell import spec_by_name

import pins

mp = pytest.importorskip("mpmath")

MAX_ULPS = 3
GAMMAS = pins.calls("threshold_p")[0]["gamma"]
CASES = [(kind, ineq, noise, gamma)
         for kind, ineq in (("dicka", "holz"), ("dicka", "parity-chsh"), ("dire-spot", "mabk"),
                            ("dire-spot", "parity-chsh"), ("dire-spot", "chsh"),
                            ("dire-recycled", "chsh"), ("dire-recycled", "asym-chsh"))
         for noise in ("local", "global")
         for gamma in GAMMAS if not (kind == "dire-spot" and gamma == 0.9)]


def _bits(p: float) -> int:
    return struct.unpack("<q", struct.pack("<d", p))[0]


def _float(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<q", bits))[0]


def _xlog2x(x):
    return mp.mpf(0) if x == 0 else x * mp.log(x, 2)


def _h(x):
    return mp.mpf(0) if x <= 0 or x >= 1 else -_xlog2x(x) - _xlog2x(1 - x)


def _beta(ineq, noise, p):
    if noise == "global":
        return {"holz": mp.mpf(3) / 2, "parity-chsh": mp.sqrt(2), "mabk": mp.mpf(4),
                "chsh": 2 * mp.sqrt(2), "asym-chsh": 2 * mp.sqrt(2)}[ineq] * p
    return {"holz": mp.mpf(3) / 4 * (p**3 + p**2), "parity-chsh": (p**3 + p**2) / mp.sqrt(2),
            "mabk": 4 * p**3, "chsh": 2 * mp.sqrt(2) * p**2,
            "asym-chsh": 2 * mp.sqrt(2) * p**2}[ineq]


def _table(ineq, beta):
    """Exact linear interpolation between the table's float knots; 0 at or
    below the first."""
    knots, values = (list(map(mp.mpf, a.tolist())) for a in rates._load_tables()[ineq])
    if beta <= knots[0]:
        return mp.mpf(0)
    i = next(i for i in range(1, len(knots)) if beta <= knots[i])
    return values[i - 1] + (values[i] - values[i - 1]) * (beta - knots[i - 1]) \
        / (knots[i] - knots[i - 1])


def _one(ineq, beta):
    if beta <= 1:
        return mp.mpf(0)
    if ineq == "holz":
        return 1 - _h((beta + 1 + mp.sqrt(beta**2 + 2 * beta - 3)) / 4)
    return 1 - _h(mp.mpf(1) / 2 + mp.sqrt(beta**2 - 1) / 2)  # parity-chsh


def _two(ineq, beta):
    if ineq != "mabk":
        return _table(ineq, beta)
    if beta <= 2:
        return mp.mpf(0)
    f = mp.mpf(1) / 4 - mp.sqrt(3 * (beta**2 - 4)) / 24  # exactly 0 at beta = 4
    return 2 + _xlog2x(1 - 3 * f) + 3 * _xlog2x(f)


def _rate(kind, ineq, noise, gamma, p):
    """The exact signed rate at the float p and the float gamma."""
    p = mp.mpf(p)
    beta = _beta(ineq, noise, p)
    if kind == "dire-recycled":  # only the bound's sign is read
        return max(beta - 2, mp.mpf(0))
    if kind == "dire-spot":
        gamma = mp.mpf(gamma)
        return _two(ineq, beta) - spec_by_name(ineq).input_bits * gamma - _h(gamma)
    s = p if noise == "global" else p * p
    return _one(ineq, beta) - _h((1 - s) / 2)


@functools.lru_cache(maxsize=None)
def _exact_threshold(kind, ineq, noise, gamma) -> float:
    """The smallest float p in [0, 1] whose exact rate is positive."""
    lo, hi = _bits(0.0), _bits(1.0)
    with mp.workdps(40):
        assert _rate(kind, ineq, noise, gamma, 0.0) <= 0 < _rate(kind, ineq, noise, gamma, 1.0)
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if _rate(kind, ineq, noise, gamma, _float(mid)) > 0:
                hi = mid
            else:
                lo = mid
    return _float(hi)


@pytest.mark.parametrize("kind, ineq, noise, gamma", CASES,
                         ids=["-".join(c[:3]) + (f"-gamma={c[3]!r}" if c[3] else "")
                              for c in CASES])
def test_within_ulps_of_the_exact_float(kind, ineq, noise, gamma):
    got = rates.threshold_p(kind, spec_by_name(ineq), noise, gamma)
    if kind != "dire-spot":  # no gamma in the rate: one exact float, and one library float
        assert got.hex() == rates.threshold_p(kind, spec_by_name(ineq), noise, 0.0).hex()
        gamma = 0.0
    exact = _exact_threshold(kind, ineq, noise, gamma)
    ulps = _bits(got) - _bits(exact)
    assert abs(ulps) <= MAX_ULPS, \
        f"{kind} {ineq} {noise} gamma={gamma!r}: {got.hex()} is {ulps:+d} ulps" \
        f" from the exact {exact.hex()}"
