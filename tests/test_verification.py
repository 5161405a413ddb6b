"""verification: check results as plain data."""

import dataclasses
import json
import re

import numpy as np
import pytest

from tribell import bell, verification
from tribell.centropy import cond_entropies
from tribell.errors import ValidationError
from tribell.qmath import kron_all
from tribell.states import X, Y, Z, BlockDiagState, _block_matrices, tau_state

import pins
from test_bell import random_block_states
from test_centropy import oracle_cond_entropy


def test_run_all_results_serialize_to_json():
    results = verification.run_all(200)
    for r in results:
        assert type(r.passed) is bool and type(r.expected_failure) is bool, r.name
    rows = json.loads(json.dumps([dataclasses.asdict(r) for r in results]))
    assert [row["name"] for row in rows] == [r.name for r in results]


def test_run_all_2000_lines_pinned():
    # pins.json's CLI entry pins the other lines of `tribell verify --samples
    # 2000`, which is run_all(2000, seed=11); its run_all entry holds these
    # five, whose errors at rounding level may move by their atol.  The
    # uncertainty relation is tight at its first draw, a tau(nu) state; the
    # honest rows attain the quantum bounds, and no row exceeds them; and
    # Appendix B's worst case is tau(nu)'s optimum, where the bound is tight
    (entry,) = pins.calls("run_all")
    assert pins.mismatches(entry) == []


def test_block_draws_alternate_concentrations():
    rho, t = verification._block_draws(np.random.default_rng(3), 2000)
    assert rho.shape == (2, 2, 2, 2000) and t.shape == (2, 2, 2000)
    assert np.all(rho >= 0.0) and np.allclose(rho.sum(axis=(0, 1, 2)), 1.0, rtol=0, atol=1e-15)
    assert np.all(np.abs(t) <= np.pi / 2)
    # concentration 0.35 gives the even states near-pure eigenvalues, 1.0 broad ones
    top = rho.reshape(8, -1).max(axis=0)
    assert top[0::2].mean() > top[1::2].mean() + 0.1


def test_appendix_b_passes_on_two_samples():
    # one of any two samples is tau(nu)'s optimum, on the violating side
    failed = [seed for seed in range(200) if not verification.check_appendix_b(2, seed).passed]
    assert failed == []


def test_appendix_b_passes_on_every_sample_count():
    # `tribell verify --samples n` runs check_appendix_b(n, 11)
    failed = [n for n in range(1, 201) if not verification.check_appendix_b(n, 11).passed]
    assert failed == []


@pytest.mark.parametrize("samples", [1, 2, 3, 50])
@pytest.mark.parametrize("seed", [0, 17, 21])
def test_uncertainty_reports_its_worst_case_at_the_bound(samples, seed):
    r = verification.check_uncertainty(samples, seed)
    assert r.passed and abs(float(r.detail.removeprefix("min margin "))) <= 1e-13, r.detail


@pytest.mark.parametrize("name", ["holz", "parity-chsh", "mabk", "chsh"])
@pytest.mark.parametrize("shift", [-1e-3, 1e-3])
def test_quantum_bounds_fail_on_a_misstated_bound(monkeypatch, name, shift):
    # below, some row overshoots; above, the honest row misses the bound
    spec = verification.spec_by_name(name)
    wrong = dataclasses.replace(spec, quantum_bound=spec.quantum_bound + shift)
    monkeypatch.setattr(verification, "spec_by_name", lambda n: wrong if n == name
                        else bell.spec_by_name(n))
    r = verification.check_quantum_bounds(samples=20, seed=3)
    assert r.passed is False, r.detail
    worst, gap = map(float, re.findall(r"-?\d\.\d+e[+-]\d+", r.detail))
    assert worst == pytest.approx(max(-shift, 0.0), abs=1e-12)
    assert gap == pytest.approx(1e-3, abs=1e-12)


def test_batched_z_entropy_matches_cond_entropy():
    # check_uncertainty's H(Z|E): the kernel on the block matrices
    rng = np.random.default_rng(29)
    states = random_block_states(60, 31)
    for rank in (1, 2, 3, 5):  # pure and rank-deficient block states
        for _ in range(10):
            rho = np.zeros(8)
            rho[rng.choice(8, size=rank, replace=False)] = rng.dirichlet([0.7] * rank)
            states.append(BlockDiagState(rho.reshape(2, 2, 2),
                                         rng.uniform(-np.pi, np.pi, size=(2, 2))))
    states.append(tau_state(1.0))
    states.append(tau_state(0.75))
    rho = _block_matrices(np.stack([st.rho for st in states], axis=-1),
                          np.stack([st.t for st in states], axis=-1))
    got = cond_entropies(rho, [0], Z[None])
    want = [oracle_cond_entropy(m, [0], [Z]) for m in rho]
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def test_appendix_c_fails_on_a_commuting_pair(monkeypatch):
    # XXX and YYX commute: a joint +1 eigenstate gives <A>^2 + <B>^2 = 2
    a, b = kron_all(X, X, X), kron_all(Y, Y, X)
    psi = np.linalg.eigh(a + b)[1][:, -1]
    assert sum(np.vdot(psi, m @ psi).real ** 2 for m in (a, b)) == pytest.approx(2.0)
    monkeypatch.setattr(verification, "_APPENDIX_C_PAIRS", (((X, X, X), (Y, Y, X)),) * 2)
    assert verification.check_appendix_c().passed is False


def test_appendix_c_holds_on_random_states():
    rho = verification.random_density_matrices(2000, 8, 67)
    for ops in verification._APPENDIX_C_PAIRS:
        a, b = (np.einsum("nij,ji->n", rho, kron_all(*m)).real for m in ops)
        assert np.max(a * a + b * b) <= 1.0 + 1e-12


def test_random_density_matrices_bits():
    (entry,) = pins.calls("random_density_matrices")
    rho = verification.random_density_matrices(entry["count"], entry["dim"], entry["seed"])
    assert rho.shape == (1000, 8, 8) and rho.dtype == complex
    assert pins.mismatches(entry) == []


@pytest.mark.parametrize("samples", [0, -5])
@pytest.mark.parametrize("check", [verification.run_all, verification.check_appendix_b,
                                   verification.check_uncertainty,
                                   verification.check_quantum_bounds])
def test_sampled_checks_refuse_fewer_than_one_sample(check, samples):
    with pytest.raises(ValidationError, match=rf"^samples={samples} is below 1$"):
        check(samples)


@pytest.mark.parametrize("nus", [[], np.empty(0), iter(())])
def test_verify_tightness_refuses_an_empty_nu_grid(nus):
    with pytest.raises(ValidationError, match=r"^verify_tightness needs at least one nu$"):
        verification.verify_tightness("holz", nus)


@pytest.mark.parametrize("grid", [2, 1, 0, -3])
def test_check_bound_curves_refuses_fewer_than_three_points(grid):
    with pytest.raises(ValidationError, match=rf"^grid={grid}: second differences need"):
        verification.check_bound_curves(grid=grid)


def test_check_bound_curves_takes_three_points():
    assert len(verification.check_bound_curves(grid=3)) == 9


def test_random_density_matrices_count():
    assert verification.random_density_matrices(0, 4, 3).shape == (0, 4, 4)
    with pytest.raises(ValidationError, match=r"^count=-5 is negative$"):
        verification.random_density_matrices(-5, 8, 1)
