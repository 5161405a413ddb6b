"""verification: check results as plain data."""

import dataclasses
import json
import re
import tracemalloc

import numpy as np
import pytest

from tribell import verification
from tribell.centropy import cond_entropies
from tribell.errors import ValidationError
from tribell.states import Z, BlockDiagState, _block_matrices, tau_state

from test_bell import random_block_states
from test_centropy import oracle_cond_entropy


def test_run_all_results_serialize_to_json():
    results = verification.run_all(200)
    for r in results:
        assert type(r.passed) is bool and type(r.expected_failure) is bool, r.name
    rows = json.loads(json.dumps([dataclasses.asdict(r) for r in results]))
    assert [row["name"] for row in rows] == [r.name for r in results]


def test_run_all_2000_lines_pinned():
    # pins.json pins the other lines of `tribell verify --samples 2000`, which
    # is run_all(2000, seed=11); these two are rounding-level errors
    results = verification.run_all(samples=2000, seed=11)
    assert len(results) == 15
    for r in results[4:6]:
        assert r.passed and r.name in ("tau-family-tightness", "reduced-vs-full-holz")
        errs = [float(x) for x in re.findall(r"\d\.\d+e[+-]\d+", r.detail)]
        assert errs and max(errs) <= 1e-14, r.detail


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


def one_shot_density_matrices(count, dim, seed):
    # every real part of G drawn whole, then every imaginary part whole
    rng = np.random.default_rng(seed)
    real = rng.normal(size=(count, dim, dim))
    g = real + 1j * rng.normal(size=(count, dim, dim))
    rho = g @ g.conj().transpose(0, 2, 1)
    return rho / np.trace(rho, axis1=1, axis2=2).real[:, None, None]


@pytest.mark.parametrize("seed", [13, 5])
@pytest.mark.parametrize("count", [0, 1, 511, 512, 513, 3001, 10_000])
def test_density_matrix_blocks_equal_the_one_shot_draw(count, seed):
    want = one_shot_density_matrices(count, 8, seed)
    blocks = list(verification._density_matrix_blocks(count, 8, seed))
    assert [len(b) for b in blocks[:-1]] == [verification._STATE_BLOCK] * (len(blocks) - 1)
    for got in (np.concatenate([np.empty((0, 8, 8), complex), *blocks]),
                verification.random_density_matrices(count, 8, seed)):
        assert got.shape == want.shape and got.dtype == want.dtype
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_appendix_c_holds_one_block_of_temporaries():
    # the 5.1 MB of real parts and one block's temporaries, not 10 000 states
    tracemalloc.start()
    try:
        verification.check_appendix_c(10_000, 13)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12e6


def test_appendix_c_nan_in_a_later_block_fails(monkeypatch):
    real_expectation, calls = verification._party_expectation, []

    def nan_in_block_two(rho, ops):
        calls.append(len(rho))
        val = real_expectation(rho, ops)
        if len(calls) == 5:  # the first of the second block's four calls
            val[3] = np.nan
        return val

    monkeypatch.setattr(verification, "_party_expectation", nan_in_block_two)
    result = verification.check_appendix_c(1000, 13)
    assert calls == [512] * 4 + [488] * 4
    assert result.passed is False
    assert "nan" in result.detail


@pytest.mark.parametrize("samples", [0, -5])
@pytest.mark.parametrize("check", [verification.run_all, verification.check_appendix_b,
                                   verification.check_appendix_c,
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
