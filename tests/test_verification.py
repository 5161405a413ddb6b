"""verification: check results as plain data."""

import dataclasses
import json
import re

import numpy as np

from tribell import verification
from tribell.centropy import cond_entropies
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
