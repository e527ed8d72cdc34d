"""Age-chain construction, stationary law, and slot stepping."""
import numpy as np
import pytest

from aoi_bandit import MAX_CAP, ChainParams, build_transition, steady_state, step_aoi

P_GRID = [0.0, 0.1, 0.3, 0.5, 0.8, 0.95]
M_GRID = [2, 3, 5, 10, 50]


@pytest.mark.parametrize("p", [-0.1, 1.0, 1.5, "0.5", True, False, None])
def test_rejects_bad_probability(p):
    with pytest.raises(ValueError, match="failure probability must lie in"):
        ChainParams(p=p, m=5)


@pytest.mark.parametrize("m", [0, 1, 2.5, 10.0, np.float64(10), "10", True])
def test_rejects_bad_cap(m):
    with pytest.raises(ValueError, match="age cap must be an integer"):
        ChainParams(p=0.5, m=m)


@pytest.mark.parametrize("m", [np.int64(10), np.int32(10), np.uint8(10)])
def test_accepts_numpy_integer_cap(m):
    assert ChainParams(p=0.5, m=m).m == 10


@pytest.mark.parametrize("m", [MAX_CAP + 1, np.int64(MAX_CAP + 1), 10**9])
def test_rejects_a_cap_past_the_supported_maximum(m):
    # parameters only: no table is built on either side of the edge
    assert ChainParams(p=0.5, m=MAX_CAP).m == MAX_CAP
    with pytest.raises(ValueError, match=f"exceeds the supported maximum of {MAX_CAP}"):
        ChainParams(p=0.5, m=m)


def test_q_complements_p():
    assert ChainParams(p=0.3, m=4).q == 0.7


def test_transition_deterministic_channel():
    # p = 0 resets every slot, whatever the current age
    t = build_transition(ChainParams(p=0.0, m=3))
    assert np.array_equal(t, np.array([[1.0, 0, 0], [1.0, 0, 0], [1.0, 0, 0]]))


def test_transition_hand_worked():
    t = build_transition(ChainParams(p=0.8, m=3))
    expect = np.array(
        [
            [0.2, 0.8, 0.0],
            [0.2, 0.0, 0.8],
            [0.2, 0.0, 0.8],
        ]
    )
    assert np.allclose(t, expect, atol=1e-15)


@pytest.mark.parametrize("p", P_GRID)
@pytest.mark.parametrize("m", M_GRID)
def test_transition_rows_stochastic(p, m):
    t = build_transition(ChainParams(p=p, m=m))
    assert np.all(t >= 0.0)
    assert np.allclose(t.sum(axis=1), 1.0, atol=1e-15)


def test_steady_hand_worked():
    h = steady_state(ChainParams(p=0.8, m=3))
    assert np.allclose(h, [0.2, 0.16, 0.64], atol=1e-15)
    assert np.allclose(steady_state(ChainParams(p=0.5, m=2)), [0.5, 0.5], atol=1e-15)
    assert np.array_equal(steady_state(ChainParams(p=0.0, m=4)), [1.0, 0, 0, 0])


@pytest.mark.parametrize("p", P_GRID)
@pytest.mark.parametrize("m", M_GRID)
def test_steady_is_invariant(p, m):
    params = ChainParams(p=p, m=m)
    h = steady_state(params)
    assert abs(h.sum() - 1.0) < 1e-12
    assert np.max(np.abs(h @ build_transition(params) - h)) < 1e-12


@pytest.mark.parametrize("p", [0.3, 0.8])
@pytest.mark.parametrize("m", [4, 12])
def test_steady_matches_eigenvector(p, m):
    # independent route: left Perron eigenvector of the transition matrix
    params = ChainParams(p=p, m=m)
    vals, vecs = np.linalg.eig(build_transition(params).T)
    lead = np.argmin(np.abs(vals - 1.0))
    v = np.real(vecs[:, lead])
    v = v / v.sum()
    assert np.max(np.abs(v - steady_state(params))) < 1e-10


def test_step_hand_worked():
    params = ChainParams(p=0.3, m=5)
    assert step_aoi(params, 2, 0.69) == 1
    assert step_aoi(params, 2, 0.71) == 3
    assert step_aoi(params, 5, 0.99) == 5


def test_step_rejects_out_of_range_age():
    params = ChainParams(p=0.3, m=5)
    with pytest.raises(ValueError):
        step_aoi(params, 0, 0.5)
    with pytest.raises(ValueError):
        step_aoi(params, 6, 0.5)


def test_step_empirical_law_matches_steady():
    # long driven trajectory should mix to the stationary distribution
    params = ChainParams(p=0.8, m=6)
    rng = np.random.default_rng(2024)
    draws = rng.random(1_000_000)
    counts = np.zeros(params.m, dtype=np.int64)
    age = 1
    for u in draws.tolist():
        age = step_aoi(params, age, u)
        counts[age - 1] += 1
    freq = counts / counts.sum()
    assert np.max(np.abs(freq - steady_state(params))) < 0.01
