"""The logistic gradient kernel against its former implementation.

The oracles below are the former `_sigmoid` (boolean-mask indexing in and
out) and the former logistic branch of `SgdProblem.grad_sum` (fancy-index
gather, an einsum over the negated samples). The current kernel must
reproduce both bit for bit and consume the generator by the same amount, so
that every seed keeps its trajectory.
"""

import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import dropsim as ds
from dropsim.sgd import _sigmoid


def _oracle_sigmoid(u):
    out = np.empty_like(u)
    pos = u >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-u[pos]))
    eu = np.exp(u[~pos])
    out[~pos] = eu / (1.0 + eu)
    return out


def _oracle_grad_sum(problem, theta, batch, gen):
    theta = np.asarray(theta, dtype=float)
    batch = np.asarray(batch)
    r, d = theta.shape
    b_cap = int(batch.max()) if batch.size else 0
    if b_cap == 0:
        return np.zeros((r, d))
    idx = gen.integers(0, problem.data_x.shape[0], (r, b_cap))
    xs = problem.data_x[idx]
    ys = problem.data_y[idx]
    logits = np.einsum("rbd,rd->rb", xs, theta)
    w = _oracle_sigmoid(-ys * logits) * ys
    mask = np.arange(b_cap)[None, :] < batch[:, None]
    data_term = np.einsum("rb,rbd->rd", w * mask, -xs)
    common = problem.l2_reg * theta + problem.sin_amplitude * np.cos(theta)
    return data_term + batch[:, None] * common


def _bits(a):
    return np.asarray(a, dtype=np.float64).view(np.uint64)


# exp underflows to 0 beyond |u| of about 745 and overflows beyond 709.
_EDGES = [0.0, -0.0, np.inf, -np.inf, 745.2, -745.2, 746.0, -746.0, 1e300, -1e300,
          709.8, -709.8, 5e-324, -5e-324]
_FLOATS = st.one_of(st.sampled_from(_EDGES),
                    st.floats(allow_nan=False, allow_infinity=True),
                    st.floats(-60.0, 60.0))


@settings(max_examples=300, deadline=None)
@given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=3, max_side=9),
                  elements=_FLOATS))
def test_sigmoid_matches_masked_oracle(u):
    assert np.array_equal(_bits(_sigmoid(u)), _bits(_oracle_sigmoid(u)))


def test_sigmoid_edges():
    u = np.array(_EDGES)
    assert np.array_equal(_bits(_sigmoid(u)), _bits(_oracle_sigmoid(u)))
    assert _sigmoid(np.array([np.inf, -np.inf, 0.0, -0.0])).tolist() == [1.0, 0.0, 0.5, 0.5]
    assert np.isnan(_sigmoid(np.array([np.nan]))).all()


@st.composite
def _kernel_case(draw):
    n = draw(st.integers(1, 12))
    d = draw(st.integers(1, 12))  # past the einsum's unrolled SIMD width
    r = draw(st.integers(1, 6))
    seed = draw(st.integers(0, 2**32 - 1))
    gen = np.random.default_rng(seed)
    scale = draw(st.sampled_from([0.1, 1.0, 30.0, 1e3]))
    x = gen.normal(0.0, scale, (n, d))
    y = np.where(gen.random(n) < 0.5, 1.0, -1.0)
    theta = gen.normal(0.0, draw(st.sampled_from([0.0, 0.5, 5.0, 200.0])), (r, d))
    batch = draw(st.one_of(
        st.just([0] * r),  # an all-zero batch: no draws at all
        st.lists(st.integers(0, 20), min_size=r, max_size=r)))  # b = 0 rows mixed in
    problem = ds.SgdProblem(
        kind="logistic_synthetic", dimension=d, smoothness=1.0, sigma=0.0,
        theta1=np.zeros(d), theta_star=np.zeros(d), loss_star=0.0, data_x=x,
        data_y=y, l2_reg=draw(st.sampled_from([0.0, 0.1, 2.5])),
        sin_amplitude=draw(st.sampled_from([0.0, 0.05, 1.0])))
    return problem, theta, np.asarray(batch, dtype=np.int64), seed


@settings(max_examples=200, deadline=None)
@given(_kernel_case())
def test_logistic_grad_sum_matches_oracle(case):
    problem, theta, batch, seed = case
    gen_new = np.random.default_rng(seed + 1)
    gen_old = np.random.default_rng(seed + 1)
    got = problem.grad_sum(theta, batch, gen_new)
    want = _oracle_grad_sum(problem, theta, batch, gen_old)
    assert got.shape == want.shape == theta.shape
    assert np.array_equal(_bits(got), _bits(want))
    assert gen_new.bit_generator.state == gen_old.bit_generator.state


def test_logistic_grad_sum_dataset_problem():
    problem = ds.SgdProblem.logistic_synthetic(dimension=10, n_samples=512,
                                               sin_amplitude=0.05, seed=3)
    gen = np.random.default_rng(0)
    theta = gen.normal(0.0, 0.4, (100, 10))
    batch = np.where(gen.random(100) < 0.2, 90, 100)
    batch[:3] = 0
    got = problem.grad_sum(theta, batch, np.random.default_rng(5))
    want = _oracle_grad_sum(problem, theta, batch, np.random.default_rng(5))
    assert np.array_equal(_bits(got), _bits(want))
    assert not got[:3].any()
