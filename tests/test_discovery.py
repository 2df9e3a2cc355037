"""Discovery decides probes from its cached pivots: a residual bound rejects
most of them, and the rest get the full invertibility test, whose residual
certificate vouches for most without an SVD. These tests pin that the bound
never rejects a block the full test accepts, that the certificate never
accepts one the SVD rejects, that the inverse it multiplies by is accurate,
that discovery makes exactly the decisions of the per-probe loop it
replaced, and that the pivot rows and columns it passes on are the cells
the oracle revealed."""
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noisyrows import linalg
from noisyrows.completion import (
    CompletionParams,
    DiscoveryState,
    _Pivots,
    compute_eta,
    discover,
)
from noisyrows.instances import GeneratorConfig, generate
from noisyrows.linalg import RankTolerance, is_invertible, numerical_rank
from noisyrows.oracle import QueryOracle
from test_call_counts import CASES, WORKLOAD_CASES
from test_completion import PINNED_RUNS
from test_oracle import read_block

PARAMS = CompletionParams(epsilon=0.1)


def probe_loop_discover(oracle: QueryOracle, params: CompletionParams) -> DiscoveryState:
    """The reference: one drawn row, one entry read, one read of the
    bordered block's cells and one invertibility test per probe."""
    n1, n2 = oracle.shape
    budget = compute_eta(n1, n2, params.epsilon)
    rows: list[int] = []
    cols: list[int] = []
    row_values: list[np.ndarray] = []
    col_values: list[np.ndarray] = []
    stale = 0
    while stale < budget:
        stale += 1
        claimed = set(cols)
        for j in range(n2):
            if j in claimed:
                continue
            i = oracle.draw_random_row()
            oracle.query_entry(i, j)
            if i in rows:
                continue
            candidate = read_block(oracle, rows + [i], cols + [j])
            if is_invertible(candidate, params.tol):
                col_values.append(oracle.query_column(j))
                row_values.append(oracle.query_row(i))
                rows.append(i)
                cols.append(j)
                claimed.add(j)
                stale = 0
    row_block = np.array(row_values).reshape(len(rows), n2)
    return DiscoveryState(
        pivot_rows=rows,
        pivot_cols=cols,
        stale_passes=stale,
        pass_budget=budget,
        row_values=row_block,
        col_values=np.array(col_values).reshape(len(cols), n1).T,
        pivot_inverse=np.linalg.inv(row_block[:, cols]),
    )


def _sources():
    """About 60 small instances across the generator's families."""
    for s in range(20):
        n1, n2 = 15 + 3 * s, 40 - s
        yield generate(GeneratorConfig(n1=n1, n2=n2, rank_r=1 + s % 5,
                                       num_noisy=s % 3, seed=100 + s)), s
    for s in range(15):
        yield generate(GeneratorConfig(n1=40, n2=30, rank_r=4, num_noisy=2,
                                       mode="sparse-basis", target_psi=5,
                                       seed=200 + s)), 50 + s
    for s in range(15):
        yield generate(GeneratorConfig(n1=30, n2=30, rank_r=3, num_noisy=2,
                                       seed=300 + s, enforce_psi=True)), 80 + s
    for s in range(6):
        yield generate(GeneratorConfig(n1=12, n2=80, rank_r=6, num_noisy=2,
                                       seed=400 + s)), 90 + s
    yield np.zeros((9, 7)), 0
    yield np.ones((6, 8)), 1
    yield np.eye(7), 2


SOURCES = list(_sources())


@pytest.mark.parametrize("source, oracle_seed", SOURCES)
def test_same_decisions_as_probe_loop(source, oracle_seed):
    new, old = QueryOracle(source, oracle_seed), QueryOracle(source, oracle_seed)
    got = discover(new, PARAMS)
    expected = probe_loop_discover(old, PARAMS)
    assert got == expected
    np.testing.assert_array_equal(new.observed_mask, old.observed_mask)
    assert new.unique_query_count == old.unique_query_count


def _full_rank(n1, n2, seed):
    return np.random.default_rng(seed).standard_normal((n1, n2)), seed


# Beyond SOURCES: 33 pivots on 36 rows, and two runs that accept min(n1, n2).
PIVOT_CASES = [
    *SOURCES,
    (generate(GeneratorConfig(**PINNED_RUNS[2][0])), PINNED_RUNS[2][1]),
    _full_rank(6, 9, 1),
    _full_rank(9, 6, 2),
]


@pytest.mark.parametrize("source, oracle_seed", PIVOT_CASES)
def test_running_maxima_are_those_of_the_pivots(monkeypatch, source, oracle_seed):
    # After every acceptance the buffers' first k rows are the revealed pivot
    # rows and columns and the filter's running maxima are their reductions,
    # all bit for bit (a max rounds nothing). No growth passes min(n1, n2),
    # the most pivots a run can accept.
    n = source.n_observed if hasattr(source, "n_observed") else source
    accepted = []
    accept = _Pivots.accept

    def checked(pivots, *args):
        accept(pivots, *args)
        k = len(pivots.rows)
        np.testing.assert_array_equal(pivots.p[:k], n[pivots.rows, :])
        np.testing.assert_array_equal(pivots.q[:k], n[:, pivots.cols].T)
        assert pivots.p.shape[0] == pivots.q.shape[0] <= min(n.shape)
        np.testing.assert_array_equal(pivots._p_max, np.abs(pivots.p[:k]).max(axis=0))
        np.testing.assert_array_equal(pivots._q_max, np.abs(pivots.q[:k]).max(axis=0))
        accepted.append(k)

    monkeypatch.setattr(_Pivots, "accept", checked)
    state = discover(QueryOracle(source, oracle_seed), PARAMS)
    assert accepted == list(range(1, state.rank_estimate + 1))
    if isinstance(source, np.ndarray) and source.shape in ((6, 9), (9, 6)):
        assert state.rank_estimate == 6


def test_probes_read_as_one_cells_event_per_sweep():
    inst = generate(GeneratorConfig(n1=20, n2=15, rank_r=3, num_noisy=1, seed=3))
    o = QueryOracle(inst, rng_seed=4)
    state = discover(o, PARAMS)
    kinds = [kind for kind, *_ in o.log.entries]
    assert set(kinds) <= {"cells", "row", "column"}
    assert kinds.count("row") == kinds.count("column") == state.rank_estimate
    sweeps = kinds.count("cells")
    assert state.pass_budget <= sweeps <= state.pass_budget + state.rank_estimate


def _pivots_of(block: np.ndarray, tol: RankTolerance) -> _Pivots:
    """The cache discovery holds when the leading k x k of `block` is the
    pivot block and its last row and column are a probe's."""
    k = block.shape[0] - 1
    pivots = _Pivots(k + 1, k + 1, tol)
    for t in range(k):
        pivots.accept(t, t, block[t, t], block[t, :], block[:, t])
    return pivots


@settings(max_examples=600, deadline=None)
@given(
    k=st.integers(0, 35),
    log_cond=st.floats(0.0, 9.0),
    log_scale=st.floats(-150.0, 150.0),
    log_threshold=st.floats(-14.0, -1.0),
    delta=st.one_of(st.just(0.0), st.floats(-17.0, 0.0).map(lambda e: 10.0**e)),
    near_threshold=st.one_of(st.none(), st.floats(-3.0, 3.0)),
    seed=st.integers(0, 2**32 - 1),
)
def test_filter_never_rejects_an_invertible_block(
    k, log_cond, log_scale, log_threshold, delta, near_threshold, seed
):
    # v = x A^-1 y + delta: the bordered block is singular up to delta,
    # relative to its largest entry, and A has condition number up to 1e9.
    # Half the draws put delta within three decades of rel_threshold, where
    # the filter and the SVD are closest to disagreeing.
    if near_threshold is not None:
        delta = min(1.0, 10.0 ** (log_threshold + near_threshold))
    rng = np.random.default_rng(seed)
    u, _ = np.linalg.qr(rng.standard_normal((k, k)))
    w, _ = np.linalg.qr(rng.standard_normal((k, k)))
    a = (u * np.logspace(0.0, -log_cond, k)) @ w.T
    x, y = rng.standard_normal(k), rng.standard_normal(k)
    v = x @ np.linalg.solve(a, y) if k else 0.0
    largest = max(np.abs(a).max(initial=0.0), np.abs(x).max(initial=0.0),
                  np.abs(y).max(initial=0.0), abs(v), 1.0)
    v += delta * largest * rng.choice([-1.0, 1.0])
    block = np.block([[a, y[:, None]], [x[None, :], np.array([[v]])]])
    block *= 10.0**log_scale
    tol = RankTolerance(10.0**log_threshold)
    rejected = _pivots_of(block, tol).rejects(np.array([k]), np.array([k]),
                                              np.array([block[k, k]]))
    if rejected[0]:
        assert not is_invertible(block, tol)


def _near_singular_block(k, log_cond, log_scale, log_threshold, delta, near_threshold, seed):
    """(B, tol): the (k+1) x (k+1) blocks of the filter's soundness test."""
    if near_threshold is not None:
        delta = min(1.0, 10.0 ** (log_threshold + near_threshold))
    rng = np.random.default_rng(seed)
    u, _ = np.linalg.qr(rng.standard_normal((k, k)))
    w, _ = np.linalg.qr(rng.standard_normal((k, k)))
    a = (u * np.logspace(0.0, -log_cond, k)) @ w.T
    x, y = rng.standard_normal(k), rng.standard_normal(k)
    v = x @ np.linalg.solve(a, y) if k else 0.0
    largest = max(np.abs(a).max(initial=0.0), np.abs(x).max(initial=0.0),
                  np.abs(y).max(initial=0.0), abs(v), 1.0)
    v += delta * largest * rng.choice([-1.0, 1.0])
    block = np.block([[a, y[:, None]], [x[None, :], np.array([[v]])]])
    return block * 10.0**log_scale, RankTolerance(10.0**log_threshold)


@settings(max_examples=600, deadline=None)
@given(
    k=st.integers(0, 35),
    log_cond=st.floats(0.0, 9.0),
    log_scale=st.floats(-150.0, 150.0),
    log_threshold=st.floats(-14.0, -1.0),
    delta=st.one_of(st.just(0.0), st.floats(-17.0, 0.0).map(lambda e: 10.0**e)),
    near_threshold=st.one_of(st.none(), st.floats(-3.0, 3.0)),
    seed=st.integers(0, 2**32 - 1),
)
def test_certificate_never_accepts_what_the_svd_rejects(
    k, log_cond, log_scale, log_threshold, delta, near_threshold, seed
):
    # The filter's blocks, handed to `is_invertible` with the bordered
    # inverse discovery gives it. Whenever the certificate alone accepts,
    # with no SVD, the SVD reports full rank, at the scale discovery tests
    # and at the block's own.
    block, tol = _near_singular_block(k, log_cond, log_scale, log_threshold, delta,
                                      near_threshold, seed)
    b_hat, x = _pivots_of(block, tol)._bordered(k, k, block[k, k])[3:5]
    svds = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linalg, "numerical_rank",
                   lambda *args: svds.append(args) or numerical_rank(*args))
        accepted = is_invertible(b_hat, tol, x)
    if accepted and not svds:
        assert numerical_rank(b_hat, tol) == numerical_rank(block, tol) == k + 1


@pytest.mark.parametrize("drift, refreshed", [(0.0, 0), (1e-3, 1)])
def test_an_undecided_certificate_falls_through_to_the_svd(monkeypatch, drift, refreshed):
    # A probe whose block has sigma_min / sigma_max just above the cut (1.09
    # rel_threshold): the certificate's bound reads 0.87 of its cut, so it
    # cannot vouch, and the SVD decides, and accepts. On acceptance the bordered
    # inverse is kept while it is as accurate as one inversion; bordered
    # from a held inverse that drifted, it is not, and one `inv` refreshes it.
    block, tol = _near_singular_block(6, 0.0, 0.0, -9.0, 0.0, 1.3, 8)
    pivots = _pivots_of(block, tol)
    pivots.a_inv = pivots.a_inv * (1.0 + drift)
    calls = Counter()

    def counted(name, fn):
        return lambda *args, **kwargs: calls.update([name]) or fn(*args, **kwargs)

    for name in ("svd", "inv"):
        monkeypatch.setattr(np.linalg, name, counted(name, getattr(np.linalg, name)))
    assert pivots.first_accepted(np.array([6]), np.array([6]), np.array([block[6, 6]])) == 0
    assert calls == Counter(svd=1)
    pivots.accept(6, 6, block[6, 6], block[6], block[:, 6])
    assert calls == Counter(svd=1, inv=refreshed)
    a, a_inv = pivots._a_scaled, pivots.a_inv
    error = np.linalg.norm(a_inv @ a - np.eye(7), 2)
    assert error <= 7 * np.linalg.cond(a) * np.finfo(float).eps


# A warning here would reach the benchmark's stderr, which must stay empty.
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "block",
    [
        # W = A^-1 P overflows to inf, so every bound term is inf or NaN.
        np.array([[1e-200, 1e200], [1e200, 1e200]]),
        # W overflows and the probe's pivot-column entry is 0, so the bound
        # is NaN.
        np.array([[1e-200, 1e200], [0.0, 1.0]]),
        # W = P has entries near 1e160: hypot would stay finite, but ||W||^2
        # overflows. The block is singular, so only the SVD may reject it.
        np.array([[1.0, 0.0, 1e160], [0.0, 1.0, 1e160], [1.0, 1.0, 2e160]]),
    ],
)
def test_non_finite_bound_falls_through(block):
    tol = RankTolerance()
    k = block.shape[0] - 1
    pivots = _pivots_of(block, tol)
    assert not pivots.rejects(np.array([k]), np.array([k]), np.array([block[k, k]]))[0]
    accepted = pivots.first_accepted(np.array([k]), np.array([k]), np.array([block[k, k]]))
    assert accepted == (0 if is_invertible(block, tol) else None)


def test_a_window_of_mixed_scales_decides_each_probe_alone():
    # One call scales each probe by its own power of two. The pivot block is
    # of size 1e-160 and the probes' entries in the pivot columns run from
    # 1e-160 to 1e160, past where unscaled squares underflow or overflow; each
    # probe is singular up to a delta within two decades of rel_threshold.
    # Each verdict must be the one the probe gets alone, and sound, and every
    # probe a decade or more below the cut must be rejected.
    rng = np.random.default_rng(5)
    k, m, tol = 4, 80, RankTolerance()
    u, _ = np.linalg.qr(rng.standard_normal((k, k)))
    a = 1e-160 * (u * np.logspace(0.0, -2.0, k))
    n = np.zeros((k + m, k + m))
    n[:k, :k] = a
    log_delta = rng.uniform(-2.0, 2.0, m)
    for t, scale in enumerate(np.logspace(-160.0, 160.0, m)):
        p, q = 1e-160 * rng.standard_normal(k), scale * rng.standard_normal(k)
        v = q @ np.linalg.solve(a, p)
        largest = max(np.abs(a).max(), np.abs(p).max(), np.abs(q).max(), abs(v))
        delta = tol.rel_threshold * 10.0 ** log_delta[t] * rng.choice([-1.0, 1.0])
        n[:k, k + t], n[k + t, :k], n[k + t, k + t] = p, q, v + delta * largest
    pivots = _Pivots(*n.shape, tol)
    for t in range(k):
        pivots.accept(t, t, n[t, t], n[t, :], n[:, t])
    probes = np.arange(k, k + m)
    rejected = pivots.rejects(probes, probes, n[probes, probes])
    for t, verdict in zip(probes, rejected):
        assert verdict == pivots.rejects(t[None], t[None], n[t, t][None])[0]
        if verdict:
            assert not is_invertible(pivots.block(t, t, n[t, t]), tol)
    assert rejected[log_delta <= -1.0].all()
    assert not rejected.all()


def test_block_is_the_bordered_submatrix():
    n = np.arange(30.0).reshape(5, 6) ** 1.5
    rows, cols = [3, 0], [4, 1]
    pivots = _Pivots(*n.shape, RankTolerance())
    for i, j in zip(rows, cols):
        pivots.accept(i, j, n[i, j], n[i, :], n[:, j])
    np.testing.assert_array_equal(pivots.block(2, 5, n[2, 5]),
                                  n[np.ix_(rows + [2], cols + [5])])


@pytest.mark.parametrize(
    "config, oracle_seed",
    [pytest.param(config, seed, id=f"pinned-{k}")
     for k, (config, seed, _) in enumerate(PINNED_RUNS)]
    + [pytest.param(config, seed, id=name) for name, config, seed in WORKLOAD_CASES],
)
def test_inverse_is_accurate(monkeypatch, config, oracle_seed):
    # The filter is sound whatever rounding its inverse carries, but a
    # drifting inverse would reject less; after every acceptance the inverse
    # must be as accurate as one inversion of the pivot block can be.
    eps = np.finfo(float).eps
    ratios = []
    accept = _Pivots.accept

    def checked(pivots, *args):
        accept(pivots, *args)
        a, a_inv = pivots._a_scaled, pivots.a_inv
        k = a.shape[0]
        error = np.linalg.norm(a_inv @ a - np.eye(k), 2)
        ratios.append(error / (k * np.linalg.cond(a) * eps))

    monkeypatch.setattr(_Pivots, "accept", checked)
    state = discover(QueryOracle(generate(GeneratorConfig(**config)), oracle_seed), PARAMS)
    assert len(ratios) == state.rank_estimate > 0
    assert max(ratios) <= 1.0


@pytest.mark.parametrize("make_matrix, oracle_seed", CASES)
def test_values_are_the_revealed_cells(make_matrix, oracle_seed):
    # Identification and recovery read no cell: they trust these values.
    n = make_matrix()
    oracle = QueryOracle(n, rng_seed=oracle_seed)
    state = discover(oracle, PARAMS)
    rows, cols = state.pivot_rows, state.pivot_cols
    assert rows
    for got, expected in ((state.row_values, n[rows, :]), (state.col_values, n[:, cols])):
        assert got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()
    observed = oracle.observed_mask
    assert observed[rows, :].all()
    assert observed[:, cols].all()
