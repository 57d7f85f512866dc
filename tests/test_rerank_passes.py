"""The re-ranker's grouped passes against the per-row loops they replace.

The references below are the earlier implementations of the three sparse
stages of k_reciprocal_rerank: the expanded k-reciprocal sets built with
Python sets row by row, the query expansion summed densely one block of
rows at a time, and the Jaccard blend one query row at a time. The grouped
passes must give the same arrays, ==, on every input.
"""

import tracemalloc

import numpy as np
import pytest

from dareid import evaluation
from dareid.evaluation import RerankParams, k_reciprocal_rerank


def encode_weights_loop(allf, near, row_max, k1):
    """V as CSR arrays, each row's expanded set built with Python sets."""
    half = int(round(k1 / 2.0))
    recip_half = [r[m].tolist() for r, m in
                  zip(near[:, :half + 1],
                      evaluation._reciprocal(near[:, :half + 1]))]
    indices = []
    for r, m in zip(near, evaluation._reciprocal(near)):
        forward = r[m].tolist()
        own = set(forward)
        expanded = set(forward)
        for cand in forward:
            if len(own.intersection(recip_half[cand])) > (
                    2.0 / 3.0) * len(recip_half[cand]):
                expanded.update(recip_half[cand])
        indices.append(np.array(sorted(expanded), dtype=np.intp))
    cols = np.concatenate(indices)
    rows = np.repeat(np.arange(len(indices)), [len(c) for c in indices])
    indptr = evaluation._row_ptr(rows, len(indices))
    dist = evaluation._pair_sums(allf, allf, rows, cols)
    weight = np.exp(-(evaluation._original_distances(dist) / row_max[rows]))
    weight /= np.repeat(evaluation._row_sums(weight, indptr), np.diff(indptr))
    return indptr, cols, weight


def mean_rows_dense(indptr, indices, data, nearest):
    """The mean of the rows nearest[i], summed densely by bincount for a
    block of 64 rows at a time, in the order of nearest[i]."""
    n, k = nearest.shape
    flat, out = [], []
    for start in range(0, n, 64):
        src = nearest[start:start + 64].ravel()
        lens = indptr[src + 1] - indptr[src]
        take = evaluation._ranges(indptr[src], lens)
        block_n = len(src) // k
        owner = np.repeat(np.arange(block_n), k).repeat(lens)
        total = np.bincount(owner * n + indices[take], weights=data[take],
                            minlength=block_n * n)
        nonzero = np.flatnonzero(total)
        flat.append(nonzero + start * n)
        out.append(total[nonzero] / k)
    flat = np.concatenate(flat)
    return evaluation._row_ptr(flat // n, n), flat % n, np.concatenate(out)


def blend_loop(final, indptr, indices, data, lam):
    """The Jaccard blend one query row at a time, through a column index of
    every row of V, query rows included."""
    nq = len(final)
    n = len(indptr) - 1
    by_col = np.argsort(indices, kind="stable")
    col_ptr = evaluation._row_ptr(indices[by_col], n)
    col_rows = np.repeat(np.arange(n), np.diff(indptr))[by_col]
    col_data = data[by_col]
    for i in range(nq):
        cols = indices[indptr[i]:indptr[i + 1]]
        counts = col_ptr[cols + 1] - col_ptr[cols]
        take = evaluation._ranges(col_ptr[cols], counts)
        overlap = np.bincount(
            col_rows[take], minlength=n,
            weights=np.minimum(np.repeat(data[indptr[i]:indptr[i + 1]],
                                         counts), col_data[take]))[nq:]
        final[i] = lam * final[i] + (1.0 - lam) * (
            1.0 - overlap / (2.0 - overlap))


def inputs():
    rng = np.random.default_rng(61)
    g = rng.normal(size=(60, 4))
    dup = rng.normal(size=(48, 3))
    dup[[7, 19, 30, 41]] = dup[3]
    dup[[11, 12]] = dup[25]
    # 11 copies, more than k1 + 1: the last copies have no k-reciprocal
    # neighbour, so their rows of V are empty
    dup[26:37] = dup[37]
    return {
        "random": (rng.normal(size=(12, 5)), rng.normal(size=(50, 5)),
                   RerankParams(k1=8, k2=4, lambda_orig=0.3)),
        "query-set-as-gallery": (g, g, RerankParams(k1=6, k2=3)),
        "duplicate-rows": (dup[:10], dup[10:],
                           RerankParams(k1=7, k2=3, lambda_orig=0.6)),
        "k2-is-1": (g[:9], g[9:], RerankParams(k1=5, k2=1)),
        "k1-is-Ng-1": (g[:6], g[6:26], RerankParams(k1=19, k2=5,
                                                    lambda_orig=0.1)),
    }


CASES = inputs()


@pytest.fixture(params=list(CASES), ids=list(CASES))
def case(request):
    q, g, params = CASES[request.param]
    allf = np.concatenate([q, g])
    row_max, near = evaluation._distance_pass(allf, params.k1 + 1)
    return q, g, params, allf, row_max, near


def assert_csr_equal(got, want):
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and np.array_equal(a, b)


def test_expanded_sets_and_weights_match_the_set_loop(case):
    _, _, params, allf, row_max, near = case
    assert_csr_equal(evaluation._encode_weights(allf, near, row_max,
                                                params.k1),
                     encode_weights_loop(allf, near, row_max, params.k1))


def test_query_expansion_matches_the_dense_sum(case):
    _, _, params, allf, row_max, near = case
    v = evaluation._encode_weights(allf, near, row_max, params.k1)
    for k in sorted({1, 2, params.k2}):
        assert_csr_equal(evaluation._mean_rows(*v, near[:, :k]),
                         mean_rows_dense(*v, near[:, :k]))


def test_blend_matches_the_per_query_loop(case):
    q, g, params, allf, row_max, near = case
    v = evaluation._encode_weights(allf, near, row_max, params.k1)
    if params.k2 != 1:
        v = evaluation._mean_rows(*v, near[:, :params.k2])
    final = np.square(evaluation.pairwise_distances(q, g))
    final /= row_max[:len(q), None]
    want = final.copy()
    blend_loop(want, *v, params.lambda_orig)
    evaluation._blend_jaccard(final, *v, params.lambda_orig)
    assert np.array_equal(final, want)
    assert np.array_equal(k_reciprocal_rerank(q, g, params), want)


@pytest.mark.parametrize("budget", [1, 7, 64])
def test_any_block_size_gives_the_same_output(case, budget, monkeypatch):
    q, g, params = case[:3]
    want = k_reciprocal_rerank(q, g, params)
    blocks = evaluation._blocks
    monkeypatch.setattr(evaluation, "_blocks",
                        lambda ptr, _=None: blocks(ptr, budget))
    assert np.array_equal(k_reciprocal_rerank(q, g, params), want)


def test_blocks_cover_the_rows_within_the_budget():
    ptr = np.concatenate([[0], np.cumsum([3, 0, 9, 2, 2, 5, 0, 0, 4])])
    got = list(evaluation._blocks(ptr, 5))
    assert got == [(0, 2), (2, 3), (3, 5), (5, 8), (8, 9)]
    assert list(evaluation._blocks(ptr[:1], 5)) == []


def test_peak_memory_stays_within_the_output_and_5_mib():
    # the rerank workload's shape: 512 queries and 1536 gallery rows of
    # 32 dimensions
    rng = np.random.default_rng(62)
    q, g = rng.normal(size=(512, 32)), rng.normal(size=(1536, 32))
    # NumPy imports numpy.ma on its first np.unique call; that is not the
    # re-ranker's memory
    k_reciprocal_rerank(q[:8], g[:64])
    tracemalloc.start()
    try:
        k_reciprocal_rerank(q, g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < len(q) * len(g) * 8 + 5 * 2**20
