import dataclasses
import functools
import inspect
import json
import os
import platform
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from oracles import (ap_brute_force, cmc_brute_force, naive_distances,
                     rerank_reference)

from dareid import evaluation
from dareid.evaluation import (CMC_RANKS, EvalConfig, RerankParams,
                               cmc, evaluate_retrieval,
                               k_reciprocal_rerank,
                               mean_average_precision, pairwise_distances,
                               precision_recall_points)

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src")


def split_rows(ranked):
    """Per query, its positions: the flat positions of (pos, ptr) split at
    the row pointer."""
    pos, ptr = ranked
    return np.split(pos, ptr[1:-1])


def ranked_rows(dist, query_ids, gallery_ids, exclude_self=False):
    """Per query, its positions in the ranking of its row of dist."""
    return split_rows(evaluation._ranked_matrix(dist, query_ids, gallery_ids,
                                                exclude_self))


# Directions of an adversarial GEMM error, per entry, from a mask of chosen
# items: the items up and every other entry down, the reverse, or random.
ERROR_PATTERNS = {
    "items up": lambda items, rng: np.where(items, 1.0, -1.0),
    "items down": lambda items, rng: np.where(items, -1.0, 1.0),
    "random signs": lambda items, rng: rng.choice([-1.0, 1.0], items.shape),
}


def float32_share(d, m):
    """The float32 GEMM's share E32 of the bound, in the scaled units of the
    GEMM values (m = (|q|^2 + max |g|^2) 2^-2e), less 3u'm (u' = 2^-24) for
    rounding the perturbed values to float32."""
    u, eta = 2.0 ** -24, 2.0 ** -149
    return ((2 * d + 8) * u * m + (2 * d + 4) * eta * (m + 1)) / (
        1 - (d + 1) * u) - 3 * u * m


@pytest.fixture
def gemm_error(monkeypatch):
    """Replaces the GEMM values of _gemm_rows, keeping its bound, by the
    exact kernel's (S - |q|^2) 2^-2e moved by error["size"](d, m) per entry
    (m = (|q|^2 + max |g|^2) 2^-2e, per row) in the direction
    error["signs"](S) and rounded to float32, so that the certified paths
    meet the largest error their derivations allow, not the small one a
    BLAS kernel makes. A block may hold any number of candidates."""
    error, seen = {}, {}
    scaled_gallery = evaluation._scaled_gallery
    gemm_rows = evaluation._gemm_rows

    def recording(g, gn):
        seen["g"] = g
        return scaled_gallery(g, gn)

    def perturbed(q, qn, gallery):
        got = gemm_rows(q, qn, gallery)
        if got is None:
            return None
        e, gmax, _ = gallery
        s = ((q[:, None, :] - seen["g"][None, :, :]) ** 2).sum(axis=2)
        m = np.ldexp(qn + gmax, -2 * e)[:, None]
        a = np.ldexp(s - qn[:, None], -2 * e) + error["size"](
            q.shape[1], m) * error["signs"](s)
        return a.astype(np.float32), got[1]
    monkeypatch.setattr(evaluation, "_scaled_gallery", recording)
    monkeypatch.setattr(evaluation, "_gemm_rows", perturbed)
    monkeypatch.setattr(evaluation, "_budget", lambda d: 2.0)
    return error


class TestPairwiseDistances:
    def test_identical_vectors_give_zero(self):
        v = np.array([[1.0, 2.0, 3.0]])
        assert pairwise_distances(v, v)[0, 0] == 0.0

    def test_unit_vectors(self):
        e1, e2 = np.eye(2)
        d = pairwise_distances([e1], [e2])
        assert d[0, 0] == pytest.approx(np.sqrt(2), abs=1e-15)

    def test_matches_naive_double_loop(self):
        rng = np.random.default_rng(0)
        q, g = rng.normal(size=(3, 4)), rng.normal(size=(2, 4))
        assert np.allclose(pairwise_distances(q, g),
                           naive_distances(q, g, False), atol=1e-12)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            pairwise_distances(np.zeros((1, 3)), np.zeros((1, 4)))
        with pytest.raises(ValueError, match=r"\(3,\).*\(4,\)"):
            pairwise_distances(np.zeros(3), np.zeros(4))

    def test_metric_is_not_a_parameter(self):
        params = inspect.signature(pairwise_distances).parameters
        assert list(params) == ["queries", "gallery"]
        with pytest.raises(TypeError):
            pairwise_distances(np.zeros((1, 3)), np.zeros((1, 3)),
                               "euclidean")

    def test_symmetry_under_role_swap(self):
        rng = np.random.default_rng(1)
        a, b = rng.normal(size=(3, 5)), rng.normal(size=(4, 5))
        assert np.allclose(pairwise_distances(a, b),
                           pairwise_distances(b, a).T, atol=1e-12)

    def test_blocked_equals_index_order_sum_bitwise(self):
        rng = np.random.default_rng(3)
        g = rng.normal(size=(4096, 8))
        rows = evaluation.BLOCK_BYTES // (9 * 8 * len(g))
        # three full blocks and a ragged fourth
        cases = [(rng.normal(size=(3 * rows + rows // 2, 8)), g)]
        # no term, one, fewer than 8, 8 with and without more, and above
        # 128 and 256 terms
        for d in (0, 1, 7, 8, 9, 32, 129, 300):
            cases.append((rng.normal(size=(5, d)), rng.normal(size=(64, d))))
        # integer values: repeated rows, equal distances and zeros
        ints = rng.integers(-2, 3, size=(64, 9)).astype(float)
        cases.append((ints[:16], ints))
        for q, g in cases:
            # the squared differences added in index order, ((t0 + t1) + t2)
            terms = (q[:, None, :] - g[None, :, :]) ** 2
            sq = np.zeros(terms.shape[:2])
            for j in range(terms.shape[2]):
                sq += terms[:, :, j]
            # every (row, col) pair, one pair at a time
            pair_rows, pair_cols = np.divmod(np.arange(sq.size), sq.shape[1])
            assert np.array_equal(
                evaluation._pair_sums(q, g, pair_rows, pair_cols), sq.ravel())
            assert np.array_equal(pairwise_distances(q, g),
                                  np.sqrt(np.maximum(sq, 0.0)))
            # a Fortran-order gallery, as evaluate_retrieval passes it
            assert np.array_equal(pairwise_distances(q, np.asfortranarray(g)),
                                  np.sqrt(np.maximum(sq, 0.0)))

    def test_memory_is_the_output_plus_one_block(self):
        rng = np.random.default_rng(4)
        q, g = rng.normal(size=(256, 32)), rng.normal(size=(8192, 32))
        tracemalloc.start()
        try:
            pairwise_distances(q, g)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 256 * 8192 * 8 + 16 * 2**20


class TestMeanAveragePrecision:
    def test_perfect_ranking(self):
        dist = np.array([[0.1, 0.2, 0.9]])
        map_k, aps = mean_average_precision(dist, [5], [5, 5, 6], k=100)
        assert map_k == 1.0 and aps == [1.0]

    def test_miss_hit_miss_hit_pattern(self):
        dist = np.array([[0.1, 0.2, 0.3, 0.4]])
        map_k, _ = mean_average_precision(dist, [1], [0, 1, 0, 1], k=100)
        assert map_k == pytest.approx(0.5, abs=1e-12)

    def test_same_pattern_truncated_to_top_one(self):
        dist = np.array([[0.1, 0.2, 0.3, 0.4]])
        map_k, _ = mean_average_precision(dist, [1], [0, 1, 0, 1], k=1)
        assert map_k == 0.0

    def test_k_below_one_rejected(self):
        dist = np.array([[0.1, 0.2, 0.3, 0.4]])
        for k in (0, -1):
            with pytest.raises(ValueError, match="k must be >= 1"):
                mean_average_precision(dist, [1], [0, 1, 0, 1], k=k)

    def test_single_relevant_item_at_rank_r(self):
        for r in (1, 2, 5):
            dist = np.arange(1.0, 7.0).reshape(1, 6)
            gids = np.zeros(6, dtype=int)
            gids[r - 1] = 9
            map_k, _ = mean_average_precision(dist, [9], gids, k=100)
            assert map_k == pytest.approx(1.0 / r, abs=1e-12)

    def test_no_relevant_items_listed_in_error(self):
        dist = np.ones((2, 2))
        with pytest.raises(ValueError, match=r"\[1\]"):
            mean_average_precision(dist, [0, 9], [0, 0], k=10)
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            mean_average_precision(dist[:, :0], [0, 9], [], k=10)

    def test_invariant_under_monotone_transform(self):
        rng = np.random.default_rng(2)
        dist = rng.uniform(size=(4, 10))
        qids = rng.integers(3, size=4)
        gids = np.concatenate([np.arange(3), rng.integers(3, size=7)])
        a, _ = mean_average_precision(dist, qids, gids, k=5)
        b, _ = mean_average_precision(np.exp(3 * dist) - 1, qids, gids, k=5)
        assert a == pytest.approx(b, abs=1e-12)

    def test_matches_brute_force_on_random_instances(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            nq, ng = rng.integers(1, 8), rng.integers(4, 15)
            qids = rng.integers(3, size=nq)
            gids = np.concatenate([np.arange(3), rng.integers(3, size=ng - 3)])
            dist = rng.uniform(size=(nq, ng))
            k = int(rng.integers(1, 20))
            map_k, aps = mean_average_precision(dist, qids, gids, k)
            expected = [ap_brute_force(dist[i], qids[i], gids, k)
                        for i in range(nq)]
            assert np.allclose(aps, expected, atol=1e-12)
            assert map_k == pytest.approx(np.mean(expected), abs=1e-12)

    def test_own_column_excluded(self):
        # each query's own column, at rank one, leaves its ranking: query 0
        # then ranks columns 1, 2, 3 and finds its other item second
        dist = np.array([[0.0, 0.1, 0.2, 0.3],
                         [0.1, 0.0, 0.3, 0.2],
                         [0.2, 0.3, 0.0, 0.1],
                         [0.3, 0.2, 0.1, 0.0]])
        ids = [1, 0, 1, 0]
        map_k, aps = mean_average_precision(dist, ids, ids, k=10,
                                            exclude_self=True)
        assert map_k == pytest.approx(0.5, abs=1e-12)
        eye = np.eye(4, dtype=bool)
        assert aps == pytest.approx(
            [ap_brute_force(dist[i], ids[i], ids, 10, eye[i])
             for i in range(4)], abs=1e-12)

    def test_own_column_excluded_on_random_instances(self):
        # distances of four values tie the own column with relevant and
        # irrelevant columns alike; every id occurs at least twice
        rng = np.random.default_rng(46)
        for _ in range(50):
            n = int(rng.integers(6, 14))
            ids = rng.permutation(np.concatenate(
                [np.arange(3), np.arange(3), rng.integers(3, size=n - 6)]))
            dist = rng.integers(4, size=(n, n)).astype(float)
            k = int(rng.integers(1, n + 2))
            map_k, aps = mean_average_precision(dist, ids, ids, k,
                                                exclude_self=True)
            eye = np.eye(n, dtype=bool)
            expected = [ap_brute_force(dist[i], ids[i], ids, k, eye[i])
                        for i in range(n)]
            assert np.allclose(aps, expected, atol=1e-12)
            assert map_k == pytest.approx(np.mean(expected), abs=1e-12)

    def test_map_in_unit_interval(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            dist = rng.uniform(size=(3, 8))
            gids = np.concatenate([np.arange(2), rng.integers(2, size=6)])
            map_k, _ = mean_average_precision(dist, rng.integers(2, size=3),
                                              gids, k=4)
            assert 0.0 <= map_k <= 1.0

    def test_equals_the_per_query_sum(self):
        # APs with 0, 1, 7, 8, 9, 128 and 129 terms (positions below k), two
        # queries each, in shuffled order: every AP, the mAP and the CMC are
        # == a loop over the queries that sums each query's terms alone
        rng = np.random.default_rng(44)
        in_order = []
        for k in (1, 8, 9, 100, 129, 300):
            positions = []
            for t in (0, 1, 7, 8, 9, 128, 129) * 2:
                if t <= k:
                    below = rng.choice(k, size=t, replace=False)
                    above = k + rng.choice(40, size=rng.integers(t == 0, 4),
                                           replace=False)
                    positions.append(np.sort(np.concatenate([below, above])))
            positions = [positions[i] for i in rng.permutation(len(positions))]
            pos = np.concatenate(positions)
            ptr = np.cumsum([0] + [len(p) for p in positions])
            map_k, aps = evaluation._map_of_ranked(pos, ptr, k)
            want, sums = [], []
            for p in positions:
                terms = (np.arange(1, len(p) + 1) / (p + 1.0))[p < k]
                want.append(float(terms.sum() / min(len(p), k)))
                sums.append(float((1.0 / (p + 1.0)).sum()))
                total = 0.0
                for x in terms:
                    total += x
                in_order.append(total / min(len(p), k) != want[-1])
            assert [a.hex() for a in aps] == [w.hex() for w in want]
            assert map_k.hex() == float(np.mean(want)).hex()
            assert evaluation._cmc_of_ranked(pos, ptr, CMC_RANKS) == {
                r: float(np.mean([p[0] < r for p in positions]))
                for r in CMC_RANKS}
            # the row sums behind each AP, on rows of every length
            row_sums = evaluation._row_sums(1.0 / (pos + 1.0), ptr)
            assert [x.hex() for x in row_sums] == [x.hex() for x in sums]
        # the per-query sums are pairwise: adding in order differs
        assert any(in_order)


class TestCmc:
    def test_perfect_ranking(self):
        dist = np.array([[0.1, 0.5]])
        assert cmc(dist, [1], [1, 0])[1] == 1.0

    def test_first_relevant_at_rank_three(self):
        dist = np.array([[0.1, 0.2, 0.3, 0.4]])
        got = cmc(dist, [1], [0, 0, 1, 1], ranks=(1, 5))
        assert got[1] == 0.0 and got[5] == 1.0

    def test_non_decreasing_in_rank(self):
        rng = np.random.default_rng(5)
        dist = rng.uniform(size=(5, 12))
        gids = np.concatenate([np.arange(4), rng.integers(4, size=8)])
        got = cmc(dist, rng.integers(4, size=5), gids, ranks=(1, 5, 10))
        assert got[1] <= got[5] <= got[10]

    def test_matches_brute_force(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            dist = rng.uniform(size=(4, 9))
            gids = np.concatenate([np.arange(3), rng.integers(3, size=6)])
            qids = rng.integers(3, size=4)
            got = cmc(dist, qids, gids, ranks=(1, 3, 5))
            expected = cmc_brute_force(dist, qids, gids, (1, 3, 5))
            assert got == pytest.approx(expected)

    def test_own_column_excluded_on_random_instances(self):
        # the brute force ranks each row with its own column taken out
        rng = np.random.default_rng(47)
        ranks = (1, 2, 3, 5)
        for _ in range(30):
            n = int(rng.integers(6, 14))
            ids = rng.permutation(np.concatenate(
                [np.arange(3), np.arange(3), rng.integers(3, size=n - 6)]))
            dist = rng.integers(4, size=(n, n)).astype(float)
            others = ~np.eye(n, dtype=bool)
            rows = [cmc_brute_force(dist[i:i + 1, others[i]], ids[i:i + 1],
                                    ids[others[i]], ranks) for i in range(n)]
            got = cmc(dist, ids, ids, ranks, exclude_self=True)
            assert got == pytest.approx(
                {r: np.mean([row[r] for row in rows]) for r in ranks})

    def test_cmc1_equals_map_with_single_relevant(self):
        rng = np.random.default_rng(7)
        dist = rng.uniform(size=(5, 6))
        gids = np.arange(6)
        qids = rng.integers(6, size=5)
        map1, _ = mean_average_precision(dist, qids, gids, k=1)
        assert cmc(dist, qids, gids)[1] == pytest.approx(map1, abs=1e-12)


class TestRanking:
    def test_rows_follow_the_stable_sort(self):
        rng = np.random.default_rng(5)
        dist = rng.normal(size=(6, 40))                  # untied rows
        dist[1] = rng.integers(0, 3, size=40)            # many ties
        dist[2, 10:20] = dist[2, 5]                      # one run of ties
        dist[3, ::7] = np.nan
        dist[4] = 0.0
        gids = np.arange(40) % 5
        qids = np.array([0, 1, 2, 3, 4, 0])
        positions = ranked_rows(dist, qids, gids)
        for qid, row, got in zip(qids, dist, positions):
            assert np.array_equal(got, np.flatnonzero(
                gids[np.argsort(row, kind="stable")] == qid))

    def test_positions_are_flat_with_a_row_pointer(self):
        # one array of every query's positions, each row ascending, and a
        # pointer to the rows: its steps count the relevant items kept,
        # four of each id, less the own one under self-exclusion
        rng = np.random.default_rng(6)
        dist = rng.normal(size=(12, 12))
        ids = np.arange(12) % 3
        for exclude_self, kept in ((False, 4), (True, 3)):
            pos, ptr = evaluation._ranked_matrix(dist, ids, ids, exclude_self)
            assert pos.ndim == 1 and len(ptr) == 13
            assert ptr[0] == 0 and ptr[-1] == len(pos)
            assert np.diff(ptr).tolist() == [kept] * 12
            for row in np.split(pos, ptr[1:-1]):
                assert np.array_equal(row, np.sort(row))


class TestBlockBoundaries:
    """Ranking runs a block of query rows at a time. With blocks of three
    rows, every kind of row lies on both sides of a block boundary and the
    last block is ragged."""

    NG, ROWS = 40, 3

    @pytest.fixture(autouse=True)
    def small_blocks(self, monkeypatch):
        monkeypatch.setattr(evaluation, "BLOCK_BYTES",
                            8 * self.NG * self.ROWS)

    @staticmethod
    def check(dist, qids, gids, k, exclude, positions, aps, cmc_points):
        """Against a stable argsort of each row and against the oracles;
        NaN, which both rank last, is +inf to the oracles."""
        finite = np.where(np.isnan(dist), np.inf, dist)
        if exclude is None:
            exclude = np.zeros(dist.shape, dtype=bool)
        per_query_cmc = []
        for i, row in enumerate(dist):
            order = np.argsort(row, kind="stable")
            order = order[~exclude[i][order]]
            assert np.array_equal(positions[i],
                                  np.flatnonzero(gids[order] == qids[i])), i
            kept = ~exclude[i]
            per_query_cmc.append(cmc_brute_force(
                finite[i:i + 1, kept], qids[i:i + 1], gids[kept], CMC_RANKS))
        assert aps == pytest.approx(
            [ap_brute_force(finite[i], qids[i], gids, k, exclude[i])
             for i in range(len(dist))], abs=1e-12)
        assert cmc_points == pytest.approx(
            {r: np.mean([c[r] for c in per_query_cmc]) for r in CMC_RANKS},
            abs=1e-12)

    def test_distance_rows(self):
        rng = np.random.default_rng(28)
        n = self.NG
        kinds = [rng.normal(size=n),                            # untied
                 rng.integers(0, 4, size=n).astype(float),      # tied
                 np.where(rng.uniform(size=n) < 0.3, np.nan,
                          rng.integers(0, 3, size=n)),          # NaN
                 np.full(n, 0.5),                               # all equal
                 np.full(n, np.nan)]                            # all NaN
        dist = np.array([kinds[i % 5] for i in range(n)])
        ids = np.arange(n) % 4
        # the own column ties with the relevant items 4 columns before and
        # after it (lower and higher columns, across the wrap), and is NaN
        # beside NaN relevant items
        for i in range(1, n, 5):
            dist[i, [i - 4, (i + 4) % n]] = dist[i, i]
        for i in range(2, n, 5):
            dist[i, [i - 4, i, (i + 4) % n]] = np.nan
        eye = np.eye(n, dtype=bool)
        for exclude_self in (False, True):
            aps = mean_average_precision(dist, ids, ids, 7,
                                         exclude_self=exclude_self)[1]
            self.check(dist, ids, ids, 7, eye if exclude_self else None,
                       ranked_rows(dist, ids, ids, exclude_self), aps,
                       cmc(dist, ids, ids, exclude_self=exclude_self))

    @pytest.mark.parametrize("rerank", [None, RerankParams(k1=5, k2=3)])
    def test_evaluate_retrieval(self, rerank):
        rng = np.random.default_rng(29)
        g = rng.integers(0, 3, size=(self.NG, 2)).astype(float)
        gids = np.arange(self.NG) % 4
        q = np.concatenate([rng.normal(size=(5, 2)), g[:9]])
        qids = np.concatenate([rng.integers(4, size=5), gids[:9]])
        # and the query set as gallery, each query's own row excluded
        for q, qids, exclude_self in ((q, qids, False), (g, gids, True)):
            report = evaluate_retrieval(q, g, qids, gids,
                                        EvalConfig(top_k=7, rerank=rerank),
                                        exclude_self=exclude_self)
            dist = (pairwise_distances(q, g) if rerank is None
                    else k_reciprocal_rerank(q, g, rerank))
            self.check(dist, qids, gids, 7,
                       np.eye(self.NG, dtype=bool) if exclude_self else None,
                       split_rows(report.ranked), report.per_query_ap,
                       report.cmc)


class TestCertifiedRanking:
    """evaluate_retrieval without re-ranking orders entries by GEMM values
    and decides by exact ones; its results must equal, ==, those of the
    exact matrix path."""

    NG = 40

    @staticmethod
    def assert_exact(q, g, qids, gids, exclude_self, k=7):
        report = evaluate_retrieval(q, g, qids, gids, EvalConfig(top_k=k),
                                    exclude_self=exclude_self)
        dist = pairwise_distances(q, g)
        want = ranked_rows(dist, qids, gids, exclude_self)
        got_rows = split_rows(report.ranked)
        assert len(got_rows) == len(want)
        for got, expected in zip(got_rows, want):
            assert np.array_equal(got, expected)
            assert (precision_recall_points(got)
                    == precision_recall_points(expected))
        map_k, aps = mean_average_precision(dist, qids, gids, k,
                                            exclude_self=exclude_self)
        assert report.per_query_ap == aps and report.map_at_k == map_k
        assert report.cmc == cmc(dist, qids, gids, exclude_self=exclude_self)

    @pytest.fixture(params=[None, 3], ids=["one-block", "3-row-blocks"])
    def blocks(self, request, monkeypatch):
        # one block may hold any number of candidates, so it is certified
        # whatever the input; 3-row blocks make the last block ragged and
        # leave room for 15 candidates a block: a block with more takes the
        # exact path
        monkeypatch.setattr(evaluation, "_budget",
                            lambda d: 1 / 8 if request.param else 2.0)
        if request.param:
            monkeypatch.setattr(evaluation, "BLOCK_BYTES",
                                8 * self.NG * request.param)
        return request.param

    @pytest.fixture
    def resolved(self, monkeypatch):
        """Per call of the exact-resolve step: the entries it ranked that
        are neither a relevant item nor a query's own column. A block may
        hold any number of candidates."""
        others = []
        resolve = evaluation._resolve

        def recording(rows, cols, dist, kept, at):
            others.append(len(rows) - len(at) - int((~kept).sum()))
            return resolve(rows, cols, dist, kept, at)
        monkeypatch.setattr(evaluation, "_resolve", recording)
        monkeypatch.setattr(evaluation, "_budget", lambda d: 2.0)
        return others

    @pytest.fixture
    def fallback_rows(self, monkeypatch):
        """The query rows of each block that took the exact path."""
        rows = []
        original = evaluation.pairwise_distances

        def recording(q, *args, **kwargs):
            rows.append(len(q))
            return original(q, *args, **kwargs)
        monkeypatch.setattr(evaluation, "pairwise_distances", recording)
        return rows

    def cases(self, g, q, rng, ids=5):
        """A separate query set, and the gallery as its own query set with
        each query's row excluded."""
        gids = np.arange(len(g)) % ids
        qids = rng.integers(ids, size=len(q))
        return [(q, qids, gids, False), (g, gids, gids, True)]

    def clustered(self, rng, d, spread=0.05):
        """Two gallery rows per id around its centre, and queries near the
        centres: most entries rank behind every relevant item."""
        centres = rng.normal(size=(self.NG // 2, d))
        gids = np.arange(self.NG) % (self.NG // 2)
        g = centres[gids] + spread * rng.normal(size=(self.NG, d))
        qids = rng.integers(self.NG // 2, size=14)
        q = centres[qids] + spread * rng.normal(size=(14, d))
        return g, q, gids, qids

    def test_clustered_embeddings(self, blocks, fallback_rows):
        rng = np.random.default_rng(35)
        for d in (1, 3, 8, 33):
            g, q, gids, qids = self.clustered(rng, d)
            for q, qids, gids, exclude_self in ((q, qids, gids, False),
                                                (g, gids, gids, True)):
                self.assert_exact(q, g, qids, gids, exclude_self)
            # a Fortran-order gallery is ranked the same
            self.assert_exact(q, np.asfortranarray(g), qids, gids, False)
        assert not fallback_rows

    def test_random_embeddings(self, blocks, fallback_rows):
        rng = np.random.default_rng(36)
        for d in (1, 3, 8, 33):
            g = rng.normal(size=(self.NG, d))
            q = rng.normal(size=(14, d))
            for q, qids, gids, exclude_self in self.cases(g, q, rng):
                self.assert_exact(q, g, qids, gids, exclude_self)
        # relevant items lie anywhere in the ranking, so with little work
        # space most blocks have too many candidates for the GEMM path
        assert bool(fallback_rows) == bool(blocks)

    @pytest.mark.parametrize("kind", ["duplicate rows", "integer grid",
                                      "scaled copies"])
    def test_inputs_that_need_exact_resolution(self, kind, resolved,
                                               fallback_rows):
        rng = np.random.default_rng(37)
        d = 6
        if kind == "duplicate rows":
            g = rng.normal(size=(self.NG // 4, d))[
                rng.integers(self.NG // 4, size=self.NG)]
            q = np.concatenate([g[:7], rng.normal(size=(7, d))])
        elif kind == "integer grid":
            g = rng.integers(-1, 2, size=(self.NG, d)).astype(float)
            q = rng.integers(-1, 2, size=(14, d)).astype(float)
        else:
            # a large common offset: the GEMM cancels almost every digit
            g = 1e6 + 1e-4 * rng.normal(size=(self.NG, d))
            q = 1e6 + 1e-4 * rng.normal(size=(14, d))
        for q, qids, gids, exclude_self in self.cases(g, q, rng):
            self.assert_exact(q, g, qids, gids, exclude_self)
        assert sum(resolved) > 0 and not fallback_rows

    def test_distances_closer_than_the_bound(self, resolved, fallback_rows):
        # from the origin: 1 and 1 + 2^-52 apart in squared distance, which
        # the square root maps to the same 1.0, so the ranking ties them
        # (lower column first); and two squared distances one unit in the
        # last place apart
        g = np.array([[1.0, 2.0 ** -26], [1.0, 0.0],
                      [1.5, 0.0], [np.nextafter(1.5, 0.0), 0.0],
                      [3.0, 0.0], [0.0, 3.0]])
        q = np.zeros((1, 2))
        for relevant, position in ((1, 1), (2, 3)):
            gids = np.zeros(6, dtype=int)
            gids[relevant] = 1
            report = evaluate_retrieval(q, g, [1], gids, EvalConfig())
            assert report.ranked[0].tolist() == [position]
            self.assert_exact(q, g, [1], gids, False)
        assert min(resolved) > 0 and not fallback_rows

    def test_non_finite_rows_take_the_exact_path(self, blocks, resolved,
                                                 fallback_rows):
        rng = np.random.default_rng(38)
        g, q, gids, qids = self.clustered(rng, 4)
        # squared norms of 3e307, above the bound's limit, though every
        # squared distance stays finite; the two rows tie on every entry
        q[4] *= np.sqrt(3e307) / np.linalg.norm(q[4])
        q[5] = q[4]
        self.assert_exact(q, g, qids, gids, False)
        # only the block holding rows 4 and 5 falls back
        assert fallback_rows == ([3] if blocks else [14])
        assert bool(resolved) == bool(blocks)
        # a gallery row of that norm: every block falls back
        fallback_rows.clear()
        g[7] *= np.sqrt(3e307) / np.linalg.norm(g[7])
        self.assert_exact(q[6:], g, qids[6:], gids, False)
        assert sum(fallback_rows) == 8
        for bad in (np.nan, np.inf, -np.inf):
            # a query or gallery row that is not finite is rejected
            for x in (q, g):
                row = x[2].copy()
                x[2, 1] = bad
                with pytest.raises(ValueError, match="embeddings are not "
                                                     "finite"):
                    evaluate_retrieval(q, g, qids, gids, EvalConfig())
                x[2] = row

    def test_flat_positions_equal_the_exact_ranking(self, blocks,
                                                    fallback_rows):
        # the positions and row pointer themselves, as mAP and CMC take them
        def check(q, g, qids, gids, exclude_self):
            ids = evaluation._checked_ids(len(q), len(g), qids, gids,
                                          exclude_self)
            got = evaluation._certified_ranked(q, g, *ids, exclude_self)
            want = evaluation._ranked_matrix(pairwise_distances(q, g), qids,
                                             gids, exclude_self)
            for a, b in zip(got, want):
                assert a.dtype == b.dtype and np.array_equal(a, b)

        rng = np.random.default_rng(40)
        g, q, gids, qids = self.clustered(rng, 5)
        check(q, g, qids, gids, False)
        check(g, g, gids, gids, True)
        assert not fallback_rows
        g = rng.normal(size=(self.NG, 5))
        for q, qids, gids, exclude_self in self.cases(g, q, rng):
            check(q, g, qids, gids, exclude_self)

    @pytest.mark.parametrize("pattern", ERROR_PATTERNS)
    def test_any_gemm_error_within_its_share_of_the_bound(
            self, pattern, gemm_error, fallback_rows):
        # the relevant items are the items; the error is the GEMM and norm
        # share of E: its float64 share (4D + 6)um (u = 2^-53), less 4um for
        # forming S - |q|^2 and adding the error, plus float32_share
        rng = np.random.default_rng(43)
        gemm_error["size"] = lambda d, m: (
            (4 * d + 2) * 2.0 ** -53 * m + float32_share(d, m))
        for d in (3, 8, 33):
            g, q, _, _ = self.clustered(rng, d)
            base = rng.normal(size=(self.NG // 4, d))
            for g, q in ((g, q),
                         (rng.normal(size=g.shape), rng.normal(size=q.shape)),
                         (base[rng.integers(len(base), size=self.NG)],
                          base[rng.integers(len(base), size=14)]),
                         (rng.integers(-1, 2, size=g.shape) * 1.0,
                          rng.integers(-1, 2, size=q.shape) * 1.0),
                         (1e6 + 1e-4 * g, 1e6 + 1e-4 * q)):
                for q, qids, gids, exclude_self in self.cases(g, q, rng):
                    gemm_error["signs"] = lambda s: ERROR_PATTERNS[pattern](
                        qids[:, None] == gids, rng)
                    self.assert_exact(q, g, qids, gids, exclude_self)
        assert not fallback_rows

    @pytest.mark.parametrize("rel", [1e-7, 1e-9, 1e-12])
    def test_near_ties_at_float32_resolution(self, rel, blocks):
        # ten clustered rows, each shared by ids c and c + 10 and moved by
        # a relative rel, at or below what the float32 GEMM resolves: the
        # exact kernel orders each cluster, relevant items and others alike
        rng = np.random.default_rng(46)
        for d in (3, 32):
            base = rng.normal(size=(10, d))
            gids = np.arange(self.NG) % 20
            qids = rng.integers(20, size=14)
            g = base[gids % 10] * (1 + rel * rng.normal(size=(self.NG, d)))
            q = base[qids % 10] * (1 + rel * rng.normal(size=(14, d)))
            self.assert_exact(q, g, qids, gids, False)
            self.assert_exact(g, g, gids, gids, True)

    def test_a_query_far_beyond_the_gallery_takes_the_exact_path(
            self, blocks, fallback_rows):
        # a squared norm 2^300 times the gallery's does not fit float32
        # once scaled by the gallery's 2^-2e: only its block falls back
        rng = np.random.default_rng(47)
        g, q, gids, qids = self.clustered(rng, 4)
        q[4] = np.ldexp(g[0], 150)
        self.assert_exact(q, g, qids, gids, False)
        assert fallback_rows == ([3] if blocks else [14])

    @pytest.mark.parametrize("scale", [1e150, 1e-160])
    def test_scaled_inputs_are_certified(self, scale, fallback_rows,
                                         monkeypatch):
        # the gallery is scaled by a power of two before the float32 GEMM,
        # so neither large norms nor subnormal products leave its range;
        # the one block may hold any number of candidates
        monkeypatch.setattr(evaluation, "_budget", lambda d: 2.0)
        rng = np.random.default_rng(48)
        g, q, gids, qids = self.clustered(rng, 8)
        self.assert_exact(scale * q, scale * g, qids, gids, False)
        self.assert_exact(scale * g, scale * g, gids, gids, True)
        assert not fallback_rows

    @pytest.mark.parametrize("spread", [0.3, None],
                             ids=["clustered", "random"])
    def test_self_exclusion_memory_below_one_mask(self, spread):
        # a dense N x N boolean mask alone would be N^2 bytes; clustered
        # embeddings take the GEMM path, random ones mostly the exact path
        rng = np.random.default_rng(39)
        n = 4096
        ids = np.arange(n) % 512
        g = rng.normal(size=(n, 16))
        if spread:
            g = rng.normal(size=(512, 16))[ids] + spread * g
        tracemalloc.start()
        try:
            evaluate_retrieval(g, g, ids, ids, EvalConfig(), exclude_self=True)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < n * n


class TestBlasIndependence:
    """The GEMM values the ranking and the re-ranker's gallery rows are
    certified from differ between OpenBLAS kernels; the ranking and the
    re-ranked distances, decided by exact distances, must not."""

    SCRIPT = """
import json
import numpy as np
from dareid import evaluation
rng = np.random.default_rng(40)
centres = rng.normal(size=(128, 32))
gids = np.arange(2048) % 128
g = centres[gids] + 0.9 * rng.normal(size=(2048, 32))
qids = rng.integers(128, size=256)
q = centres[qids] + 0.9 * rng.normal(size=(256, 32))
exact = []
pairwise = evaluation.pairwise_distances


def counting(x, *args):
    exact.append(len(x))
    return pairwise(x, *args)


evaluation.pairwise_distances = counting
report = evaluation.evaluate_retrieval(q, g, qids, gids)
out = {"ranking": [[a.tolist() for a in report.ranked],
                   [ap.hex() for ap in report.per_query_ap]],
       "exact rows": sum(exact)}
exact.clear()
dist = evaluation.k_reciprocal_rerank(q[:64], g[:448])
out["rerank"] = [x.hex() for x in dist.ravel().tolist()]
out["rerank exact rows"] = sum(exact)
print(json.dumps(out))
"""

    def run(self, **settings):
        env = {k: v for k, v in os.environ.items()
               if not k.startswith("OPENBLAS_")}
        env["PYTHONPATH"] = os.pathsep.join(
            [SRC] + [p for p in [env.get("PYTHONPATH")] if p])
        env.update(settings)
        done = subprocess.run([sys.executable, "-c", self.SCRIPT], env=env,
                              capture_output=True, text=True, check=True)
        return json.loads(done.stdout)

    def test_same_ranking_under_every_kernel_and_thread_count(self):
        settings = [{"OPENBLAS_NUM_THREADS": "1"},
                    {"OPENBLAS_NUM_THREADS": "2"}]
        if platform.machine().lower() in ("x86_64", "amd64"):
            settings += [{"OPENBLAS_CORETYPE": "Haswell"},
                         {"OPENBLAS_CORETYPE": "SandyBridge"}]
        base = self.run()
        # no block of the ranking falls back, and the re-ranker computes
        # only the 64 query rows exactly
        assert base["exact rows"] == 0
        assert base["rerank exact rows"] == 64
        for setting in settings:
            assert self.run(**setting) == base, setting


class TestPrecisionRecallPoints:
    def test_simple_pattern(self):
        pts = precision_recall_points(np.array([1, 3]))
        assert pts == [(0.5, 0.5), (1.0, 0.5)]


class TestRerank:
    def test_lambda_one_preserves_ordering(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            q = rng.normal(size=(4, 5))
            g = rng.normal(size=(12, 5))
            base = pairwise_distances(q, g)
            final = k_reciprocal_rerank(q, g, RerankParams(k1=4, k2=2,
                                                           lambda_orig=1.0))
            for i in range(4):
                assert np.array_equal(np.argsort(final[i], kind="stable"),
                                      np.argsort(base[i], kind="stable"))

    def test_lambda_one_gives_the_original_distance(self):
        # at lambda 1 the output is the original distance: the squared
        # distance through the square root and back, divided by its row
        # maximum over the query and gallery rows
        rng = np.random.default_rng(26)
        q, g = rng.normal(size=(2, 4)), rng.normal(size=(6, 4))
        got = k_reciprocal_rerank(
            q, g, RerankParams(k1=3, k2=1, lambda_orig=1.0))
        allf = np.concatenate([q, g])
        d2 = np.square(pairwise_distances(allf, allf))[:2]
        assert np.array_equal(got, d2[:, 2:] / d2.max(axis=1)[:, None])

    def test_metric_is_not_a_parameter(self):
        params = inspect.signature(k_reciprocal_rerank).parameters
        assert list(params) == ["queries", "gallery", "rerank"]
        q, g = np.eye(2, 3), np.eye(3)
        with pytest.raises(TypeError):
            k_reciprocal_rerank(q, g, RerankParams(k1=1, k2=1), "euclidean")

    def test_exact_match_stays_rank_one(self):
        rng = np.random.default_rng(9)
        g = rng.normal(size=(10, 4))
        q = g[3:4].copy()
        final = k_reciprocal_rerank(q, g, RerankParams(k1=3, k2=2))
        assert final[0].argmin() == 3

    def test_matches_reference_translation(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            q = rng.normal(size=(3, 4))
            g = rng.normal(size=(9, 4))
            got = k_reciprocal_rerank(q, g, RerankParams(k1=3, k2=2,
                                                         lambda_orig=0.3))
            ref = rerank_reference(q, g, k1=3, k2=2, lambda_value=0.3)
            assert np.allclose(got, ref, atol=1e-9)
            assert np.array_equal(got, ref)

    def test_default_parameters_against_reference(self):
        rng = np.random.default_rng(11)
        q = rng.normal(size=(5, 6))
        g = rng.normal(size=(30, 6))
        got = k_reciprocal_rerank(q, g)
        ref = rerank_reference(q, g)
        assert np.allclose(got, ref, atol=1e-9)
        assert np.array_equal(got, ref)

    def test_query_set_as_gallery_matches_stably_ranked_reference(
            self, monkeypatch):
        # each row of the all-vs-all matrix holds every distance twice, so
        # the neighbour lists follow the tie rule: lower index first
        g = np.random.default_rng(16).normal(size=(40, 4))
        got = k_reciprocal_rerank(g, g, RerankParams(k1=6, k2=3))
        monkeypatch.setattr(np, "argsort",
                            functools.partial(np.argsort, kind="stable"))
        assert np.array_equal(got, rerank_reference(g, g, k1=6, k2=3))

    def test_no_row_of_the_all_vs_all_matrix_is_sorted(self, monkeypatch):
        # the neighbour lists sort candidate entries only, the top 7 of each
        # row's 64 distances, and no 2-D array is argsorted
        widths = []
        first_k = evaluation._first_k

        def recording(rows, cols, vals, k):
            widths.append(len(rows) / len(np.unique(rows)))
            return first_k(rows, cols, vals, k)
        argsort = np.argsort

        def one_dimensional(a, *args, **kwargs):
            assert np.ndim(a) < 2
            return argsort(a, *args, **kwargs)
        monkeypatch.setattr(evaluation, "_first_k", recording)
        monkeypatch.setattr(np, "argsort", one_dimensional)
        rng = np.random.default_rng(17)
        q, g = rng.normal(size=(8, 3)), rng.normal(size=(56, 3))
        k_reciprocal_rerank(q, g, RerankParams(k1=6, k2=3))
        assert widths and max(widths) == 7

    def test_memory_stays_below_one_dense_matrix(self):
        rng = np.random.default_rng(18)
        q, g = rng.normal(size=(64, 32)), rng.normal(size=(4032, 32))
        tracemalloc.start()
        try:
            k_reciprocal_rerank(q, g)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # one 4096 x 4096 float64 matrix is 128 MiB
        assert peak < 32 * 2**20

    def test_k1_must_be_below_gallery_size(self):
        with pytest.raises(ValueError):
            k_reciprocal_rerank(np.zeros((1, 2)), np.zeros((5, 2)),
                                RerankParams(k1=5, k2=2))

    def test_identical_embeddings_rejected(self):
        same = np.ones((8, 3))
        with pytest.raises(ValueError, match="identical"):
            k_reciprocal_rerank(same[:2], same[2:], RerankParams(k1=3, k2=2))

    def test_gallery_row_whose_distances_all_underflow_rejected(self):
        # every squared distance from the gallery rows at 0 rounds to 0,
        # though the query row's largest is the smallest subnormal
        q, g = np.array([[-1e-162]]), np.array([[0.0], [1e-162], [0.0]])
        with pytest.raises(ValueError, match="identical"):
            k_reciprocal_rerank(q, g, RerankParams(k1=1, k2=1))

    def test_non_finite_embeddings_rejected(self):
        rng = np.random.default_rng(19)
        for bad in (np.nan, np.inf, -np.inf):
            g = rng.normal(size=(8, 3))
            g[5, 1] = bad
            with pytest.raises(ValueError, match="not finite"):
                k_reciprocal_rerank(g[:2], g[2:], RerankParams(k1=3, k2=2))

    def test_overflowing_distances_rejected(self):
        g = np.random.default_rng(20).normal(size=(8, 3))
        g[5, 1] = 1e200
        with np.errstate(over="ignore"), \
                pytest.raises(ValueError, match="overflow"):
            k_reciprocal_rerank(g[:2], g[2:], RerankParams(k1=3, k2=2))

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            RerankParams(lambda_orig=1.5)
        for k1, k2 in ((3, 4), (0, 0), (-3, -3), (-3, 1), (5, 0), (5, -1)):
            with pytest.raises(ValueError, match="k1 must|k2 must"):
                RerankParams(k1=k1, k2=k2)

    def test_exact_distances_only_for_the_query_rows(self, monkeypatch):
        calls = []
        original = evaluation.pairwise_distances

        def counting(x, y):
            calls.append((len(x), len(y)))
            return original(x, y)
        monkeypatch.setattr(evaluation, "pairwise_distances", counting)
        rng = np.random.default_rng(27)
        q, g = rng.normal(size=(512, 8)), rng.normal(size=(1536, 8))
        k_reciprocal_rerank(q, g)
        # every block is certified: one Nq x Ng call gives the blend's
        # distances
        assert calls == [(len(q), len(g))]
        # a common offset leaves the GEMM values almost no digits, so nearly
        # every entry is a candidate: every block takes the exact path, and
        # the query rows are computed once more for the blend
        calls.clear()
        k_reciprocal_rerank(1e6 + 1e-4 * q, 1e6 + 1e-4 * g)
        assert sum(rows for rows, _ in calls) == 2 * len(q) + len(g)
        # a norm too large for the bound: every block takes the exact path
        calls.clear()
        g[0] *= 5.5e153 / np.linalg.norm(g[0])
        k_reciprocal_rerank(q, g)
        assert sum(rows for rows, _ in calls) == 2 * len(q) + len(g)

    def test_smallest_neighbourhoods_accepted(self):
        rng = np.random.default_rng(24)
        q, g = rng.normal(size=(3, 4)), rng.normal(size=(9, 4))
        got = k_reciprocal_rerank(q, g, RerankParams(k1=1, k2=1))
        ref = rerank_reference(q, g, k1=1, k2=1)
        assert np.array_equal(got, ref)


class TestCertifiedDistancePass:
    """The re-ranker's distance pass certifies every row's maximum and
    neighbours from GEMM values, query and gallery rows alike; its outputs
    must equal, ==, those of the pass with every block on the exact path,
    which must equal the dense matrix's."""

    NQ, NG = 14, 40

    @pytest.fixture(params=[None, 3], ids=["one-block", "3-row-blocks"])
    def blocks(self, request, monkeypatch):
        # one block may hold any number of candidates, so it is certified
        # whatever the input; 3-row blocks (of 54 columns, in a quarter of
        # BLOCK_BYTES) make the last block ragged and leave room for 40
        # candidates a block: a block with more falls back
        monkeypatch.setattr(evaluation, "_budget",
                            lambda d: 0.25 if request.param else 2.0)
        if request.param:
            monkeypatch.setattr(evaluation, "BLOCK_BYTES",
                                4 * 8 * (self.NQ + self.NG) * request.param)
        return request.param

    @pytest.fixture
    def exact_rows(self, monkeypatch):
        """The rows of each block given to the exact kernel."""
        rows = []
        original = evaluation.pairwise_distances

        def recording(q, *args, **kwargs):
            rows.append(len(q))
            return original(q, *args, **kwargs)
        monkeypatch.setattr(evaluation, "pairwise_distances", recording)
        return rows

    @staticmethod
    def check(q, g, k, exact_rows):
        """Asserts the three passes agree; returns the rows the certified
        pass computed exactly."""
        allf = np.concatenate([q, g])
        exact_rows.clear()
        got = evaluation._distance_pass(allf, k)
        computed = sum(exact_rows)
        with pytest.MonkeyPatch.context() as patch:
            # no norm is below a zero limit: every block is exact
            patch.setattr(evaluation, "_NORM_LIMIT", 0.0)
            want = evaluation._distance_pass(allf, k)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and np.array_equal(a, b)
        dense = np.square(pairwise_distances(allf, allf))
        peak = dense.max(axis=1)
        dense /= peak[:, None]
        assert np.array_equal(want[0], peak)
        assert np.array_equal(want[1], np.argsort(dense, axis=1,
                                                  kind="stable")[:, :k])
        return computed

    def inputs(self, rng, d):
        q = rng.normal(size=(self.NQ, d))
        g = rng.normal(size=(self.NG, d))
        base = rng.normal(size=(8, d))
        yield "random", q, g
        yield ("duplicate rows", base[rng.integers(8, size=self.NQ)],
               base[rng.integers(8, size=self.NG)])
        # as the final report calls it: every row holds each value twice
        yield "query set as gallery", g, g
        yield ("integer-valued", rng.integers(-2, 3, size=q.shape) * 1.0,
               rng.integers(-2, 3, size=g.shape) * 1.0)
        yield "subnormal products", 1e-160 * q, 1e-160 * g
        # the GEMM cancels almost every digit: its order is noise
        yield "common offset", 1e6 + 1e-4 * q, 1e6 + 1e-4 * g
        yield "large", 1e150 * q, 1e150 * g

    def test_equals_the_exact_pass(self, blocks, exact_rows):
        rng = np.random.default_rng(41)
        fell_back = certified = 0
        for d in (1, 3, 8, 33, 129):
            for kind, q, g in self.inputs(rng, d):
                for k in (3, 7, len(g)):     # k1 = 2, 6, gallery size - 1
                    computed = self.check(q, g, k, exact_rows)
                    if not blocks:
                        # the one block is certified
                        assert computed == 0, (kind, d, k)
                    fell_back += computed > 0
                    certified += computed < len(q) + len(g)
        assert certified and bool(fell_back) == bool(blocks)

    @pytest.mark.parametrize("pattern", ERROR_PATTERNS)
    def test_any_gemm_error_within_its_share_of_the_bound(
            self, pattern, gemm_error, exact_rows):
        # each row's k-th neighbour is the item; the error is E' = E - 13um
        # (u = 2^-53), less 4um for forming S - |x|^2 and adding the error
        # and 3u'm for rounding it to float32 (float32_share)
        rng = np.random.default_rng(44)
        gemm_error["size"] = lambda d, m: (
            (4 * d + 7) * 2.0 ** -53 * m + float32_share(d, m))
        for d in (1, 3, 8, 33, 129):
            for kind, q, g in self.inputs(rng, d):
                for k in (3, 7, len(g)):
                    gemm_error["signs"] = lambda s: ERROR_PATTERNS[pattern](
                        np.arange(s.shape[1]) == np.argsort(
                            s, axis=1, kind="stable")[:, k - 1, None], rng)
                    # every block is certified
                    assert self.check(q, g, k, exact_rows) == 0, (
                        kind, d, k)

    @pytest.mark.parametrize("rel", [1e-7, 1e-9, 1e-12])
    def test_near_ties_at_float32_resolution(self, rel, blocks, exact_rows):
        # six clustered rows moved by a relative rel, at or below what the
        # float32 GEMM resolves: the exact kernel orders each cluster
        rng = np.random.default_rng(52)
        n = self.NQ + self.NG
        for d in (3, 32):
            x = rng.normal(size=(6, d))[rng.integers(6, size=n)]
            x *= 1 + rel * rng.normal(size=(n, d))
            for k in (3, 7, self.NG):
                self.check(x[:self.NQ], x[self.NQ:], k, exact_rows)

    def test_norms_at_the_limit_take_the_exact_path(self, exact_rows):
        rng = np.random.default_rng(42)
        q, g = rng.normal(size=(self.NQ, 4)), rng.normal(size=(self.NG, 4))
        # a squared norm of 3e307 is above the bound's limit, though every
        # squared distance stays finite
        g[5] *= np.sqrt(3e307) / np.linalg.norm(g[5])
        assert self.check(q, g, 7, exact_rows) == self.NQ + self.NG


class TestScaledGallery:
    """The float32 side of the certified paths: the gallery matrix, built
    once per pass, and thresholds converted to float32."""

    @pytest.mark.parametrize("path", ["ranking", "re-ranker"])
    def test_built_once_per_pass(self, path, monkeypatch):
        built = []
        scaled_gallery = evaluation._scaled_gallery

        def counting(g, gn):
            built.append(len(g))
            return scaled_gallery(g, gn)
        monkeypatch.setattr(evaluation, "_scaled_gallery", counting)
        gemm_rows = evaluation._gemm_rows
        blocks = []

        def recording(q, *args):
            blocks.append(len(q))
            return gemm_rows(q, *args)
        monkeypatch.setattr(evaluation, "_gemm_rows", recording)
        # blocks of 4 rows
        monkeypatch.setattr(evaluation, "BLOCK_BYTES", 4 * 8 * 64 * 4)
        rng = np.random.default_rng(49)
        if path == "ranking":
            g, q = rng.normal(size=(64, 8)), rng.normal(size=(30, 8))
            evaluate_retrieval(q, g, np.arange(30) % 16, np.arange(64) % 16)
        else:
            evaluation._distance_pass(rng.normal(size=(64, 8)), 7)
        assert built == [64] and len(blocks) > 1

    def test_scaling_is_exact(self):
        rng = np.random.default_rng(50)
        for scale in (1e-160, 1.0, 3e150):
            g = scale * rng.normal(size=(20, 5))
            gn = evaluation._norms(g)
            e, gmax, rows = evaluation._scaled_gallery(g, gn)
            assert gmax == gn.max()
            assert np.sqrt(gmax) < 2.0 ** e <= 2 * np.sqrt(gmax)
            assert rows.dtype == np.float32 and rows.shape == (6, 20)
            assert np.array_equal(rows[:5], np.ldexp(g.T, -e).astype(
                np.float32))
            assert np.array_equal(rows[5],
                                  np.ldexp(gn, -2 * e).astype(np.float32))

    def test_float32_thresholds_compare_as_float64(self):
        rng = np.random.default_rng(51)
        t = rng.normal(size=2000) * 10.0 ** rng.integers(-30, 30, size=2000)
        t[:3] = 1.0, np.float32(0.1), 2.0 ** -140
        a = np.concatenate([t, np.nextafter(t, np.inf),
                            np.nextafter(t, -np.inf)]).astype(np.float32)
        for le in (True, False):
            r = evaluation._float32(t, le)
            assert r.dtype == np.float32
            for x in a[::37]:
                assert np.array_equal(x <= r if le else x >= r,
                                      x <= t if le else x >= t)


class TestCandidateBudget:
    """One rule, _budget, sets how many candidates a certified block of
    either path may hold: a block with exactly as many as it allows is
    certified, and one with one more takes the exact path."""

    @pytest.mark.parametrize("path", ["ranking", "re-ranker"])
    def test_a_block_at_the_budget_is_certified(self, path, monkeypatch):
        rng = np.random.default_rng(45)
        if path == "ranking":
            q, g = rng.normal(size=(4, 8)), rng.normal(size=(64, 8))
            ids = evaluation._checked_ids(4, 64, np.arange(4),
                                          np.arange(64) % 16, False)
            run = functools.partial(evaluation._certified_ranked, q, g, *ids,
                                    False)
            # one block of 4 x 64 entries; its exact rows when certified
            # and when not
            entries, rows = 4 * 64, (0, 4)
        else:
            allf = rng.normal(size=(64, 8))
            run = functools.partial(evaluation._distance_pass, allf, 7)
            # one block of 64 x 64 entries; its exact rows when certified
            # and when not
            entries, rows = 64 * 64, (0, 64)
        counts, exact = [], []
        candidates = evaluation._candidates
        pairwise = evaluation.pairwise_distances

        def counting(x, y, *masks):
            counts.append(sum(map(np.count_nonzero, masks)))
            return candidates(x, y, *masks)

        def recording(x, *args):
            exact.append(len(x))
            return pairwise(x, *args)
        monkeypatch.setattr(evaluation, "_candidates", counting)
        monkeypatch.setattr(evaluation, "pairwise_distances", recording)
        # the block's candidates, with any number allowed
        monkeypatch.setattr(evaluation, "_budget", lambda d: 1.0)
        run()
        (count,) = counts
        got = []
        for extra, exact_rows in zip((0, 1), rows):
            # a share of a power-of-two block, so the product is exact
            monkeypatch.setattr(evaluation, "_budget",
                                lambda d: (count - extra) / entries)
            exact.clear()
            got.append(run())
            assert sum(exact) == exact_rows, (path, extra)
        for a, b in zip(*got):
            assert a.dtype == b.dtype and np.array_equal(a, b)

    def test_ranking_candidates_stay_within_a_64th_of_block_bytes(self):
        # a full ranking block has BLOCK_BYTES / 8 entries
        entries = evaluation.BLOCK_BYTES / 8
        for d in (1, 8, 32, 40, 128, 4096):
            assert 0 < evaluation._budget(d) * entries <= entries / 8


class TestTopK:
    """The neighbour lists' top-k routine against a stable argsort, from the
    candidates the exact path gives it (the entries at or below each row's
    k-th value), from a wider set and from every entry."""

    @staticmethod
    def check(dist, k):
        want = np.argsort(dist, axis=1, kind="stable")[:, :k]
        kth = np.partition(dist, k - 1, axis=1)[:, k - 1, None]
        for cand in (dist <= kth, dist <= kth + 0.25,
                     np.ones(dist.shape, dtype=bool)):
            rows, cols = np.nonzero(cand)
            got = evaluation._first_k(rows, cols, dist[rows, cols], k)
            assert np.array_equal(got, want)

    def test_untied_rows(self):
        dist = np.random.default_rng(21).normal(size=(7, 50))
        for k in (1, 5, 21, 50):
            self.check(dist, k)

    def test_integer_valued_rows(self):
        dist = np.random.default_rng(22).integers(0, 4, size=(9, 40))
        dist = dist.astype(float)
        for k in (1, 3, 10, 39, 40):
            self.check(dist, k)

    def test_ties_across_the_boundary(self):
        rng = np.random.default_rng(23)
        k = 6
        dist = rng.uniform(size=(5, 30))
        dist[0, [3, 9, 17, 25]] = np.sort(dist[0])[k - 1]  # k-th value x5
        dist[1] = 0.5                                      # one value
        dist[2, ::2] = 0.0                                 # 15 zeros
        dist[3, [29, 0]] = dist[3].min()                   # tie at rank one
        kth = np.sort(dist, axis=1)[:, k - 1]
        assert ((dist <= kth[:, None]).sum(axis=1)[:3] > k).all()
        self.check(dist, k)


class TestEvalConfig:
    def test_fields_are_top_k_and_rerank(self):
        # rankings are Euclidean: no metric is set
        assert [f.name for f in dataclasses.fields(EvalConfig)] == [
            "top_k", "rerank"]
        with pytest.raises(TypeError):
            EvalConfig(metric="euclidean")

    @pytest.mark.parametrize("top_k", [0, -1])
    def test_top_k_below_one_rejected(self, top_k):
        with pytest.raises(ValueError, match="top_k must be >= 1"):
            EvalConfig(top_k=top_k)


class TestEvaluateRetrieval:
    def test_report_consistency(self):
        rng = np.random.default_rng(12)
        g = np.repeat(rng.normal(size=(4, 3)), 3, axis=0)
        g += rng.normal(scale=0.01, size=g.shape)
        gids = np.repeat(np.arange(4), 3)
        q = g[::3] + rng.normal(scale=0.01, size=(4, 3))
        report = evaluate_retrieval(q, g, np.arange(4), gids, EvalConfig())
        assert report.map_at_k == pytest.approx(
            np.mean(report.per_query_ap), abs=1e-12)
        assert report.cmc[1] <= report.cmc[5] <= report.cmc[10]
        assert not report.reranked
        assert report.config["top_k"] == 100

    @pytest.mark.parametrize("rerank", [None, RerankParams(k1=3, k2=2)],
                             ids=["plain", "rerank"])
    def test_overflowing_distances_rejected_without_a_warning(self, rerank):
        # finite embeddings whose squared distances overflow; the suite
        # turns a NumPy RuntimeWarning into an error
        g = np.random.default_rng(20).normal(size=(8, 3))
        g[5, 1] = 1e200
        ids = np.arange(8) % 2
        with pytest.raises(ValueError, match="finite distances, but the "
                                             "squared distances overflow"):
            evaluate_retrieval(g[:2], g[2:], ids[:2], ids[2:],
                               EvalConfig(rerank=rerank))

    def test_one_error_for_embeddings_that_are_not_finite(self):
        # with and without re-ranking, and from the re-ranker itself: one
        # message, raised before any distance is computed
        rng = np.random.default_rng(21)
        ids = np.arange(8) % 2
        for bad in (np.nan, np.inf, -np.inf):
            for row in (0, 5):      # a query row, a gallery row
                g = rng.normal(size=(8, 3))
                g[row, 1] = bad
                errors = []
                for call in (
                        lambda: evaluate_retrieval(g[:2], g[2:], ids[:2],
                                                   ids[2:]),
                        lambda: evaluate_retrieval(
                            g[:2], g[2:], ids[:2], ids[2:],
                            EvalConfig(rerank=RerankParams(k1=3, k2=2))),
                        lambda: k_reciprocal_rerank(
                            g[:2], g[2:], RerankParams(k1=3, k2=2))):
                    with pytest.raises(ValueError) as error:
                        call()
                    errors.append(str(error.value))
                assert errors == ["retrieval needs finite embeddings, but "
                                  "the embeddings are not finite"] * 3

    def test_one_error_for_distances_that_overflow(self, monkeypatch):
        # plain, re-ranked and the re-ranker's exact path: the one message
        g = np.random.default_rng(20).normal(size=(8, 3))
        g[5, 1] = 1e200
        ids = np.arange(8) % 2
        rerank = EvalConfig(rerank=RerankParams(k1=3, k2=2))
        errors = []
        for call in (
                lambda: evaluate_retrieval(g[:2], g[2:], ids[:2], ids[2:]),
                lambda: evaluate_retrieval(g[:2], g[2:], ids[:2], ids[2:],
                                           rerank),
                # the query rows' distances are finite: the distance pass
                # over the gallery rows raises
                lambda: evaluate_retrieval(g[:4], g, ids[:4], ids, rerank),
                lambda: evaluation._exact_rows(g, g, 3)):
            with pytest.raises(ValueError) as error:
                call()
            errors.append(str(error.value))
        assert errors == ["retrieval needs finite distances, but the "
                          "squared distances overflow"] * 4

    def test_first_evaluations_import_no_masked_arrays(self):
        # numpy.ma is imported by np.unique on an int array, and its
        # modules would show in the first re-ranked call's allocations
        script = (
            "import sys\n"
            "import numpy as np\n"
            "from dareid.evaluation import (EvalConfig, RerankParams,\n"
            "                               evaluate_retrieval)\n"
            "g = np.random.default_rng(0).normal(size=(40, 4))\n"
            "ids = np.arange(40) % 8\n"
            "evaluate_retrieval(g, g, ids, ids, exclude_self=True)\n"
            "evaluate_retrieval(g, g, ids, ids, EvalConfig(\n"
            "    rerank=RerankParams(k1=6, k2=3)), exclude_self=True)\n"
            "print('numpy.ma' in sys.modules)\n")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [SRC] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, check=True)
        assert done.stdout.strip() == "False"

    def test_infinite_embeddings_rank_without_a_warning(self):
        # infinite embeddings are rejected before inf - inf can make a NaN;
        # the suite turns a NumPy RuntimeWarning into an error
        q = np.array([[np.inf, 0.0], [1.0, 2.0]])
        g = np.array([[np.inf, 1.0], [0.0, 0.0], [1.0, 1.0]])
        with pytest.raises(ValueError, match="embeddings are not finite"):
            evaluate_retrieval(q, g, [0, 1], [0, 1, 1])

    def test_ranked_is_flat_positions_and_row_pointer(self):
        # query 0 ranks the gallery 0,1,2,3 and query 1 ranks it 3,2,1,0;
        # their relevant items sit at positions 0,3 and 1,2
        report = evaluate_retrieval(
            np.array([[0.0], [10.2]]), np.array([[1.0], [2.0], [9.0], [11.0]]),
            [0, 1], [0, 1, 1, 0], EvalConfig())
        pos, ptr = report.ranked
        assert pos.tolist() == [0, 3, 1, 2] and ptr.tolist() == [0, 2, 4]
        assert report.per_query_ap == pytest.approx([0.75, 7 / 12],
                                                    abs=1e-15)

    def test_json_round_trip(self):
        import json
        rng = np.random.default_rng(13)
        g = rng.normal(size=(6, 3))
        report = evaluate_retrieval(g, g, np.arange(6), np.arange(6),
                                    EvalConfig(top_k=5))
        parsed = json.loads(report.to_json())
        assert parsed["mAP"] == report.map_at_k
        assert parsed["config"]["top_k"] == 5

    def test_config_records_the_rerank_params(self):
        rng = np.random.default_rng(16)
        g = rng.normal(size=(8, 3))
        ids = np.arange(8) % 4
        report = evaluate_retrieval(
            g[:4], g, ids[:4], ids,
            EvalConfig(top_k=5, rerank=RerankParams(k1=4, k2=2)))
        want = {"top_k": 5,
                "rerank": {"k1": 4, "k2": 2, "lambda_orig": 0.3}}
        assert report.reranked and report.config == want
        assert json.loads(report.to_json())["config"] == want

    def test_tied_distances_with_exclusions_match_the_metric_functions(self):
        rng = np.random.default_rng(14)
        # integer points repeat, so many distances tie exactly, and some
        # own columns tie at 0 with a duplicate point
        g = rng.integers(0, 3, size=(12, 2)).astype(float)
        ids = np.tile(np.arange(3), 4)
        dist = pairwise_distances(g, g)
        assert len(np.unique(dist)) < dist.size
        assert ((dist == 0).sum(axis=1) > 1).any()
        config = EvalConfig(top_k=4)
        report = evaluate_retrieval(g, g, ids, ids, config, exclude_self=True)
        map_k, aps = mean_average_precision(dist, ids, ids, 4,
                                            exclude_self=True)
        assert report.per_query_ap == aps
        assert report.map_at_k == map_k
        assert report.cmc == cmc(dist, ids, ids, exclude_self=True)
        eye = np.eye(12, dtype=bool)
        assert aps == pytest.approx(
            [ap_brute_force(dist[i], ids[i], ids, 4, eye[i])
             for i in range(12)], abs=1e-12)

    def test_each_distance_matrix_is_sorted_once(self, monkeypatch):
        # the matrix path: nothing is argsorted, and the distance values
        # np.sort sees are the rows of the distance matrix, each row once
        argsorts, sorted_values = [], []
        sort, argsort = np.sort, np.argsort

        def recording_sort(a, *args, **kwargs):
            if np.asarray(a).dtype.kind == "f":
                sorted_values.append(np.array(a))
            return sort(a, *args, **kwargs)

        def recording_argsort(*args, **kwargs):
            argsorts.append(1)
            return argsort(*args, **kwargs)
        monkeypatch.setattr(np, "sort", recording_sort)
        monkeypatch.setattr(np, "argsort", recording_argsort)
        rng = np.random.default_rng(15)
        g = rng.normal(size=(8, 3))
        dist = pairwise_distances(g, g)
        mean_average_precision(dist, np.arange(8) % 4, np.arange(8) % 4, 100,
                               exclude_self=True)
        assert not argsorts
        assert all(v.ndim == 2 for v in sorted_values)
        assert np.array_equal(np.concatenate(sorted_values), dist)

    def test_certified_path_sorts_no_distance_row(self, monkeypatch):
        # without re-ranking: no distance matrix, nothing argsorted, no
        # float array sorted, and the exact values ranked are those of the
        # relevant entries, the own columns and entries no farther than
        # their row's farthest relevant item
        argsorts, float_sorts, resolved = [], [], []
        sort, argsort = np.sort, np.argsort
        resolve = evaluation._resolve

        def recording_sort(a, *args, **kwargs):
            if np.asarray(a).dtype.kind == "f":
                float_sorts.append(np.shape(a))
            return sort(a, *args, **kwargs)

        def recording_argsort(*args, **kwargs):
            argsorts.append(1)
            return argsort(*args, **kwargs)

        def recording_resolve(rows, cols, dist, kept, at):
            resolved.append((rows, cols, kept))
            return resolve(rows, cols, dist, kept, at)

        def no_distances(*args):
            raise AssertionError("pairwise_distances called")
        monkeypatch.setattr(np, "sort", recording_sort)
        monkeypatch.setattr(np, "argsort", recording_argsort)
        monkeypatch.setattr(evaluation, "_resolve", recording_resolve)
        monkeypatch.setattr(evaluation, "pairwise_distances", no_distances)
        # the one block may hold any number of candidates
        monkeypatch.setattr(evaluation, "_budget", lambda d: 2.0)
        rng = np.random.default_rng(15)
        g = rng.normal(size=(64, 3))
        ids = np.arange(64) % 16
        evaluate_retrieval(g, g, ids, ids, EvalConfig(), exclude_self=True)
        assert not argsorts and not float_sorts
        # one block; the own columns are the diagonal, so the kept entries
        # of another id are neither relevant nor a query's own column
        (rows, cols, kept), = resolved
        dist = pairwise_distances(g, g)
        farthest = np.where(ids[:, None] == ids, dist, 0.0).max(axis=1)
        others = kept & (ids[rows] != ids[cols])
        assert (dist[rows, cols][others]
                <= farthest[rows[others]] + 1e-9).all()

    def test_memory_does_not_grow_with_the_queries(self):
        # without re-ranking, the distances are ranked a block of rows at a
        # time: the peak is one block's work space plus the positions
        rng = np.random.default_rng(30)
        g = rng.normal(size=(4096, 16))
        gids = np.arange(4096) % 512            # 8 relevant items per query
        peaks, kept = {}, 0
        for nq in (256, 1024):
            q = rng.normal(size=(nq, 16))
            qids = rng.integers(512, size=nq)
            tracemalloc.start()
            try:
                report = evaluate_retrieval(q, g, qids, gids)
                _, peaks[nq] = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            kept = sum(a.nbytes for a in report.ranked)
        assert peaks[1024] - peaks[256] < 2**20 + kept
        assert peaks[1024] < 1024 * 4096 * 8


class TestShapeChecks:
    """Ids that do not fit the distances, and a self-exclusion that does
    not, fail instead of being broadcast."""

    dist = np.random.default_rng(31).uniform(size=(3, 6))
    gids = np.array([1, 2, 1, 2, 1, 2])

    def test_one_query_id_for_three_rows(self):
        with pytest.raises(ValueError, match="1 query ids for 3 query rows"):
            mean_average_precision(self.dist, [1], self.gids, k=5)

    def test_gallery_ids_longer_than_the_columns(self):
        with pytest.raises(ValueError,
                           match="7 gallery ids for 6 gallery columns"):
            cmc(self.dist, [1, 2, 1], np.append(self.gids, 1))

    def test_evaluate_with_one_query_id_for_three_rows(self):
        rng = np.random.default_rng(32)
        q, g = rng.normal(size=(3, 2)), rng.normal(size=(6, 2))
        with pytest.raises(ValueError, match="1 query ids for 3 query rows"):
            evaluate_retrieval(q, g, [1], self.gids)

    @pytest.fixture(params=[mean_average_precision, cmc, evaluate_retrieval],
                    ids=lambda f: f.__name__)
    def public(self, request):
        """A public evaluation function and its positional arguments: 3
        queries, 6 gallery columns."""
        q, g = np.zeros((3, 2)), np.ones((6, 2))
        return request.param, {
            mean_average_precision: (self.dist, [1, 2, 1], self.gids, 5),
            cmc: (self.dist, [1, 2, 1], self.gids, CMC_RANKS),
            evaluate_retrieval: (q, g, [1, 2, 1], self.gids, None),
        }[request.param]

    def test_exclude_self_needs_one_gallery_item_per_query(self, public):
        f, args = public
        with pytest.raises(ValueError,
                           match="not 3 queries and 6 gallery columns"):
            f(*args, exclude_self=True)

    def test_exclusion_is_one_keyword_flag(self, public):
        # index arrays are taken neither by name nor in the flag's place
        f, args = public
        param = inspect.signature(f).parameters["exclude_self"]
        assert param.kind == param.KEYWORD_ONLY and param.default is False
        with pytest.raises(TypeError):
            f(*args, exclude=([0], [0]))
        with pytest.raises(TypeError):
            f(*args, ([0], [0]))

    @pytest.mark.parametrize("f", [mean_average_precision, cmc,
                                   evaluate_retrieval],
                             ids=lambda f: f.__name__)
    def test_query_matching_only_itself_listed_in_error(self, f):
        # ids 0 and 2 occur once: with its own column, each query finds
        # itself; without it, queries 0 and 3 have nothing to find
        ids = [0, 1, 1, 2]
        x = np.arange(8.0).reshape(4, 2)
        dist = naive_distances(x, x)
        args = {mean_average_precision: (dist, ids, ids, 5),
                cmc: (dist, ids, ids),
                evaluate_retrieval: (x, x, ids, ids)}[f]
        f(*args)
        with pytest.raises(ValueError,
                           match=r"no relevant gallery items: \[0, 3\]"):
            f(*args, exclude_self=True)

    def test_zero_queries(self):
        with pytest.raises(ValueError, match="no queries"):
            mean_average_precision(self.dist[:0], [], self.gids, k=5)
        with pytest.raises(ValueError, match="no queries"):
            evaluate_retrieval(np.zeros((0, 2)), np.ones((6, 2)), [],
                               self.gids)


class TestIndexHelpers:
    """The CSR index helpers the ranking and the re-ranker share."""

    def test_ranges_concatenates_aranges(self):
        starts = np.array([4, 0, 9, 2])
        lengths = np.array([3, 0, 1, 2])
        assert evaluation._ranges(starts, lengths).tolist() == [
            4, 5, 6, 9, 2, 3]
        assert evaluation._ranges(starts[:0], lengths[:0]).tolist() == []

    def test_row_ptr_of_ascending_rows(self):
        # rows without entries, at the start, inside and at the end, take
        # no span
        ptr = evaluation._row_ptr(np.array([1, 1, 3, 3, 3, 4]), 7)
        assert ptr.tolist() == [0, 0, 2, 2, 5, 6, 6, 6]

    def test_member_matches_isin(self):
        rng = np.random.default_rng(43)
        keys = rng.integers(0, 30, size=50)
        for sorted_keys in (np.unique(rng.integers(0, 30, size=12)),
                            np.array([29])):
            assert np.array_equal(evaluation._member(sorted_keys, keys),
                                  np.isin(keys, sorted_keys))

    def test_reciprocal_matches_the_definition(self):
        rng = np.random.default_rng(44)
        near = np.array([rng.permutation(9)[:4] for _ in range(9)])
        want = [[i in near[j] for j in row] for i, row in enumerate(near)]
        assert evaluation._reciprocal(near).tolist() == want
