import functools
import tracemalloc

import numpy as np
import pytest

from oracles import (ap_brute_force, cmc_brute_force, naive_distances,
                     rerank_reference)

from dareid import evaluation
from dareid.evaluation import (CMC_RANKS, EvalConfig, RerankParams, _top_k,
                               cmc, evaluate_retrieval,
                               k_reciprocal_rerank,
                               mean_average_precision, pairwise_distances,
                               precision_recall_points)


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
        for squared, metric in ((False, "euclidean"),
                                (True, "squared-euclidean")):
            got = pairwise_distances(q, g, metric)
            assert np.allclose(got, naive_distances(q, g, squared), atol=1e-12)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            pairwise_distances(np.zeros((1, 3)), np.zeros((1, 4)))

    def test_symmetry_under_role_swap(self):
        rng = np.random.default_rng(1)
        a, b = rng.normal(size=(3, 5)), rng.normal(size=(4, 5))
        assert np.allclose(pairwise_distances(a, b),
                           pairwise_distances(b, a).T, atol=1e-12)

    def test_blocked_equals_unblocked_broadcast_bitwise(self):
        rng = np.random.default_rng(3)
        g = rng.normal(size=(4096, 8))
        rows = evaluation.BLOCK_BYTES // (9 * 8 * len(g))
        # three full blocks and a ragged fourth
        cases = [(rng.normal(size=(3 * rows + rows // 2, 8)), g)]
        # every branch of NumPy's pairwise summation order: no term, fewer
        # than 8, up to 128 with and without a D % 8 tail, above 128 (one
        # split) and above 256 (a split within a split)
        for d in (0, 1, 7, 8, 9, 32, 129, 300):
            cases.append((rng.normal(size=(5, d)), rng.normal(size=(64, d))))
        # integer values: repeated rows, equal distances and zeros
        ints = rng.integers(-2, 3, size=(64, 9)).astype(float)
        cases.append((ints[:16], ints))
        for q, g in cases:
            sq = ((q[:, None, :] - g[None, :, :]) ** 2).sum(axis=2)
            assert np.array_equal(
                pairwise_distances(q, g, "squared-euclidean"), sq)
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

    def test_exclusion_mask(self):
        dist = np.array([[0.1, 0.2, 0.3]])
        exclude = np.array([[True, False, False]])
        map_k, _ = mean_average_precision(dist, [1], [1, 0, 1], k=10,
                                          exclude=exclude)
        assert map_k == pytest.approx(0.5, abs=1e-12)

    def test_map_in_unit_interval(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            dist = rng.uniform(size=(3, 8))
            gids = np.concatenate([np.arange(2), rng.integers(2, size=6)])
            map_k, _ = mean_average_precision(dist, rng.integers(2, size=3),
                                              gids, k=4)
            assert 0.0 <= map_k <= 1.0


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
        positions = evaluation._ranked_matrix(dist, qids, gids, None)
        for qid, row, got in zip(qids, dist, positions):
            assert np.array_equal(got, np.flatnonzero(
                gids[np.argsort(row, kind="stable")] == qid))


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
        kinds = [rng.normal(size=self.NG),                      # untied
                 rng.integers(0, 4, size=self.NG).astype(float),  # tied
                 np.where(rng.uniform(size=self.NG) < 0.3, np.nan,
                          rng.integers(0, 3, size=self.NG)),      # NaN
                 np.full(self.NG, 0.5),                           # all equal
                 np.full(self.NG, np.nan)]                        # all NaN
        dist = np.array([kinds[i % 5] for i in range(4 * self.ROWS + 2)])
        gids = np.arange(self.NG) % 4
        qids = np.arange(len(dist)) % 4
        exclude = rng.uniform(size=dist.shape) < 0.3
        exclude[:, :4] = False          # each query keeps a relevant item
        for mask in (None, exclude):
            aps = mean_average_precision(dist, qids, gids, 7, mask)[1]
            self.check(dist, qids, gids, 7, mask,
                       evaluation._ranked_matrix(dist, qids, gids, mask),
                       aps, cmc(dist, qids, gids, exclude=mask))

    @pytest.mark.parametrize("rerank", [None, RerankParams(k1=5, k2=3)])
    def test_evaluate_retrieval(self, rerank):
        rng = np.random.default_rng(29)
        g = rng.integers(0, 3, size=(self.NG, 2)).astype(float)
        gids = np.arange(self.NG) % 4
        q = np.concatenate([rng.normal(size=(5, 2)), g[:9]])
        qids = np.concatenate([rng.integers(4, size=5), gids[:9]])
        exclude = rng.uniform(size=(len(q), self.NG)) < 0.3
        exclude[:, :4] = False
        # and the query set as gallery, each query's own row excluded
        for q, qids, mask in ((q, qids, exclude),
                              (g, gids, np.eye(self.NG, dtype=bool))):
            report = evaluate_retrieval(q, g, qids, gids,
                                        EvalConfig(top_k=7, rerank=rerank),
                                        mask)
            dist = (pairwise_distances(q, g) if rerank is None
                    else k_reciprocal_rerank(q, g, rerank))
            self.check(dist, qids, gids, 7, mask, report.positions,
                       report.per_query_ap, report.cmc)


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
        row_widths = []
        argsort = np.argsort

        def recording(a, *args, **kwargs):
            if np.ndim(a) == 2:
                row_widths.append(np.shape(a)[1])
            return argsort(a, *args, **kwargs)
        monkeypatch.setattr(np, "argsort", recording)
        rng = np.random.default_rng(17)
        q, g = rng.normal(size=(8, 3)), rng.normal(size=(56, 3))
        k_reciprocal_rerank(q, g, RerankParams(k1=6, k2=3))
        # the rows hold 64 distances; only the top-7 candidates are sorted
        assert row_widths and max(row_widths) < 64

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

    def test_squared_metric_blends_squared_distances(self):
        # at lambda 1 the output is the original distance: the squared
        # distance divided by its row maximum over the query and gallery rows
        rng = np.random.default_rng(26)
        q, g = rng.normal(size=(2, 4)), rng.normal(size=(6, 4))
        got = k_reciprocal_rerank(
            q, g, RerankParams(k1=3, k2=1, lambda_orig=1.0),
            "squared-euclidean")
        allf = np.concatenate([q, g])
        d2 = pairwise_distances(allf, allf, "squared-euclidean")[:2]
        assert np.allclose(got, d2[:, 2:] / d2.max(axis=1)[:, None],
                           rtol=0, atol=1e-12)

    def test_distances_are_computed_once_per_block_of_rows(self, monkeypatch):
        calls = []
        original = evaluation.pairwise_distances

        def counting(*args, **kwargs):
            calls.append(len(args[0]))
            return original(*args, **kwargs)
        monkeypatch.setattr(evaluation, "pairwise_distances", counting)
        rng = np.random.default_rng(27)
        q, g = rng.normal(size=(512, 8)), rng.normal(size=(1536, 8))
        k_reciprocal_rerank(q, g)
        n = len(q) + len(g)
        assert sum(calls) == n
        blocks = -(-n // evaluation._block_rows(n))
        assert blocks == 8 and len(calls) <= blocks

    def test_smallest_neighbourhoods_accepted(self):
        rng = np.random.default_rng(24)
        q, g = rng.normal(size=(3, 4)), rng.normal(size=(9, 4))
        got = k_reciprocal_rerank(q, g, RerankParams(k1=1, k2=1))
        ref = rerank_reference(q, g, k1=1, k2=1)
        assert np.array_equal(got, ref)


class TestTopK:
    @staticmethod
    def expected(dist, k):
        return np.argsort(dist, axis=1, kind="stable")[:, :k]

    def test_untied_rows(self):
        dist = np.random.default_rng(21).normal(size=(7, 50))
        for k in (1, 5, 21, 50):
            assert np.array_equal(_top_k(dist, k), self.expected(dist, k))

    def test_integer_valued_rows(self):
        dist = np.random.default_rng(22).integers(0, 4, size=(9, 40))
        dist = dist.astype(float)
        for k in (1, 3, 10, 39, 40):
            assert np.array_equal(_top_k(dist, k), self.expected(dist, k))

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
        assert np.array_equal(_top_k(dist, k), self.expected(dist, k))


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

    def test_json_round_trip(self):
        import json
        rng = np.random.default_rng(13)
        g = rng.normal(size=(6, 3))
        report = evaluate_retrieval(g, g, np.arange(6), np.arange(6),
                                    EvalConfig(top_k=5))
        parsed = json.loads(report.to_json())
        assert parsed["mAP"] == report.map_at_k
        assert parsed["config"]["top_k"] == 5

    def test_tied_distances_with_exclusions_match_the_metric_functions(self):
        rng = np.random.default_rng(14)
        # integer points repeat, so many distances tie exactly
        g = rng.integers(0, 3, size=(12, 2)).astype(float)
        q = rng.integers(0, 3, size=(6, 2)).astype(float)
        gids = np.tile(np.arange(3), 4)
        qids = np.arange(6) % 3
        exclude = rng.uniform(size=(6, 12)) < 0.3
        exclude[:, :3] = False          # each query keeps a relevant item
        dist = pairwise_distances(q, g)
        assert len(np.unique(dist)) < dist.size
        config = EvalConfig(top_k=4)
        report = evaluate_retrieval(q, g, qids, gids, config, exclude)
        map_k, aps = mean_average_precision(dist, qids, gids, 4, exclude)
        assert report.per_query_ap == aps
        assert report.map_at_k == map_k
        assert report.cmc == cmc(dist, qids, gids, exclude=exclude)
        assert aps == pytest.approx(
            [ap_brute_force(dist[i], qids[i], gids, 4, exclude[i])
             for i in range(6)], abs=1e-12)

    def test_each_distance_matrix_is_sorted_once(self, monkeypatch):
        # nothing is argsorted, and the distance values np.sort sees are
        # the rows of the distance matrix, each row once
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
        evaluate_retrieval(g, g, np.arange(8) % 4, np.arange(8) % 4,
                           EvalConfig(), np.eye(8, dtype=bool))
        assert not argsorts
        assert all(v.ndim == 2 for v in sorted_values)
        assert np.array_equal(np.concatenate(sorted_values),
                              pairwise_distances(g, g))

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
            kept = sum(p.nbytes for p in report.positions)
        assert peaks[1024] - peaks[256] < 2**20 + kept
        assert peaks[1024] < 1024 * 4096 * 8


class TestShapeChecks:
    """Ids and masks that do not fit the distances fail instead of being
    broadcast."""

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

    def test_exclude_of_one_row(self):
        with pytest.raises(ValueError, match=r"shape \(1, 6\), expected "
                                             r"\(3, 6\)"):
            mean_average_precision(self.dist, [1, 2, 1], self.gids, k=5,
                                   exclude=np.zeros((1, 6), dtype=bool))

    def test_zero_queries(self):
        with pytest.raises(ValueError, match="no queries"):
            mean_average_precision(self.dist[:0], [], self.gids, k=5)
        with pytest.raises(ValueError, match="no queries"):
            evaluate_retrieval(np.zeros((0, 2)), np.ones((6, 2)), [],
                               self.gids)
