"""Retrieval evaluation: distance matrices, rank-K mAP, CMC, and
k-reciprocal re-ranking.

Ranking always sorts distances ascending with ties broken by gallery index
(stable sort), so results are deterministic.
"""

import json
from dataclasses import asdict, dataclass, field
from typing import Optional

import numpy as np


@dataclass
class RerankParams:
    k1: int = 20
    k2: int = 6
    lambda_orig: float = 0.3

    def __post_init__(self):
        if not 0.0 <= self.lambda_orig <= 1.0:
            raise ValueError("lambda_orig must be in [0, 1]")
        if self.k2 > self.k1:
            raise ValueError("k2 must not exceed k1")


@dataclass
class EvalConfig:
    top_k: int = 100
    metric: str = "euclidean"
    rerank: Optional[RerankParams] = None

    def __post_init__(self):
        if self.top_k < 1:
            raise ValueError("top_k must be >= 1")
        if self.metric not in ("euclidean", "squared-euclidean"):
            raise ValueError(f"unknown metric {self.metric!r}")


@dataclass
class EvalReport:
    map_at_k: float
    per_query_ap: list
    cmc: dict                 # rank -> hit rate
    config: dict
    reranked: bool
    # the _ranked_matches rows the metrics were computed from; not serialised
    ranked: list = field(repr=False, compare=False)

    def to_json(self):
        return json.dumps({
            "mAP": self.map_at_k,
            "per_query_ap": self.per_query_ap,
            "cmc": {str(r): v for r, v in self.cmc.items()},
            "config": self.config,
            "reranked": self.reranked,
        }, indent=2)


# pairwise_distances works on blocks of query rows whose Nb x Ng x D
# difference tensor stays within this many bytes (one row at least),
# whatever the number of queries.
BLOCK_BYTES = 4 * 2**20


def pairwise_distances(queries, gallery, metric="euclidean"):
    """Distance matrix between query rows and gallery rows.

    Each entry is summed over the same D contiguous differences as the
    unblocked broadcast, so the result does not depend on the block size;
    memory is the Nq x Ng output plus one block.
    """
    q = np.asarray(queries, dtype=np.float64)
    g = np.asarray(gallery, dtype=np.float64)
    if q.shape[1] != g.shape[1]:
        raise ValueError(f"dimension mismatch: {q.shape[1]} vs {g.shape[1]}")
    if metric not in ("euclidean", "squared-euclidean"):
        raise ValueError(f"unknown metric {metric!r}")
    out = np.empty((q.shape[0], g.shape[0]))
    rows = max(1, BLOCK_BYTES // max(1, g.nbytes))
    for start in range(0, q.shape[0], rows):
        block = q[start:start + rows]
        ((block[:, None, :] - g[None, :, :]) ** 2).sum(
            axis=2, out=out[start:start + rows])
    if metric == "euclidean":
        np.sqrt(np.maximum(out, 0.0, out=out), out=out)
    return out


def _stable_argsort(dist):
    """Row-wise ascending order of a 2-D array, ties broken by column index.

    Equal to np.argsort(dist, axis=1, kind="stable"): a row whose values
    strictly increase once sorted has exactly one sorted order, so only rows
    with a tie (or a NaN, which compares false) are sorted again, stably.
    """
    order = np.argsort(dist, axis=1)
    v = np.take_along_axis(dist, order, axis=1)
    tied = ~(v[:, 1:] > v[:, :-1]).all(axis=1)
    if tied.any():
        order[tied] = np.argsort(dist[tied], axis=1, kind="stable")
    return order


CMC_RANKS = (1, 5, 10)


def _ranked_matches(dist, query_ids, gallery_ids, exclude):
    """Per query: relevance of gallery items in ranked order, exclusions
    removed. The only place this module ranks: every metric and the PR
    points come from these rows. Errors if a query has no relevant item."""
    query_ids = np.asarray(query_ids).reshape(-1)
    gallery_ids = np.asarray(gallery_ids).reshape(-1)
    order = _stable_argsort(np.asarray(dist))
    ranked = list(gallery_ids[order] == query_ids[:, None])
    if exclude is not None:
        kept = ~np.take_along_axis(exclude, order, axis=1)
        ranked = [m[k] for m, k in zip(ranked, kept)]
    empty = [qi for qi, m in enumerate(ranked) if not m.any()]
    if empty:
        raise ValueError(f"queries with no relevant gallery items: {empty}")
    return ranked


def average_precision_at_k(matches, k):
    """AP from a ranked boolean relevance vector, truncated to the top k."""
    num_rel = int(matches.sum())
    if num_rel == 0:
        raise ValueError("query has no relevant gallery items")
    top = matches[:k]
    hits = np.cumsum(top)
    precisions = hits[top] / (np.flatnonzero(top) + 1.0)
    return float(precisions.sum() / min(num_rel, k))


def _map_of_ranked(ranked, k):
    aps = [average_precision_at_k(m, k) for m in ranked]
    return float(np.mean(aps)), aps


def _cmc_of_ranked(ranked, ranks):
    # argmax is the first hit, as _ranked_matches leaves no row without one
    first_hit = np.array([int(m.argmax()) for m in ranked])
    return {r: float((first_hit < r).mean()) for r in ranks}


def mean_average_precision(dist, query_ids, gallery_ids, k, exclude=None):
    """mAP@k plus per-query APs; errors if any query lacks relevant items."""
    return _map_of_ranked(
        _ranked_matches(dist, query_ids, gallery_ids, exclude), k)


def cmc(dist, query_ids, gallery_ids, ranks=CMC_RANKS, exclude=None):
    """Fraction of queries whose first relevant item appears within each rank."""
    return _cmc_of_ranked(
        _ranked_matches(dist, query_ids, gallery_ids, exclude), ranks)


def precision_recall_points(matches):
    """(recall, precision) at each relevant hit of one ranked relevance vector."""
    num_rel = int(matches.sum())
    hits = np.cumsum(matches)
    pos = np.flatnonzero(matches)
    return [(float(hits[p] / num_rel), float(hits[p] / (p + 1))) for p in pos]


# ---- k-reciprocal re-ranking ----

def _reciprocal_set(rank, i, k):
    forward = rank[i, :k + 1]
    back = rank[forward, :k + 1]
    return forward[np.any(back == i, axis=1)]


def _encode_neighbors(original, rank, k1):
    """Row-normalized Gaussian weights over expanded k-reciprocal sets."""
    n = original.shape[0]
    half = int(round(k1 / 2.0))
    recip = [_reciprocal_set(rank, i, k1) for i in range(n)]
    recip_half = [_reciprocal_set(rank, i, half) for i in range(n)]
    v = np.zeros_like(original)
    for i in range(n):
        expanded = recip[i]
        for cand in recip[i]:
            overlap = np.intersect1d(recip_half[cand], recip[i])
            if len(overlap) > (2.0 / 3.0) * len(recip_half[cand]):
                expanded = np.append(expanded, recip_half[cand])
        expanded = np.unique(expanded)
        weight = np.exp(-original[i, expanded])
        v[i, expanded] = weight / weight.sum()
    return v


def _jaccard_distances(v, num_queries):
    n = v.shape[0]
    owners = [np.flatnonzero(v[:, j]) for j in range(n)]
    jac = np.zeros((num_queries, n))
    for i in range(num_queries):
        overlap = np.zeros(n)
        for j in np.flatnonzero(v[i]):
            overlap[owners[j]] += np.minimum(v[i, j], v[owners[j], j])
        jac[i] = 1.0 - overlap / (2.0 - overlap)
    return jac


def k_reciprocal_rerank(queries, gallery, rerank=None, metric="euclidean"):
    """Blend the original distances with a Jaccard distance over k-reciprocal
    neighbor sets (with local query expansion), returning an Nq x Ng matrix.
    """
    if rerank is None:
        rerank = RerankParams()
    q = np.asarray(queries, dtype=np.float64)
    g = np.asarray(gallery, dtype=np.float64)
    if rerank.k1 >= g.shape[0]:
        raise ValueError(f"k1={rerank.k1} must be below gallery size {g.shape[0]}")
    nq = q.shape[0]
    allf = np.concatenate([q, g])
    original = pairwise_distances(allf, allf, metric) ** 2
    col_max = original.max(axis=0)
    if not np.all(col_max > 0):
        raise ValueError("k-reciprocal re-ranking needs distinct embeddings, "
                         "but all query and gallery embeddings are identical")
    original = (original / col_max).T
    rank = np.argsort(original, axis=1, kind="stable")

    v = _encode_neighbors(original, rank, rerank.k1)
    if rerank.k2 != 1:
        v = np.stack([v[rank[i, :rerank.k2]].mean(axis=0)
                      for i in range(v.shape[0])])
    jac = _jaccard_distances(v, nq)
    final = (rerank.lambda_orig * original[:nq]
             + (1.0 - rerank.lambda_orig) * jac)
    return final[:, nq:]


def evaluate_retrieval(query_feats, gallery_feats, query_ids, gallery_ids,
                       config=None, exclude=None):
    """Full evaluation pass producing an EvalReport."""
    if config is None:
        config = EvalConfig()
    if config.rerank is not None:
        dist = k_reciprocal_rerank(query_feats, gallery_feats, config.rerank,
                                   config.metric)
    else:
        dist = pairwise_distances(query_feats, gallery_feats, config.metric)
    ranked = _ranked_matches(dist, query_ids, gallery_ids, exclude)
    map_k, aps = _map_of_ranked(ranked, config.top_k)
    cmc_points = _cmc_of_ranked(ranked, CMC_RANKS)
    return EvalReport(map_k, aps, cmc_points, asdict(config),
                      config.rerank is not None, ranked)
