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
        if self.k1 < 1:
            raise ValueError("k1 must be >= 1")
        if not 1 <= self.k2 <= self.k1:
            raise ValueError("k2 must be in [1, k1]")


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

def _top_k(dist, k):
    """First k columns of np.argsort(dist, axis=1, kind="stable"), for a 2-D
    array without NaN. Only the candidates are sorted: the k smallest values
    of each row, widened to every value tied with the k-th, so that ties keep
    their index order."""
    part = np.argpartition(dist, k - 1, axis=1)[:, :k]
    kth = np.take_along_axis(dist, part, axis=1).max(axis=1)
    width = int((dist <= kth[:, None]).sum(axis=1).max())
    if width > k:
        part = np.argpartition(dist, width - 1, axis=1)[:, :width]
    part.sort(axis=1)
    order = np.argsort(np.take_along_axis(dist, part, axis=1), axis=1,
                      kind="stable")[:, :k]
    return np.take_along_axis(part, order, axis=1)


def _reciprocal(near):
    """mask[i, a]: row i is itself among the neighbours of near[i, a]."""
    n, k = near.shape
    rows = np.repeat(np.arange(n), k)
    cols = near.ravel()
    return np.isin(cols * n + rows, rows * n + cols).reshape(n, k)


def _ranges(starts, lengths):
    """The concatenation of arange(s, s + l) over the (s, l) pairs."""
    ends = np.cumsum(lengths)
    return (np.repeat(starts - ends + lengths, lengths)
            + np.arange(lengths.sum()))


def _row_ptr(rows, n):
    """CSR row pointer of entries whose ascending row numbers are `rows`."""
    return np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=n))])


def _block_rows(n):
    """Rows of an n-wide float64 block that fit in BLOCK_BYTES (one at least)."""
    return max(1, BLOCK_BYTES // (8 * n))


def _distance_pass(allf, nq, k, metric):
    """One pass over the all-vs-all squared distances, a block of rows at a
    time, each row divided by its maximum. The matrix is exactly symmetric,
    so these are the column maxima the dense algorithm divides by. Returns
    the maxima, each row's top k neighbours and the query rows' normalised
    distances to the gallery rows."""
    n = allf.shape[0]
    row_max = np.empty(n)
    near = np.empty((n, k), dtype=np.intp)
    query_rows = np.empty((nq, n - nq))
    rows = _block_rows(n)
    for start in range(0, n, rows):
        block = pairwise_distances(allf[start:start + rows], allf, metric) ** 2
        peak = block.max(axis=1)
        if not np.isfinite(peak).all():
            raise ValueError("k-reciprocal re-ranking needs finite distances, "
                             "but the squared distances overflow")
        if not (peak > 0).all():
            raise ValueError("k-reciprocal re-ranking needs distinct "
                             "embeddings, but all query and gallery "
                             "embeddings are identical")
        block /= peak[:, None]
        row_max[start:start + rows] = peak
        near[start:start + rows] = _top_k(block, k)
        if start < nq:
            query_rows[start:start + rows] = block[:nq - start, nq:]
    return row_max, near, query_rows


def _encode_weights(allf, near, row_max, k1, metric):
    """V as CSR arrays: per row, Gaussian weights over its expanded
    k-reciprocal set in ascending column order, normalised to sum to one.
    Each weight is recomputed from the features by pairwise_distances, so it
    is the entry of the normalised all-vs-all matrix bit for bit."""
    half = int(round(k1 / 2.0))
    recip = [r[m].tolist() for r, m in zip(near, _reciprocal(near))]
    recip_half = [r[m].tolist() for r, m in
                  zip(near[:, :half + 1], _reciprocal(near[:, :half + 1]))]
    indices, data = [], []
    for i, forward in enumerate(recip):
        own = set(forward)
        expanded = set(forward)
        for cand in forward:
            if len(own.intersection(recip_half[cand])) > (
                    2.0 / 3.0) * len(recip_half[cand]):
                expanded.update(recip_half[cand])
        cols = np.array(sorted(expanded), dtype=np.intp)
        weight = np.exp(-(pairwise_distances(allf[i:i + 1], allf[cols],
                                             metric)[0] ** 2 / row_max[i]))
        indices.append(cols)
        data.append(weight / weight.sum())
    indptr = np.concatenate([[0], np.cumsum([len(c) for c in indices])])
    return indptr, np.concatenate(indices), np.concatenate(data)


def _mean_rows(indptr, indices, data, nearest):
    """CSR arrays whose row i is the mean of the rows nearest[i]. A block of
    rows is summed densely by bincount, which adds in input order: the
    rows in the order of nearest[i], as the dense mean over rows does (an
    absent entry there adds 0.0, which changes no value)."""
    n, k = nearest.shape
    rows = _block_rows(n)
    out_rows, out_cols, out_data = [], [], []
    for start in range(0, n, rows):
        src = nearest[start:start + rows].ravel()
        lens = indptr[src + 1] - indptr[src]
        take = _ranges(indptr[src], lens)
        block_n = len(src) // k
        owner = np.repeat(np.arange(block_n), k).repeat(lens)
        total = np.bincount(owner * n + indices[take], weights=data[take],
                            minlength=block_n * n).reshape(block_n, n)
        r, c = np.nonzero(total)
        out_rows.append(r + start)
        out_cols.append(c)
        out_data.append(total[r, c] / k)
    return (_row_ptr(np.concatenate(out_rows), n), np.concatenate(out_cols),
            np.concatenate(out_data))


def k_reciprocal_rerank(queries, gallery, rerank=None, metric="euclidean"):
    """Blend the original distances with a Jaccard distance over k-reciprocal
    neighbor sets (with local query expansion), returning an Nq x Ng matrix.

    Bitwise equal to the dense algorithm over the all-vs-all matrix, in
    O(Nq x N + N x k1) memory: only the query rows and each row's top k1+1
    neighbours are kept of the distances, and the neighbour weights are
    sparse rows.
    """
    if rerank is None:
        rerank = RerankParams()
    q = np.asarray(queries, dtype=np.float64)
    g = np.asarray(gallery, dtype=np.float64)
    if rerank.k1 >= g.shape[0]:
        raise ValueError(f"k1={rerank.k1} must be below gallery size {g.shape[0]}")
    nq = q.shape[0]
    allf = np.concatenate([q, g])
    if not np.isfinite(allf).all():
        raise ValueError("k-reciprocal re-ranking needs finite embeddings, "
                         "but the embeddings are not finite")
    n = allf.shape[0]
    row_max, near, final = _distance_pass(allf, nq, rerank.k1 + 1, metric)
    indptr, indices, data = _encode_weights(allf, near, row_max, rerank.k1,
                                            metric)
    # local query expansion; with k2 == 1 a row stays as it is, though its
    # nearest row may be a lower-index duplicate
    if rerank.k2 != 1:
        indptr, indices, data = _mean_rows(indptr, indices, data,
                                           near[:, :rerank.k2])

    # Jaccard distance of each query row to every row, the overlap summed in
    # ascending column order through a column index of V
    by_col = np.argsort(indices, kind="stable")
    col_ptr = _row_ptr(indices[by_col], n)
    col_rows = np.repeat(np.arange(n), np.diff(indptr))[by_col]
    col_data = data[by_col]
    lam = rerank.lambda_orig
    for i in range(nq):
        cols = indices[indptr[i]:indptr[i + 1]]
        counts = col_ptr[cols + 1] - col_ptr[cols]
        take = _ranges(col_ptr[cols], counts)
        overlap = np.bincount(
            col_rows[take], minlength=n,
            weights=np.minimum(np.repeat(data[indptr[i]:indptr[i + 1]],
                                         counts), col_data[take]))[nq:]
        final[i] = lam * final[i] + (1.0 - lam) * (
            1.0 - overlap / (2.0 - overlap))
    return final


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
