"""Retrieval evaluation: distance matrices, rank-K mAP, CMC, and
k-reciprocal re-ranking.

Ranking orders distances ascending with ties broken by gallery index and
NaN last (the order of a stable sort), so results are deterministic.
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
    # per query, the ascending positions of its relevant items in the
    # ranking the metrics were computed from (exclusions removed); not
    # serialised
    positions: list = field(repr=False, compare=False)

    def to_json(self):
        return json.dumps({
            "mAP": self.map_at_k,
            "per_query_ap": self.per_query_ap,
            "cmc": {str(r): v for r, v in self.cmc.items()},
            "config": self.config,
            "reranked": self.reranked,
        }, indent=2)


# The work space of pairwise_distances (nine arrays of a block of query rows
# by Ng) and of the re-ranker's blocks stays within this many bytes (one row
# at least), whatever the number of queries.
BLOCK_BYTES = 4 * 2**20


def pairwise_distances(queries, gallery, metric="euclidean"):
    """Distance matrix between query rows and gallery rows.

    Equal, bit for bit, to summing the broadcast Nq x Ng x D squared
    differences over their last axis, but one block of query rows at a time
    and one dimension at a time, so that no reduction runs over a short
    axis: memory is the Nq x Ng output plus nine block-sized arrays.
    """
    q = np.asarray(queries, dtype=np.float64)
    g = np.asarray(gallery, dtype=np.float64)
    if q.shape[1] != g.shape[1]:
        raise ValueError(f"dimension mismatch: {q.shape[1]} vs {g.shape[1]}")
    if metric not in ("euclidean", "squared-euclidean"):
        raise ValueError(f"unknown metric {metric!r}")
    out = np.empty((q.shape[0], g.shape[0]))
    gt = np.ascontiguousarray(g.T)
    rows = max(1, BLOCK_BYTES // (9 * 8 * max(1, g.shape[0])))
    work = np.empty((9, rows, g.shape[0]))
    for start in range(0, q.shape[0], rows):
        block = q[start:start + rows]
        _sum_squares(block, gt, out[start:start + rows],
                     work[:, :block.shape[0]])
    if metric == "euclidean":
        np.sqrt(out, out=out)
    return out


def _sum_squares(q, gt, dest, work):
    """dest[a, b] = the sum over j of (q[a, j] - gt[j, b])**2, the n terms
    added in the order of NumPy's pairwise summation over a contiguous axis
    of length n (pairwise_sum in numpy/_core/src/umath/loops_utils.h.src):
    in order below 8 terms; up to 128, accumulator k takes terms k, k+8, ...,
    the eight are combined as a tree and the tail of n % 8 terms is added in
    order; above 128, the two parts (split at half of n, rounded down to a
    multiple of 8) are summed apart and added. work holds eight accumulators
    and a difference buffer; a right part of over 128 terms is held in one
    more array."""
    n = q.shape[1]
    *acc, diff = work

    def term(j, into):
        np.subtract(q[:, j, None], gt[j], out=into)
        return np.multiply(into, into, out=into)

    if n > 128:
        half = n // 2 - (n // 2) % 8
        _sum_squares(q[:, :half], gt[:half], dest, work)
        right = acc[0] if n - half <= 128 else np.empty_like(dest)
        _sum_squares(q[:, half:], gt[half:], right, work)
        np.add(dest, right, out=dest)
        return
    if n >= 8:
        for k in range(8):
            term(k, acc[k])
        done = n - n % 8
        for j in range(8, done):
            np.add(acc[j % 8], term(j, diff), out=acc[j % 8])
        r0, r1, r2, r3, r4, r5, r6, r7 = acc
        np.add(r0, r1, out=r0)
        np.add(r2, r3, out=r2)
        np.add(r4, r5, out=r4)
        np.add(r6, r7, out=r6)
        np.add(r0, r2, out=r0)
        np.add(r4, r6, out=r4)
        np.add(r0, r4, out=dest)
    elif n:
        term(0, dest)
        done = 1
    else:
        dest.fill(0.0)
        done = 0
    for j in range(done, n):
        np.add(dest, term(j, diff), out=dest)


CMC_RANKS = (1, 5, 10)


def _checked_ids(nq, ng, query_ids, gallery_ids, exclude):
    """The ids and exclusion mask of an nq x ng evaluation, as arrays;
    errors if there is no query or if their lengths or shape do not fit."""
    query_ids = np.asarray(query_ids).reshape(-1)
    gallery_ids = np.asarray(gallery_ids).reshape(-1)
    if nq == 0:
        raise ValueError("no queries to evaluate")
    if len(query_ids) != nq:
        raise ValueError(f"{len(query_ids)} query ids for {nq} query rows")
    if len(gallery_ids) != ng:
        raise ValueError(
            f"{len(gallery_ids)} gallery ids for {ng} gallery columns")
    if exclude is not None:
        exclude = np.asarray(exclude, dtype=bool)
        if exclude.shape != (nq, ng):
            raise ValueError(f"exclude has shape {exclude.shape}, expected "
                             f"{(nq, ng)}")
    return query_ids, gallery_ids, exclude


def _positions(row, s, cols):
    """Positions of the columns cols in the stable ascending order of row,
    given s, the row sorted: the entries of smaller value (NaN is the
    largest) plus the equal ones (NaN equals NaN) at a lower column."""
    d = row[cols]
    pos = np.searchsorted(s, d, "left")
    tied = np.searchsorted(s, d, "right") - pos > 1
    if tied.any():
        # equal entries share the index of their value in s; keyed by that
        # index and their column, the equal entries at a lower column are
        # a range of the sorted keys
        c, first, n = cols[tied], pos[tied], len(row)
        head = np.arange(c.max())
        keys = np.sort(np.searchsorted(s, row[head], "left") * n + head)
        pos[tied] += (np.searchsorted(keys, first * n + c)
                      - np.searchsorted(keys, first * n))
    return pos


def _rank_rows(dist, query_ids, gallery_ids, exclude):
    """Per row of a block of distances: the ascending positions of its
    relevant columns in its stable ranking, the excluded columns removed."""
    s = np.sort(dist, axis=1)
    relevant = gallery_ids == query_ids[:, None]
    if exclude is not None:
        relevant &= ~exclude
    positions = []
    for i, row in enumerate(dist):
        pos = _positions(row, s[i], np.flatnonzero(relevant[i]))
        if exclude is not None:
            ahead = np.sort(_positions(row, s[i], np.flatnonzero(exclude[i])))
            pos -= np.searchsorted(ahead, pos)
        positions.append(np.sort(pos))
    return positions


def _ranked(distances, query_ids, gallery_ids, exclude):
    """Per query: the ascending positions of its relevant gallery items in
    the ranking, exclusions removed. The only place this module ranks:
    every metric and the PR points come from these. distances(rows) gives
    the distances of a slice of query rows, asked for a block at a time.
    Takes _checked_ids' output; errors if a query has no relevant item."""
    step = _block_rows(len(gallery_ids))
    positions = []
    for start in range(0, len(query_ids), step):
        rows = slice(start, start + step)
        positions += _rank_rows(distances(rows), query_ids[rows], gallery_ids,
                                None if exclude is None else exclude[rows])
    empty = [qi for qi, p in enumerate(positions) if not len(p)]
    if empty:
        raise ValueError(f"queries with no relevant gallery items: {empty}")
    return positions


def _ranked_matrix(dist, query_ids, gallery_ids, exclude):
    """_ranked over the rows of a distance matrix."""
    dist = np.asarray(dist)
    if dist.ndim != 2:
        raise ValueError(f"distances have shape {dist.shape}, not 2-D")
    return _ranked(lambda rows: dist[rows],
                   *_checked_ids(*dist.shape, query_ids, gallery_ids, exclude))


def _average_precision(positions, k):
    """AP@k of one query from the ascending positions of its relevant items."""
    hits = np.arange(1, len(positions) + 1)
    return float((hits / (positions + 1.0))[positions < k].sum()
                 / min(len(positions), k))


def _map_of_ranked(positions, k):
    aps = [_average_precision(p, k) for p in positions]
    return float(np.mean(aps)), aps


def _cmc_of_ranked(positions, ranks):
    first_hit = np.array([p[0] for p in positions])
    return {r: float((first_hit < r).mean()) for r in ranks}


def mean_average_precision(dist, query_ids, gallery_ids, k, exclude=None):
    """mAP@k plus per-query APs; errors if any query lacks relevant items."""
    return _map_of_ranked(
        _ranked_matrix(dist, query_ids, gallery_ids, exclude), k)


def cmc(dist, query_ids, gallery_ids, ranks=CMC_RANKS, exclude=None):
    """Fraction of queries whose first relevant item appears within each rank."""
    return _cmc_of_ranked(
        _ranked_matrix(dist, query_ids, gallery_ids, exclude), ranks)


def precision_recall_points(positions):
    """(recall, precision) at each relevant hit of one query, from the
    ascending positions of its relevant items."""
    hits = np.arange(1, len(positions) + 1)
    return list(zip((hits / len(positions)).tolist(),
                    (hits / (positions + 1)).tolist()))


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
    return max(1, BLOCK_BYTES // (8 * max(1, n)))


def _original_distances(sq, metric):
    """The re-ranker's original distance, in place: the squared Euclidean
    distances sq under either metric, though under "euclidean" taken through
    the square root and back, as the published algorithm computes them."""
    if metric == "euclidean":
        np.square(np.sqrt(sq, out=sq), out=sq)
    return sq


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
        block = _original_distances(
            pairwise_distances(allf[start:start + rows], allf,
                               "squared-euclidean"), metric)
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
    Each weight's squared distance is summed over the same D contiguous
    differences as pairwise_distances, so it is the entry of the normalised
    all-vs-all matrix bit for bit."""
    half = int(round(k1 / 2.0))
    recip = [r[m].tolist() for r, m in zip(near, _reciprocal(near))]
    recip_half = [r[m].tolist() for r, m in
                  zip(near[:, :half + 1], _reciprocal(near[:, :half + 1]))]
    indices = []
    for forward in recip:
        own = set(forward)
        expanded = set(forward)
        for cand in forward:
            if len(own.intersection(recip_half[cand])) > (
                    2.0 / 3.0) * len(recip_half[cand]):
                expanded.update(recip_half[cand])
        indices.append(np.array(sorted(expanded), dtype=np.intp))
    cols = np.concatenate(indices)
    rows = np.repeat(np.arange(len(indices)), [len(c) for c in indices])
    indptr = _row_ptr(rows, len(indices))
    dist = np.empty(len(cols))
    step = _block_rows(allf.shape[1])
    for start in range(0, len(cols), step):
        diff = allf[rows[start:start + step]]
        diff -= allf[cols[start:start + step]]
        np.square(diff, out=diff).sum(axis=1, out=dist[start:start + step])
    weight = np.exp(-(_original_distances(dist, metric) / row_max[rows]))
    data = [w / w.sum() for w in np.split(weight, indptr[1:-1])]
    return indptr, cols, np.concatenate(data)


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
    """Full evaluation pass producing an EvalReport. Without re-ranking,
    each block of query rows is ranked as soon as its distances are
    computed, so the Nq x Ng matrix never exists."""
    if config is None:
        config = EvalConfig()
    q = np.asarray(query_feats, dtype=np.float64)
    g = np.asarray(gallery_feats, dtype=np.float64)
    ids = _checked_ids(len(q), len(g), query_ids, gallery_ids, exclude)
    if config.rerank is not None:
        dist = k_reciprocal_rerank(q, g, config.rerank, config.metric)
        positions = _ranked(lambda rows: dist[rows], *ids)
    else:
        positions = _ranked(
            lambda rows: pairwise_distances(q[rows], g, config.metric), *ids)
    map_k, aps = _map_of_ranked(positions, config.top_k)
    cmc_points = _cmc_of_ranked(positions, CMC_RANKS)
    return EvalReport(map_k, aps, cmc_points, asdict(config),
                      config.rerank is not None, positions)
