"""Retrieval evaluation: distance matrices, rank-K mAP, CMC, and
k-reciprocal re-ranking.

Ranking orders distances ascending with ties broken by gallery index and
NaN last (the order of a stable sort), so results are deterministic.
Embeddings must be finite: evaluate_retrieval and k_reciprocal_rerank
reject a NaN or inf entry before any distance is computed.
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
    rerank: Optional[RerankParams] = None

    def __post_init__(self):
        if self.top_k < 1:
            raise ValueError("top_k must be >= 1")


@dataclass
class EvalReport:
    map_at_k: float
    per_query_ap: list
    cmc: dict                 # rank -> hit rate
    config: dict
    reranked: bool
    # (pos, ptr): per query, the ascending positions of its relevant items
    # in the ranking mAP and CMC were computed from (its own column left
    # out under exclude_self), concatenated, and their row pointer, so
    # query i's are pos[ptr[i]:ptr[i + 1]]; not serialised
    ranked: tuple = field(repr=False, compare=False)

    def to_json(self):
        return json.dumps({
            "mAP": self.map_at_k,
            "per_query_ap": self.per_query_ap,
            "cmc": {str(r): v for r, v in self.cmc.items()},
            "config": self.config,
            "reranked": self.reranked,
        }, indent=2)


# The work space of pairwise_distances (nine arrays of a block of query rows
# by Ng) and of the certified ranking's blocks stays within this many bytes
# (one row at least), whatever the number of queries. The re-ranker's
# distance pass sizes its blocks to a quarter of it.
BLOCK_BYTES = 4 * 2**20


def pairwise_distances(queries, gallery):
    """Euclidean distance matrix between query rows and gallery rows.

    The square root of, bit for bit, the sum of the broadcast Nq x Ng x D
    squared differences over their last axis, but summed one block of query
    rows at a time and one dimension at a time, so that no reduction runs
    over a short axis: memory is the Nq x Ng output plus nine block-sized
    arrays.
    """
    q = np.asarray(queries, dtype=np.float64)
    g = np.asarray(gallery, dtype=np.float64)
    if q.shape[1] != g.shape[1]:
        raise ValueError(f"dimension mismatch: {q.shape[1]} vs {g.shape[1]}")
    out = np.empty((q.shape[0], g.shape[0]))
    gt = np.ascontiguousarray(g.T)  # a view if g is in Fortran order
    rows = max(1, min(len(q), BLOCK_BYTES // (9 * 8 * max(1, len(g)))))
    work = np.empty((9, rows, g.shape[0]))
    for start in range(0, q.shape[0], rows):
        block = q[start:start + rows]
        _sum_squares(block, gt, out[start:start + rows],
                     work[:, :block.shape[0]])
    return np.sqrt(out, out=out)


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


def _checked_ids(nq, ng, query_ids, gallery_ids, exclude_self):
    """The ids of an nq x ng evaluation as arrays. Errors if there is no
    query or if the lengths do not fit, also if exclude_self (gallery column
    i left out of query i's ranking) is set and nq != ng."""
    query_ids = np.asarray(query_ids).reshape(-1)
    gallery_ids = np.asarray(gallery_ids).reshape(-1)
    if nq == 0:
        raise ValueError("no queries to evaluate")
    if len(query_ids) != nq:
        raise ValueError(f"{len(query_ids)} query ids for {nq} query rows")
    if len(gallery_ids) != ng:
        raise ValueError(
            f"{len(gallery_ids)} gallery ids for {ng} gallery columns")
    if exclude_self and nq != ng:
        raise ValueError(f"exclude_self needs one gallery column per query, "
                         f"not {nq} queries and {ng} gallery columns")
    return query_ids, gallery_ids


def _relevant(query_ids, gallery_ids, exclude_self):
    """Relevant entries as a CSR pair, a row pointer and the sorted flat
    indices row * ng + col: per query, the gallery columns that share its
    id, its own column left out under exclude_self. Errors if a query has
    none."""
    nq, ng = len(query_ids), len(gallery_ids)
    code = np.unique(np.concatenate([gallery_ids, query_ids]),
                     return_inverse=True)[1].reshape(-1)
    # gallery columns grouped by id code, ascending within a code
    by_id = np.sort(code[:ng] * ng + np.arange(ng))
    first = np.searchsorted(by_id, code[ng:] * ng)
    count = np.searchsorted(by_id, (code[ng:] + 1) * ng) - first
    flat = (np.repeat(np.arange(nq) * ng, count)
            + by_id[_ranges(first, count)] % ng)
    if exclude_self:
        flat = flat[flat // ng != flat % ng]
    ptr = _row_ptr(flat // ng, nq)
    empty = np.flatnonzero(np.diff(ptr) == 0).tolist()
    if empty:
        raise ValueError(f"queries with no relevant gallery items: {empty}")
    return ptr, flat


def _block(csr, start, stop, ng):
    """The entries of rows start..stop-1 of a CSR pair, as block-local row
    numbers and columns."""
    ptr, flat = csr
    rows, cols = np.divmod(flat[ptr[start]:ptr[stop]], ng)
    return rows - start, cols


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


def _rank_rows(dist, start, relevant, exclude_self):
    """Per row of a block of distances (query rows start, start + 1, ...):
    the ascending positions of its relevant columns in its stable ranking,
    under exclude_self without the row's own column; the rows' positions
    concatenated."""
    s = np.sort(dist, axis=1)
    rows, cols = _block(relevant, start, start + len(dist), dist.shape[1])
    ptr = _row_ptr(rows, len(dist))
    positions = []
    for i, row in enumerate(dist):
        pos = _positions(row, s[i], cols[ptr[i]:ptr[i + 1]])
        if exclude_self:
            pos -= pos > _positions(row, s[i], np.array([start + i]))
        positions.append(np.sort(pos))
    return np.concatenate(positions)


def _ranked(dist, query_ids, gallery_ids, exclude_self):
    """Per query: the ascending positions of its relevant gallery items in
    the ranking of its row of the distance matrix dist, under exclude_self
    without its own column, each block of rows sorted once. Returns the
    queries' positions concatenated and their row pointer. Takes
    _checked_ids' output; errors if a query has no relevant item."""
    relevant = _relevant(query_ids, gallery_ids, exclude_self)
    step = _block_rows(len(gallery_ids))
    return np.concatenate([
        _rank_rows(dist[start:start + step], start, relevant, exclude_self)
        for start in range(0, len(query_ids), step)]), relevant[0]


def _ranked_matrix(dist, query_ids, gallery_ids, exclude_self):
    """_ranked over the rows of a distance matrix."""
    dist = np.asarray(dist)
    if dist.ndim != 2:
        raise ValueError(f"distances have shape {dist.shape}, not 2-D")
    return _ranked(dist, *_checked_ids(*dist.shape, query_ids, gallery_ids,
                                       exclude_self), exclude_self)


def _check_finite(q, g):
    """Errors unless every entry of the embeddings q and g is finite: ranking
    and re-ranking are defined on finite distances only."""
    if not (np.isfinite(q).all() and np.isfinite(g).all()):
        raise ValueError("retrieval needs finite embeddings, but the "
                         "embeddings are not finite")


def _finite_distances(q, g):
    """pairwise_distances of the finite rows q, g; errors if one overflows."""
    with np.errstate(over="ignore"):
        dist = pairwise_distances(q, g)
    if not np.isfinite(dist).all():
        raise ValueError("retrieval needs finite distances, but the "
                         "squared distances overflow")
    return dist


# ---- certified GEMM ranking ----

# Unit roundoff and smallest subnormal of float64 and of float32. The bound
# below holds while squared norms stay under _NORM_LIMIT (every exact
# distance finite), and scaled ones under _NORM_LIMIT32 (the sgemm finite).
_U, _ETA, _U32, _ETA32 = 2.0 ** -53, 2.0 ** -1074, 2.0 ** -24, 2.0 ** -149
_NORM_LIMIT = np.finfo(np.float64).max / 8
_NORM_LIMIT32 = float(np.finfo(np.float32).max) / 8


def _certified_ranked(q, g, query_ids, gallery_ids, exclude_self):
    """_ranked for the distances between q and g, without computing them.

    A float32 BLAS product picks the entries and the exact kernel ranks
    them. Per block of query rows, one sgemm by _scaled_gallery's matrix
    gives a = (|g|^2 - 2 q.g) 2^-2e (2^e above every gallery norm; scaling
    by a power of two is exact), within E = E64 2^-2e + E32 of the kernel's
    S - |q|^2 scaled alike. With M = |q|^2 + max |g|^2, m = M 2^-2e and
    Higham's gamma_n = n u / (1 - n u), in any summation order:
    - E64 = (4D + 24)(u M + eta) (u = 2^-53, eta the smallest subnormal)
      covers the rounding of the norms and the kernel, (4D + 6) u M; of the
      thresholds, 5 u M; 8 u M for the square root, since squared distances
      v that differ by more than 4 u v still differ after it and v <= 2M;
      5 u M for second-order terms; and eta terms for subnormal products.
    - E32 = ((2D + 8) u' m + (2D + 4) eta' (m + 1)) / (1 - (D + 1) u')
      (u' = 2^-24, eta' = 2^-149) covers rounding the sgemm's inputs to
      float32, 3 u' m; its D + 1 terms, whose absolute values sum to at most
      2m, 2 gamma_{D+1} m; 3 u' m for second-order terms; and underflow in
      the inputs and products, (2D + 4) eta' (m + 1).
    An entry whose a is above t = max(a) + 2E over its row's relevant items
    (each at least its S - |q|^2 - E; t formed in float64 and compared in
    float32 by _float32) ranks behind them all; every other entry, a
    candidate, is ranked by its exact distance, ties to the lower column. A
    block takes the exact path (_finite_distances and a sort of each row)
    if a norm is not below its limit, or if more than _budget's share of
    its entries are candidates."""
    relevant = _relevant(query_ids, gallery_ids, exclude_self)
    qn = _norms(q)
    gallery = _scaled_gallery(g, _norms(g))
    step = _block_rows(len(g))
    positions = []
    for start in range(0, len(q), step):
        rows = slice(start, start + step)
        block = gallery and _gemm_rows(q[rows], qn[rows], gallery)
        if block is not None:
            block = _certified_rows(q[rows], g, *block, start, relevant,
                                    exclude_self)
        if block is None:
            block = _rank_rows(_finite_distances(q[rows], g), start,
                               relevant, exclude_self)
        positions.append(block)
    return np.concatenate(positions), relevant[0]


def _norms(x):
    """Squared norms of the rows of x, inf where they overflow."""
    with np.errstate(over="ignore"):
        return np.einsum("ij,ij->i", x, x)


def _scaled_gallery(g, gn):
    """The gallery side of _gemm_rows, built once per pass from the rows g
    and their squared norms gn: e with sqrt(max(gn)) < 2^e, max(gn) and the
    (D + 1) x Ng float32 rows g 2^-e over gn 2^-2e; None if max(gn) is not
    below _NORM_LIMIT or if D is too large for E32, (D + 1) u' >= 1/2."""
    gmax = gn.max()
    if not (gmax < _NORM_LIMIT and (g.shape[1] + 1) * _U32 < 0.5):
        return None
    e = int(np.frexp(np.sqrt(gmax))[1])
    rows = np.empty((g.shape[1] + 1, len(g)), np.float32)
    np.ldexp(g.T, -e, out=rows[:-1])
    np.ldexp(gn, -2 * e, out=rows[-1])
    return e, gmax, rows


def _gemm_rows(q, qn, gallery):
    """Float32 GEMM values a = (|g|^2 - 2 q.g) 2^-2e and the bound E of
    _certified_ranked, per row of q (qn its squared norms), from
    _scaled_gallery's (e, max |g|^2, rows); None if a norm |q|^2, or its
    m = (|q|^2 + max |g|^2) 2^-2e, is not below its limit."""
    e, gmax, rows = gallery
    d = q.shape[1]
    m = np.ldexp(qn + gmax, -2 * e)
    if not ((qn < _NORM_LIMIT).all() and (m < _NORM_LIMIT32).all()):
        return None
    x = np.ones((len(q), d + 1), np.float32)
    x[:, :d] = np.ldexp(-2.0 * q, -e)
    e64 = (4 * d + 24) * (_U * (qn + gmax) + _ETA)
    e32 = ((2 * d + 8) * _U32 * m + (2 * d + 4) * _ETA32 * (m + 1)) / (
        1 - (d + 1) * _U32)
    return x @ rows, np.ldexp(e64, -2 * e) + e32


def _float32(t, le):
    """The float64 thresholds t in float32, so that a float32 a compares
    with them as with t: rounded down for a <= t (le), up for a >= t."""
    r = t.astype(np.float32)
    far = np.float32(-np.inf if le else np.inf)
    return np.where(r > t if le else r < t, np.nextafter(r, far), r)


def _budget(d):
    """The share of a certified block's entries that may be candidates at
    dimension d; the cap keeps the ranking's within BLOCK_BYTES / 64. At
    this share, ms per block (GEMM included, median of 9, 2-core Xeon) at
    D = 8/16/32/128, certified against exact: ranking, 64 x 8192,
    3.1/6.2/14/30 against 11/15/22/78; re-ranker, 64 x 2048,
    1.0/1.8/3.8/8.8 against 3.3/5.0/9.2/38."""
    return min(d / 320, 1 / 8)


def _entries(mask):
    """np.nonzero of a 2-D mask, from its flat indices: 60 us against 490
    on a 64 x 2048 mask of 1280 entries."""
    return np.divmod(np.flatnonzero(mask), mask.shape[1])


def _candidates(x, y, *masks):
    """The entries of the len(x) x len(y) masks, mask after mask, as rows,
    columns and exact squared distances between x[rows] and y[cols]; None
    if they are more than _budget's share of one mask's entries."""
    budget = _budget(x.shape[1]) * masks[0].size
    if sum(map(np.count_nonzero, masks)) > budget:
        return None
    rows, cols = map(np.concatenate, zip(*map(_entries, masks)))
    return rows, cols, _pair_sums(x, y, rows, cols)


def _certified_rows(q, g, a, bound, start, relevant, exclude_self):
    """The positions _rank_rows gives for the distances between the block of
    query rows q (rows start, start + 1, ...) and g, certified by the GEMM
    values a and the bound (see _certified_ranked); None past _budget."""
    ng = len(g)
    rel_rows, rel_cols = _block(relevant, start, start + len(q), ng)
    # candidates: entries not certainly behind their row's relevant items
    row_hi = np.maximum.reduceat(a[rel_rows, rel_cols],
                                 _row_ptr(rel_rows, len(q))[:-1]) + 2 * bound
    cand = _candidates(q, g, a <= _float32(row_hi, le=True)[:, None])
    if cand is None:
        return None
    rows, cols, w = cand
    kept = (cols != rows + start) | (not exclude_self)
    ahead = _resolve(rows, cols, np.sqrt(w, out=w), kept,
                     np.searchsorted(rows * ng + cols,
                                     rel_rows * ng + rel_cols))
    return np.sort(rel_rows * ng + ahead) - rel_rows * ng


def _resolve(rows, cols, dist, kept, at):
    """Per candidate at the indices at: the kept candidates of its row ahead
    of it by dist, ties to the lower column. The candidates are one mask's
    entries, in the (row, col) order ties keep in a stable lexsort."""
    order = np.lexsort((dist, rows))
    slot = np.empty_like(order)
    slot[order] = np.arange(len(order))
    seen = np.concatenate([[0], np.cumsum(kept[order])])
    return seen[slot[at]] - seen[np.searchsorted(rows, rows[at])]


def _row_sums(values, ptr):
    """The sum of each row of the CSR pair (ptr, values), bit for bit the
    row's own .sum(): the rows of one length t are summed as one matrix
    along its last axis, NumPy's pairwise sum of t contiguous terms."""
    counts = np.diff(ptr)
    sums = np.zeros(len(counts))
    for t in np.flatnonzero(np.bincount(counts)[1:]) + 1:
        rows = np.flatnonzero(counts == t)
        sums[rows] = values[ptr[rows, None] + np.arange(t)].sum(axis=1)
    return sums


def _map_of_ranked(pos, ptr, k):
    """mAP@k and per-query APs from the queries' ascending positions pos,
    concatenated, and their row pointer ptr. An AP sums hits / (position +
    1) over the positions below k, a prefix of its row."""
    counts = np.diff(ptr)
    terms = (np.arange(1, len(pos) + 1) - np.repeat(ptr[:-1], counts)) / (
        pos + 1.0)
    below = pos < k
    aps = _row_sums(terms[below],
                    np.concatenate([[0], np.cumsum(below)])[ptr])
    aps /= np.minimum(counts, k)
    return float(np.mean(aps)), aps.tolist()


def _cmc_of_ranked(pos, ptr, ranks):
    first_hit = pos[ptr[:-1]]
    return {r: float((first_hit < r).mean()) for r in ranks}


def mean_average_precision(dist, query_ids, gallery_ids, k, *,
                           exclude_self=False):
    """mAP@k plus per-query APs; errors if any query lacks relevant items."""
    return _map_of_ranked(
        *_ranked_matrix(dist, query_ids, gallery_ids, exclude_self), k)


def cmc(dist, query_ids, gallery_ids, ranks=CMC_RANKS, *, exclude_self=False):
    """Fraction of queries whose first relevant item appears within each rank."""
    return _cmc_of_ranked(
        *_ranked_matrix(dist, query_ids, gallery_ids, exclude_self), ranks)


def precision_recall_points(positions):
    """(recall, precision) at each relevant hit of one query, from the
    ascending positions of its relevant items."""
    hits = np.arange(1, len(positions) + 1)
    return list(zip((hits / len(positions)).tolist(),
                    (hits / (positions + 1)).tolist()))


# ---- k-reciprocal re-ranking ----

def _first_k(rows, cols, vals, k):
    """Per row, the columns of its first k entries by (value, column), as a
    stable argsort orders them, from one mask's entries that hold them (rows
    block-local), whose ties a stable lexsort keeps in column order."""
    order = np.lexsort((vals, rows))
    rank = np.arange(len(rows)) - np.searchsorted(rows, rows)
    return cols[order[rank < k]].reshape(-1, k)


def _member(sorted_keys, keys):
    """keys[i] is in sorted_keys (not empty), for each i."""
    at = np.searchsorted(sorted_keys, keys)
    return sorted_keys[np.minimum(at, len(sorted_keys) - 1)] == keys


def _reciprocal(near):
    """mask[i, a]: row i is itself among the neighbours of near[i, a]. Keys
    looked up in ascending order take searchsorted a fraction of the time."""
    n, k = near.shape
    rows = np.repeat(np.arange(n), k)
    keys = near.ravel() * n + rows
    order = np.argsort(keys)
    mask = np.empty(n * k, dtype=bool)
    mask[order] = _member(np.sort(rows * n + near.ravel()), keys[order])
    return mask.reshape(n, k)


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


def _original_distances(sq):
    """The re-ranker's original distance, in place: the squared Euclidean
    distances sq taken through the square root and back, as the published
    algorithm computes them."""
    return np.square(np.sqrt(sq, out=sq), out=sq)


def _distance_pass(allf, k):
    """One pass over the rows of the all-vs-all original distances, each
    divided by its maximum (the matrix equals its transpose exactly, so
    these are the column maxima the dense algorithm divides by). Returns the
    maxima and each row's first k neighbours by (normalised distance,
    column).

    A block of rows x is certified by the GEMM values a of
    _certified_ranked, in their units of 2^2e: within E' = E - 13um of
    (S - |x|^2) 2^-2e (S the kernel's squared distance, m = (|x|^2 +
    max |y|^2) 2^-2e: E less its threshold and square-root terms); a
    threshold t formed from a and E rounds by under 3um, as |a| <= 2m, and
    _float32 changes no comparison with it. The largest S has a >= max(a) -
    2E' > t = max(a) - 2E, so the exact values of the entries with a >= t
    give the maximum p (_original_distances never decreases). With A the
    row's k-th smallest a, an entry with a > t = A + 4E has S more than
    (4E - 2E' - 3um) 2^2e > 2E 2^2e >= 56(uM + eta) above k others' (M =
    m 2^2e, eta the smallest subnormal). sqrt and square move S by at most
    3.01uS + eta/2, dividing by p <= 2.01M rounds by u of the quotient plus
    eta/2, so S more than 16.1uM + (2.01M + 1) eta apart stay strictly
    ordered, and the first k by (value, column) have a <= t. A block takes
    the exact path (_exact_rows) if a norm is not below its limit, if over
    _budget's share of its entries are candidates, or if a maximum is 0,
    which the exact path raises."""
    norms = _norms(allf)
    gallery = _scaled_gallery(allf, norms)
    step = _block_rows(4 * len(allf))
    blocks = []
    for start in range(0, len(allf), step):
        rows = slice(start, start + step)
        got = gallery and _gemm_rows(allf[rows], norms[rows], gallery)
        if got is not None:
            got = _certified_neighbours(allf[rows], allf, *got, k)
        blocks.append(got or _exact_rows(allf[rows], allf, k))
    row_max, near = map(np.concatenate, zip(*blocks))
    return row_max, near


def _exact_rows(x, allf, k):
    """The maxima and first k neighbours of the rows x of the normalised
    all-vs-all matrix; errors if a distance overflows or a maximum is 0.
    A finite distance's square is at most sqrt(max float)**2, finite."""
    block = _finite_distances(x, allf)
    np.square(block, out=block)     # the original distances, in place
    peak = block.max(axis=1)
    if not (peak > 0).all():
        raise ValueError("k-reciprocal re-ranking needs distinct "
                         "embeddings, but all query and gallery "
                         "embeddings are identical")
    block /= peak[:, None]
    rows, cols = _entries(
        block <= np.partition(block, k - 1, axis=1)[:, k - 1, None])
    return peak, _first_k(rows, cols, block[rows, cols], k)


def _certified_neighbours(x, allf, a, bound, k):
    """_exact_rows' maxima and neighbours from the rows' GEMM values a and
    bounds (see _distance_pass); None where the exact path must decide."""
    tops = a >= _float32(a.max(axis=1) - 2 * bound, le=False)[:, None]
    near = a <= _float32(np.partition(a, k - 1, axis=1)[:, k - 1]
                         + 4 * bound, le=True)[:, None]
    cand = _candidates(x, allf, tops, near)
    if cand is None:
        return None
    rows, cols, dist = cand
    top = np.count_nonzero(tops)
    peak = np.maximum.reduceat(_original_distances(dist)[:top],
                               _row_ptr(rows[:top], len(x))[:-1])
    if not (peak > 0).all():    # norms below _NORM_LIMIT: peak is finite
        return None
    rows, cols = rows[top:], cols[top:]
    return peak, _first_k(rows, cols, dist[top:] / peak[rows], k)


def _pair_sums(a, b, rows, cols):
    """Squared distances between a[rows[i]] and b[cols[i]], pair by pair.
    Each is summed over its D contiguous squared differences, the order
    _sum_squares follows, so it equals pairwise_distances' squared entry
    bit for bit."""
    out = np.empty(len(rows))
    step = _block_rows(4 * a.shape[1])
    for start in range(0, len(rows), step):
        diff = a[rows[start:start + step]]
        diff -= b[cols[start:start + step]]
        np.square(diff, out=diff).sum(axis=1, out=out[start:start + step])
    return out


def _blocks(ptr, budget=BLOCK_BYTES // 128):
    """(start, stop) blocks of rows, in order, each spanning at most budget
    entries of the row pointer ptr (one row at least); by default a few
    arrays of a block's terms fit in BLOCK_BYTES."""
    cuts = [0]
    while cuts[-1] < len(ptr) - 1:
        cuts.append(max(cuts[-1] + 1, int(np.searchsorted(
            ptr, ptr[cuts[-1]] + budget, "right")) - 1))
    return zip(cuts, cuts[1:])


def _encode_weights(allf, near, row_max, k1):
    """V as CSR arrays: per row, Gaussian weights over its expanded
    k-reciprocal set in ascending column order, normalised to sum to one.
    Row r's set, flagged in n columns per row of a block, joins R(r) (the
    near[r] _reciprocal keeps) with the half-size set H(c) of each c in R(r)
    more than two thirds in R(r). Each weight's squared distance comes from
    _pair_sums, so it is the normalised all-vs-all entry bit for bit."""
    n, k = near.shape
    half = near[:, :int(round(k1 / 2.0)) + 1]
    in_half = _reciprocal(half)
    h_len = np.count_nonzero(in_half, axis=1)
    h_cols, h_start = half[in_half], np.cumsum(h_len) - h_len
    fwd = _reciprocal(near)
    cand = near[fwd]                    # R(r), row after row
    f_keys = np.flatnonzero(fwd) // k * n + cand
    lens = h_len[cand]
    f_ptr = _row_ptr(f_keys // n, n)
    keys = []
    # a block's terms, and n / 8 words a row for its flags
    for start, stop in _blocks(np.concatenate([[0], np.cumsum(lens)])[f_ptr]
                               + np.arange(n + 1) * (n // 8)):
        at = slice(f_ptr[start], f_ptr[stop])
        c, c_len, own = cand[at], lens[at], f_keys[at] - start * n
        flags = np.zeros((stop - start) * n, dtype=bool)
        flags[own] = True
        # H(c) of each pair (r, c), as block-local r * n + col keys
        grow = np.repeat(own - c, c_len) + h_cols[_ranges(h_start[c], c_len)]
        hits = np.bincount(np.repeat(np.arange(len(c)), c_len), flags[grow],
                           len(c))
        flags[grow[np.repeat(hits > (2.0 / 3.0) * c_len, c_len)]] = True
        keys.append(start * n + np.flatnonzero(flags))
    rows, cols = np.divmod(np.concatenate(keys), n)
    indptr = _row_ptr(rows, n)
    weight = np.exp(-(_original_distances(_pair_sums(allf, allf, rows, cols))
                      / row_max[rows]))
    weight /= np.repeat(_row_sums(weight, indptr), np.diff(indptr))
    return indptr, cols, weight


def _mean_rows(indptr, indices, data, nearest):
    """CSR arrays whose row i is the mean of the rows nearest[i]. Per block,
    a stable argsort of the terms' row * n + col keys groups each entry's
    terms in the order of nearest[i], and bincount adds each group in that
    order, as the dense mean over rows does (an absent entry adds 0.0, which
    changes no value; no sum of positive weights is 0)."""
    n, k = nearest.shape
    lens = indptr[nearest + 1] - indptr[nearest]
    per_row = lens.sum(axis=1)
    counts, cols, sums = [], [], []
    for start, stop in _blocks(np.concatenate([[0], np.cumsum(per_row)])):
        take = _ranges(indptr[nearest[start:stop]].ravel(),
                       lens[start:stop].ravel())
        keys = (np.repeat(np.arange(stop - start) * n, per_row[start:stop])
                + indices[take])
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        first = np.diff(keys, prepend=-1) != 0
        sums.append(np.bincount(np.cumsum(first) - 1, data[take[order]]) / k)
        rows, col = np.divmod(keys[first], n)
        counts.append(np.bincount(rows, minlength=stop - start))
        cols.append(col)
    cols = np.concatenate(cols)     # each list is freed once joined
    return (np.concatenate([[0], np.cumsum(np.concatenate(counts))]), cols,
            np.concatenate(sums))


def _blend_jaccard(final, indptr, indices, data, lam):
    """final = lam * final + (1 - lam) * the Jaccard distance of V's rows
    0..Nq-1 to its rows Nq.., in place. The overlaps, sums of min(V[i, c],
    V[j, c]) over a column index of the gallery rows, take one bincount per
    block of query rows, keyed block row * Ng + gallery row: it adds in input
    order, so each overlap takes its terms in ascending column order."""
    nq, ng = final.shape
    gallery = slice(indptr[nq], None)
    by_col = np.argsort(indices[gallery], kind="stable")
    col_ptr = _row_ptr(indices[gallery][by_col], len(indptr) - 1)
    col_rows = np.repeat(np.arange(ng), np.diff(indptr[nq:]))[by_col]
    col_data = data[gallery][by_col]
    del by_col
    col_len = np.diff(col_ptr)
    t_ptr = np.concatenate([[0], np.cumsum(col_len[indices[:indptr[nq]]])])[
        indptr[:nq + 1]]
    # a block's terms and its overlaps share the budget
    for start, stop in _blocks(t_ptr + np.arange(nq + 1) * ng):
        at = slice(indptr[start], indptr[stop])
        c = col_len[indices[at]]
        take = _ranges(col_ptr[indices[at]], c)
        keys = col_rows[take]       # in place from here: three arrays held
        keys += np.repeat(np.arange(stop - start) * ng,
                          np.diff(t_ptr[start:stop + 1]))
        weights = col_data[take]
        del take
        overlap = np.bincount(keys, np.minimum(
            weights, np.repeat(data[at], c), out=weights), (stop - start) * ng)
        del keys, weights
        overlap = overlap.reshape(-1, ng)
        final[start:stop] = lam * final[start:stop] + (1.0 - lam) * (
            1.0 - overlap / (2.0 - overlap))


def k_reciprocal_rerank(queries, gallery, rerank=None):
    """Blend the original distances with a Jaccard distance over k-reciprocal
    neighbor sets (with local query expansion), returning an Nq x Ng matrix.

    Bitwise equal to the dense algorithm over the all-vs-all matrix, in
    O(Nq x N + N x k1) memory: only the query rows and each row's maximum
    and top k1+1 neighbours are kept of the distances, and the neighbour
    weights are sparse rows, built and blended a block of rows at a time.
    GEMM values certify every row's maximum and neighbours (_distance_pass),
    so the output does not depend on the BLAS kernel, and one exact call
    gives the blend's Nq x Ng distances. If every block falls back, the
    exact rows are 2 Nq + Ng instead of Nq + Ng.
    """
    if rerank is None:
        rerank = RerankParams()
    q = np.asarray(queries, dtype=np.float64)
    g = np.asarray(gallery, dtype=np.float64)
    if rerank.k1 >= g.shape[0]:
        raise ValueError(f"k1={rerank.k1} must be below gallery size {g.shape[0]}")
    _check_finite(q, g)
    final = _finite_distances(q, g)     # first, while nothing else is held
    allf = np.concatenate([q, g])
    row_max, near = _distance_pass(allf, rerank.k1 + 1)
    np.square(final, out=final)     # the original distances, in place
    final /= row_max[:len(q), None]
    v = _encode_weights(allf, near, row_max, rerank.k1)
    del allf
    # local query expansion; with k2 == 1 a row stays as it is, though its
    # nearest row may be a lower-index duplicate
    if rerank.k2 != 1:
        v = _mean_rows(*v, near[:, :rerank.k2])
    del near
    _blend_jaccard(final, *v, rerank.lambda_orig)
    return final


def evaluate_retrieval(query_feats, gallery_feats, query_ids, gallery_ids,
                       config=None, *, exclude_self=False):
    """Full evaluation pass producing an EvalReport. exclude_self leaves
    gallery item i out of query i's ranking, for a query set that is the
    gallery; it is an error unless there are as many queries as gallery
    items. Without re-ranking the distances are never computed as a matrix:
    a BLAS product picks, per block of query rows, the entries that exact
    distances rank (_certified_ranked). Either way, embeddings that are not
    finite, and squared distances that overflow, are errors."""
    if config is None:
        config = EvalConfig()
    q = np.asarray(query_feats, dtype=np.float64)
    g = np.asarray(gallery_feats, dtype=np.float64)
    ids = _checked_ids(len(q), len(g), query_ids, gallery_ids, exclude_self)
    _check_finite(q, g)
    if config.rerank is not None:
        pos, ptr = _ranked(k_reciprocal_rerank(q, g, config.rerank), *ids,
                           exclude_self)
    else:
        pos, ptr = _certified_ranked(q, g, *ids, exclude_self)
    map_k, aps = _map_of_ranked(pos, ptr, config.top_k)
    return EvalReport(map_k, aps, _cmc_of_ranked(pos, ptr, CMC_RANKS),
                      asdict(config), config.rerank is not None, (pos, ptr))
