"""Dual-domain identity-balanced mini-batch construction and label encoding.

A batch draws n identities per domain and m samples per identity, so a
two-domain batch holds 2*n*m rows: real rows first, then synthetic. The
disjoint-label mask is 1 exactly on synthetic rows.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

REAL, SYNTHETIC = 0, 1


@dataclass
class Sample:
    domain: int                      # REAL or SYNTHETIC
    id: int
    features: np.ndarray
    color: Optional[int] = None
    type: Optional[int] = None
    orientation_deg: Optional[float] = None

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        has_all = (self.color is not None and self.type is not None
                   and self.orientation_deg is not None)
        has_none = (self.color is None and self.type is None
                    and self.orientation_deg is None)
        if self.domain == REAL and not has_none:
            raise ValueError(f"real sample id={self.id} carries disjoint labels")
        if self.domain == SYNTHETIC and not has_all:
            raise ValueError(f"synthetic sample id={self.id} missing disjoint labels")


@dataclass
class BatchSpec:
    n: int   # identities per domain
    m: int   # samples per identity

    def __post_init__(self):
        if self.n < 2 or self.m < 2:
            raise ValueError("need n >= 2 and m >= 2 for the triplet loss")


@dataclass
class Batch:
    features: np.ndarray          # (rows, input_dim)
    id_labels: np.ndarray
    domain_labels: np.ndarray
    color_labels: np.ndarray
    type_labels: np.ndarray
    orientation_labels: np.ndarray
    mask: np.ndarray              # 1 where disjoint labels valid (synthetic rows)


def build_identity_index(dataset):
    """Group sample positions by (domain, id)."""
    index = {}
    for pos, s in enumerate(dataset):
        index.setdefault((s.domain, s.id), []).append(pos)
    return index


def domain_ids(index, domain):
    return sorted(i for (d, i) in index if d == domain)


def sampled_domain_ids(index, spec, use_synthetic=True):
    """The sorted identities of each domain a batch draws from, by domain;
    each domain needs at least n of them."""
    domains = (REAL, SYNTHETIC) if use_synthetic else (REAL,)
    ids = {d: domain_ids(index, d) for d in domains}
    for d, found in ids.items():
        if len(found) < spec.n:
            raise ValueError(f"domain {d} has {len(found)} identities, "
                             f"fewer than n={spec.n}")
    return ids


def bin_orientation(angle_deg, num_bins):
    """Half-open 360/num_bins-degree bins after wrapping the angle to [0, 360)."""
    if num_bins < 1:
        raise ValueError("num_bins must be >= 1")
    angle = float(angle_deg) % 360.0
    return min(int(angle / (360.0 / num_bins)), num_bins - 1)


def _draw_rows(dataset, index, ids, domain, spec, rng, num_bins):
    chosen = rng.choice(len(ids), size=spec.n, replace=False)
    rows = []
    for k in chosen:
        positions = index[(domain, ids[k])]
        replace = len(positions) < spec.m
        picks = rng.choice(len(positions), size=spec.m, replace=replace)
        rows.extend(dataset[positions[p]] for p in picks)
    feats = np.stack([s.features for s in rows])
    id_lab = np.array([s.id for s in rows], dtype=np.int64)
    dom_lab = np.full(len(rows), domain, dtype=np.int64)
    if domain == SYNTHETIC:
        color = np.array([s.color for s in rows], dtype=np.int64)
        typ = np.array([s.type for s in rows], dtype=np.int64)
        orient = np.array([bin_orientation(s.orientation_deg, num_bins)
                           for s in rows], dtype=np.int64)
        mask = np.ones(len(rows), dtype=np.int64)
    else:
        color = np.zeros(len(rows), dtype=np.int64)
        typ = np.zeros(len(rows), dtype=np.int64)
        orient = np.zeros(len(rows), dtype=np.int64)
        mask = np.zeros(len(rows), dtype=np.int64)
    return feats, id_lab, dom_lab, color, typ, orient, mask


def sample_batch(dataset, index, spec, rng, num_orientation_bins=6,
                 use_synthetic=True, ids=None):
    """Draw one identity-balanced batch; real rows first, then synthetic.

    With use_synthetic=False the batch holds n*m real rows only and the
    disjoint mask is all zero. A caller drawing many batches passes
    sampled_domain_ids' result as ids.
    """
    ids = ids or sampled_domain_ids(index, spec, use_synthetic)
    parts = [_draw_rows(dataset, index, ids[d], d, spec, rng,
                        num_orientation_bins) for d in ids]
    cols = [np.concatenate([p[i] for p in parts]) for i in range(1, 7)]
    return Batch(np.concatenate([p[0] for p in parts]), *cols)
