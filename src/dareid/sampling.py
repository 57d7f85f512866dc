"""Dual-domain identity-balanced mini-batch construction and label encoding.

The training rows are gathered once into one columnar TrainSet. A batch
draws n identities per domain and m rows per identity, and gathers every
column by the drawn positions; a two-domain batch holds 2*n*m rows, real
rows first, then synthetic. Attribute labels are valid on synthetic rows.
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
        labels = ("color", "type", "orientation_deg")
        carried = [k for k in labels if getattr(self, k) is not None]
        if self.domain == REAL and carried:
            raise ValueError(f"real sample id={self.id} carries disjoint "
                             f"fields {carried}")
        missing = [k for k in labels if getattr(self, k) is None]
        if self.domain == SYNTHETIC and missing:
            raise ValueError(f"synthetic sample id={self.id} missing "
                             f"fields {missing}")


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
    color_labels: np.ndarray      # 0 on real rows
    type_labels: np.ndarray       # 0 on real rows
    orientation_labels: np.ndarray  # bin index; 0 on real rows


@dataclass
class TrainSet:
    rows: Batch      # every training row
    groups: dict     # domain -> positions in rows of each identity, ids sorted


def bin_orientation(angle_deg, num_bins):
    """Half-open 360/num_bins-degree bins after wrapping the angle to [0, 360)."""
    if num_bins < 1:
        raise ValueError("num_bins must be >= 1")
    angle = float(angle_deg) % 360.0
    return min(int(angle / (360.0 / num_bins)), num_bins - 1)


def build_train_set(real_data, synth_data, spec, class_counts):
    """Check the training rows and gather them into a TrainSet, in one pass,
    with orientations binned at the orientation head's class count. The set
    has the real domain, and the synthetic one exactly when synth_data is
    given, even empty; each needs spec.n identities. Rows that do not fit
    the model's class_counts, or real and synthetic rows of different
    widths, are rejected."""
    real, synth = list(real_data), list(synth_data or [])
    if real and synth and len(real[0].features) != len(synth[0].features):
        raise ValueError(f"real rows have {len(real[0].features)} features, "
                         f"synthetic rows {len(synth[0].features)}")
    bins = class_counts["orientation"]
    labels = np.array(
        [(s.id, s.domain, s.color, s.type,
          bin_orientation(s.orientation_deg, bins)) if s.domain == SYNTHETIC
         else (s.id, s.domain, 0, 0, 0) for s in real + synth],
        dtype=np.int64).reshape(-1, 5)
    ids, domains, colors, types, orientations = labels.T
    for kind, column in (("id", ids), ("color", colors), ("type", types)):
        count = class_counts[kind]
        outside = column[(column < 0) | (column >= count)]
        if outside.size:
            raise ValueError(f"{kind} label {outside[0]} is outside the "
                             f"{kind} head's {count} classes")
    groups = {}
    for d in (REAL,) if synth_data is None else (REAL, SYNTHETIC):
        rows = np.flatnonzero(domains == d)
        rows = rows[np.argsort(ids[rows], kind="stable")]
        cuts = np.flatnonzero(np.diff(ids[rows])) + 1
        groups[d] = np.split(rows, cuts) if rows.size else []
        if len(groups[d]) < spec.n:
            raise ValueError(f"domain {d} has {len(groups[d])} identities, "
                             f"fewer than n={spec.n}")
    features = np.stack([s.features for s in real + synth])
    return TrainSet(Batch(features, ids, domains, colors, types, orientations),
                    groups)


def sample_batch(train_set, spec, rng):
    """Draw one identity-balanced batch: per domain of the set, n distinct
    identities, then m of each one's rows, with replacement when it has
    fewer than m. Real rows come first, then synthetic."""
    picks = []
    for groups in train_set.groups.values():
        for k in rng.choice(len(groups), size=spec.n, replace=False):
            positions = groups[k]
            replace = len(positions) < spec.m
            picks.append(positions[rng.choice(len(positions), size=spec.m,
                                              replace=replace)])
    idx = np.concatenate(picks)
    return Batch(**{name: column[idx]
                    for name, column in vars(train_set.rows).items()})
