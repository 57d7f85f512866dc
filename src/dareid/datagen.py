"""Two-domain toy dataset generation and the JSONL dataset file format.

Each identity is a Gaussian cluster in feature space. Synthetic samples are
pushed through a global affine domain shift and carry color/type/orientation
labels; real samples carry only the identity. Real and synthetic identities
occupy disjoint integer ranges; where counts allow, synthetic identities
reuse real cluster centers so cross-domain retrieval is well-defined.

File format (version 1): one JSON object per line with fields
{domain: "real"|"synthetic", id, features, color?, type?, orientation_deg?};
a sibling <name>.manifest.json records id ranges, vocabularies, matched
real/synthetic id pairs, and the generation spec.
"""

import json
import math
import os
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from .sampling import REAL, SYNTHETIC, Sample

FORMAT_VERSION = 1
_DOMAIN_NAMES = {REAL: "real", SYNTHETIC: "synthetic"}
_DOMAIN_CODES = {v: k for k, v in _DOMAIN_NAMES.items()}


class DatasetFormatError(Exception):
    pass


@dataclass
class ToySpec:
    num_ids_real: int = 8
    num_ids_synth: int = 8
    samples_per_id: int = 8
    input_dim: int = 16
    num_colors: int = 12
    num_types: int = 11
    num_orientation_bins: int = 6
    cluster_sep: float = 4.0
    domain_shift: Optional[tuple] = None   # (matrix, offset) or None = identity
    noise_sigma: float = 0.5
    seed: int = 0

    def __post_init__(self):
        if not 0 < self.cluster_sep < math.inf:     # false for NaN
            raise ValueError("cluster_sep must be finite and positive")
        if not 0 <= self.noise_sigma < math.inf:
            raise ValueError("noise_sigma must be finite and non-negative")
        if not all(np.isfinite(p).all() for p in self.domain_shift or ()):
            raise ValueError("domain_shift's matrix and offset must be finite")
        if min(self.num_ids_real, self.num_ids_synth, self.samples_per_id,
               self.input_dim, self.num_colors, self.num_types,
               self.num_orientation_bins) < 1:
            raise ValueError("counts must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


def _draw_centers(rng, count, dim, sep, max_tries=1000):
    centers = []
    for _ in range(count):
        for _ in range(max_tries):
            cand = rng.normal(0.0, sep, size=dim)
            if all(np.linalg.norm(cand - c) >= sep for c in centers):
                centers.append(cand)
                break
        else:
            raise ValueError(
                f"could not place {count} centers with separation {sep}")
    return centers


def generate_toy_dataset(spec):
    """Deterministically generate (samples, manifest) from a ToySpec."""
    rng = np.random.default_rng(spec.seed)
    n_real, n_synth = spec.num_ids_real, spec.num_ids_synth
    extra = max(0, n_synth - n_real)
    centers = _draw_centers(rng, n_real + extra, spec.input_dim,
                            spec.cluster_sep)

    if spec.domain_shift is None:
        shift_mat = np.eye(spec.input_dim)
        shift_off = np.zeros(spec.input_dim)
    else:
        shift_mat = np.asarray(spec.domain_shift[0], dtype=np.float64)
        shift_off = np.asarray(spec.domain_shift[1], dtype=np.float64)

    samples = []
    for rid in range(n_real):
        for _ in range(spec.samples_per_id):
            f = centers[rid] + rng.normal(0.0, spec.noise_sigma, spec.input_dim)
            samples.append(Sample(REAL, rid, f))

    matched = []
    for j in range(n_synth):
        sid = n_real + j
        center = centers[j] if j < n_real else centers[n_real + (j - n_real)]
        if j < n_real:
            matched.append([j, sid])
        color = int(rng.integers(spec.num_colors))
        vtype = int(rng.integers(spec.num_types))
        base_angle = float(rng.uniform(0.0, 360.0))
        for _ in range(spec.samples_per_id):
            f = center + rng.normal(0.0, spec.noise_sigma, spec.input_dim)
            f = shift_mat @ f + shift_off
            angle = (base_angle + rng.normal(0.0, 15.0)) % 360.0
            samples.append(Sample(SYNTHETIC, sid, f, color=color, type=vtype,
                                  orientation_deg=float(angle)))

    manifest = {
        "version": FORMAT_VERSION,
        "real_id_range": [0, n_real],
        "synth_id_range": [n_real, n_real + n_synth],
        "matched_id_pairs": matched,
        "num_colors": spec.num_colors,
        "num_types": spec.num_types,
        "num_orientation_bins": spec.num_orientation_bins,
        "input_dim": spec.input_dim,
        "spec": {**asdict(spec), "domain_shift": (
            None if spec.domain_shift is None else
            [shift_mat.tolist(), shift_off.tolist()])},
    }
    return samples, manifest


def manifest_path_for(path):
    base = str(path)
    if base.endswith(".jsonl"):
        base = base[:-len(".jsonl")]
    return base + ".manifest.json"


def _sample_to_record(s):
    rec = {"domain": _DOMAIN_NAMES[s.domain], "id": int(s.id),
           "features": [float(v) for v in s.features]}
    if s.domain == SYNTHETIC:
        rec["color"] = int(s.color)
        rec["type"] = int(s.type)
        rec["orientation_deg"] = float(s.orientation_deg)
    return rec


def _is_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


def _is_finite_number(value):
    try:
        return not isinstance(value, bool) and math.isfinite(value)
    except (TypeError, OverflowError):     # not a number, or a huge int
        return False


def _record_to_sample(rec, lineno):
    def fail(msg):
        raise DatasetFormatError(f"line {lineno}: {msg}")

    if not isinstance(rec, dict):
        fail("expected a JSON object")
    domain = rec.get("domain")
    if not isinstance(domain, str) or domain not in _DOMAIN_CODES:
        fail(f"unknown domain {domain!r}")
    if "id" not in rec or "features" not in rec:
        fail("missing id or features")
    for key in ("id", "color", "type"):     # color and type may be null
        value = rec.get(key)
        if (key == "id" or value is not None) and not (
                _is_int(value) and -2**63 <= value < 2**63):
            fail(f"{key} must be a 64-bit integer, got {value!r}")
    angle = rec.get("orientation_deg")
    if angle is not None and not _is_finite_number(angle):
        fail(f"orientation_deg must be a finite number, got {angle!r}")
    try:
        features = np.asarray(rec["features"])
        if features.dtype.kind not in "iuf":
            fail("features must be numbers")
        sample = Sample(_DOMAIN_CODES[domain], rec["id"], features,
                        color=rec.get("color"), type=rec.get("type"),
                        orientation_deg=angle)
    except (TypeError, ValueError) as e:
        fail(str(e))
    if sample.features.ndim != 1 or not np.isfinite(sample.features).all():
        fail("features must be a flat list of finite numbers")
    return sample


def write_dataset(samples, manifest, path):
    with open(path, "w") as f:
        for s in samples:
            f.write(json.dumps(_sample_to_record(s)) + "\n")
    with open(manifest_path_for(path), "w") as f:
        json.dump(manifest, f, indent=2)


def read_dataset(path):
    """Parse and validate a JSONL dataset; derives a manifest if none exists."""
    samples = []
    with open(path) as f:
        for lineno, line in enumerate(f, start=1):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as e:
                raise DatasetFormatError(f"line {lineno}: invalid JSON ({e})")
            sample = _record_to_sample(rec, lineno)
            if samples and len(sample.features) != len(samples[0].features):
                raise DatasetFormatError(f"line {lineno}: feature count "
                                         "differs from the first sample's")
            samples.append(sample)

    mpath = manifest_path_for(path)
    if not os.path.exists(mpath):
        return samples, _derive_manifest(samples)
    with open(mpath) as f:
        try:
            manifest = json.load(f)
        except ValueError as e:     # bad JSON or bad UTF-8
            raise DatasetFormatError(f"{mpath}: invalid JSON ({e})") from None
    # the keys that training reads, all of which _derive_manifest writes
    keys = ("real_id_range", "synth_id_range", "input_dim", "num_colors",
            "num_types", "num_orientation_bins")
    if not isinstance(manifest, dict) or not set(keys) <= set(manifest):
        raise DatasetFormatError(f"{mpath}: expected a JSON object with the "
                                 f"keys {', '.join(keys)}")
    for key in keys:
        value = manifest[key]
        if key.endswith("_range"):
            what = "a list of two integers"
            ok = (isinstance(value, list) and len(value) == 2
                  and all(map(_is_int, value)))
        else:
            what, ok = "an integer", _is_int(value)
        if not ok:
            raise DatasetFormatError(
                f"{mpath}: {key} must be {what}, got {value!r}")
    if samples and manifest["input_dim"] != len(samples[0].features):
        raise DatasetFormatError(
            f"{mpath}: input_dim {manifest['input_dim']} differs from the "
            f"rows' {len(samples[0].features)} features")
    return samples, manifest


def _derive_manifest(samples):
    real_ids = sorted({s.id for s in samples if s.domain == REAL})
    synth_ids = sorted({s.id for s in samples if s.domain == SYNTHETIC})
    return {
        "version": FORMAT_VERSION,
        "real_id_range": [min(real_ids, default=0),
                          max(real_ids, default=-1) + 1],
        "synth_id_range": [min(synth_ids, default=0),
                           max(synth_ids, default=-1) + 1],
        "matched_id_pairs": [],
        "num_colors": max((s.color for s in samples
                           if s.color is not None), default=0) + 1,
        "num_types": max((s.type for s in samples
                          if s.type is not None), default=0) + 1,
        "num_orientation_bins": 6,
        "input_dim": len(samples[0].features) if samples else 0,
        "spec": None,
    }
