"""Seeded inputs, set-up, operations and output checks of the three workloads.

The inputs come from this file's own generator, never from
``dareid.datagen.generate_toy_dataset``, so a change to the program's toy
generator cannot change what is measured. They are written in the JSONL
dataset format and loaded back with ``datagen.read_dataset``, the path that
``dareid train`` and ``dareid eval`` use. See README.md for why each
workload exists.
"""

import json
import os
import time

import numpy as np

from dareid import datagen, network, trainer
from dareid.evaluation import EvalConfig, RerankParams
from dareid.losses import LossWeights
from dareid.network import ModelConfig
from dareid.optimizer import LrSchedule
from dareid.sampling import REAL, SYNTHETIC, BatchSpec, Sample
from oracles import ap_brute_force, cmc_brute_force, rerank_reference

INPUT_DIM = 64
NUM_COLORS, NUM_TYPES, NUM_BINS = 12, 11, 6
TOP_K = 100
CMC_RANKS = (1, 5, 10)
TOLERANCE = 1e-9          # the oracle tolerance the test suite uses
ORACLE_QUERIES = 16       # size of the fixed query subset checked per op


def model_config(num_ids):
    """The ROADMAP baseline shape: 64-d input, hidden 128, embedding 32."""
    return ModelConfig(
        input_dim=INPUT_DIM, hidden_dims=[128], embed_dim=32,
        head_class_counts={"id": num_ids, "domain": 2, "color": NUM_COLORS,
                           "type": NUM_TYPES, "orientation": NUM_BINS})


# ---- input generation ----

def _real(rng, centers, per_id, sigma):
    return [Sample(REAL, i, c + rng.normal(0.0, sigma, INPUT_DIM))
            for i, c in enumerate(centers) for _ in range(per_id)]


def _synthetic(rng, centers, per_id, sigma):
    """Same identities as the real rows under an affine domain shift, with
    ids after the real ones and color/type/orientation labels."""
    shift = np.eye(INPUT_DIM) + rng.normal(0.0, 0.1, (INPUT_DIM, INPUT_DIM))
    offset = rng.normal(0.0, 0.5, INPUT_DIM)
    first_id = len(centers)
    out = []
    for j, c in enumerate(centers):
        color = int(rng.integers(NUM_COLORS))
        vtype = int(rng.integers(NUM_TYPES))
        angle = rng.uniform(0.0, 360.0)
        for _ in range(per_id):
            f = (c + rng.normal(0.0, sigma, INPUT_DIM)) @ shift + offset
            out.append(Sample(SYNTHETIC, first_id + j, f, color=color,
                              type=vtype, orientation_deg=float(
                                  (angle + rng.normal(0.0, 15.0)) % 360.0)))
    return out


def _manifest(samples):
    real = [s.id for s in samples if s.domain == REAL]
    synth = [s.id for s in samples if s.domain == SYNTHETIC]
    return {
        "version": datagen.FORMAT_VERSION,
        "real_id_range": [min(real, default=0), max(real, default=-1) + 1],
        "synth_id_range": [min(synth, default=0), max(synth, default=-1) + 1],
        "matched_id_pairs": [], "num_colors": NUM_COLORS,
        "num_types": NUM_TYPES, "num_orientation_bins": NUM_BINS,
        "input_dim": INPUT_DIM, "spec": None,
    }


def _write_read(work_dir, name, samples):
    path = os.path.join(work_dir, name + ".jsonl")
    datagen.write_dataset(samples, _manifest(samples), path)
    return datagen.read_dataset(path)[0]


def _features(samples):
    return np.stack([s.features for s in samples])


def _ids(samples):
    return np.array([s.id for s in samples])


# ---- independent references for the checks ----

def embed_from_checkpoint(path, feats):
    """Forward pass of the embedder read straight from the checkpoint file."""
    with open(path) as f:
        ckpt = json.load(f)
    params = ckpt["params"]
    layers = len(ckpt["config"]["hidden_dims"]) + 1
    x = feats
    for i in range(layers):
        x = (x @ np.asarray(params[f"embed.{i}.W"])
             + np.asarray(params[f"embed.{i}.b"]))
        if i < layers - 1:
            x = np.where(x > 0.0, x, 0.0)
    return x


def _distance_rows(q, g, block=16):
    for start in range(0, len(q), block):
        diff = q[start:start + block, None, :] - g[None, :, :]
        yield start, np.sqrt((diff ** 2).sum(axis=2))


def _oracle_aps(dist_rows, qids, gids):
    return np.array([ap_brute_force(row, qid, gids, TOP_K)
                     for row, qid in zip(dist_rows, qids)])


def _oracle_cmc(blocks, qids, gids):
    """cmc_brute_force, one query at a time, over the gallery columns that
    can come before the query's first hit within the largest rank: every
    column no farther than the max(CMC_RANKS)-th nearest, plus the relevant
    ones. Kept in index order, they rank as in the full row, ties included,
    so the rates are exact; sorting full rows would take seconds."""
    hits = dict.fromkeys(CMC_RANKS, 0)
    last = max(CMC_RANKS) - 1
    for start, dist in blocks:
        for row, qid in zip(dist, qids[start:start + len(dist)]):
            cols = np.flatnonzero((row <= np.partition(row, last)[last])
                                  | (gids == qid))
            rates = cmc_brute_force([row[cols].tolist()], [qid],
                                    gids[cols].tolist(), CMC_RANKS)
            for r in CMC_RANKS:
                hits[r] += int(rates[r])
    return {r: hits[r] / len(qids) for r in CMC_RANKS}


def _mismatch(what, got, want):
    diff = float(np.max(np.abs(np.asarray(got) - np.asarray(want))))
    return None if diff <= TOLERANCE else f"{what} off by {diff:.3e}"


# ---- workloads ----

class Train:
    """trainer.train on two domains with all five losses (V,D,O,C,T)."""

    name = "train"
    IDS, PER_ID, SIGMA = 128, 8, 0.6
    ITERATIONS = 100               # per trainer.train call
    setups = 10                    # about 0.5 s each, 5 s of the window
    rows_per_step = 2 * 4 * 4      # two domains x n x m
    step = "iteration"

    def __init__(self, seed):
        self.seed = seed
        self.stamps = []
        self.params = None
        self.checkpoint_bytes = 0

    def setup(self, work_dir):
        rng = np.random.default_rng([self.seed, 1])
        centers = rng.normal(0.0, 1.0, (self.IDS, INPUT_DIM))
        self.real = _write_read(work_dir, "real",
                                _real(rng, centers, self.PER_ID, self.SIGMA))
        self.synth = _write_read(
            work_dir, "synth",
            _synthetic(rng, centers, self.PER_ID, self.SIGMA))
        held_out = _real(rng, centers, 16, self.SIGMA)
        self.query = _write_read(work_dir, "query", held_out[::4])
        self.gallery = _write_read(
            work_dir, "gallery", [s for i, s in enumerate(held_out) if i % 4])
        self.config = trainer.TrainConfig(
            model=model_config(2 * self.IDS), batch=BatchSpec(n=4, m=4),
            weights=LossWeights(), schedule=LrSchedule(base_lr=1e-3),
            epochs=1, iterations_per_epoch=self.ITERATIONS, seed=self.seed)

    def probes(self, stack, patch):
        """One perf_counter stamp per iteration, at the sampler boundary."""
        stamps = self.stamps

        def stamped(fn):
            def sample_batch(*args, **kwargs):
                stamps.append(time.perf_counter())
                return fn(*args, **kwargs)
            return sample_batch
        patch(stack, "dareid.trainer", "sample_batch", stamped)

    def op(self):
        self.stamps.clear()
        return trainer.train(self.config, self.real, self.synth)

    def digest(self, result, end):
        """Iteration times, and what the check needs of the loss log. The
        first result's parameters are kept for the quality metric."""
        if self.params is None:
            self.params = result.params
        log = result.run_log
        finite = all(np.isfinite(v) for row in log for k, v in row.items()
                     if k.endswith("loss") or k == "total")
        return (np.diff(self.stamps + [end]),
                (len(log), finite, [row["total"] for row in log]))

    def check(self, digest):
        logged, finite, totals = digest
        if logged != self.ITERATIONS:
            return f"{logged} logged iterations, expected {self.ITERATIONS}"
        if not finite:
            return "non-finite loss logged"
        if not np.mean(totals[-10:]) < np.mean(totals[:10]):
            return "total loss did not fall"
        return None

    def quality(self, work_dir):
        """mAP@100 of the trained model on held-out real rows, computed with
        the oracle from a saved checkpoint, so evaluation code does no work
        in this workload."""
        path = os.path.join(work_dir, "trained.ckpt")
        network.save_checkpoint(path, self.params)
        q = embed_from_checkpoint(path, _features(self.query))
        g = embed_from_checkpoint(path, _features(self.gallery))
        qids, gids = _ids(self.query), _ids(self.gallery)
        aps = [_oracle_aps(d, qids[s:s + len(d)], gids)
               for s, d in _distance_rows(q, g)]
        return float(np.mean(np.concatenate(aps)))


class Retrieval:
    """One trainer.evaluate call without re-ranking: 1024 queries against an
    8192-row gallery, with a checkpoint that setup saved and reloaded."""

    name = "retrieval"
    IDS, GALLERY_PER_ID, SIGMA = 1024, 8, 0.45
    rerank = None
    setups = 5                     # about 1.3 s each, 6.5 s of the window
    step = "evaluate call"

    def __init__(self, seed):
        self.seed = seed
        self.map_k = None

    def setup(self, work_dir):
        rng = np.random.default_rng([self.seed, 2])
        centers = rng.normal(0.0, 1.0, (self.IDS, INPUT_DIM))
        self.gallery = _write_read(
            work_dir, "gallery",
            _real(rng, centers, self.GALLERY_PER_ID, self.SIGMA))
        self.query = _write_read(work_dir, "query",
                                 _real(rng, centers, 1, self.SIGMA))
        self.checkpoint = os.path.join(work_dir, "model.ckpt")
        params = network.init_params(model_config(self.IDS),
                                     seed=[self.seed, 3])
        network.save_checkpoint(self.checkpoint, params, seed=self.seed)
        self.params, _ = network.load_checkpoint(self.checkpoint)
        self.checkpoint_bytes = os.path.getsize(self.checkpoint)
        self.config = EvalConfig(top_k=TOP_K, rerank=self.rerank)
        self.subset = np.linspace(0, len(self.query) - 1,
                                  ORACLE_QUERIES).astype(int)
        self.rows_per_step = len(self.query)
        self.expected = None

    def probes(self, stack, patch):
        pass

    def op(self):
        return trainer.evaluate(self.params, self.query, self.gallery,
                                self.config)

    def digest(self, report, end):
        """The checked outputs: APs of the fixed query subset, CMC, mAP."""
        aps = np.asarray(report.per_query_ap)[self.subset]
        if self.map_k is None:
            self.map_k = report.map_at_k
        return None, (aps, dict(report.cmc), report.map_at_k)

    def _embedded(self):
        """Query and gallery embeddings from the checkpoint file, and ids."""
        return (embed_from_checkpoint(self.checkpoint, _features(self.query)),
                embed_from_checkpoint(self.checkpoint,
                                      _features(self.gallery)),
                _ids(self.query), _ids(self.gallery))

    def _references(self):
        q, g, qids, gids = self._embedded()
        sub = next(_distance_rows(q[self.subset], g, len(self.subset)))[1]
        return (_oracle_aps(sub, qids[self.subset], gids),
                _oracle_cmc(_distance_rows(q, g), qids, gids))

    def check(self, digest):
        if self.expected is None:
            self.expected = self._references()
        aps, cmc, map_k = digest
        want_aps, want_cmc = self.expected[:2]
        if not np.isfinite(map_k):
            return "mAP is not finite"
        if sorted(cmc) != sorted(want_cmc):
            return f"CMC ranks {sorted(cmc)}, expected {sorted(want_cmc)}"
        return (_mismatch("AP on the oracle subset", aps, want_aps)
                or _mismatch("CMC", [cmc[r] for r in CMC_RANKS],
                             [want_cmc[r] for r in CMC_RANKS]))

    def quality(self, work_dir):
        return self.map_k


class Rerank(Retrieval):
    """One trainer.evaluate call with the default RerankParams (k1=20, k2=6,
    lambda=0.3) on 512 queries and 1536 gallery rows."""

    name = "rerank"
    IDS, GALLERY_PER_ID, SIGMA = 512, 3, 0.5
    rerank = RerankParams()
    setups = 15                    # about 0.35 s each, 5 s of the window

    def __init__(self, seed):
        super().__init__(seed)
        self.captured = []

    def probes(self, stack, patch):
        """Keep the re-ranked rows of the oracle subset for the check."""
        captured = self.captured

        def capturing(fn):
            def k_reciprocal_rerank(*args, **kwargs):
                dist = fn(*args, **kwargs)
                captured.append(dist[self.subset].copy())
                return dist
            return k_reciprocal_rerank
        patch(stack, "dareid.evaluation", "k_reciprocal_rerank", capturing)

    def digest(self, report, end):
        _, (aps, cmc, map_k) = super().digest(report, end)
        rows = self.captured.pop() if self.captured else None
        return None, (aps, cmc, map_k, rows)

    def _references(self):
        q, g, qids, gids = self._embedded()
        p = self.rerank
        final = rerank_reference(q, g, p.k1, p.k2, p.lambda_orig)
        return (_oracle_aps(final[self.subset], qids[self.subset], gids),
                _oracle_cmc([(0, final)], qids, gids), final[self.subset])

    def check(self, digest):
        if self.expected is None:
            self.expected = self._references()
        aps, cmc, map_k, rows = digest
        if rows is None:
            return "k_reciprocal_rerank was not called"
        return (super().check((aps, cmc, map_k))
                or _mismatch("re-ranked distances on the oracle subset",
                             rows, self.expected[2]))


WORKLOADS = {w.name: w for w in (Train, Retrieval, Rerank)}
