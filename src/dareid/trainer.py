"""End-to-end training loop: sampler -> embedder/heads -> losses -> AMSGrad.

Runs are deterministic given (seed, config, data): the sampler rng for epoch
e is seeded from (seed, e+1) and parameter init from (seed, 0), so resuming
from a checkpoint at epoch k reproduces the uninterrupted run exactly.
"""

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import network
from .autodiff import NonFiniteError, Tensor, softmax_cross_entropy
from .evaluation import EvalConfig, evaluate_retrieval
from .losses import DISJOINT_NAMES, LossWeights, total_loss
from .network import ModelConfig, embed, head_logits, init_params
from .optimizer import LrSchedule, OptimState, amsgrad_step, lr_at_epoch
from .sampling import (BatchSpec, build_identity_index, sample_batch,
                       sampled_domain_ids)


class DivergenceError(Exception):
    """Total loss became non-finite; records the offending iteration."""

    def __init__(self, iteration, run_log):
        super().__init__(f"training diverged at iteration {iteration}")
        self.iteration = iteration
        self.run_log = run_log


@dataclass
class TrainConfig:
    model: ModelConfig
    batch: BatchSpec
    weights: LossWeights = field(default_factory=LossWeights)
    schedule: LrSchedule = field(default_factory=LrSchedule)
    epochs: int = 60
    iterations_per_epoch: Optional[int] = None
    seed: int = 0
    disjoint: tuple = DISJOINT_NAMES
    use_domain_loss: bool = True
    use_synthetic: bool = True

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if (self.iterations_per_epoch is not None
                and self.iterations_per_epoch < 1):
            raise ValueError("iterations_per_epoch must be >= 1")
        unknown = set(self.disjoint) - set(DISJOINT_NAMES)
        if unknown:
            raise ValueError(f"unknown disjoint losses: {sorted(unknown)}")
        if not self.use_synthetic:
            # single-domain baseline: no synthetic rows to mask or discriminate
            self.disjoint = ()
            self.use_domain_loss = False


@dataclass
class TrainResult:
    params: object
    optim: OptimState
    run_log: list
    epochs_done: int
    config: TrainConfig


def _iteration_step(config, params, batch):
    """Forward pass and loss; heads of disabled losses are not computed."""
    emb = embed(params, batch.features)
    id_logits = head_logits(params, emb, "id")
    disjoint_logits = {name: head_logits(params, emb, name)
                       for name in config.disjoint}
    domain_head = params.heads["domain"] if config.use_domain_loss else None
    return total_loss(emb, id_logits, disjoint_logits, domain_head, batch,
                      config.weights)


def train(config, real_data, synth_data=None, resume_from=None):
    """Train from scratch or resume from a checkpoint dict."""
    dataset = list(real_data) + list(synth_data or [])
    index = build_identity_index(dataset)
    ids = sampled_domain_ids(index, config.batch, config.use_synthetic)

    if resume_from is not None:
        params = network.params_from_checkpoint(resume_from)
        optim = OptimState.from_dict(resume_from["optim"])
        start_epoch = resume_from["epoch"]
    else:
        params = init_params(config.model, np.random.SeedSequence(
            [config.seed, 0]).generate_state(1)[0])
        optim = OptimState()
        start_epoch = 0

    rows = config.batch.n * config.batch.m * (2 if config.use_synthetic else 1)
    iters = config.iterations_per_epoch
    if iters is None:
        iters = max(1, math.ceil(len(dataset) / rows))

    run_log = []
    global_it = start_epoch * iters
    for epoch in range(start_epoch, config.epochs):
        rng = np.random.default_rng([config.seed, epoch + 1])
        lr = lr_at_epoch(config.schedule, epoch)
        for _ in range(iters):
            global_it += 1
            try:
                batch = sample_batch(
                    dataset, index, config.batch, rng,
                    config.model.head_class_counts["orientation"],
                    config.use_synthetic, ids)
                breakdown, loss = _iteration_step(config, params, batch)
                if not np.isfinite(breakdown.total):
                    raise DivergenceError(global_it, run_log)
                params.zero_grad()
                loss.backward()
                amsgrad_step(optim, params.named(), lr)
            except (NonFiniteError, FloatingPointError):
                raise DivergenceError(global_it, run_log)
            run_log.append({"iteration": global_it, "epoch": epoch, "lr": lr,
                            **breakdown.as_dict()})
    return TrainResult(params, optim, run_log, config.epochs, config)


def _features(samples):
    return np.stack([s.features for s in samples])


def embed_samples(params, samples):
    return embed(params, _features(samples)).data


def evaluate(params, query_samples, gallery_samples, eval_config=None,
             exclude_self=False):
    """Embed both sets and delegate to the retrieval evaluator. A gallery
    that is the query set (same ids and features, in order) is embedded
    once; only then may each query's own row be excluded."""
    for name, samples in (("query", query_samples),
                          ("gallery", gallery_samples)):
        if samples and len(samples[0].features) != params.config.input_dim:
            raise ValueError(f"checkpoint input_dim does not match {name} set")
    qids = np.array([s.id for s in query_samples])
    gids = np.array([s.id for s in gallery_samples])
    same_set = np.array_equal(qids, gids) and all(
        np.array_equal(a.features, b.features)
        for a, b in zip(query_samples, gallery_samples))
    exclude = None
    if exclude_self:
        if not same_set:
            raise ValueError("self-exclusion requires query set == gallery set")
        exclude = np.eye(len(qids), dtype=bool)
    q = embed_samples(params, query_samples)
    g = q if same_set else embed_samples(params, gallery_samples)
    return evaluate_retrieval(q, g, qids, gids, eval_config or EvalConfig(),
                              exclude)


def id_accuracy(params, samples):
    """Top-1 accuracy of the ID head over a sample list."""
    emb = embed(params, _features(samples))
    logits = head_logits(params, emb, "id").data
    pred = logits.argmax(axis=1)
    truth = np.array([s.id for s in samples])
    return float((pred == truth).mean())


def domain_probe_accuracy(train_emb, train_dom, test_emb, test_dom,
                          seed=0, steps=400, lr=0.05):
    """Accuracy of a freshly trained logistic domain probe on held-out rows.

    The probe is independent of the model's own domain head; it measures how
    much domain information survives in the embeddings.
    """
    d = train_emb.shape[1]
    rng = np.random.default_rng(seed)
    w = Tensor(rng.normal(0.0, 0.01, size=(d, 2)))
    b = Tensor(np.zeros((1, 2)))
    x = Tensor(train_emb)
    labels = np.asarray(train_dom, dtype=np.int64)
    optim = OptimState(weight_decay=0.0)
    for _ in range(steps):
        loss = softmax_cross_entropy(x @ w + b, labels)
        w.zero_grad()
        b.zero_grad()
        loss.backward()
        amsgrad_step(optim, [("w", w), ("b", b)], lr)
    logits = np.asarray(test_emb) @ w.data + b.data
    pred = logits.argmax(axis=1)
    return float((pred == np.asarray(test_dom)).mean())
