"""End-to-end training loop: sampler -> embedder/heads -> losses -> AMSGrad.

A run is two-domain exactly when it is given synthetic data; a real-only
run is the single-domain baseline. Runs are deterministic given (seed,
config, data): the sampler rng for epoch e is seeded from (seed, e+1) and
parameter init from (seed, 0), so resuming from a checkpoint at epoch k
reproduces the uninterrupted run exactly.
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
from .sampling import BatchSpec, build_train_set, sample_batch


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
    losses: tuple = ("domain", *DISJOINT_NAMES)

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if (self.iterations_per_epoch is not None
                and self.iterations_per_epoch < 1):
            raise ValueError("iterations_per_epoch must be >= 1")
        unknown = set(self.losses) - {"domain", *DISJOINT_NAMES}
        if unknown:
            raise ValueError(f"unknown losses: {sorted(unknown)}")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        _check_sizes(self.model, self.batch)


def _check_sizes(model, batch):
    """Errors if the settings size an array of more float64 values than
    NumPy can address: a layer's or a head's weights, a batch (2nm rows at
    most, for two domains) or the triplet's N x N x D distances. Sizes it
    can address are not checked: they are for the memory to refuse."""
    dims = model.layer_dims()
    rows, d = 2 * batch.n * batch.m, model.embed_dim
    sizes = [(f"layer {i}'s {a} x {b} weights (hidden_dims, embed_dim)", a * b)
             for i, (a, b) in enumerate(zip(dims, dims[1:]))]
    sizes += [(f"the {head} head's {d} x {count} weights (embed_dim"
               f"{', orientation_bins' if head == 'orientation' else ''})",
               d * count) for head, count in model.head_class_counts.items()]
    sizes += [(f"a batch's {rows} x {dims[0]} features (n, m)",
               rows * dims[0]),
              (f"the triplet's {rows} x {rows} x {d} distances "
               f"(n, m, embed_dim)", rows * rows * d)]
    for what, count in sizes:
        if count * 8 > np.iinfo(np.intp).max:
            raise ValueError(f"{what} are too many values for one array")


@dataclass
class TrainResult:
    params: object
    optim: OptimState
    run_log: list


def _iteration_step(config, params, batch, two_domain):
    """Forward pass and loss; heads of disabled losses are not computed. A
    one-domain run has no synthetic rows to discriminate or to carry
    attribute labels, so it computes only the ID and triplet losses."""
    enabled = config.losses if two_domain else ()
    emb = embed(params, batch.features)
    heads = {name: params.heads[name] for name in ("id", *enabled)}
    return total_loss(emb, heads, batch, config.weights)


def train(config, real_data, synth_data=None, resume_from=None):
    """Train from scratch or resume from a checkpoint dict; on both domains
    when synth_data is given, else on the real domain alone."""
    return train_on(config, build_train_set(
        real_data, synth_data, config.batch, config.model.head_class_counts),
        resume_from)


def train_on(config, train_set, resume_from=None):
    """train() on a set that build_train_set built for config: two-domain
    exactly when the set has the synthetic domain."""
    domains = len(train_set.groups)

    if resume_from is not None:
        params = network.params_from_checkpoint(resume_from)
        optim = OptimState.from_dict(resume_from["optim"])
        start_epoch = resume_from["epoch"]
    else:
        params = init_params(config.model, np.random.SeedSequence(
            [config.seed, 0]).generate_state(1)[0])
        optim = OptimState()
        start_epoch = 0

    rows = config.batch.n * config.batch.m * domains
    iters = config.iterations_per_epoch
    if iters is None:
        iters = max(1, math.ceil(len(train_set.rows.id_labels) / rows))

    run_log = []
    global_it = start_epoch * iters
    for epoch in range(start_epoch, config.epochs):
        rng = np.random.default_rng([config.seed, epoch + 1])
        lr = lr_at_epoch(config.schedule, epoch)
        for _ in range(iters):
            global_it += 1
            # no warning: the finiteness checks report overflow and NaN
            try:
                with np.errstate(over="ignore", invalid="ignore"):
                    batch = sample_batch(train_set, config.batch, rng)
                    row, loss = _iteration_step(config, params, batch,
                                                domains == 2)
                    params.zero_grad()
                    loss.backward()
                    amsgrad_step(optim, params.named(), lr)
            except (NonFiniteError, FloatingPointError):
                raise DivergenceError(global_it, run_log)
            run_log.append({"iteration": global_it, "epoch": epoch, "lr": lr,
                            **row})
    return TrainResult(params, optim, run_log)


def _features(samples):
    return np.array([s.features for s in samples], dtype=np.float64)


def embed_samples(params, samples):
    """The embedding of a sample list, or of the feature rows _features
    gathered from one."""
    rows = samples if isinstance(samples, np.ndarray) else _features(samples)
    return embed(params, rows).data


def evaluate(params, query_samples, gallery_samples, eval_config=None,
             exclude_self=False):
    """Embed both sets and delegate to the retrieval evaluator. Each set's
    features are gathered once. A gallery that is the query set (same ids
    and features, in order) is embedded once; only then may each query's
    own row be excluded. An embedding that is not finite is a ValueError
    that names its set."""
    for name, samples in (("query", query_samples),
                          ("gallery", gallery_samples)):
        if not samples:
            raise ValueError(f"{name} set is empty")
        if len(samples[0].features) != params.config.input_dim:
            raise ValueError(f"checkpoint input_dim does not match {name} set")
    qids = np.array([s.id for s in query_samples])
    gids = np.array([s.id for s in gallery_samples])
    qf = _features(query_samples)
    gf = qf if gallery_samples is query_samples else _features(gallery_samples)
    same_set = gf is qf or (np.array_equal(qids, gids)
                            and np.array_equal(qf, gf))
    if exclude_self and not same_set:
        raise ValueError("self-exclusion requires query set == gallery set")
    q = _embedded(params, qf, "query")
    g = q if same_set else _embedded(params, gf, "gallery")
    return evaluate_retrieval(q, g, qids, gids, eval_config or EvalConfig(),
                              exclude_self=exclude_self)


def _embedded(params, samples, name):
    """embed_samples(params, samples); an embedding that is not finite is a
    ValueError that names the set."""
    try:
        return embed_samples(params, samples)
    except NonFiniteError as e:
        raise ValueError(f"the {name} set's embedding is not finite ({e})"
                         ) from None


def id_accuracy(params, samples):
    """Top-1 accuracy of the ID head over a sample list."""
    emb = embed(params, _features(samples))
    logits = head_logits(params, emb, "id").data
    pred = logits.argmax(axis=1)
    truth = np.array([s.id for s in samples])
    return float((pred == truth).mean())


def domain_probe_accuracy(train_emb, train_dom, test_emb, test_dom):
    """Accuracy of a freshly trained logistic domain probe on held-out rows:
    400 AMSGrad steps at lr 0.05 from a seed-0 initialisation.

    The probe is independent of the model's own domain head; it measures how
    much domain information survives in the embeddings.
    """
    d = train_emb.shape[1]
    rng = np.random.default_rng(0)
    w = Tensor(rng.normal(0.0, 0.01, size=(d, 2)))
    b = Tensor(np.zeros((1, 2)))
    x = Tensor(train_emb)
    labels = np.asarray(train_dom, dtype=np.int64)
    w_state = OptimState(weight_decay=0.0)
    b_state = OptimState(weight_decay=0.0)
    for _ in range(400):
        loss = softmax_cross_entropy(x @ w + b, labels)
        w.zero_grad()
        b.zero_grad()
        loss.backward()
        amsgrad_step(w_state, [("w", w)], 0.05)   # AMSGrad is elementwise:
        amsgrad_step(b_state, [("b", b)], 0.05)   # one joint step's bits
    logits = np.asarray(test_emb) @ w.data + b.data
    pred = logits.argmax(axis=1)
    return float((pred == np.asarray(test_dom)).mean())
