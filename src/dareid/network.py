"""MLP embedder plus five classification heads over precomputed feature vectors.

The embedder maps input feature vectors to an embedding through optional
hidden ReLU layers (final layer linear). Each head is a single affine layer
producing pre-softmax logits; softmax lives inside the fused loss node.
"""

import json
from dataclasses import dataclass, field

import numpy as np

from .autodiff import GraphError, Tensor, _as_matrix, l2_normalize_rows

HEAD_NAMES = ("id", "domain", "color", "type", "orientation")

CHECKPOINT_VERSION = 1


@dataclass
class ModelConfig:
    input_dim: int
    hidden_dims: list
    embed_dim: int
    head_class_counts: dict
    normalize_embeddings: bool = False

    def __post_init__(self):
        if self.input_dim < 1 or self.embed_dim < 1:
            raise ValueError("dims must be >= 1")
        if any(h < 1 for h in self.hidden_dims):
            raise ValueError("hidden dims must be >= 1")
        missing = [h for h in HEAD_NAMES if h not in self.head_class_counts]
        if missing:
            raise ValueError(f"missing head class counts: {missing}")
        small = {h: c for h, c in self.head_class_counts.items() if c < 1}
        if small:
            raise ValueError(f"head class counts must be >= 1, got {small}")
        if self.head_class_counts["domain"] != 2:
            raise ValueError("domain head must have exactly 2 classes")

    def layer_dims(self):
        return [self.input_dim] + list(self.hidden_dims) + [self.embed_dim]


class ModelParams:
    """Embedder layer weights and per-head weights, as autodiff leaves."""

    def __init__(self, config, embed_layers, heads):
        self.config = config
        self.embed_layers = embed_layers   # list of (W, b) Tensors
        self.heads = heads                 # head name -> (W, b) Tensors

    def named(self):
        """Flat iteration as (name, Tensor) pairs, in a fixed order."""
        for i, (w, b) in enumerate(self.embed_layers):
            yield f"embed.{i}.W", w
            yield f"embed.{i}.b", b
        for h in HEAD_NAMES:
            w, b = self.heads[h]
            yield f"head.{h}.W", w
            yield f"head.{h}.b", b

    def zero_grad(self):
        for _, p in self.named():
            p.zero_grad()


def init_params(config, seed):
    """Zero-mean scaled-uniform weights with bound 1/sqrt(fan_in); zero biases."""
    rng = np.random.default_rng(seed)

    def layer(fan_in, fan_out):
        bound = 1.0 / np.sqrt(fan_in)
        w = Tensor(rng.uniform(-bound, bound, size=(fan_in, fan_out)))
        b = Tensor(np.zeros((1, fan_out)))
        return w, b

    dims = config.layer_dims()
    embed_layers = [layer(dims[i], dims[i + 1]) for i in range(len(dims) - 1)]
    heads = {h: layer(config.embed_dim, config.head_class_counts[h])
             for h in HEAD_NAMES}
    return ModelParams(config, embed_layers, heads)


def embed(params, features):
    """Map N x input_dim features to an N x embed_dim embedding; features
    given as a plain array get no gradient."""
    x = features if isinstance(features, Tensor) else _as_matrix(features)
    if x.shape[1] != params.config.input_dim:
        raise GraphError(
            f"expected {params.config.input_dim} input columns, got {x.shape[1]}")
    n_layers = len(params.embed_layers)
    for i, (w, b) in enumerate(params.embed_layers):
        x = x @ w + b
        if i < n_layers - 1:
            x = x.relu()
    if params.config.normalize_embeddings:
        x = l2_normalize_rows(x)
    return x


def head_logits(params, embeddings, head):
    """Pre-softmax logits of one classification head."""
    if head not in HEAD_NAMES:
        raise GraphError(f"unknown head {head!r}; expected one of {HEAD_NAMES}")
    w, b = params.heads[head]
    return embeddings @ w + b


# ---- checkpoint container ----

def checkpoint_dict(params, epoch=0, seed=0, optim_state=None):
    cfg = params.config
    return {
        "version": CHECKPOINT_VERSION,
        "config": {
            "input_dim": cfg.input_dim,
            "hidden_dims": list(cfg.hidden_dims),
            "embed_dim": cfg.embed_dim,
            "head_class_counts": dict(cfg.head_class_counts),
            "normalize_embeddings": cfg.normalize_embeddings,
        },
        "params": {name: p.data.tolist() for name, p in params.named()},
        "epoch": epoch,
        "seed": seed,
        "optim": optim_state,
    }


def params_from_checkpoint(ckpt):
    if ckpt.get("version") != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {ckpt.get('version')}")
    cfg = ModelConfig(**ckpt["config"])
    params = init_params(cfg, seed=0)
    for name, p in params.named():
        stored = np.asarray(ckpt["params"][name], dtype=np.float64)
        if stored.shape != p.data.shape:
            raise ValueError(f"checkpoint shape mismatch for {name}")
        p.data = stored
    return params


def save_checkpoint(path, params, epoch=0, seed=0, optim_state=None):
    with open(path, "w") as f:
        json.dump(checkpoint_dict(params, epoch, seed, optim_state), f)


def load_checkpoint(path):
    with open(path) as f:
        ckpt = json.load(f)
    return params_from_checkpoint(ckpt), ckpt
