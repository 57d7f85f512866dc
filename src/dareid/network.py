"""MLP embedder plus five classification heads over precomputed feature vectors.

The embedder maps input feature vectors to an embedding through optional
hidden ReLU layers (final layer linear). Each head is a single affine layer
producing pre-softmax logits; softmax lives inside the fused loss node.
"""

import json
from dataclasses import dataclass

import numpy as np

from .autodiff import (GraphError, NonFiniteError, Tensor, _as_matrix,
                       relu_array)

HEAD_NAMES = ("id", "domain", "color", "type", "orientation")

CHECKPOINT_VERSION = 1


class CheckpointFormatError(Exception):
    pass


@dataclass
class ModelConfig:
    input_dim: int
    hidden_dims: list
    embed_dim: int
    head_class_counts: dict

    def __post_init__(self):
        sizes = [("input_dim", self.input_dim), ("embed_dim", self.embed_dim),
                 *(("hidden_dims", h) for h in self.hidden_dims),
                 *((f"head_class_counts[{h!r}]", c)
                   for h, c in self.head_class_counts.items())]
        for name, value in sizes:   # NaN, inf, 8.0 and True compare as sizes
            if isinstance(value, bool) or not isinstance(
                    value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
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
        # NumPy integers pass the checks; the sizes are kept as plain ints,
        # which a checkpoint's JSON can hold
        self.input_dim = int(self.input_dim)
        self.embed_dim = int(self.embed_dim)
        self.hidden_dims = [int(h) for h in self.hidden_dims]
        self.head_class_counts = {h: int(c)
                                  for h, c in self.head_class_counts.items()}

    def layer_dims(self):
        return [self.input_dim] + list(self.hidden_dims) + [self.embed_dim]


def _layout(config):
    """(name, fan_in, fan_out) of each (W, b) pair: each embedder layer,
    then each head in HEAD_NAMES order."""
    dims = config.layer_dims()
    return [*((f"embed.{i}", *d) for i, d in enumerate(zip(dims, dims[1:]))),
            *((f"head.{h}", config.embed_dim, config.head_class_counts[h])
              for h in HEAD_NAMES)]


class ModelParams:
    """Embedder layer weights and per-head weights, as autodiff leaves."""

    def __init__(self, config, pairs):     # one (W, b) per _layout entry
        self.config = config
        self.embed_layers = pairs[:len(config.hidden_dims) + 1]
        self.heads = dict(zip(HEAD_NAMES, pairs[len(self.embed_layers):]))
        self._named = [(f"{name}.{k}", p) for (name, *_), wb in
                       zip(_layout(config), pairs) for k, p in zip("Wb", wb)]

    def named(self):
        """(name, Tensor) pairs in the layout's order, each W before its b."""
        return self._named

    def zero_grad(self):
        for _, p in self._named:
            p.zero_grad()


def init_params(config, seed):
    """Zero-mean scaled-uniform weights with bound 1/sqrt(fan_in); zero biases."""
    rng = np.random.default_rng(seed)

    def layer(fan_in, fan_out):
        bound = 1.0 / np.sqrt(fan_in)
        w = Tensor(rng.uniform(-bound, bound, size=(fan_in, fan_out)))
        b = Tensor(np.zeros((1, fan_out)))
        return w, b

    return ModelParams(config, [layer(i, o) for _, i, o in _layout(config)])


def embed(params, features):
    """Map N x input_dim features to an N x embed_dim embedding, as one graph
    node: h = relu(h @ W + b) per hidden layer, then h @ W + b. Features
    given as a plain array get no gradient.

    Value and gradients equal, bit for bit, those of per-layer matmul, add
    and relu nodes. Each pre-activation is checked for NaN/inf, since relu
    would map -inf to 0; an overflow raises NonFiniteError, not a warning."""
    x = features if isinstance(features, Tensor) else None
    h = _as_matrix(features if x is None else x.data)
    if h.shape[1] != params.config.input_dim:
        raise GraphError(
            f"expected {params.config.input_dim} input columns, got {h.shape[1]}")
    layers = params.embed_layers
    last = len(layers) - 1
    inputs = []     # each layer's input, for the backward pass
    with np.errstate(over="ignore", invalid="ignore"):
        for i, (w, b) in enumerate(layers):
            inputs.append(h)
            h = h @ w.data
            h += b.data
            if i < last:
                if not np.isfinite(h).all():
                    raise NonFiniteError(
                        f"non-finite values in tensor (op=embed, layer {i})")
                relu_array(h, out=h)

    def _bw(g):
        # the per-layer nodes' rules, last layer first
        for i in range(last, -1, -1):
            w, b = layers[i]
            b._accumulate(g if g.shape == b.shape
                          else g.sum(axis=0, keepdims=True))
            w._accumulate(inputs[i].T @ g)
            if i:       # back through the relu of layer i - 1
                g = g @ w.data.T
                g *= inputs[i] > 0.0    # subgradient at 0 is 0
                g += 0.0    # -0.0 to +0.0, as the add node's stored copy
            elif x is not None:
                x._accumulate(g @ w.data.T)
    flat = [p for layer in layers for p in layer]
    return Tensor(h, parents=flat if x is None else [x, *flat],
                  backward_fn=_bw, op="embed")


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
        },
        "params": {name: p.data.tolist() for name, p in params.named()},
        "epoch": epoch,
        "seed": seed,
        "optim": optim_state,
    }


def params_from_checkpoint(ckpt):
    if ckpt.get("version") != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {ckpt.get('version')}")
    config = dict(ckpt["config"])
    # older checkpoints carry a normalisation setting; only its off value,
    # the embedding this network computes, loads
    if config.pop("normalize_embeddings", False) is not False:
        raise ValueError("normalised embeddings are not supported")
    cfg = ModelConfig(**config)

    def read(name, shape):    # read before anything config-sized exists
        try:
            value = np.asarray(ckpt["params"][name], dtype=np.float64)
        except OverflowError:   # json reads 1 and 400 zeros as an int
            raise ValueError(
                f"checkpoint parameter {name} is beyond float range") from None
        if value.shape != shape:
            raise ValueError(f"checkpoint shape mismatch for {name}")
        if not np.isfinite(value).all():   # json reads NaN and Infinity
            raise ValueError(f"checkpoint parameter {name} is not finite")
        return Tensor(value)
    return ModelParams(cfg, [(read(f"{n}.W", (i, o)), read(f"{n}.b", (1, o)))
                             for n, i, o in _layout(cfg)])


def save_checkpoint(path, params, epoch=0, seed=0, optim_state=None):
    """Writes the checkpoint file, serialised before it is opened, so that a
    value JSON cannot hold raises without leaving a partial file."""
    text = json.dumps(checkpoint_dict(params, epoch, seed, optim_state))
    with open(path, "w") as f:
        f.write(text)


def load_checkpoint(path):
    """The parameters and container of a checkpoint file; a file that is not
    a checkpoint of this version raises CheckpointFormatError naming it."""
    with open(path) as f:
        try:
            ckpt = json.load(f)
            return params_from_checkpoint(ckpt), ckpt
        except (AttributeError, KeyError, TypeError, ValueError) as e:
            raise CheckpointFormatError(
                f"{path}: bad checkpoint ({type(e).__name__}: {e})") from None
