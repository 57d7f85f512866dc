"""Loss terms: ID cross-entropy, adversarial domain loss, batch-hard triplet,
masked disjoint cross-entropies, and their weighted combination.

The domain loss is reported as the discriminator's ordinary cross-entropy;
the adversarial sign lives in the gradient-reversal node in front of the
domain head, so the encoder receives -lambda times the discriminator
gradient.
"""

import math
from dataclasses import dataclass

import numpy as np

from .autodiff import (GraphError, NonFiniteError, Tensor, cross_entropy,
                       grad_reversal, softmax_cross_entropy)

DISJOINT_NAMES = ("color", "type", "orientation")


@dataclass
class LossWeights:
    disjoint_weight: float = 1.0
    grl_lambda: float = 1.0
    triplet_margin: float = 0.3

    def __post_init__(self):
        for name, value in vars(self).items():
            if not 0 <= value < np.inf:     # false for NaN
                raise ValueError(f"{name} must be finite and non-negative")


def _domain_labels(domain_labels):
    labels = np.asarray(domain_labels, dtype=np.int64).reshape(-1)
    if np.any((labels != 0) & (labels != 1)):
        raise GraphError("domain labels must be 0 (real) or 1 (synthetic)")
    return labels


def domain_loss(embeddings, domain_labels, lam, domain_head):
    """Discriminator cross-entropy on the domain head behind gradient reversal."""
    labels = _domain_labels(domain_labels)
    w, b = domain_head
    logits = grad_reversal(embeddings, lam) @ w + b
    return softmax_cross_entropy(logits, labels)


def batch_hard_triplet(x, ids, margin):
    """Value and gradient of the batch-hard triplet loss of an embedding
    array x, over Euclidean distances.

    Per anchor, hinge on margin + (farthest same-id distance) - (nearest
    different-id distance); the loss is the sum over anchors. The distances
    are the square root of the broadcast N x N x D squared differences
    summed over their last axis, bit for bit pairwise_distances(x, x).
    """
    if not 0 <= margin < np.inf:
        raise GraphError("margin must be finite and non-negative")
    ids = np.asarray(ids, dtype=np.int64).reshape(-1)
    n = x.shape[0]
    if ids.shape[0] != n:
        raise GraphError(f"expected {n} ids, got {ids.shape[0]}")
    same_id = ids[:, None] == ids[None, :]
    positive = same_id & ~np.eye(n, dtype=bool)
    if same_id.all():
        raise GraphError("triplet loss needs at least two identities per batch")
    if not positive.any(axis=1).all():
        raise GraphError("every identity needs at least two samples per batch")

    diff = x[:, None, :] - x[None, :, :]
    dist = np.sqrt(np.square(diff, out=diff).sum(axis=2))
    # hardest positive and negative per anchor; ties go to the first index
    hard_pos = np.where(positive, dist, -np.inf).argmax(axis=1)
    hard_neg = np.where(same_id, np.inf, dist).argmin(axis=1)

    anchors = np.arange(n)
    terms = margin + dist[anchors, hard_pos] - dist[anchors, hard_neg]
    active = terms > 0.0
    value = float(np.where(active, terms, 0.0).sum())

    a = anchors[active]
    pn = np.stack([hard_pos[active], hard_neg[active]])
    diff = x[a] - x[pn]
    # a distance of 0 contributes 0
    d = dist[a, pn][..., None]
    dp, dn = np.divide(diff, d, out=np.zeros_like(diff), where=d > 0)
    # rows a, p, n of each active anchor in turn, keyed row * D + column:
    # bincount adds them from +0.0 in this order, as a loop over the
    # anchors would (and counts in int64 when no anchor is active)
    d = x.shape[1]
    rows = np.stack([a, *pn], axis=1).reshape(-1, 1)
    grad = np.bincount((rows * d + np.arange(d)).ravel(),
                       np.stack([dp - dn, -dp, dn], axis=1).ravel(), x.size)
    return value, grad.astype(x.dtype, copy=False).reshape(x.shape)


def triplet_batch_hard(embeddings, ids, margin):
    """batch_hard_triplet of an embedding Tensor, as a 1x1 graph node."""
    value, grad = batch_hard_triplet(embeddings.data, ids, margin)
    out = Tensor([[value]], parents=(embeddings,), op="triplet_batch_hard")
    out._backward_fn = lambda g: embeddings._accumulate(g[0, 0] * grad)
    return out


def _finite(total):
    """The running total; NaN or inf in any term makes it non-finite."""
    if not math.isfinite(total):
        raise NonFiniteError("non-finite values in tensor (op=total_loss)")
    return total


def _logits(x, head, name):
    """x @ W + b of one head, checked once for NaN/inf."""
    w, b = head
    if w.shape[0] != x.shape[1] or b.shape != (1, w.shape[1]):
        raise GraphError(f"{name} head shape mismatch: "
                         f"{x.shape} @ {w.shape} + {b.shape}")
    z = x @ w.data
    z += b.data
    if not np.isfinite(z).all():
        raise NonFiniteError(
            f"non-finite values in tensor (op=total_loss, {name} logits)")
    return z


def total_loss(embeddings, heads, batch, weights):
    """The weighted sum of the enabled losses as one scalar graph node;
    return the run-log row of their values and the node.

    heads maps each enabled head's name to its (W, b) Tensors, b one row:
    "id" always, "domain" and the names of DISJOINT_NAMES when their losses
    are on; a missing one contributes exactly zero. The domain head sits behind
    gradient reversal of strength weights.grl_lambda. The disjoint losses
    are masked to the synthetic rows: the mask is the batch's domain
    labels, since SYNTHETIC is 1.

    The value, the row and every gradient equal, bit for bit, those of the
    per-node graph: each head's matmul and add nodes, the loss nodes of
    softmax_cross_entropy, domain_loss and triplet_batch_hard, and the add
    and scale nodes of the sum. Its checks come in that graph's order and
    raise the same GraphError and NonFiniteError."""
    x = embeddings.data
    logits = {name: _logits(x, head, name)
              for name, head in heads.items() if name != "domain"}
    value, d = cross_entropy(logits["id"], batch.id_labels)
    row = {"id_loss": float(value), "domain_loss": 0.0}
    total = _finite(row["id_loss"])
    terms = [("id", 1.0, d)]    # (name, weight, d loss / d input), summed

    lam = weights.grl_lambda
    if "domain" in heads:
        labels = _domain_labels(batch.domain_labels)
        if lam < 0:
            raise GraphError(
                f"gradient reversal strength must be >= 0, got {lam}")
        value, d = cross_entropy(_logits(x, heads["domain"], "domain"),
                                 labels)
        row["domain_loss"] = float(value)
        total = _finite(total + row["domain_loss"])
        terms.append(("domain", 1.0, d))

    value, d = batch_hard_triplet(x, batch.id_labels, weights.triplet_margin)
    row["triplet_loss"] = value
    total = _finite(total + value)
    terms.append(("triplet", 1.0, d))

    labels = {"color": batch.color_labels, "type": batch.type_labels,
              "orientation": batch.orientation_labels}
    weight = float(weights.disjoint_weight)
    for name in DISJOINT_NAMES:
        row[f"{name}_loss"] = 0.0
        if name in heads:
            value, d = cross_entropy(logits[name], labels[name],
                                     mask=batch.domain_labels)
            row[f"{name}_loss"] = float(value)
            total = _finite(total + weight * row[f"{name}_loss"])
            terms.append((name, weight, d))
    row["total"] = total

    def _bw(g):
        # the per-node graph's order: the reverse of the sum's
        for name, weight, d in reversed(terms):
            grad = (g[0, 0] * weight) * d
            if name == "triplet":
                embeddings._accumulate(grad)
                continue
            grad += 0.0         # -0.0 to +0.0, as the add node's stored copy
            w, b = heads[name]
            b._accumulate(grad.sum(axis=0, keepdims=True))
            w._accumulate(x.T @ grad)
            back = grad @ w.data.T
            if name == "domain":    # the reversal node stores back + 0.0
                back += 0.0
                back = -lam * back
            embeddings._accumulate(back)
    params = [p for name, _, _ in terms if name != "triplet"
              for p in heads[name]]
    return row, Tensor([[total]], parents=(embeddings, *params),
                       backward_fn=_bw, op="total_loss")
