"""Loss terms: ID cross-entropy, adversarial domain loss, batch-hard triplet,
masked disjoint cross-entropies, and their weighted combination.

The domain loss is reported as the discriminator's ordinary cross-entropy;
the adversarial sign lives in the gradient-reversal node in front of the
domain head, so the encoder receives -lambda times the discriminator
gradient.
"""

from dataclasses import dataclass

import numpy as np

from .autodiff import GraphError, Tensor, grad_reversal, softmax_cross_entropy
from .evaluation import pairwise_distances

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


def domain_loss(embeddings, domain_labels, lam, domain_head):
    """Discriminator cross-entropy on the domain head behind gradient reversal."""
    labels = np.asarray(domain_labels, dtype=np.int64).reshape(-1)
    if np.any((labels != 0) & (labels != 1)):
        raise GraphError("domain labels must be 0 (real) or 1 (synthetic)")
    w, b = domain_head
    logits = grad_reversal(embeddings, lam) @ w + b
    return softmax_cross_entropy(logits, labels)


def triplet_batch_hard(embeddings, ids, margin):
    """Batch-hard triplet loss over Euclidean embedding distances.

    Per anchor, hinge on margin + (farthest same-id distance) - (nearest
    different-id distance); the loss is the sum over anchors.
    """
    if not 0 <= margin < np.inf:
        raise GraphError("margin must be finite and non-negative")
    ids = np.asarray(ids, dtype=np.int64).reshape(-1)
    x = embeddings.data
    n = x.shape[0]
    if ids.shape[0] != n:
        raise GraphError(f"expected {n} ids, got {ids.shape[0]}")
    uniq, counts = np.unique(ids, return_counts=True)
    if len(uniq) < 2:
        raise GraphError("triplet loss needs at least two identities per batch")
    if counts.min() < 2:
        raise GraphError("every identity needs at least two samples per batch")

    dist = pairwise_distances(x, x)
    # hardest positive and negative per anchor; ties go to the first index
    same_id = ids[:, None] == ids[None, :]
    positive = same_id & ~np.eye(n, dtype=bool)
    hard_pos = np.where(positive, dist, -np.inf).argmax(axis=1)
    hard_neg = np.where(same_id, np.inf, dist).argmin(axis=1)

    anchors = np.arange(n)
    terms = margin + dist[anchors, hard_pos] - dist[anchors, hard_neg]
    active = terms > 0.0
    value = float(np.where(active, terms, 0.0).sum())

    out = Tensor([[value]], parents=(embeddings,), op="triplet_batch_hard")

    def _bw(g):
        a = anchors[active]
        pn = np.stack([hard_pos[active], hard_neg[active]])
        diff = x[a] - x[pn]
        # a distance of 0 contributes 0
        d = dist[a, pn][..., None]
        dp, dn = np.divide(diff, d, out=np.zeros_like(diff), where=d > 0)
        # rows a, p, n of each active anchor in turn: np.add.at adds them
        # unbuffered in this order, as a loop over the anchors would
        grad = np.zeros_like(x)
        np.add.at(grad, np.stack([a, *pn], axis=1).reshape(-1),
                  np.stack([dp - dn, -dp, dn], axis=1).reshape(-1, x.shape[1]))
        embeddings._accumulate(g[0, 0] * grad)
    out._backward_fn = _bw
    return out


def total_loss(embeddings, id_logits, disjoint_logits, domain_head, batch,
               weights):
    """Combine joint and disjoint losses into one scalar node; return the
    run-log row of their values and the node.

    disjoint_logits maps the enabled names of DISJOINT_NAMES to logit
    tensors; a missing name, like domain_head=None, contributes exactly zero.
    The disjoint losses are masked to the synthetic rows: the mask is the
    batch's domain labels, since SYNTHETIC is 1.
    """
    total = softmax_cross_entropy(id_logits, batch.id_labels)
    row = {"id_loss": total.item(), "domain_loss": 0.0}

    if domain_head is not None:
        l_dom = domain_loss(embeddings, batch.domain_labels,
                            weights.grl_lambda, domain_head)
        row["domain_loss"] = l_dom.item()
        total = total + l_dom

    l_tri = triplet_batch_hard(embeddings, batch.id_labels,
                               weights.triplet_margin)
    row["triplet_loss"] = l_tri.item()
    total = total + l_tri

    labels = {"color": batch.color_labels, "type": batch.type_labels,
              "orientation": batch.orientation_labels}
    for name in DISJOINT_NAMES:
        row[f"{name}_loss"] = 0.0
        if name in disjoint_logits:
            l = softmax_cross_entropy(disjoint_logits[name], labels[name],
                                      mask=batch.domain_labels)
            row[f"{name}_loss"] = l.item()
            total = total + weights.disjoint_weight * l

    row["total"] = total.item()
    return row, total
