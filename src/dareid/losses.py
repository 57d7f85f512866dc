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

DISJOINT_NAMES = ("color", "type", "orientation")


@dataclass
class LossWeights:
    disjoint_weight: float = 1.0
    grl_lambda: float = 1.0
    triplet_margin: float = 0.3

    def __post_init__(self):
        if min(self.disjoint_weight, self.grl_lambda, self.triplet_margin) < 0:
            raise ValueError("loss weights must be non-negative")


@dataclass
class LossBreakdown:
    id_loss: float
    domain_loss: float
    triplet_loss: float
    color_loss: float
    type_loss: float
    orientation_loss: float
    total: float

    def as_dict(self):
        return dict(self.__dict__)


def cross_entropy(logits, labels):
    """Mean softmax cross-entropy over the batch."""
    return softmax_cross_entropy(logits, labels)


def masked_cross_entropy(logits, labels, mask):
    """Cross-entropy over masked rows, normalized by the full batch size."""
    return softmax_cross_entropy(logits, labels, mask=mask)


def domain_loss(embeddings, domain_labels, lam, domain_head):
    """Discriminator cross-entropy on the domain head behind gradient reversal."""
    labels = np.asarray(domain_labels, dtype=np.int64).reshape(-1)
    if np.any((labels != 0) & (labels != 1)):
        raise GraphError("domain labels must be 0 (real) or 1 (synthetic)")
    w, b = domain_head
    logits = grad_reversal(embeddings, lam) @ w + b
    return softmax_cross_entropy(logits, labels)


def _hard_indices(dist, same_id):
    """Hardest positive and negative per anchor; ties go to the first index."""
    n = dist.shape[0]
    pos_mask = same_id.copy()
    np.fill_diagonal(pos_mask, False)
    neg_mask = ~same_id
    hard_pos = np.where(pos_mask, dist, -np.inf).argmax(axis=1)
    hard_neg = np.where(neg_mask, dist, np.inf).argmin(axis=1)
    return hard_pos, hard_neg


def triplet_batch_hard(embeddings, ids, margin, squared=False, reduction="sum"):
    """Batch-hard triplet loss over Euclidean embedding distances.

    Per anchor, hinge on margin + (farthest same-id distance) - (nearest
    different-id distance). Sum reduction over anchors by default.
    """
    if margin < 0:
        raise GraphError("margin must be non-negative")
    if reduction not in ("sum", "mean"):
        raise GraphError(f"unknown reduction {reduction!r}")
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

    diff = x[:, None, :] - x[None, :, :]
    sq = (diff ** 2).sum(axis=2)
    dist = sq if squared else np.sqrt(np.maximum(sq, 0.0))
    same_id = ids[:, None] == ids[None, :]
    hard_pos, hard_neg = _hard_indices(dist, same_id)

    anchors = np.arange(n)
    terms = margin + dist[anchors, hard_pos] - dist[anchors, hard_neg]
    active = terms > 0.0
    scale = 1.0 / n if reduction == "mean" else 1.0
    value = float(np.where(active, terms, 0.0).sum() * scale)

    out = Tensor([[value]], parents=(embeddings,), op="triplet_batch_hard")

    def _bw(g):
        grad = np.zeros_like(x)
        for a in anchors[active]:
            p, nn = hard_pos[a], hard_neg[a]
            if squared:
                dp = 2.0 * (x[a] - x[p])
                dn = 2.0 * (x[a] - x[nn])
            else:
                dp = (x[a] - x[p]) / dist[a, p] if dist[a, p] > 0 else 0.0
                dn = (x[a] - x[nn]) / dist[a, nn] if dist[a, nn] > 0 else 0.0
            grad[a] += dp - dn
            grad[p] -= dp
            grad[nn] += dn
        embeddings._accumulate(g[0, 0] * scale * grad)
    out._backward_fn = _bw
    return out


def total_loss(embeddings, id_logits, disjoint_logits, domain_head, batch,
               weights):
    """Combine joint and disjoint losses into one scalar node plus a breakdown.

    disjoint_logits maps the enabled names of DISJOINT_NAMES to logit
    tensors; a missing name, like domain_head=None, contributes exactly zero.
    The disjoint mask comes from the batch (1 on synthetic rows).
    """
    l_id = cross_entropy(id_logits, batch.id_labels)
    terms = [l_id]

    l_dom_val = 0.0
    if domain_head is not None:
        l_dom = domain_loss(embeddings, batch.domain_labels,
                            weights.grl_lambda, domain_head)
        terms.append(l_dom)
        l_dom_val = l_dom.item()

    l_tri = triplet_batch_hard(embeddings, batch.id_labels,
                               weights.triplet_margin)
    terms.append(l_tri)

    labels = {"color": batch.color_labels, "type": batch.type_labels,
              "orientation": batch.orientation_labels}
    disjoint_vals = {}
    w = weights.disjoint_weight
    for name in DISJOINT_NAMES:
        if name in disjoint_logits:
            l = masked_cross_entropy(disjoint_logits[name], labels[name],
                                     batch.mask)
            disjoint_vals[name] = l.item()
            terms.append(w * l)
        else:
            disjoint_vals[name] = 0.0

    total = terms[0]
    for t in terms[1:]:
        total = total + t

    breakdown = LossBreakdown(
        id_loss=l_id.item(),
        domain_loss=l_dom_val,
        triplet_loss=l_tri.item(),
        color_loss=disjoint_vals["color"],
        type_loss=disjoint_vals["type"],
        orientation_loss=disjoint_vals["orientation"],
        total=total.item(),
    )
    return breakdown, total
