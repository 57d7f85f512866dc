import numpy as np
import pytest

from oracles import triplet_brute_force

from dareid.autodiff import GraphError, Tensor, softmax_cross_entropy
from dareid.losses import (DISJOINT_NAMES, LossWeights, domain_loss,
                           total_loss, triplet_batch_hard)
from dareid.network import (checkpoint_dict, embed, head_logits, init_params,
                            params_from_checkpoint)
from dareid.sampling import Batch

from test_network import small_config


class TestCrossEntropy:
    def test_uniform_logits_give_log_c(self):
        logits = Tensor(np.zeros((3, 4)))
        assert softmax_cross_entropy(logits, [0, 2, 3]).item() == \
            pytest.approx(np.log(4), abs=1e-12)

    def test_peaked_logits_hand_value(self):
        # -log softmax([10,0,0])[0] = log(1 + 2e^-10)
        logits = Tensor([[10.0, 0.0, 0.0]])
        expected = np.log(1.0 + 2.0 * np.exp(-10.0))
        assert softmax_cross_entropy(logits, [0]).item() == pytest.approx(
            expected, rel=1e-12)
        assert expected == pytest.approx(9.08e-5, rel=1e-2)

    def test_batch_is_mean_of_singles(self):
        rng = np.random.default_rng(0)
        z = rng.normal(size=(2, 5))
        both = softmax_cross_entropy(Tensor(z), [1, 3]).item()
        singles = [
            softmax_cross_entropy(Tensor(z[i:i + 1]), [[1, 3][i]]).item()
            for i in range(2)]
        assert both == pytest.approx(np.mean(singles), abs=1e-12)

    def test_empty_batch_rejected(self):
        with pytest.raises(GraphError):
            softmax_cross_entropy(Tensor(np.zeros((0, 3))), [])

    def test_label_out_of_range_rejected(self):
        with pytest.raises(GraphError):
            softmax_cross_entropy(Tensor(np.zeros((1, 3))), [3])

    def test_nonnegative_and_log_c_for_any_c(self):
        rng = np.random.default_rng(1)
        for c in (2, 5, 17):
            z = rng.normal(size=(4, c))
            assert softmax_cross_entropy(
                Tensor(z), rng.integers(c, size=4)).item() >= 0
            assert softmax_cross_entropy(Tensor(np.zeros((2, c))),
                                         [0, c - 1]).item() == pytest.approx(
                np.log(c), abs=1e-12)


class TestDomainLoss:
    def head(self, d, seed=0):
        rng = np.random.default_rng(seed)
        return (Tensor(rng.normal(size=(d, 2))),
                Tensor(np.zeros((1, 2))))

    def test_maximal_uncertainty_gives_log2(self):
        # zero head weights -> probability 0.5 everywhere
        w = Tensor(np.zeros((3, 2)))
        b = Tensor(np.zeros((1, 2)))
        emb = Tensor(np.random.default_rng(0).normal(size=(4, 3)))
        loss = domain_loss(emb, [0, 1, 0, 1], 1.0, (w, b))
        assert loss.item() == pytest.approx(np.log(2), abs=1e-12)

    def test_lambda_zero_detaches_encoder(self):
        emb = Tensor(np.random.default_rng(1).normal(size=(4, 3)))
        domain_loss(emb, [0, 1, 0, 1], 0.0, self.head(3)).backward()
        assert np.array_equal(emb.grad, np.zeros((4, 3)))

    def test_encoder_grad_is_minus_lambda_times_unreversed(self):
        rng = np.random.default_rng(2)
        point = rng.normal(size=(4, 3))
        labels = [0, 0, 1, 1]
        for lam in (0.0, 0.5, 1.0, 2.0):
            head = self.head(3, seed=5)
            x1 = Tensor(point)
            domain_loss(x1, labels, lam, head).backward()
            x2 = Tensor(point)
            softmax_cross_entropy(x2 @ head[0] + head[1], labels).backward()
            assert np.allclose(x1.grad, -lam * x2.grad, atol=1e-12)

    def test_bad_labels_rejected(self):
        with pytest.raises(GraphError):
            domain_loss(Tensor(np.ones((1, 3))), [2], 1.0, self.head(3))

    def test_shuffled_labels_stay_near_log2_on_average(self):
        rng = np.random.default_rng(3)
        head = self.head(4, seed=7)
        emb = Tensor(rng.normal(size=(8, 4)))
        vals = [domain_loss(emb, rng.integers(2, size=8), 1.0, head).item()
                for _ in range(1000)]
        assert np.mean(vals) >= np.log(2) - 0.05


class TestTripletBatchHard:
    def test_all_identical_embeddings(self):
        loss = triplet_batch_hard(Tensor(np.zeros((4, 3))), [0, 0, 1, 1], 0.3)
        assert loss.item() == pytest.approx(1.2, abs=1e-12)

    def test_separated_clusters_clip_to_zero(self):
        x = np.array([[0.0], [0.0], [10.0], [10.0]])
        loss = triplet_batch_hard(Tensor(x), [0, 0, 1, 1], 0.3)
        assert loss.item() == 0.0

    def test_one_dimensional_example_matches_enumeration(self):
        x = np.array([[0.0], [1.0], [5.0], [7.0]])
        ids = [0, 0, 1, 1]
        loss = triplet_batch_hard(Tensor(x), ids, 1.0)
        assert loss.item() == pytest.approx(
            triplet_brute_force(x, ids, 1.0), abs=1e-12)

    def test_random_batches_match_brute_force(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            p = rng.integers(2, 5)
            q = rng.integers(2, 5)
            d = rng.integers(1, 9)
            ids = np.repeat(np.arange(p), q)
            x = rng.normal(size=(p * q, d))
            got = triplet_batch_hard(Tensor(x), ids, 0.4).item()
            assert got == pytest.approx(
                triplet_brute_force(x, ids, 0.4), abs=1e-9)

    def test_translation_invariance(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(8, 4))
        ids = [0, 0, 1, 1, 2, 2, 3, 3]
        a = triplet_batch_hard(Tensor(x), ids, 0.3).item()
        b = triplet_batch_hard(Tensor(x + 5.0), ids, 0.3).item()
        assert a == pytest.approx(b, abs=1e-9)

    def test_zero_margin_loss_scales_linearly(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(6, 3)) * 0.1  # small spread keeps hinges active
        ids = [0, 0, 0, 1, 1, 1]
        base = triplet_batch_hard(Tensor(x), ids, 0.0).item()
        scaled = triplet_batch_hard(Tensor(3.0 * x), ids, 0.0).item()
        assert scaled == pytest.approx(3.0 * base, rel=1e-9)

    @pytest.mark.parametrize("margin", [-0.1, np.nan, np.inf])
    def test_negative_or_non_finite_margin_rejected(self, margin):
        x = Tensor(np.random.default_rng(9).normal(size=(4, 2)))
        with pytest.raises(GraphError, match="margin"):
            triplet_batch_hard(x, [0, 0, 1, 1], margin)
        with pytest.raises(ValueError, match="triplet_margin"):
            LossWeights(triplet_margin=margin)

    def test_degenerate_batches_rejected(self):
        with pytest.raises(GraphError):
            triplet_batch_hard(Tensor(np.ones((3, 2))), [0, 0, 0], 0.3)
        with pytest.raises(GraphError):
            triplet_batch_hard(Tensor(np.ones((3, 2))), [0, 0, 1], 0.3)

    def test_gradient_matches_finite_differences_away_from_ties(self):
        from dareid.autodiff import finite_difference_check
        rng = np.random.default_rng(8)
        ids = [0, 0, 1, 1, 2, 2]
        worst = 0.0
        for _ in range(20):
            x = rng.normal(size=(6, 3))
            worst = max(worst, finite_difference_check(
                lambda t: triplet_batch_hard(t, ids, 0.25), x))
        assert worst < 1e-4


def per_anchor_triplet(x, ids, margin):
    """Value and gradient of the batch-hard triplet loss, from the broadcast
    N x N x D distances and one gradient update per active anchor."""
    dist = np.sqrt(((x[:, None, :] - x[None, :, :]) ** 2).sum(axis=2))
    same = ids[:, None] == ids[None, :]
    pos = same.copy()
    np.fill_diagonal(pos, False)
    hard_pos = np.where(pos, dist, -np.inf).argmax(axis=1)
    hard_neg = np.where(~same, dist, np.inf).argmin(axis=1)
    anchors = np.arange(len(x))
    terms = margin + dist[anchors, hard_pos] - dist[anchors, hard_neg]
    active = terms > 0.0
    value = float(np.where(active, terms, 0.0).sum())
    grad = np.zeros_like(x)
    for a in anchors[active]:
        p, nn = hard_pos[a], hard_neg[a]
        dp = (x[a] - x[p]) / dist[a, p] if dist[a, p] > 0 else 0.0
        dn = (x[a] - x[nn]) / dist[a, nn] if dist[a, nn] > 0 else 0.0
        grad[a] += dp - dn
        grad[p] -= dp
        grad[nn] += dn
    return value, 1.0 * grad + 0.0


class TestTripletAgainstPerAnchorLoop:
    # grouped ids are the order the P x K sampler emits; shuffled ones move
    # which of several tied rows is the hardest positive or negative
    @pytest.mark.parametrize("d", [1, 3, 8, 16, 32, 33])
    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("layout", ["shuffled", "grouped"])
    def test_value_and_gradient_bitwise_equal(self, d, seed, layout):
        rng = np.random.default_rng([d, seed])
        for trial in range(17):
            p, q = rng.integers(2, 6), rng.integers(2, 5)
            ids = np.repeat(np.arange(p), q)
            if layout == "shuffled":
                ids = rng.permutation(ids)
            if trial % 3 == 1:       # integer-valued rows tie often
                x = rng.integers(-2, 3, size=(p * q, d)).astype(np.float64)
            else:
                x = rng.normal(size=(p * q, d))
            if trial % 3 == 2:       # duplicate rows: zero distances
                x[rng.integers(p * q, size=3)] = x[0]
            margin = float(rng.uniform(0.0, 1.5))
            t = Tensor(x)
            loss = triplet_batch_hard(t, ids, margin)
            loss.backward()
            value, grad = per_anchor_triplet(x, ids, margin)
            assert loss.item() == value
            assert np.array_equal(t.grad, grad)


class TestMaskedCrossEntropy:
    def test_fully_masked_is_zero_with_zero_grads(self):
        logits = Tensor(np.random.default_rng(0).normal(size=(3, 4)))
        loss = softmax_cross_entropy(logits, [0, 1, 2], [0, 0, 0])
        assert loss.item() == 0.0
        loss.backward()
        assert np.array_equal(logits.grad, np.zeros((3, 4)))

    def test_unmasked_equals_cross_entropy(self):
        rng = np.random.default_rng(1)
        z = rng.normal(size=(4, 3))
        labels = [0, 2, 1, 1]
        masked = softmax_cross_entropy(Tensor(z), labels, [1, 1, 1, 1])
        assert masked.item() == pytest.approx(
            softmax_cross_entropy(Tensor(z), labels).item(), abs=1e-15)

    def test_partial_mask_hand_value(self):
        # two unmasked uniform rows over 3 classes, batch of 4
        loss = softmax_cross_entropy(Tensor(np.zeros((4, 3))),
                                     [0, 1, 0, 2], [1, 1, 0, 0])
        assert loss.item() == pytest.approx(2 * np.log(3) / 4, abs=1e-12)

    def test_masked_rows_get_exactly_zero_gradient(self):
        rng = np.random.default_rng(2)
        logits = Tensor(rng.normal(size=(5, 3)))
        mask = np.array([1, 0, 1, 0, 0])
        softmax_cross_entropy(logits, [0, 1, 2, 0, 1], mask).backward()
        assert np.all(logits.grad[mask == 0] == 0.0)
        assert np.any(logits.grad[mask == 1] != 0.0)

    def test_labels_ignored_where_masked(self):
        # out-of-range labels under a zero mask must not raise
        loss = softmax_cross_entropy(Tensor(np.zeros((2, 3))), [0, 99],
                                     [1, 0])
        assert loss.item() == pytest.approx(np.log(3) / 2, abs=1e-12)


def make_batch(rng, n_per_domain=4, dim=6, all_real=False):
    rows = 2 * n_per_domain
    ids = np.array([0, 0, 1, 1, 2, 2, 3, 3])
    domains = np.zeros(rows, dtype=np.int64)
    if not all_real:
        domains[n_per_domain:] = 1
    return Batch(
        features=rng.normal(size=(rows, dim)),
        id_labels=ids,
        domain_labels=domains,
        color_labels=rng.integers(3, size=rows),
        type_labels=rng.integers(4, size=rows),
        orientation_labels=rng.integers(6, size=rows),
    )


class TestTotalLoss:
    def setup_method(self):
        self.rng = np.random.default_rng(9)
        self.params = init_params(small_config(input_dim=6), seed=1)

    def parts(self, batch):
        emb = embed(self.params, Tensor(batch.features))
        return emb, dict(self.params.heads)

    def test_zero_disjoint_weight(self):
        batch = make_batch(self.rng)
        emb, heads = self.parts(batch)
        bd, _ = total_loss(emb, heads, batch,
                           LossWeights(disjoint_weight=0.0))
        assert bd["total"] == pytest.approx(
            bd["id_loss"] + bd["domain_loss"] + bd["triplet_loss"],
            abs=1e-12)

    def test_all_real_batch_zeroes_disjoint_terms(self):
        batch = make_batch(self.rng, all_real=True)
        emb, heads = self.parts(batch)
        bd, _ = total_loss(emb, heads, batch,
                           LossWeights(disjoint_weight=2.5))
        assert (bd["color_loss"] == bd["type_loss"]
                == bd["orientation_loss"] == 0.0)

    def test_total_is_weighted_sum_of_components(self):
        batch = make_batch(self.rng)
        emb, heads = self.parts(batch)
        w = 0.7
        bd, node = total_loss(emb, heads, batch,
                              LossWeights(disjoint_weight=w))
        expected = (bd["id_loss"] + bd["domain_loss"] + bd["triplet_loss"]
                    + w * (bd["color_loss"] + bd["type_loss"]
                           + bd["orientation_loss"]))
        assert bd["total"] == pytest.approx(expected, abs=1e-12)
        assert node.item() == bd["total"]

    def test_missing_disjoint_logits_contribute_zero(self):
        batch = make_batch(self.rng)
        emb, heads = self.parts(batch)
        full, _ = total_loss(emb, heads, batch, LossWeights())
        del heads["color"], heads["orientation"]
        bd, _ = total_loss(emb, heads, batch, LossWeights())
        assert bd["color_loss"] == bd["orientation_loss"] == 0.0
        assert bd["type_loss"] == full["type_loss"]
        assert bd["total"] == pytest.approx(
            bd["id_loss"] + bd["domain_loss"] + bd["triplet_loss"]
            + bd["type_loss"], abs=1e-12)

    def test_disabled_domain_contributes_zero(self):
        batch = make_batch(self.rng)
        emb, heads = self.parts(batch)
        del heads["domain"]
        bd, _ = total_loss(emb, heads, batch, LossWeights())
        assert bd["domain_loss"] == 0.0


def per_node_total_loss(params, embeddings, enabled, batch, weights):
    """The training loss as the per-node graph: head_logits nodes, the loss
    nodes, and the add and scale nodes of the weighted sum."""
    disjoint = {name: head_logits(params, embeddings, name)
                for name in enabled if name != "domain"}
    total = softmax_cross_entropy(head_logits(params, embeddings, "id"),
                                  batch.id_labels)
    row = {"id_loss": total.item(), "domain_loss": 0.0}
    if "domain" in enabled:
        l_dom = domain_loss(embeddings, batch.domain_labels,
                            weights.grl_lambda, params.heads["domain"])
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
        if name in disjoint:
            l = softmax_cross_entropy(disjoint[name], labels[name],
                                      mask=batch.domain_labels)
            row[f"{name}_loss"] = l.item()
            total = total + weights.disjoint_weight * l
    row["total"] = total.item()
    return row, total


def node_total_loss(params, embeddings, enabled, batch, weights):
    heads = {name: params.heads[name] for name in ("id", *enabled)}
    return total_loss(embeddings, heads, batch, weights)


ALL_LOSSES = ("domain", *DISJOINT_NAMES)

# each case: enabled losses, batch domains, weights, embedding rows, and the
# scale of the loss before backward
NODE_CASES = {
    "all five losses": {},
    "no optional losses": dict(enabled=()),
    "domain only": dict(enabled=("domain",)),
    "attribute losses only": dict(enabled=("orientation", "color", "type")),
    "one-domain batch": dict(domains="synthetic"),
    "all-real batch": dict(domains="real"),
    "real-only run": dict(domains="real", enabled=()),
    "zero disjoint weight": dict(weights=LossWeights(disjoint_weight=0)),
    "zero reversal strength": dict(weights=LossWeights(grl_lambda=0)),
    "duplicate rows": dict(rows="duplicate"),
    "integer rows": dict(rows="integer"),
    "embed node": dict(rows="embed"),
    "scaled loss": dict(scale=-2.5),
    "scaled loss, all-real batch": dict(scale=-2.5, domains="real"),
}


class TestTotalLossNode:
    """The one-node loss against per_node_total_loss, compared as bytes, so
    a zero's sign counts."""

    @staticmethod
    def case_inputs(case):
        kw = NODE_CASES[case]
        rng = np.random.default_rng(list(NODE_CASES).index(case))
        params = init_params(small_config(input_dim=6), seed=3)
        for name, t in params.named():
            if name.startswith("head."):    # zero biases of both signs
                t.data = (rng.choice([0.0, -0.0, 0.5, -0.5], size=t.shape)
                          if name.endswith(".b") else
                          rng.normal(size=t.shape))
        batch = make_batch(rng)
        batch.domain_labels[:] = {"real": 0, "synthetic": 1}.get(
            kw.get("domains"), batch.domain_labels)
        rows = kw.get("rows")
        if rows == "integer":      # hardest rows tie
            x = rng.integers(-1, 2, size=(8, 4)).astype(np.float64)
        else:
            x = rng.normal(size=(8, 4))
        if rows == "duplicate":    # zero triplet distances
            x[[1, 2, 5]] = x[0]
        return (params, batch, x, kw.get("enabled", ALL_LOSSES),
                kw.get("weights", LossWeights()), kw.get("scale"),
                rows == "embed")

    @staticmethod
    def row_bytes(row):
        return [(k, np.float64(v).tobytes()) for k, v in row.items()]

    @pytest.mark.parametrize("case", NODE_CASES)
    @pytest.mark.parametrize("start", ["unset", "minus-zero"])
    def test_value_row_and_gradients_equal_the_per_node_graph(self, case,
                                                              start):
        params, batch, x, enabled, weights, scale, embedded = \
            self.case_inputs(case)
        results = []
        for fn in (node_total_loss, per_node_total_loss):
            p = params_from_checkpoint(checkpoint_dict(params))
            leaf = Tensor(x)
            if start == "minus-zero":     # gradients already held
                for t in (leaf, *(t for _, t in p.named())):
                    t.grad = np.full_like(t.data, -0.0)
            passes = []
            for _ in range(2):          # a second pass without zero_grad
                emb = embed(p, batch.features) if embedded else leaf
                row, loss = fn(p, emb, enabled, batch, weights)
                (loss if scale is None else loss * scale).backward()
                passes.append((loss.data.tobytes(), self.row_bytes(row),
                               emb.grad.tobytes()))
            grads = [t.grad.tobytes() for _, t in p.named()]
            results.append((passes, grads, leaf.grad.tobytes()))
        assert results[0] == results[1]

    def test_loss_is_one_node_over_the_enabled_heads(self):
        params, batch, x, _, weights, _, _ = self.case_inputs("domain only")
        emb = Tensor(x)
        _, loss = node_total_loss(params, emb, ("domain",), batch, weights)
        assert loss._op == "total_loss"
        assert loss._parents == (emb, *params.heads["id"],
                                 *params.heads["domain"])

    @staticmethod
    def corrupt(case, params, batch, weights, x):
        if case == "id label out of range":
            batch.id_labels[0] = 6
        elif case == "color label out of range":
            batch.color_labels[-1] = 3
        elif case == "negative margin":
            weights.triplet_margin = -1.0
        elif case == "negative reversal strength":
            weights.grl_lambda = -1.0
        elif case == "head shape":
            w, _ = params.heads["type"]
            w.data = np.ones((5, 4))
        elif case.startswith("overflowing logits"):
            w, _ = params.heads["orientation"]
            w.data = np.full_like(w.data, 1e308)
            x[:, 0] = np.abs(x[:, 0]) + 2.0
        elif case.startswith("overflowing"):     # logits +-1e308, label 1
            head = case.split()[1]
            w, _ = params.heads[head]
            w.data = np.zeros_like(w.data)
            w.data[0] = [1e308, -1e308] * (w.shape[1] // 2)
            x[:, 0] = 1.0
            if head == "id":
                batch.id_labels[:] = [1, 1, 3, 3, 5, 5, 1, 1]
        # alone, or as a second fault that the per-node graph meets later
        if case.endswith("bad domain label"):
            batch.domain_labels[0] = 2
        if case.endswith("one identity"):
            batch.id_labels[:] = 0

    @pytest.mark.parametrize("case", [
        "bad domain label", "id label out of range", "color label out of range",
        "one identity", "negative margin", "negative reversal strength",
        "head shape", "overflowing logits",
        "overflowing logits, bad domain label", "overflowing id loss",
        "overflowing id loss, bad domain label",
        "overflowing domain loss, one identity"])
    def test_raises_what_the_per_node_graph_raises(self, case):
        errors = []
        for fn in (node_total_loss, per_node_total_loss):
            params, batch, x, enabled, _, _, _ = \
                self.case_inputs("all five losses")
            weights = LossWeights()
            self.corrupt(case, params, batch, weights, x)
            # as the trainer calls it: the checks report overflow
            with pytest.raises(GraphError) as err, \
                    np.errstate(over="ignore", invalid="ignore"):
                fn(params, Tensor(x), enabled, batch, weights)
            errors.append(type(err.value))
        assert errors[0] is errors[1]
