import json
import tracemalloc

import numpy as np
import pytest

from dareid import network
from dareid.autodiff import (GraphError, NonFiniteError, Tensor,
                             softmax_cross_entropy)
from dareid.network import (HEAD_NAMES, CheckpointFormatError, ModelConfig,
                            checkpoint_dict, embed, head_logits, init_params,
                            load_checkpoint, params_from_checkpoint,
                            save_checkpoint)

HEADS = {"id": 6, "domain": 2, "color": 3, "type": 4, "orientation": 6}


def small_config(**kw):
    base = dict(input_dim=5, hidden_dims=[7], embed_dim=4,
                head_class_counts=dict(HEADS))
    base.update(kw)
    return ModelConfig(**base)


def test_init_is_deterministic():
    a = init_params(small_config(), seed=11)
    b = init_params(small_config(), seed=11)
    for (_, pa), (_, pb) in zip(a.named(), b.named()):
        assert np.array_equal(pa.data, pb.data)


def test_biases_are_zero():
    params = init_params(small_config(), seed=0)
    for name, p in params.named():
        if name.endswith(".b"):
            assert np.array_equal(p.data, np.zeros_like(p.data))


def test_weight_sample_mean_is_near_zero():
    cfg = small_config(input_dim=100, hidden_dims=[100], embed_dim=4)
    params = init_params(cfg, seed=7)
    w = params.embed_layers[0][0].data  # 10k uniform(-bound, bound) entries
    bound = 1.0 / np.sqrt(100)
    sigma = 2 * bound / np.sqrt(12)
    assert abs(w.mean()) < 3 * sigma / np.sqrt(w.size)


def test_domain_head_must_have_two_classes():
    heads = dict(HEADS, domain=3)
    with pytest.raises(ValueError):
        small_config(head_class_counts=heads)


@pytest.mark.parametrize("head", ["id", "orientation"])
def test_head_class_count_below_one_rejected(head):
    with pytest.raises(ValueError, match=head):
        small_config(head_class_counts=dict(HEADS, **{head: 0}))


def test_embed_empty_batch():
    params = init_params(small_config(), seed=0)
    out = embed(params, np.zeros((0, 5)))
    assert out.shape == (0, 4)


def test_identity_single_layer_embed():
    cfg = small_config(input_dim=4, hidden_dims=[], embed_dim=4)
    params = init_params(cfg, seed=0)
    params.embed_layers[0][0].data = np.eye(4)
    x = np.array([[1.0, -2.0, 3.0, 0.5]])
    assert np.array_equal(embed(params, x).data, x)


def test_embed_matches_hand_computed_affine_relu():
    cfg = small_config(input_dim=3, hidden_dims=[2], embed_dim=2)
    params = init_params(cfg, seed=0)
    w1 = np.array([[1.0, -1.0], [2.0, 0.5], [0.0, 1.0]])
    params.embed_layers[0][0].data = w1
    params.embed_layers[0][1].data = np.array([[0.5, -3.0]])
    params.embed_layers[1][0].data = np.eye(2)
    params.embed_layers[1][1].data = np.zeros((1, 2))
    x = np.array([[1.0, 2.0, -1.0]])
    expected = np.maximum(x @ w1 + [0.5, -3.0], 0.0)
    assert np.allclose(embed(params, x).data, expected, atol=1e-15)


def test_embed_rejects_wrong_width():
    params = init_params(small_config(), seed=0)
    with pytest.raises(GraphError):
        embed(params, np.zeros((2, 6)))


def test_head_logits_zero_weights():
    params = init_params(small_config(), seed=0)
    params.heads["color"][0].data[:] = 0.0
    emb = Tensor(np.ones((2, 4)))
    assert np.array_equal(head_logits(params, emb, "color").data,
                          np.zeros((2, 3)))


def test_domain_head_has_two_columns():
    params = init_params(small_config(), seed=0)
    emb = Tensor(np.ones((3, 4)))
    assert head_logits(params, emb, "domain").shape == (3, 2)


def test_head_logits_hand_computed():
    params = init_params(small_config(), seed=0)
    w = np.arange(8.0).reshape(4, 2)
    params.heads["domain"][0].data = w
    params.heads["domain"][1].data = np.array([[1.0, -1.0]])
    emb = np.array([[1.0, 0.0, 2.0, -1.0]])
    assert np.allclose(head_logits(params, Tensor(emb), "domain").data,
                       emb @ w + [1.0, -1.0], atol=1e-15)


def per_node_embed(params, features):
    """The embedder as per-layer matmul, add and relu nodes."""
    x = features
    for i, (w, b) in enumerate(params.embed_layers):
        x = x @ w + b
        if i < len(params.embed_layers) - 1:
            x = x.relu()
    return x


class TestEmbedNode:
    """The one-node embedder against per_node_embed, compared as bytes, so a
    zero's sign counts."""

    @staticmethod
    def model_and_inputs(hidden, rows, seed):
        rng = np.random.default_rng(seed)
        params = init_params(small_config(hidden_dims=hidden), seed=seed)
        for w, b in params.embed_layers:
            # zero biases of both signs; a zero input row then makes each
            # first-layer pre-activation its bias, exact zeros among them
            b.data = rng.choice([0.0, -0.0, 0.5, -0.5], size=b.shape)
        x = rng.normal(size=(rows, 5))
        x[0] = -0.0
        x[rows // 2, ::2] = 0.0
        weights = rng.normal(size=(rows, 4))
        weights[:, 1] = -0.0
        return params, x, weights

    @staticmethod
    def twin(params):
        return params_from_checkpoint(checkpoint_dict(params))

    @pytest.mark.parametrize("hidden", [[], [7], [5, 6]])
    @pytest.mark.parametrize("rows", [1, 6])
    @pytest.mark.parametrize("tensor_input", [False, True])
    @pytest.mark.parametrize("start", ["unset", "minus-zero"])
    def test_value_and_gradients_equal_the_per_node_graph(
            self, hidden, rows, tensor_input, start):
        params, x, weights = self.model_and_inputs(hidden, rows,
                                                   len(hidden) + rows)
        results = []
        for fn, p in ((embed, params), (per_node_embed, self.twin(params))):
            xt = Tensor(x) if tensor_input else x
            if start == "minus-zero":     # gradients already held
                for _, t in p.named():
                    t.grad = np.full_like(t.data, -0.0)
            values = []
            for _ in range(2):          # a second pass without zero_grad
                out = fn(p, xt)
                (out * Tensor(weights)).sum().backward()
                values.append(out.data.tobytes())
            grads = [t.grad.tobytes() for _, t in p.named()]
            if tensor_input:
                grads.append(xt.grad.tobytes())
            results.append((values, grads))
        assert results[0] == results[1]

    def test_embed_is_one_node(self):
        params, x, _ = self.model_and_inputs([5, 6], 4, 0)
        out = embed(params, Tensor(x))
        assert out._op == "embed"
        assert all(p._parents == () for p in out._parents)

    def test_overflow_to_minus_inf_in_a_hidden_layer_is_rejected(self):
        # relu would map the second layer's -inf to 0 and a finite output
        params = init_params(small_config(hidden_dims=[4, 4]), seed=0)
        (_, b0), (w1, _), _ = params.embed_layers
        b0.data = np.ones_like(b0.data)       # first relu outputs >= 1
        w1.data = np.full_like(w1.data, -1e308)
        with pytest.raises(NonFiniteError, match="layer 1"):
            embed(params, np.zeros((2, 5)))


def test_unknown_head_rejected():
    params = init_params(small_config(), seed=0)
    with pytest.raises(GraphError):
        head_logits(params, Tensor(np.ones((1, 4))), "pose")


def test_row_permutation_equivariance():
    params = init_params(small_config(), seed=5)
    rng = np.random.default_rng(0)
    x = rng.normal(size=(6, 5))
    perm = rng.permutation(6)
    emb = embed(params, x).data
    emb_p = embed(params, x[perm]).data
    assert np.allclose(emb_p, emb[perm], atol=1e-15)
    logits = head_logits(params, Tensor(emb), "id").data
    logits_p = head_logits(params, Tensor(emb[perm]), "id").data
    assert np.allclose(logits_p, logits[perm], atol=1e-15)


def test_softmax_rows_sum_to_one():
    params = init_params(small_config(), seed=3)
    x = np.random.default_rng(1).normal(size=(4, 5))
    logits = head_logits(params, embed(params, x), "id").data
    probs = np.exp(logits - logits.max(axis=1, keepdims=True))
    probs /= probs.sum(axis=1, keepdims=True)
    assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-12)


def test_parameter_gradients_match_finite_differences():
    # perturb each parameter tensor of a 4-sample run through embed + ID head
    params = init_params(small_config(), seed=9)
    rng = np.random.default_rng(2)
    x = rng.normal(size=(4, 5))
    labels = rng.integers(6, size=4)

    def loss_value():
        return softmax_cross_entropy(
            head_logits(params, embed(params, x), "id"), labels).item()

    params.zero_grad()
    loss = softmax_cross_entropy(head_logits(params, embed(params, x), "id"),
                                 labels)
    loss.backward()
    eps = 1e-5
    for name, p in params.named():
        if "head." in name and "head.id" not in name:
            continue
        numeric = np.zeros_like(p.data)
        for idx in np.ndindex(p.data.shape):
            orig = p.data[idx]
            p.data[idx] = orig + eps
            hi = loss_value()
            p.data[idx] = orig - eps
            lo = loss_value()
            p.data[idx] = orig
            numeric[idx] = (hi - lo) / (2 * eps)
        rel = np.abs(p.grad - numeric) / np.maximum(1.0, np.abs(p.grad))
        assert rel.max() < 1e-4, name


def test_checkpoint_round_trip_is_exact(tmp_path):
    params = init_params(small_config(), seed=13)
    optim = {"t": 3, "note": [1.0, 2.0]}
    path = tmp_path / "ckpt.json"
    save_checkpoint(path, params, epoch=4, seed=13, optim_state=optim)
    loaded, ckpt = load_checkpoint(path)
    assert ckpt["epoch"] == 4 and ckpt["seed"] == 13 and ckpt["optim"] == optim
    for (na, pa), (nb, pb) in zip(params.named(), loaded.named()):
        assert na == nb
        assert np.array_equal(pa.data, pb.data)


def test_checkpoint_version_check():
    params = init_params(small_config(), seed=0)
    ckpt = checkpoint_dict(params)
    ckpt["version"] = 99
    with pytest.raises(ValueError):
        params_from_checkpoint(ckpt)


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_checkpoint_parameter_not_finite_names_file_and_parameter(
        tmp_path, value):
    # json writes NaN and Infinity and reads them back
    params = init_params(small_config(), seed=0)
    params.heads["color"][1].data[0, 2] = value
    path = tmp_path / "ckpt.json"
    save_checkpoint(path, params)
    with pytest.raises(CheckpointFormatError,
                       match=f"{path}: .*parameter head.color.b is not "
                             "finite"):
        load_checkpoint(path)
    with pytest.raises(ValueError, match="head.color.b"):
        params_from_checkpoint(checkpoint_dict(params))


def test_layout_orders_names_and_shapes():
    params = init_params(small_config(), seed=0)
    names = [f"embed.{i}" for i in range(2)] + [f"head.{h}" for h in HEAD_NAMES]
    assert [n for n, _ in params.named()] == [
        f"{n}.{k}" for n in names for k in "Wb"]
    shapes = [p.shape for _, p in params.named()]
    assert shapes[:4] == [(5, 7), (1, 7), (7, 4), (1, 4)]
    assert shapes[4::2] == [(4, HEADS[h]) for h in HEAD_NAMES]
    assert params.named() is params.named()     # built once, not per call


def test_checkpoint_loads_without_drawing_a_model(tmp_path, monkeypatch):
    params = init_params(small_config(), seed=3)
    path = tmp_path / "ckpt.json"
    save_checkpoint(path, params)

    def no_draw(*args, **kwargs):
        raise AssertionError("loading drew a model")
    monkeypatch.setattr(network, "init_params", no_draw)
    monkeypatch.setattr(np.random, "default_rng", no_draw)
    loaded, _ = load_checkpoint(path)
    for (na, pa), (nb, pb) in zip(params.named(), loaded.named()):
        assert na == nb and np.array_equal(pa.data, pb.data)
    assert loaded.embed_layers[1][0] is loaded.named()[2][1]
    assert loaded.heads["type"][1] is loaded.named()[11][1]


def test_wide_config_fails_before_allocating_its_layers(tmp_path):
    # the stored arrays are small; a config that names two 2000-wide
    # hidden layers disagrees with the first and allocates none of its own
    stored = checkpoint_dict(init_params(small_config(), seed=0))
    stored["config"]["hidden_dims"] = [2000, 2000]
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(stored))
    tracemalloc.start()
    try:
        with pytest.raises(CheckpointFormatError,
                           match="shape mismatch for embed.0.W"):
            load_checkpoint(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20     # a 2000 x 2000 layer alone is 32 MB


@pytest.mark.parametrize("field,value", [
    ("input_dim", float("nan")), ("input_dim", float("inf")),
    ("input_dim", 5.0), ("embed_dim", True), ("hidden_dims", [7.0]),
    ("head_class_counts", dict(HEADS, domain=2.0))])
def test_size_that_is_not_an_integer_names_the_field(field, value):
    with pytest.raises(ValueError, match=f"{field}.* must be an integer"):
        small_config(**{field: value})


def test_numpy_integer_sizes_pass():
    cfg = small_config(input_dim=np.int64(5), hidden_dims=[np.int32(7)])
    assert cfg.layer_dims() == [5, 7, 4]


def test_numpy_integer_sizes_save_a_whole_checkpoint(tmp_path):
    # the sizes are kept as plain ints, so the checkpoint is the one the
    # same int sizes give, byte for byte
    cfg = small_config(
        input_dim=np.int64(5), hidden_dims=[np.int64(7)],
        embed_dim=np.int32(4),
        head_class_counts={h: np.int64(c) for h, c in HEADS.items()})
    paths = tmp_path / "numpy.ckpt", tmp_path / "int.ckpt"
    for path, config in zip(paths, (cfg, small_config())):
        save_checkpoint(path, init_params(config, seed=3))
    assert paths[0].read_bytes() == paths[1].read_bytes()
    assert load_checkpoint(paths[0])[0].config == small_config()


def test_checkpoint_that_does_not_serialise_leaves_no_file(tmp_path):
    path = tmp_path / "ckpt.json"
    with pytest.raises(TypeError, match="not JSON serializable"):
        save_checkpoint(path, init_params(small_config(), seed=0),
                        optim_state={"t": object()})
    assert not path.exists()


def test_parameter_beyond_float_range_names_it():
    stored = checkpoint_dict(init_params(small_config(), seed=0))
    stored["params"]["head.id.b"] = [[10**400] * HEADS["id"]]
    with pytest.raises(ValueError, match="head.id.b is beyond float range"):
        params_from_checkpoint(stored)
