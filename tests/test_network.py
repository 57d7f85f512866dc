import numpy as np
import pytest

from dareid.autodiff import GraphError, Tensor, softmax_cross_entropy
from dareid.network import (HEAD_NAMES, ModelConfig, checkpoint_dict, embed,
                            head_logits, init_params, load_checkpoint,
                            params_from_checkpoint, save_checkpoint)

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
