import numpy as np
import pytest

from dareid.datagen import ToySpec, generate_toy_dataset
from dareid import trainer
from dareid.evaluation import EvalConfig, RerankParams, evaluate_retrieval
from dareid.losses import LossWeights
from dareid.network import ModelConfig, checkpoint_dict, init_params
from dareid.optimizer import LrSchedule, OptimState
from dareid.sampling import REAL, SYNTHETIC, BatchSpec
from dareid.trainer import (DivergenceError, TrainConfig, domain_probe_accuracy,
                            embed_samples, evaluate, id_accuracy, train)

HEADS = {"id": 8, "domain": 2, "color": 12, "type": 11, "orientation": 6}


def toy_data(seed=0, per_id=6):
    spec = ToySpec(num_ids_real=4, num_ids_synth=4, samples_per_id=per_id,
                   input_dim=6, cluster_sep=4.0, noise_sigma=0.3, seed=seed)
    samples, manifest = generate_toy_dataset(spec)
    real = [s for s in samples if s.domain == REAL]
    synth = [s for s in samples if s.domain == SYNTHETIC]
    return real, synth, manifest


def small_train_config(**kw):
    model = ModelConfig(input_dim=6, hidden_dims=[16], embed_dim=8,
                        head_class_counts=dict(HEADS))
    base = dict(model=model, batch=BatchSpec(2, 2),
                schedule=LrSchedule(base_lr=3e-3, milestones=(100, 110)),
                epochs=10, iterations_per_epoch=6, seed=0)
    base.update(kw)
    return TrainConfig(**base)


class TestTrain:
    def test_baseline_learns_identities(self):
        real, _, _ = toy_data()
        config = small_train_config(use_synthetic=False, epochs=15,
                                    iterations_per_epoch=10)
        result = train(config, real)
        assert id_accuracy(result.params, real) > 0.9

    def test_run_log_schema(self):
        real, synth, _ = toy_data()
        config = small_train_config(epochs=2)
        result = train(config, real, synth)
        assert len(result.run_log) == 2 * 6
        first = result.run_log[0]
        for key in ("iteration", "epoch", "lr", "total", "id_loss",
                    "domain_loss", "triplet_loss", "color_loss", "type_loss",
                    "orientation_loss"):
            assert key in first
        assert first["iteration"] == 1 and first["epoch"] == 0

    def test_all_losses_nonzero_at_first_iteration(self):
        real, synth, _ = toy_data()
        config = small_train_config(epochs=1)
        result = train(config, real, synth)
        first = result.run_log[0]
        for key in ("id_loss", "domain_loss", "triplet_loss", "color_loss",
                    "type_loss", "orientation_loss"):
            assert first[key] != 0.0, key

    def test_single_domain_config_disables_extra_losses(self):
        real, _, _ = toy_data()
        config = small_train_config(use_synthetic=False, epochs=1)
        assert config.disjoint == () and not config.use_domain_loss
        result = train(config, real)
        first = result.run_log[0]
        assert first["domain_loss"] == 0.0 and first["color_loss"] == 0.0

    @pytest.mark.parametrize("iterations", [0, -3])
    def test_iterations_below_one_rejected(self, iterations):
        with pytest.raises(ValueError, match="iterations"):
            small_train_config(iterations_per_epoch=iterations)

    @pytest.mark.parametrize("bins", [4, 8])
    def test_orientation_bins_follow_the_head(self, monkeypatch, bins):
        real, synth, _ = toy_data()
        sample_batch, seen = trainer.sample_batch, []

        def recording(dataset, index, spec, rng, num_bins, use_synthetic,
                      ids):
            seen.append(num_bins)
            return sample_batch(dataset, index, spec, rng, num_bins,
                                use_synthetic, ids)
        monkeypatch.setattr(trainer, "sample_batch", recording)
        model = ModelConfig(input_dim=6, hidden_dims=[16], embed_dim=8,
                            head_class_counts={**HEADS, "orientation": bins})
        result = train(small_train_config(model=model, epochs=1), real, synth)
        assert len(result.run_log) == 6
        assert seen == [bins] * 6

    @pytest.mark.parametrize("disjoint", [("color",), ()])
    def test_disabled_heads_are_not_computed(self, monkeypatch, disjoint):
        real, synth, _ = toy_data()
        head_logits, heads = trainer.head_logits, []

        def counting(params, embeddings, head):
            heads.append(head)
            return head_logits(params, embeddings, head)
        monkeypatch.setattr(trainer, "head_logits", counting)
        train(small_train_config(epochs=1, disjoint=disjoint), real, synth)
        assert heads == ["id", *disjoint] * 6

    def test_repeat_run_is_bitwise_identical(self):
        real, synth, _ = toy_data()
        config = small_train_config(epochs=3)
        a = train(config, real, synth)
        b = train(small_train_config(epochs=3), real, synth)
        assert a.run_log == b.run_log
        for (na, pa), (nb, pb) in zip(a.params.named(), b.params.named()):
            assert na == nb and np.array_equal(pa.data, pb.data)

    def test_resume_matches_uninterrupted_run(self):
        real, synth, _ = toy_data()
        full = train(small_train_config(epochs=4), real, synth)

        half = train(small_train_config(epochs=2), real, synth)
        ckpt = checkpoint_dict(half.params, epoch=2, seed=0,
                               optim_state=half.optim.to_dict())
        resumed = train(small_train_config(epochs=4), real, synth,
                        resume_from=ckpt)
        for (_, pa), (_, pb) in zip(full.params.named(),
                                    resumed.params.named()):
            assert np.array_equal(pa.data, pb.data)
        assert resumed.run_log == full.run_log[2 * 6:]

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_divergence_guard_reports_iteration(self):
        real, synth, _ = toy_data()
        # AMSGrad bounds each step by roughly lr, so an absurd rate inflates
        # the weights until the two-layer forward product overflows to inf
        config = small_train_config(
            epochs=5, schedule=LrSchedule(base_lr=1e200,
                                          milestones=(100, 110)))
        with pytest.raises(DivergenceError) as err:
            train(config, real, synth)
        assert err.value.iteration >= 1
        assert isinstance(err.value.run_log, list)

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_overflow_hidden_by_relu_stops_training(self):
        # the second hidden layer's pre-activation overflows to -inf, which
        # its relu would turn into a finite 0 and a finite loss
        real, synth, _ = toy_data()
        model = ModelConfig(input_dim=6, hidden_dims=[16, 16], embed_dim=8,
                            head_class_counts=dict(HEADS))
        config = small_train_config(model=model, epochs=1)
        params = init_params(model, seed=0)
        (_, b0), (w1, _), _ = params.embed_layers
        b0.data = np.ones_like(b0.data)       # first relu outputs >= 1
        w1.data = np.full_like(w1.data, -1e308)
        ckpt = checkpoint_dict(params, optim_state=OptimState().to_dict())
        with pytest.raises(DivergenceError) as err:
            train(config, real, synth, resume_from=ckpt)
        assert err.value.iteration == 1 and err.value.run_log == []

    def test_lr_follows_schedule_in_log(self):
        real, synth, _ = toy_data()
        sched = LrSchedule(base_lr=1e-3, milestones=(1, 2))
        result = train(small_train_config(epochs=3, schedule=sched),
                       real, synth)
        by_epoch = {}
        for row in result.run_log:
            by_epoch.setdefault(row["epoch"], row["lr"])
        assert by_epoch[0] == pytest.approx(1e-3)
        assert by_epoch[1] == pytest.approx(1e-4)
        assert by_epoch[2] == pytest.approx(1e-5)


class TestEvaluateHelpers:
    def test_embed_samples_shape(self):
        real, _, _ = toy_data()
        result = train(small_train_config(use_synthetic=False, epochs=1), real)
        emb = embed_samples(result.params, real)
        assert emb.shape == (len(real), 8)

    def test_evaluate_deterministic(self):
        real, _, _ = toy_data()
        result = train(small_train_config(use_synthetic=False, epochs=3), real)
        a = evaluate(result.params, real, real, exclude_self=True)
        b = evaluate(result.params, real, real, exclude_self=True)
        assert a.map_at_k == b.map_at_k and a.per_query_ap == b.per_query_ap

    def test_query_set_as_gallery_is_embedded_once(self, monkeypatch):
        real, _, _ = toy_data()
        result = train(small_train_config(use_synthetic=False, epochs=3), real)
        ids = np.array([s.id for s in real])
        both = evaluate_retrieval(embed_samples(result.params, real),
                                  embed_samples(result.params, real), ids, ids,
                                  EvalConfig(), np.eye(len(real), dtype=bool))
        calls = []

        def counting(params, samples):
            calls.append(len(samples))
            return embed_samples(params, samples)
        monkeypatch.setattr(trainer, "embed_samples", counting)
        report = evaluate(result.params, real, list(real), exclude_self=True)
        assert calls == [len(real)]
        assert report.per_query_ap == both.per_query_ap
        assert report.cmc == both.cmc

    def test_self_retrieval_with_exclusion_beats_chance(self):
        real, _, _ = toy_data()
        result = train(small_train_config(use_synthetic=False, epochs=8), real)
        report = evaluate(result.params, real, real, exclude_self=True)
        assert report.map_at_k > 0.5

    def test_rerank_lambda_one_keeps_map(self):
        real, _, _ = toy_data()
        result = train(small_train_config(use_synthetic=False, epochs=5), real)
        plain = evaluate(result.params, real, real,
                         EvalConfig(top_k=50), exclude_self=False)
        rr = evaluate(result.params, real, real,
                      EvalConfig(top_k=50,
                                 rerank=RerankParams(k1=4, k2=2,
                                                     lambda_orig=1.0)))
        assert rr.map_at_k == pytest.approx(plain.map_at_k, abs=1e-12)

    def test_dimension_mismatch_rejected(self):
        real, _, _ = toy_data()
        result = train(small_train_config(use_synthetic=False, epochs=1), real)
        bad = [type(s)(s.domain, s.id, np.zeros(9)) for s in real[:2]]
        with pytest.raises(ValueError):
            evaluate(result.params, bad, bad)


class TestDomainProbe:
    def test_probe_separates_separable_embeddings(self):
        rng = np.random.default_rng(0)
        a = rng.normal(loc=-2.0, size=(40, 4))
        b = rng.normal(loc=2.0, size=(40, 4))
        emb = np.vstack([a, b])
        dom = np.array([0] * 40 + [1] * 40)
        perm = rng.permutation(80)
        emb, dom = emb[perm], dom[perm]
        acc = domain_probe_accuracy(emb[:40], dom[:40], emb[40:], dom[40:])
        assert acc > 0.95

    def test_probe_near_chance_on_shared_distribution(self):
        rng = np.random.default_rng(1)
        emb = rng.normal(size=(80, 4))
        dom = rng.integers(2, size=80)
        acc = domain_probe_accuracy(emb[:40], dom[:40], emb[40:], dom[40:])
        assert 0.2 < acc < 0.8
