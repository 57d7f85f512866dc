"""Top-level acceptance suite.

Each test exercises one numbered acceptance criterion end to end and emits a
single pass/fail line (via the summary section in conftest.py) so the suite
doubles as a checklist when run under -v.
"""

import json
import sys
import time

import numpy as np
import pytest

from conftest import ACCEPTANCE_LINES
from oracles import ap_brute_force, rerank_reference, triplet_brute_force

from dareid.autodiff import (Tensor, finite_difference_check, grad_reversal,
                             softmax_cross_entropy)
from dareid.cli import EXIT_DIVERGED, EXIT_OK, main as cli_main
from dareid.datagen import ToySpec, generate_toy_dataset
from dareid.evaluation import (RerankParams, k_reciprocal_rerank,
                               mean_average_precision, pairwise_distances)
from dareid.losses import LossWeights, domain_loss, triplet_batch_hard
from dareid.network import ModelConfig
from dareid.optimizer import LrSchedule, OptimState, amsgrad_step, lr_at_epoch
from dareid.sampling import REAL, BatchSpec
from dareid.trainer import (TrainConfig, domain_probe_accuracy, embed_samples,
                            train)


def _report(num, ok, detail):
    line = f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'} - {detail}"
    ACCEPTANCE_LINES.append(line)
    print(line, file=sys.__stdout__, flush=True)
    assert ok, line


def _central_diff(scalar_fn, point, eps=1e-5):
    numeric = np.zeros_like(point)
    work = point.copy()
    for idx in np.ndindex(point.shape):
        orig = work[idx]
        work[idx] = orig + eps
        hi = scalar_fn(Tensor(work)).item()
        work[idx] = orig - eps
        lo = scalar_fn(Tensor(work)).item()
        work[idx] = orig
        numeric[idx] = (hi - lo) / (2.0 * eps)
    return numeric


def _random_point(rng, n, d, ids, margin):
    """Random embedding batch kept away from the triplet hinge/sqrt kinks."""
    while True:
        x = rng.normal(size=(n, d))
        diff = x[:, None, :] - x[None, :, :]
        dist = np.sqrt((diff ** 2).sum(axis=2))
        same = ids[:, None] == ids[None, :]
        np.fill_diagonal(same, False)
        hard_pos = np.where(same, dist, -np.inf).max(axis=1)
        hard_neg = np.where(ids[:, None] != ids[None, :], dist, np.inf).min(
            axis=1)
        if np.all(np.abs(margin + hard_pos - hard_neg) > 1e-2):
            return x


def test_criterion_1_gradient_correctness():
    rng = np.random.default_rng(0)
    n, d, classes, margin, lam, w_dis = 6, 4, 3, 0.3, 0.7, 0.5
    start = time.monotonic()
    worst = 0.0
    for _ in range(100):
        while True:
            ids = rng.integers(3, size=n)
            counts = np.bincount(ids)
            present = counts[counts > 0]
            if len(present) >= 2 and present.min() >= 2:
                break
        x = _random_point(rng, n, d, ids, margin)
        wi = Tensor(rng.normal(size=(d, classes)))
        bi = Tensor(rng.normal(size=(1, classes)))
        wd = Tensor(rng.normal(size=(d, 2)))
        bd = Tensor(rng.normal(size=(1, 2)))
        dom = np.array([0, 0, 0, 1, 1, 1])
        mask = dom.astype(np.float64)
        labels = rng.integers(classes, size=n)

        # the individual losses are forward/backward consistent
        worst = max(
            worst,
            finite_difference_check(
                lambda t: softmax_cross_entropy(t @ wi + bi, labels), x),
            finite_difference_check(
                lambda t: softmax_cross_entropy(t @ wi + bi, labels, mask),
                x),
            finite_difference_check(
                lambda t: triplet_batch_hard(t, ids, margin), x))

        # the composite: the reversal makes the forward value and the encoder
        # gradient disagree on purpose, so the numeric reference is the
        # non-reversed composite plus -lam times the plain discriminator term
        leaf = Tensor(x)
        full = (softmax_cross_entropy(leaf @ wi + bi, labels)
                + domain_loss(leaf, dom, lam, (wd, bd))
                + triplet_batch_hard(leaf, ids, margin)
                + softmax_cross_entropy(leaf @ wi + bi, labels, mask)
                * w_dis)
        full.backward()
        analytic = leaf.grad

        def non_domain(t):
            return (softmax_cross_entropy(t @ wi + bi, labels)
                    + triplet_batch_hard(t, ids, margin)
                    + softmax_cross_entropy(t @ wi + bi, labels, mask)
                    * w_dis)

        numeric = (_central_diff(non_domain, x)
                   - lam * _central_diff(
                       lambda t: softmax_cross_entropy(t @ wd + bd, dom), x))
        rel = np.abs(analytic - numeric) / np.maximum(1.0, np.abs(analytic))
        worst = max(worst, float(rel.max()))
    elapsed = time.monotonic() - start
    ok = worst < 1e-4 and elapsed < 30.0
    _report(1, ok, f"gradient checks: max rel err {worst:.2e} "
                   f"(< 1e-4), {elapsed:.1f}s (< 30s)")


def test_criterion_2_triplet_oracle():
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(200):
        p = int(rng.integers(2, 5))
        q = int(rng.integers(2, 5))
        d = int(rng.integers(2, 9))
        ids = np.repeat(np.arange(p), q)
        x = rng.normal(size=(p * q, d))
        margin = float(rng.uniform(0.0, 1.0))
        got = triplet_batch_hard(Tensor(x), ids, margin).item()
        want = triplet_brute_force(x, ids, margin)
        worst = max(worst, abs(got - want))
    _report(2, worst < 1e-9,
            f"triplet vs brute force over 200 batches: max diff {worst:.2e}")


def test_criterion_3_map_oracle():
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(200):
        nq = int(rng.integers(1, 11))
        ng = int(rng.integers(4, 21))
        k = int(rng.integers(1, 21))
        gids = np.concatenate([np.arange(3), rng.integers(3, size=ng - 3)])
        qids = rng.integers(3, size=nq)
        dist = rng.uniform(size=(nq, ng))
        _, aps = mean_average_precision(dist, qids, gids, k)
        want = [ap_brute_force(dist[i], qids[i], gids, k) for i in range(nq)]
        worst = max(worst, float(np.max(np.abs(np.array(aps) - want))))
    example, _ = mean_average_precision(
        np.array([[0.1, 0.2, 0.3, 0.4]]), [1], [0, 1, 0, 1], k=100)
    ok = worst < 1e-9 and example == 0.5
    _report(3, ok, f"mAP vs brute force over 200 instances: max diff "
                   f"{worst:.2e}; (miss,hit,miss,hit) AP = {example}")


def test_criterion_4_masking_is_bitwise():
    rng = np.random.default_rng(3)
    ok = True
    for _ in range(100):
        n = int(rng.integers(4, 17))
        classes = int(rng.integers(2, 12))
        mask = rng.integers(2, size=n).astype(np.float64)
        if mask.min() == mask.max():       # keep the batch mixed
            mask[0], mask[-1] = 0.0, 1.0
        logits = Tensor(rng.normal(size=(n, classes)))
        labels = rng.integers(classes, size=n)
        softmax_cross_entropy(logits, labels, mask).backward()
        real_rows = logits.grad[mask == 0.0]
        ok = ok and np.all(real_rows == 0.0) \
            and real_rows.tobytes() == bytes(len(real_rows.tobytes()))
    _report(4, ok, "disjoint-loss gradients on real-domain rows are "
                   "bitwise zero over 100 mixed batches")


def test_criterion_5_gradient_reversal():
    rng = np.random.default_rng(4)
    worst = 0.0
    for lam in (0.0, 0.5, 1.0):
        for _ in range(20):
            x = rng.normal(size=(6, 4))
            w = Tensor(rng.normal(size=(4, 2)))
            b = Tensor(rng.normal(size=(1, 2)))
            dom = np.array([0, 1, 0, 1, 1, 0])

            reversed_leaf = Tensor(x)
            domain_loss(reversed_leaf, dom, lam, (w, b)).backward()

            plain_leaf = Tensor(x)
            softmax_cross_entropy(plain_leaf @ w + b, dom).backward()

            worst = max(worst, float(np.max(np.abs(
                reversed_leaf.grad - (-lam) * plain_leaf.grad))))
    _report(5, worst < 1e-12,
            f"reversed encoder grads equal -lam * plain grads for "
            f"lam in {{0, 0.5, 1}}: max diff {worst:.2e}")


# ---- criterion 6: directional domain-adaptation effect ----

_DIM = 16


def _perm_shift():
    p = np.zeros((_DIM, _DIM))
    p[np.arange(_DIM), np.roll(np.arange(_DIM), 5)] = 1.0
    return p, np.full(_DIM, 2.0)


def _domain_data(seed):
    spec = ToySpec(num_ids_real=8, num_ids_synth=8, samples_per_id=10,
                   input_dim=_DIM, cluster_sep=4.0, noise_sigma=0.5,
                   domain_shift=_perm_shift(), seed=seed)
    samples, manifest = generate_toy_dataset(spec)
    real = [s for s in samples if s.domain == REAL]
    synth = [s for s in samples if s.domain != REAL]

    def split(rows):
        by_id = {}
        for s in rows:
            by_id.setdefault(s.id, []).append(s)
        tr, ev = [], []
        for group in by_id.values():
            tr += group[:-2]
            ev += group[-2:]
        return tr, ev

    r_tr, r_ev = split(real)
    s_tr, s_ev = split(synth)
    matched = {sid: rid for rid, sid in manifest["matched_id_pairs"]}
    return r_tr, s_tr, r_ev, s_ev, matched


def _domain_run(seed, data, grl_lambda, use_domain, use_synthetic):
    r_tr, s_tr, r_ev, s_ev, matched = data
    epochs = 150
    model = ModelConfig(
        input_dim=_DIM, hidden_dims=[32], embed_dim=8,
        head_class_counts={"id": 16, "domain": 2, "color": 12, "type": 11,
                           "orientation": 6})
    config = TrainConfig(
        model=model, batch=BatchSpec(4, 4),
        weights=LossWeights(grl_lambda=grl_lambda),
        schedule=LrSchedule(base_lr=3e-3, milestones=(105, 135)),
        epochs=epochs, iterations_per_epoch=8, seed=seed,
        losses=("domain",) if use_domain else ())
    result = train(config, r_tr, s_tr if use_synthetic else None)

    held_out = r_ev + s_ev
    emb = embed_samples(result.params, held_out)
    dom = np.array([s.domain for s in held_out])
    idx = np.random.default_rng(0).permutation(len(held_out))
    half = len(held_out) // 2
    probe = domain_probe_accuracy(emb[idx[:half]], dom[idx[:half]],
                                  emb[idx[half:]], dom[idx[half:]])

    q = embed_samples(result.params, r_ev)
    g = embed_samples(result.params, s_ev)
    qids = np.array([s.id for s in r_ev])
    gids = np.array([matched[s.id] for s in s_ev])
    xmap, _ = mean_average_precision(pairwise_distances(q, g), qids, gids, 100)
    return probe, xmap


def test_criterion_6_domain_adaptation_direction():
    start = time.monotonic()
    probe_on, probe_off, map_on, map_base = [], [], [], []
    for seed in range(5):
        data = _domain_data(seed)
        p1, m1 = _domain_run(seed, data, 1.0, True, True)
        p0, _ = _domain_run(seed, data, 0.0, False, True)
        _, m0 = _domain_run(seed, data, 0.0, False, False)
        probe_on.append(p1)
        probe_off.append(p0)
        map_on.append(m1)
        map_base.append(m0)
    elapsed = time.monotonic() - start
    avg_on, avg_off = np.mean(probe_on), np.mean(probe_off)
    gap = np.mean(map_on) - np.mean(map_base)
    ok = avg_on <= 0.65 and avg_off >= 0.9 and gap >= 0.03 and elapsed < 300
    _report(6, ok, f"5-seed averages: probe {avg_off:.3f} -> {avg_on:.3f} "
                   f"with the domain loss; cross-domain mAP gap +{gap:.3f} "
                   f"over the single-domain baseline; {elapsed:.0f}s (< 300s)")


def test_criterion_7_schedule_and_optimizer():
    sched = LrSchedule()
    lrs = (lr_at_epoch(sched, 0), lr_at_epoch(sched, 20),
           lr_at_epoch(sched, 40))
    schedule_ok = (lrs[0] == 3e-4
                   and lrs[1] == 3e-4 * 0.1
                   and lrs[2] == 3e-4 * 0.1 ** 2
                   and abs(lrs[1] - 3e-5) < 1e-18
                   and abs(lrs[2] - 3e-6) < 1e-18)

    rng = np.random.default_rng(5)
    p = Tensor(rng.normal(size=(2, 5)))
    state = OptimState()
    prev = np.zeros((2, 5))
    monotone = True
    for _ in range(10_000):
        p.grad = rng.normal(size=(2, 5)) * rng.uniform(0.01, 100)
        amsgrad_step(state, [("p", p)], lr=1e-3)
        vhat = state.slots["p"]["vhat"]
        monotone = monotone and np.all(vhat >= prev) \
            and np.all(vhat >= state.slots["p"]["v"])
        prev = vhat.copy()
    ok = schedule_ok and monotone
    _report(7, ok, f"lr schedule {lrs[0]:g}/{lrs[1]:g}/{lrs[2]:g} at epochs "
                   f"0/20/40; vhat monotone over 10k random steps")


def test_criterion_8_reranking():
    rng = np.random.default_rng(6)
    order_ok = True
    for _ in range(100):
        q = rng.normal(size=(3, 5))
        g = rng.normal(size=(10, 5))
        base = pairwise_distances(q, g)
        final = k_reciprocal_rerank(
            q, g, RerankParams(k1=4, k2=2, lambda_orig=1.0))
        for i in range(3):
            order_ok = order_ok and np.array_equal(
                np.argsort(final[i], kind="stable"),
                np.argsort(base[i], kind="stable"))

    worst = 0.0
    for _ in range(20):
        q = rng.normal(size=(5, 6))
        g = rng.normal(size=(30, 6))
        got = k_reciprocal_rerank(q, g)     # default k1=20, k2=6, lambda=0.3
        ref = rerank_reference(q, g)
        worst = max(worst, float(np.max(np.abs(got - ref))))
    ok = order_ok and worst < 1e-9
    _report(8, ok, f"lambda=1 keeps the original ordering on 100 instances; "
                   f"default params match the reference translation on 20 "
                   f"toy instances (max diff {worst:.2e})")


# ---- criteria 9 and 10 drive the CLI end to end ----

ABLATION_ROWS = (
    ("V", False),
    ("V,D,O", True),
    ("V,D,C", True),
    ("V,D,T", True),
    ("V,D,O,C", True),
    ("V,D,O,T", True),
    ("V,D,C,T", True),
    ("V,D,O,C,T", True),
)


def _gen_cli_dataset(out_dir):
    assert cli_main(["gen", "--out-dir", str(out_dir), "--ids-real", "4",
                     "--ids-synth", "4", "--per-id", "4", "--dim", "6",
                     "--seed", "0"]) == EXIT_OK


def test_criterion_9_ablation_harness(tmp_path):
    data = tmp_path / "data"
    _gen_cli_dataset(data)
    results = []
    for losses, use_synth in ABLATION_ROWS:
        out = tmp_path / losses.replace(",", "")
        argv = ["train", "--data", str(data / "real.jsonl"),
                "--out-dir", str(out), "--losses", losses,
                "--epochs", "2", "--iterations", "4", "--n", "2", "--m", "2",
                "--hidden-dims", "8", "--embed-dim", "4"]
        if use_synth:
            argv += ["--synth", str(data / "synth.jsonl")]
        code = cli_main(argv)
        report = json.loads((out / "report.json").read_text())
        if code == EXIT_OK:
            schema_ok = (report["status"] == "completed"
                         and 0.0 <= report["mAP"] <= 1.0
                         and set(report["cmc"]) == {"1", "5", "10"})
        elif code == EXIT_DIVERGED:
            schema_ok = (report["status"] == "diverged"
                         and report["iteration"] >= 1)
        else:
            schema_ok = False
        results.append((losses, code, schema_ok))
    ok = all(r[2] for r in results)
    summary = ", ".join(f"{losses}:{code}" for losses, code, _ in results)
    _report(9, ok, f"all 8 ablation rows ran with schema-valid reports "
                   f"({summary})")


def test_criterion_10_bitwise_reproducibility(tmp_path):
    data = tmp_path / "data"
    _gen_cli_dataset(data)
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert cli_main(["train", "--data", str(data / "real.jsonl"),
                         "--synth", str(data / "synth.jsonl"),
                         "--out-dir", str(out), "--losses", "V,D,O,C,T",
                         "--epochs", "3", "--iterations", "4",
                         "--n", "2", "--m", "2", "--hidden-dims", "8",
                         "--embed-dim", "4", "--seed", "7"]) == EXIT_OK
        outs.append(out)
    log_same = (outs[0] / "run.log.jsonl").read_bytes() \
        == (outs[1] / "run.log.jsonl").read_bytes()
    ckpt_same = (outs[0] / "checkpoint.bin").read_bytes() \
        == (outs[1] / "checkpoint.bin").read_bytes()
    _report(10, log_same and ckpt_same,
            "two identical runs produced bit-identical run logs "
            f"(match={log_same}) and checkpoints (match={ckpt_same})")
