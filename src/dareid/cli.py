"""Command-line entry point: dataset generation, training, and evaluation.

Exit codes: 0 success, 1 runtime failure (missing/malformed files),
2 usage or config error, 3 divergence-guard stop.

Each command declares its settings once, in an option table. The setting
some_key is the flag --some-key and the line some_key=value in a --config
file; a flag overrides the file, which overrides the default. `gen` and
`train` echo their effective settings to <out_dir>/config.echo as flat
key=value lines; `eval` has no out-dir and writes no echo.
"""

import argparse
import csv
import json
import os
import sys
import time
from typing import NamedTuple

import numpy as np

from .datagen import (DatasetFormatError, ToySpec, generate_toy_dataset,
                      read_dataset, write_dataset)
from .evaluation import (EvalConfig, RerankParams, evaluate_retrieval,
                         precision_recall_points)
from .losses import LossWeights
from .network import ModelConfig, load_checkpoint, save_checkpoint
from .optimizer import LrSchedule
from .sampling import (REAL, SYNTHETIC, BatchSpec, build_identity_index,
                       sampled_domain_ids)
from .trainer import (DivergenceError, TrainConfig, embed_samples, evaluate,
                      train)

EXIT_OK, EXIT_RUNTIME, EXIT_USAGE, EXIT_DIVERGED = 0, 1, 2, 3

LOSS_TOKENS = {"V": "id", "D": "domain", "O": "orientation", "C": "color",
               "T": "type"}


class UsageError(Exception):
    pass


def parse_bool(text):
    value = text.strip().lower()
    if value not in ("true", "false"):
        raise ValueError(f"expected true or false, got {text!r}")
    return value == "true"


class Opt(NamedTuple):
    """One setting of a command: its config-file key, the parser for its
    text (int, float, str or parse_bool), its default and its help text."""
    key: str
    type: object
    default: object
    help: str


def add_options(parser, table):
    parser.add_argument("--config",
                        help="key=value settings file; flags override it")
    for opt in table:
        kind = ({"action": "store_const", "const": True}
                if opt.type is parse_bool else {"type": opt.type})
        suffix = "" if opt.default is None else f" (default {opt.default})"
        parser.add_argument("--" + opt.key.replace("_", "-"), dest=opt.key,
                            help=opt.help + suffix, **kind)


def read_config_file(path, table):
    """Flat key=value file; blank lines and #-comments ignored. Each value is
    parsed with its option's type; errors name the file and line."""
    types = {opt.key: opt.type for opt in table}
    values = {}
    with open(path) as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise UsageError(f"{path}:{lineno}: expected key=value")
            key, _, text = line.partition("=")
            key = key.strip()
            if key not in types:
                raise UsageError(f"{path}:{lineno}: unknown key {key!r}")
            try:
                values[key] = types[key](text.strip())
            except ValueError as e:
                raise UsageError(f"{path}:{lineno}: bad {key}: {e}") from None
    return values


def resolve_options(table, args):
    """Effective settings: defaults, then the --config file, then flags."""
    values = {opt.key: opt.default for opt in table}
    if args.config:
        values.update(read_config_file(args.config, table))
    flags = vars(args)
    values.update({opt.key: flags[opt.key] for opt in table
                   if flags[opt.key] is not None})
    return values


def write_config_echo(out_dir, values):
    """Sorted key=value lines in the --config syntax, unset values left out."""
    with open(os.path.join(out_dir, "config.echo"), "w") as f:
        for key in sorted(values):
            value = values[key]
            if value is not None:
                text = str(value).lower() if isinstance(value, bool) else value
                f.write(f"{key}={text}\n")


# ---- gen ----

GEN_OPTIONS = (
    Opt("ids_real", int, ToySpec.num_ids_real, "real-domain identities"),
    Opt("ids_synth", int, ToySpec.num_ids_synth, "synthetic identities"),
    Opt("per_id", int, ToySpec.samples_per_id, "samples per identity"),
    Opt("dim", int, ToySpec.input_dim, "feature dimension"),
    Opt("seed", int, ToySpec.seed, "generator seed"),
    Opt("cluster_sep", float, ToySpec.cluster_sep, "min centre distance"),
    Opt("noise_sigma", float, ToySpec.noise_sigma, "per-sample noise std"),
    Opt("shift_offset", float, 0.0, "synthetic feature offset, 0 = no shift"),
    Opt("colors", int, ToySpec.num_colors, "color classes"),
    Opt("types", int, ToySpec.num_types, "vehicle type classes"),
    Opt("orientation_bins", int, ToySpec.num_orientation_bins, "angle bins"),
)


def cmd_gen(args):
    vals = resolve_options(GEN_OPTIONS, args)
    dim, offset = vals["dim"], vals["shift_offset"]
    shift = (np.eye(dim), np.full(dim, offset)) if offset != 0.0 else None
    spec = ToySpec(
        num_ids_real=vals["ids_real"], num_ids_synth=vals["ids_synth"],
        samples_per_id=vals["per_id"], input_dim=dim,
        num_colors=vals["colors"], num_types=vals["types"],
        num_orientation_bins=vals["orientation_bins"],
        cluster_sep=vals["cluster_sep"], domain_shift=shift,
        noise_sigma=vals["noise_sigma"], seed=vals["seed"])

    samples, manifest = generate_toy_dataset(spec)
    os.makedirs(args.out_dir, exist_ok=True)
    real = [s for s in samples if s.domain == REAL]
    synth = [s for s in samples if s.domain == SYNTHETIC]
    write_dataset(real, manifest, os.path.join(args.out_dir, "real.jsonl"))
    write_dataset(synth, manifest, os.path.join(args.out_dir, "synth.jsonl"))
    write_config_echo(args.out_dir, vals)
    print(f"wrote {len(real)} real and {len(synth)} synthetic samples "
          f"to {args.out_dir}")
    return EXIT_OK


# ---- train ----

TRAIN_OPTIONS = (
    Opt("losses", str, "V", "comma list from V,D,O,C,T (V required)"),
    Opt("epochs", int, TrainConfig.epochs, "training epochs"),
    Opt("iterations", int, None, "per epoch; unset: one pass over the data"),
    Opt("seed", int, TrainConfig.seed, "initialisation and sampling seed"),
    Opt("n", int, 2, "identities per domain per batch"),
    Opt("m", int, 4, "samples per identity per batch"),
    Opt("margin", float, LossWeights.triplet_margin, "triplet margin"),
    Opt("grl_lambda", float, LossWeights.grl_lambda, "reversal strength"),
    Opt("disjoint_weight", float, LossWeights.disjoint_weight, "O/C/T weight"),
    Opt("base_lr", float, LrSchedule.base_lr, "lr; x0.1 at epochs 20 and 40"),
    Opt("hidden_dims", str, "32", "comma list of hidden layer widths"),
    Opt("embed_dim", int, 16, "embedding width"),
    Opt("normalize_embeddings", parse_bool, False, "L2-normalise embeddings"),
    Opt("orientation_bins", int, None, "angle bins; unset: the manifest's"),
)


def _parse_losses(text):
    tokens = [t.strip().upper() for t in text.split(",") if t.strip()]
    unknown = [t for t in tokens if t not in LOSS_TOKENS]
    if unknown:
        raise UsageError(f"unknown loss tokens {unknown}; use V,D,O,C,T")
    if "V" not in tokens:
        raise UsageError("the vehicle-ID loss V is always required")
    disjoint = tuple(LOSS_TOKENS[t] for t in tokens if t in ("O", "C", "T"))
    return disjoint, "D" in tokens


def build_train_config(vals, manifest, use_synthetic):
    disjoint, use_domain = _parse_losses(vals["losses"])
    hidden = [int(h) for h in vals["hidden_dims"].split(",") if h.strip()]
    num_ids = max(manifest["real_id_range"][1], manifest["synth_id_range"][1])
    bins = vals["orientation_bins"]
    if bins is None:
        bins = manifest.get("num_orientation_bins", 6)
    model = ModelConfig(
        input_dim=manifest["input_dim"], hidden_dims=hidden,
        embed_dim=vals["embed_dim"],
        head_class_counts={
            "id": num_ids, "domain": 2,
            "color": max(1, manifest.get("num_colors", 1)),
            "type": max(1, manifest.get("num_types", 1)),
            "orientation": bins,
        },
        normalize_embeddings=vals["normalize_embeddings"])
    return TrainConfig(
        model=model,
        batch=BatchSpec(n=vals["n"], m=vals["m"]),
        weights=LossWeights(disjoint_weight=vals["disjoint_weight"],
                            grl_lambda=vals["grl_lambda"],
                            triplet_margin=vals["margin"]),
        schedule=LrSchedule(base_lr=vals["base_lr"]),
        epochs=vals["epochs"],
        iterations_per_epoch=vals["iterations"],
        seed=vals["seed"],
        disjoint=disjoint, use_domain_loss=use_domain,
        use_synthetic=use_synthetic)


def cmd_train(args):
    vals = resolve_options(TRAIN_OPTIONS, args)
    real_data, manifest = read_dataset(args.data)
    synth_data = []
    if args.synth:
        synth_data, synth_manifest = read_dataset(args.synth)
        manifest = {**manifest, **{k: synth_manifest[k] for k in
                    ("synth_id_range", "num_colors", "num_types",
                     "num_orientation_bins")}}
    config = build_train_config(vals, manifest, use_synthetic=bool(args.synth))
    # checked before the out-dir exists, not at the first batch
    sampled_domain_ids(build_identity_index(real_data + synth_data),
                       config.batch, config.use_synthetic)

    os.makedirs(args.out_dir, exist_ok=True)
    write_config_echo(args.out_dir, {
        **vals, "data": args.data, "synth": args.synth or "",
        "use_synthetic": bool(args.synth)})

    start = time.monotonic()
    try:
        result = train(config, real_data, synth_data)
    except DivergenceError as e:
        _write_run_log(args.out_dir, e.run_log)
        with open(os.path.join(args.out_dir, "report.json"), "w") as f:
            json.dump({"status": "diverged", "iteration": e.iteration}, f,
                      indent=2)
        print(f"training diverged at iteration {e.iteration}", file=sys.stderr)
        return EXIT_DIVERGED

    _write_run_log(args.out_dir, result.run_log)
    save_checkpoint(os.path.join(args.out_dir, "checkpoint.bin"),
                    result.params, epoch=result.epochs_done,
                    seed=config.seed, optim_state=result.optim.to_dict())
    report = _final_report(result.params, real_data, config)
    report["status"] = "completed"
    with open(os.path.join(args.out_dir, "report.json"), "w") as f:
        json.dump(report, f, indent=2)
    with open(os.path.join(args.out_dir, "timing.txt"), "w") as f:
        f.write(f"wall_clock_sec={time.monotonic() - start:.3f}\n")
    return EXIT_OK


def _write_run_log(out_dir, run_log):
    with open(os.path.join(out_dir, "run.log.jsonl"), "w") as f:
        for entry in run_log:
            f.write(json.dumps(entry) + "\n")


def _final_report(params, real_data, config):
    """Self-retrieval snapshot on the real training split, with and without
    re-ranking when the gallery is large enough. The split is embedded once
    and each query's own row is excluded."""
    emb = embed_samples(params, real_data)
    ids = np.array([s.id for s in real_data])
    exclude = np.eye(len(ids), dtype=bool)
    rep = evaluate_retrieval(emb, emb, ids, ids, EvalConfig(), exclude)
    out = {"mAP": rep.map_at_k, "cmc": {str(r): v for r, v in rep.cmc.items()},
           "config": rep.config, "mAP_reranked": None}
    rr = RerankParams()
    if rr.k1 < len(real_data):
        out["mAP_reranked"] = evaluate_retrieval(
            emb, emb, ids, ids, EvalConfig(rerank=rr), exclude).map_at_k
    return out


# ---- eval ----

EVAL_OPTIONS = (
    Opt("topk", int, EvalConfig.top_k, "K of mAP@K"),
    Opt("metric", str, EvalConfig.metric, "euclidean or squared-euclidean"),
    Opt("rerank", parse_bool, False, "k-reciprocal re-ranking"),
    Opt("k1", int, RerankParams.k1, "re-ranking neighbourhood size"),
    Opt("k2", int, RerankParams.k2, "re-ranking query-expansion size"),
    Opt("lambda", float, RerankParams.lambda_orig, "original-distance weight"),
    Opt("exclude_self", parse_bool, False, "skip each query's own row"),
)


def cmd_eval(args):
    vals = resolve_options(EVAL_OPTIONS, args)
    params, _ = load_checkpoint(args.checkpoint)
    query, _ = read_dataset(args.query)
    gallery, _ = read_dataset(args.gallery)

    rerank = None
    if vals["rerank"]:
        rerank = RerankParams(k1=vals["k1"], k2=vals["k2"],
                              lambda_orig=vals["lambda"])
    config = EvalConfig(top_k=vals["topk"], metric=vals["metric"],
                        rerank=rerank)
    report = evaluate(params, query, gallery, config,
                      exclude_self=vals["exclude_self"])

    with open(args.out, "w") as f:
        f.write(report.to_json() + "\n")
    if args.per_query_csv:
        with open(args.per_query_csv, "w", newline="") as f:
            writer = csv.writer(f)
            writer.writerow(["query_index", "ap"])
            for i, ap in enumerate(report.per_query_ap):
                writer.writerow([i, ap])
    if args.pr_csv:
        _write_pr_csv(args.pr_csv, report)
    print(f"mAP@{config.top_k} = {report.map_at_k:.6f}")
    return EXIT_OK


def _write_pr_csv(path, report):
    """Recall/precision points of each query, from the ranking the report
    scored (re-ranked when it was)."""
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["query_index", "recall", "precision"])
        for qi, positions in enumerate(report.positions):
            for recall, precision in precision_recall_points(positions):
                writer.writerow([qi, recall, precision])


# ---- argument parsing ----

def build_parser():
    parser = argparse.ArgumentParser(
        prog="dareid",
        description="Two-domain re-identification training and evaluation")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a two-domain toy dataset")
    g.add_argument("--out-dir", required=True)
    add_options(g, GEN_OPTIONS)
    g.set_defaults(func=cmd_gen)

    t = sub.add_parser("train", help="train a model")
    t.add_argument("--data", required=True, help="real-domain JSONL dataset")
    t.add_argument("--synth", help="synthetic-domain JSONL dataset")
    t.add_argument("--out-dir", required=True)
    add_options(t, TRAIN_OPTIONS)
    t.set_defaults(func=cmd_train)

    e = sub.add_parser("eval", help="evaluate a checkpoint")
    e.add_argument("--checkpoint", required=True)
    e.add_argument("--query", required=True)
    e.add_argument("--gallery", required=True)
    e.add_argument("--out", default="report.json")
    e.add_argument("--per-query-csv", dest="per_query_csv")
    e.add_argument("--pr-csv", dest="pr_csv")
    add_options(e, EVAL_OPTIONS)
    e.set_defaults(func=cmd_eval)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return e.code if e.code is not None else EXIT_USAGE
    try:
        return args.func(args)
    except (UsageError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (FileNotFoundError, DatasetFormatError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
