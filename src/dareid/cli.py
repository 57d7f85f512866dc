"""Command-line entry point: dataset generation, training, and evaluation.

Exit codes: 0 success, 1 runtime failure (missing/malformed files),
2 usage or config error, 3 divergence-guard stop.

Each command declares its settings once, in an option table. The setting
some_key is the flag --some-key and the line some_key=value in a --config
file; a flag overrides the file, which overrides the default. `gen` and
`train` echo their effective settings to <out_dir>/config.echo as flat
key=value lines, which --config reads back; `eval` has no out-dir and
writes no echo.
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
from .network import (CheckpointFormatError, ModelConfig, load_checkpoint,
                      save_checkpoint)
from .optimizer import LrSchedule
from .sampling import REAL, SYNTHETIC, BatchSpec, build_train_set
from .trainer import DivergenceError, TrainConfig, _embedded, evaluate, train_on

EXIT_OK, EXIT_RUNTIME, EXIT_USAGE, EXIT_DIVERGED = 0, 1, 2, 3

LOSS_TOKENS = {"V": "id", "D": "domain", "O": "orientation", "C": "color",
               "T": "type"}


def parse_bool(text):
    value = text.strip().lower()
    if value not in ("true", "false"):
        raise ValueError(f"expected true or false, got {text!r}")
    return value == "true"


def int64(text):
    """An integer setting; one beyond int64 would overflow in NumPy."""
    value = int(text)
    if not -2**63 <= value < 2**63:
        raise argparse.ArgumentTypeError(
            f"{text.strip()} is outside the 64-bit integer range")
    return value


class Opt(NamedTuple):
    """One setting of a command: its config-file key, the parser for its
    text (int64, float, parse_bool or a checker), its default and help
    text."""
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
    parsed with its option's type; errors name the file and line. Returns
    the values and, per key, its "<file>:<line>"."""
    types = {opt.key: opt.type for opt in table}
    values, lines = {}, {}
    with open(path, "rb") as f:     # each line is decoded alone
        for lineno, line in enumerate(f, start=1):
            try:
                line = line.decode().strip()
            except UnicodeDecodeError as e:
                raise ValueError(f"{path}:{lineno}: not UTF-8 ({e})") from None
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value")
            key, _, text = line.partition("=")
            key = key.strip()
            if key not in types:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            try:
                values[key] = types[key](text.strip())
            except (ValueError, argparse.ArgumentTypeError) as e:
                raise ValueError(f"{path}:{lineno}: bad {key}: {e}") from None
            lines[key] = f"{path}:{lineno}"
    return values, lines


class Settings(dict):
    """Effective settings; lines maps each key whose value the --config file
    set to its "<file>:<line>"."""

    def __init__(self, values, lines):
        super().__init__(values)
        self.lines = lines


def resolve_options(table, args):
    """Effective settings: defaults, then the --config file, then flags."""
    values = {opt.key: opt.default for opt in table}
    lines = {}
    if args.config:
        read, lines = read_config_file(args.config, table)
        values.update(read)
    given = vars(args)
    flags = {opt.key: given[opt.key] for opt in table
             if given[opt.key] is not None}
    values.update(flags)
    return Settings(values, {k: v for k, v in lines.items() if k not in flags})


def build_settings(build, table, values):
    """build(values). A ValueError that one --config line's value brings
    about alone, the file's other keys at their defaults, names that line
    as <file>:<line>: like a value that does not parse."""
    try:
        return build(values)
    except ValueError as error:
        defaults = {opt.key: opt.default for opt in table}
        base = {**values, **{key: defaults[key] for key in values.lines}}
        suspects = values.lines.items()
        try:
            build(base)
        except ValueError:
            suspects = ()   # defaults and flags fail alone: no line is at fault
        for key, where in suspects:
            try:
                build({**base, key: values[key]})
            except ValueError as e:
                raise ValueError(f"{where}: {e}") from None
        raise error


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
    Opt("ids_real", int64, ToySpec.num_ids_real, "real-domain identities"),
    Opt("ids_synth", int64, ToySpec.num_ids_synth, "synthetic identities"),
    Opt("per_id", int64, ToySpec.samples_per_id, "samples per identity"),
    Opt("dim", int64, ToySpec.input_dim, "feature dimension"),
    Opt("seed", int64, ToySpec.seed, "generator seed"),
    Opt("cluster_sep", float, ToySpec.cluster_sep, "min centre distance"),
    Opt("noise_sigma", float, ToySpec.noise_sigma, "per-sample noise std"),
    Opt("shift_offset", float, 0.0, "synthetic feature offset, 0 = no shift"),
    Opt("colors", int64, ToySpec.num_colors, "color classes"),
    Opt("types", int64, ToySpec.num_types, "vehicle type classes"),
    Opt("orientation_bins", int64, ToySpec.num_orientation_bins, "angle bins"),
)


def build_toy_spec(vals):
    dim, offset = vals["dim"], vals["shift_offset"]
    shift = (np.eye(dim), np.full(dim, offset)) if offset != 0.0 else None
    return ToySpec(
        num_ids_real=vals["ids_real"], num_ids_synth=vals["ids_synth"],
        samples_per_id=vals["per_id"], input_dim=dim,
        num_colors=vals["colors"], num_types=vals["types"],
        num_orientation_bins=vals["orientation_bins"],
        cluster_sep=vals["cluster_sep"], domain_shift=shift,
        noise_sigma=vals["noise_sigma"], seed=vals["seed"])


def cmd_gen(args):
    vals = resolve_options(GEN_OPTIONS, args)
    spec = build_settings(build_toy_spec, GEN_OPTIONS, vals)
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

def _parse_widths(text):
    return [int64(h) for h in text.split(",") if h.strip()]


def loss_letters(text):
    """A --losses value, checked and kept as given for config.echo."""
    try:
        _parse_losses(text)
    except ValueError as e:     # argparse then prints the reason for a flag
        raise argparse.ArgumentTypeError(e) from None
    return text


def layer_widths(text):
    """A --hidden-dims value, checked and kept as given for config.echo."""
    _parse_widths(text)
    return text


TRAIN_OPTIONS = (
    Opt("losses", loss_letters, "V", "comma list from V,D,O,C,T (V required)"),
    Opt("epochs", int64, TrainConfig.epochs, "training epochs"),
    Opt("iterations", int64, None, "per epoch; unset: one pass over the data"),
    Opt("seed", int64, TrainConfig.seed, "initialisation and sampling seed"),
    Opt("n", int64, 2, "identities per domain per batch"),
    Opt("m", int64, 4, "samples per identity per batch"),
    Opt("margin", float, LossWeights.triplet_margin, "triplet margin"),
    Opt("grl_lambda", float, LossWeights.grl_lambda, "reversal strength"),
    Opt("disjoint_weight", float, LossWeights.disjoint_weight, "O/C/T weight"),
    Opt("base_lr", float, LrSchedule.base_lr, "lr; x0.1 at epochs 20 and 40"),
    Opt("hidden_dims", layer_widths, "32", "comma list of hidden layer widths"),
    Opt("embed_dim", int64, 16, "embedding width"),
    Opt("orientation_bins", int64, None, "angle bins; unset: the manifest's"),
)


def _parse_losses(text):
    tokens = [t.strip().upper() for t in text.split(",") if t.strip()]
    unknown = [t for t in tokens if t not in LOSS_TOKENS]
    if unknown:
        raise ValueError(f"unknown loss tokens {unknown}; use V,D,O,C,T")
    if "V" not in tokens:
        raise ValueError("the vehicle-ID loss V is always required")
    return tuple(LOSS_TOKENS[t] for t in tokens if t != "V")


def build_train_config(vals, manifest):
    hidden = _parse_widths(vals["hidden_dims"])
    num_ids = max(manifest["real_id_range"][1], manifest["synth_id_range"][1])
    bins = vals["orientation_bins"]
    if bins is None:
        bins = manifest["num_orientation_bins"]
    model = ModelConfig(
        input_dim=manifest["input_dim"], hidden_dims=hidden,
        embed_dim=vals["embed_dim"],
        head_class_counts={
            "id": num_ids, "domain": 2,
            "color": max(1, manifest["num_colors"]),
            "type": max(1, manifest["num_types"]),
            "orientation": bins,
        })
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
        losses=_parse_losses(vals["losses"]))


def cmd_train(args):
    vals = resolve_options(TRAIN_OPTIONS, args)
    real_data, manifest = read_dataset(args.data)
    synth_data = None
    if args.synth:
        synth_data, synth_manifest = read_dataset(args.synth)
        manifest = {**manifest, **{k: synth_manifest[k] for k in
                    ("synth_id_range", "num_colors", "num_types",
                     "num_orientation_bins")}}

    def build(values):
        config = build_train_config(values, manifest)
        # the rows are checked here, before the out-dir exists
        return config, build_train_set(real_data, synth_data, config.batch,
                                       config.model.head_class_counts)
    config, train_set = build_settings(build, TRAIN_OPTIONS, vals)

    os.makedirs(args.out_dir, exist_ok=True)
    write_config_echo(args.out_dir, vals)

    start = time.monotonic()
    try:
        result = train_on(config, train_set)
    except DivergenceError as e:
        _write_run_log(args.out_dir, e.run_log)
        with open(os.path.join(args.out_dir, "report.json"), "w") as f:
            json.dump({"status": "diverged", "iteration": e.iteration}, f,
                      indent=2)
        print(f"training diverged at iteration {e.iteration}", file=sys.stderr)
        return EXIT_DIVERGED

    _write_run_log(args.out_dir, result.run_log)
    save_checkpoint(os.path.join(args.out_dir, "checkpoint.bin"),
                    result.params, epoch=config.epochs,
                    seed=config.seed, optim_state=result.optim.to_dict())
    report = _final_report(result.params, train_set.rows)
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


def _final_report(params, rows):
    """Self-retrieval snapshot on the real rows of a training set's rows,
    with and without re-ranking when the gallery is large enough. The split
    is embedded once and each query's own row is excluded."""
    real = rows.domain_labels == REAL
    emb = _embedded(params, rows.features[real], "real")
    ids = rows.id_labels[real]
    rep = evaluate_retrieval(emb, emb, ids, ids, EvalConfig(),
                             exclude_self=True)
    out = {"mAP": rep.map_at_k, "cmc": {str(r): v for r, v in rep.cmc.items()},
           "config": rep.config, "mAP_reranked": None}
    rr = RerankParams()
    if rr.k1 < len(ids):
        out["mAP_reranked"] = evaluate_retrieval(
            emb, emb, ids, ids, EvalConfig(rerank=rr),
            exclude_self=True).map_at_k
    return out


# ---- eval ----

EVAL_OPTIONS = (
    Opt("topk", int64, EvalConfig.top_k, "K of mAP@K"),
    Opt("rerank", parse_bool, False, "k-reciprocal re-ranking"),
    Opt("k1", int64, RerankParams.k1, "re-ranking neighbourhood size"),
    Opt("k2", int64, RerankParams.k2, "re-ranking query-expansion size"),
    Opt("lambda", float, RerankParams.lambda_orig, "original-distance weight"),
    Opt("exclude_self", parse_bool, False, "skip each query's own row"),
)


def build_eval_config(vals):
    rerank = None
    if vals["rerank"]:
        rerank = RerankParams(k1=vals["k1"], k2=vals["k2"],
                              lambda_orig=vals["lambda"])
    return EvalConfig(top_k=vals["topk"], rerank=rerank)


def cmd_eval(args):
    vals = resolve_options(EVAL_OPTIONS, args)
    params, _ = load_checkpoint(args.checkpoint)
    query, _ = read_dataset(args.query)
    # one file is read once, and evaluate takes the one list as one set
    gallery = (query if os.path.samefile(args.gallery, args.query)
               else read_dataset(args.gallery)[0])

    config = build_settings(build_eval_config, EVAL_OPTIONS, vals)
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
        pos, ptr = report.ranked
        for qi in range(len(ptr) - 1):
            for recall, precision in precision_recall_points(
                    pos[ptr[qi]:ptr[qi + 1]]):
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
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (CheckpointFormatError, DatasetFormatError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
