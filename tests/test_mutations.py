"""One seeded mutation test over what `eval` and `gen` read: a dataset
line's field, a manifest key, a checkpoint field or parameter, and each
option as a flag or a config line. Each trial changes one thing to one
value of VALUES, and `main` must exit with a documented code and a clean
error."""

import json
import random
import shutil

import pytest

from dareid.cli import EVAL_OPTIONS, GEN_OPTIONS, main, parse_bool
from dareid.network import (HEAD_NAMES, ModelConfig, init_params,
                            save_checkpoint)

INT64_MAX = 2**63 - 1
VALUES = (None, True, False, -1, 0, 1, INT64_MAX, INT64_MAX + 1,
          -2**63 - 1, 10**400, float("nan"), float("inf"), float("-inf"),
          1e308, -0.0, "x", "", [], [[]], {})
# at int64 max these run a loop that long; test_cli covers them
GEN_COUNTS = ("ids_real", "ids_synth", "per_id")


@pytest.fixture(scope="module")
def base(tmp_path_factory):
    """A tiny gen output and a checkpoint of an untrained model for it."""
    root = tmp_path_factory.mktemp("mutations")
    data = root / "data"
    assert main(["gen", "--out-dir", str(data), "--ids-real", "4",
                 "--ids-synth", "4", "--per-id", "6", "--dim", "6",
                 "--seed", "0"]) == 0
    manifest = json.loads((data / "real.manifest.json").read_text())
    config = ModelConfig(
        input_dim=6, hidden_dims=[8], embed_dim=4, head_class_counts={
            "id": 8, "domain": 2, "color": manifest["num_colors"],
            "type": manifest["num_types"],
            "orientation": manifest["num_orientation_bins"]})
    save_checkpoint(root / "checkpoint.bin", init_params(config, seed=0))
    return data, root / "checkpoint.bin"


def as_text(value):
    """A value as an option's text: JSON's spelling, strings as they are."""
    return value if isinstance(value, str) else json.dumps(value)


def set_at(obj, path, value):
    for key in path[:-1]:
        obj = obj[key]
    obj[path[-1]] = value


def dataset_trial(rng, value, trial, data, ckpt, field):
    """One field of one line of the real or synthetic file, or one of its
    features; the file is evaluated as both query and gallery."""
    shutil.copytree(data, trial / "data")
    path = trial / "data" / f"{rng.choice(['real', 'synth'])}.jsonl"
    lines = path.read_text().splitlines()
    i = rng.randrange(len(lines))
    rec = json.loads(lines[i])
    set_at(rec, [rng.choice(sorted(rec))] if field else
           ["features", rng.randrange(len(rec["features"]))], value)
    lines[i] = json.dumps(rec)
    path.write_text("\n".join(lines) + "\n")
    return path, eval_argv(trial, ckpt, path)


def manifest_trial(rng, value, trial, data, ckpt):
    shutil.copytree(data, trial / "data")
    query = trial / "data" / f"{rng.choice(['real', 'synth'])}.jsonl"
    path = query.with_name(query.stem + ".manifest.json")
    manifest = json.loads(path.read_text())
    manifest[rng.choice(sorted(manifest))] = value
    path.write_text(json.dumps(manifest))
    return path, eval_argv(trial, ckpt, query)


def checkpoint_trial(rng, value, trial, data, ckpt, part):
    """A top-level or config field, input_dim, a layer width, a head count, one parameter or one
    of a parameter's values."""
    stored = json.loads(ckpt.read_text())
    name = rng.choice(sorted(stored["params"]))
    key = {"top": lambda: rng.choice(
               [[k] for k in sorted(stored)]
               + [["config", k] for k in sorted(stored["config"])]),
           "input": lambda: ["config", "input_dim"],
           "width": lambda: rng.choice([["config", "embed_dim"],
                                        ["config", "hidden_dims", 0]]),
           "head": lambda: ["config", "head_class_counts",
                            rng.choice(HEAD_NAMES)],
           "param": lambda: ["params", name],
           "value": lambda: ["params", name,
                             rng.randrange(len(stored["params"][name])),
                             rng.randrange(len(stored["params"][name][0]))],
           }[part]()
    set_at(stored, key, value)
    path = trial / "checkpoint.bin"
    path.write_text(json.dumps(stored))
    return path, eval_argv(trial, path, data / "real.jsonl")


def option_trial(rng, value, trial, data, ckpt, command, where):
    """One eval or gen setting, as a flag or as a config line; a
    true/false setting is always a config line, since its flag takes no
    value."""
    if command == "eval":
        table, argv = EVAL_OPTIONS, eval_argv(trial, ckpt, data / "real.jsonl")
    else:
        table = GEN_OPTIONS
        argv = ["gen", "--out-dir", str(trial / "out"), "--ids-real", "3",
                "--ids-synth", "3", "--per-id", "2", "--dim", "4"]
    opt = rng.choice([opt for opt in table if not (
        value == INT64_MAX and opt.key in GEN_COUNTS and command == "gen")])
    flag = "--" + opt.key.replace("_", "-")
    if flag in argv:
        del argv[argv.index(flag):argv.index(flag) + 2]
    if command == "eval" and opt.key != "rerank" and rng.random() < 0.5:
        argv.append("--rerank")
    if where == "flag" and opt.type is not parse_bool:
        return None, argv + [f"{flag}={as_text(value)}"]
    cfg = trial / "settings.cfg"
    cfg.write_text(f"{opt.key}={as_text(value)}\n")
    return cfg, argv + ["--config", str(cfg)]


def eval_argv(trial, ckpt, query):
    return ["eval", "--checkpoint", str(ckpt), "--query", str(query),
            "--gallery", str(query), "--out", str(trial / "out")]


TRIALS = {
    "line field": lambda *a: dataset_trial(*a, field=True),
    "feature": lambda *a: dataset_trial(*a, field=False),
    "manifest key": manifest_trial,
    "checkpoint field": lambda *a: checkpoint_trial(*a, part="top"),
    "input_dim": lambda *a: checkpoint_trial(*a, part="input"),
    "layer width": lambda *a: checkpoint_trial(*a, part="width"),
    "head count": lambda *a: checkpoint_trial(*a, part="head"),
    "parameter": lambda *a: checkpoint_trial(*a, part="param"),
    "parameter value": lambda *a: checkpoint_trial(*a, part="value"),
    "eval flag": lambda *a: option_trial(*a, command="eval", where="flag"),
    "eval config": lambda *a: option_trial(*a, command="eval",
                                           where="config"),
    "gen flag": lambda *a: option_trial(*a, command="gen", where="flag"),
    "gen config": lambda *a: option_trial(*a, command="gen", where="config"),
}


def test_mutated_inputs_exit_cleanly(base, tmp_path, capsys):
    # each kind of mutation at each value, the line, key or option drawn
    # by a seeded generator; about 5 ms a trial
    data, ckpt = base
    rng = random.Random(0)
    faults = []
    for n, (kind, value) in enumerate(
            (kind, value) for kind in TRIALS for value in VALUES):
        trial = tmp_path / str(n)
        trial.mkdir()
        at_fault, argv = TRIALS[kind](rng, value, trial, data, ckpt)
        capsys.readouterr()
        try:
            code = main(argv)
        except Exception as e:      # noqa: BLE001 - each is a fault
            code = f"raised {type(e).__name__}: {e}"
        err = capsys.readouterr().err
        errors = [line for line in err.splitlines() if "error:" in line]
        wrong = (
            "exit code" if code not in (0, 1, 2, 3) else
            "more than one error line" if len(errors) > 1 else
            "no error line" if code in (1, 2) and not errors else
            "file not named" if (code == 1 and at_fault is not None
                                 and str(at_fault) not in errors[0]) else
            "output left" if code in (1, 2) and (trial / "out").exists()
            else None)
        if wrong:
            faults.append(f"{kind} = {value!r:.20}: {wrong} ({code}, "
                          f"{err.strip()[:200]!r}) in {argv}")
    assert not faults, "\n".join(faults)
