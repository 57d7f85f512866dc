import json
import os
import random
import subprocess
import sys
import warnings

import numpy as np
import pytest

from dareid import cli, sampling, trainer
from dareid.cli import (EVAL_OPTIONS, EXIT_DIVERGED, EXIT_OK, EXIT_RUNTIME,
                        EXIT_USAGE, GEN_OPTIONS, TRAIN_OPTIONS, build_parser,
                        int64, layer_widths, loss_letters, main, parse_bool,
                        resolve_options)
from dareid.datagen import read_dataset
from dareid.evaluation import (RerankParams, k_reciprocal_rerank,
                               pairwise_distances)
from dareid.network import load_checkpoint, save_checkpoint
from dareid.trainer import embed_samples

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src")


def run_gen(tmp_path, name="data", extra=()):
    out = tmp_path / name
    code = main(["gen", "--out-dir", str(out), "--ids-real", "4",
                 "--ids-synth", "4", "--per-id", "4", "--dim", "6",
                 "--seed", "0", *extra])
    return code, out


def run_train(data_dir, out_dir, extra=()):
    return main(["train", "--data", str(data_dir / "real.jsonl"),
                 "--synth", str(data_dir / "synth.jsonl"),
                 "--out-dir", str(out_dir), "--epochs", "2",
                 "--iterations", "4", "--n", "2", "--m", "2",
                 "--hidden-dims", "8", "--embed-dim", "4", *extra])


class TestGen:
    def test_writes_expected_files_and_counts(self, tmp_path):
        code, out = run_gen(tmp_path)
        assert code == EXIT_OK
        for name in ("real.jsonl", "synth.jsonl", "real.manifest.json",
                     "synth.manifest.json", "config.echo"):
            assert (out / name).exists(), name
        assert len((out / "real.jsonl").read_text().splitlines()) == 16
        assert len((out / "synth.jsonl").read_text().splitlines()) == 16

    def test_rerun_is_byte_identical(self, tmp_path):
        _, a = run_gen(tmp_path, "a")
        _, b = run_gen(tmp_path, "b")
        for name in ("real.jsonl", "synth.jsonl", "config.echo"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_zero_per_id_is_usage_error(self, tmp_path):
        code = main(["gen", "--out-dir", str(tmp_path / "x"), "--per-id", "0"])
        assert code == EXIT_USAGE

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "gen.cfg"
        cfg.write_text("ids_real=3\nper_id=2\n# comment\n\n")
        out = tmp_path / "cfgd"
        code = main(["gen", "--config", str(cfg), "--out-dir", str(out),
                     "--per-id", "3", "--dim", "5"])
        assert code == EXIT_OK
        echo = dict(line.split("=", 1) for line in
                    (out / "config.echo").read_text().splitlines())
        assert echo["ids_real"] == "3" and echo["per_id"] == "3"
        assert len((out / "real.jsonl").read_text().splitlines()) == 9

    def test_unknown_config_key_rejected(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("num_wheels=4\n")
        code = main(["gen", "--config", str(cfg),
                     "--out-dir", str(tmp_path / "y")])
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("where", ["flag", "config"])
    @pytest.mark.parametrize("counts", [
        [("ids_real", str(2**63 - 1))],
        [("ids_real", "2"), ("ids_synth", "2"), ("per_id", str(2**63 - 1))]])
    def test_dataset_too_large_for_numpy_is_usage_error(self, tmp_path,
                                                        capsys, where, counts):
        # rejected at once, not after a loop that long
        cfg = tmp_path / "big.cfg"
        cfg.write_text("".join(f"{key}={value}\n" for key, value in counts))
        given = ([f"--{key.replace('_', '-')}={value}"
                  for key, value in counts]
                 if where == "flag" else ["--config", str(cfg)])
        out = tmp_path / "big"
        assert main(["gen", "--out-dir", str(out), *given]) == EXIT_USAGE
        err = capsys.readouterr().err
        named = f"{cfg}:{len(counts)}: " if where == "config" else ""
        assert err.startswith(f"error: {named}") and err.count("\n") == 1
        assert "(ids_real, ids_synth, per_id, dim) are too many" in err
        assert not out.exists()

    @pytest.mark.parametrize("seed", range(4))
    def test_features_that_overflow_are_usage_error(self, tmp_path, capsys,
                                                    seed):
        out = tmp_path / "wide"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["gen", "--out-dir", str(out), "--ids-real", "8",
                         "--ids-synth", "8", "--per-id", "2", "--dim", "4",
                         "--cluster-sep", "1e308",
                         "--seed", str(seed)]) == EXIT_USAGE
        assert capsys.readouterr().err == (
            "error: generated features are not finite; lower cluster_sep, "
            "noise_sigma or shift_offset\n")
        assert not out.exists()


class TestTrain:
    def test_full_run_outputs(self, tmp_path):
        _, data = run_gen(tmp_path)
        out = tmp_path / "run"
        assert run_train(data, out) == EXIT_OK
        for name in ("config.echo", "run.log.jsonl", "checkpoint.bin",
                     "report.json", "timing.txt"):
            assert (out / name).exists(), name
        report = json.loads((out / "report.json").read_text())
        assert report["status"] == "completed"
        assert 0.0 <= report["mAP"] <= 1.0
        log_lines = (out / "run.log.jsonl").read_text().splitlines()
        assert len(log_lines) == 2 * 4
        assert json.loads(log_lines[0])["iteration"] == 1

    def test_one_run_bins_and_gathers_its_rows_once(self, tmp_path,
                                                   monkeypatch):
        # one pass checks, bins and gathers the rows into the set the run
        # trains on: each of the 36 synthetic rows is binned once
        _, data = run_gen(tmp_path, extra=("--ids-real", "6", "--ids-synth",
                                           "6", "--per-id", "6", "--dim", "8"))
        calls = {"bin_orientation": 0, "TrainSet": 0}
        for name in calls:
            def counting(*args, original=getattr(sampling, name), name=name):
                calls[name] += 1
                return original(*args)
            monkeypatch.setattr(sampling, name, counting)
        assert run_train(data, tmp_path / "run") == EXIT_OK
        assert calls == {"bin_orientation": 36, "TrainSet": 1}

    def test_repeat_run_is_byte_identical(self, tmp_path):
        _, data = run_gen(tmp_path)
        a, b = tmp_path / "ra", tmp_path / "rb"
        assert run_train(data, a) == EXIT_OK
        assert run_train(data, b) == EXIT_OK
        for name in ("run.log.jsonl", "checkpoint.bin", "report.json",
                     "config.echo"):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    def test_config_echo_replays_the_run(self, tmp_path):
        _, data = run_gen(tmp_path)
        first, again = tmp_path / "first", tmp_path / "again"
        assert run_train(data, first, ("--losses", "V,D,C",
                                       "--margin", "0.7")) == EXIT_OK
        echo = first / "config.echo"
        assert {line.split("=", 1)[0] for line in
                echo.read_text().splitlines()} <= {o.key for o in
                                                   TRAIN_OPTIONS}
        assert main(["train", "--config", str(echo),
                     "--data", str(data / "real.jsonl"),
                     "--synth", str(data / "synth.jsonl"),
                     "--out-dir", str(again)]) == EXIT_OK
        for name in ("config.echo", "run.log.jsonl", "checkpoint.bin"):
            assert (first / name).read_bytes() == (again / name).read_bytes()

    def test_loss_selection_reflected_in_log(self, tmp_path):
        _, data = run_gen(tmp_path)
        out = tmp_path / "vd"
        assert run_train(data, out, ("--losses", "V,D")) == EXIT_OK
        first = json.loads(
            (out / "run.log.jsonl").read_text().splitlines()[0])
        assert first["domain_loss"] != 0.0
        assert first["color_loss"] == 0.0 and first["type_loss"] == 0.0

    @pytest.mark.parametrize("iterations", ["0", "-3"])
    def test_iterations_below_one_is_usage_error(self, tmp_path, capsys,
                                                 iterations):
        _, data = run_gen(tmp_path)
        out = tmp_path / "run"
        code = run_train(data, out, ("--iterations", iterations))
        assert code == EXIT_USAGE
        assert "iterations" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag, value, named", [
        ("--n", "9", "n=9"),                       # 4 identities per domain
        ("--orientation-bins", "0", "orientation"),
    ])
    def test_bad_batch_or_head_setting_leaves_no_out_dir(
            self, tmp_path, capsys, flag, value, named):
        _, data = run_gen(tmp_path)
        out = tmp_path / "run"
        assert run_train(data, out, (flag, value)) == EXIT_USAGE
        assert named in capsys.readouterr().err
        assert not out.exists()

    def test_missing_id_loss_rejected(self, tmp_path, capsys):
        _, data = run_gen(tmp_path)
        code = run_train(data, tmp_path / "z", ("--losses", "D,O"))
        assert code == EXIT_USAGE
        assert "V is always required" in capsys.readouterr().err

    def test_missing_dataset_is_runtime_error(self, tmp_path):
        code = main(["train", "--data", str(tmp_path / "nope.jsonl"),
                     "--out-dir", str(tmp_path / "o")])
        assert code == EXIT_RUNTIME

    def test_final_report_embeds_the_split_once(self, tmp_path,
                                                monkeypatch):
        # 24 real samples: enough for the default k1=20, so the report is
        # computed plain and re-ranked
        _, data = run_gen(tmp_path, extra=("--per-id", "6"))
        out = tmp_path / "run"
        assert run_train(data, out) == EXIT_OK
        params, _ = load_checkpoint(str(out / "checkpoint.bin"))
        real, _ = read_dataset(str(data / "real.jsonl"))
        calls = []

        def counting(params, samples):
            calls.append(len(samples))
            return embed_samples(params, samples)
        monkeypatch.setattr(trainer, "embed_samples", counting)
        rows = sampling.build_train_set(real, None, sampling.BatchSpec(2, 2),
                                        params.config.head_class_counts).rows
        report = cli._final_report(params, rows)
        assert calls == [24]
        assert report["mAP_reranked"] is not None
        written = json.loads((out / "report.json").read_text())
        assert {**report, "status": "completed"} == written

    @pytest.mark.parametrize("manifest, edit, named", [
        ("synth", lambda m: {k: v for k, v in m.items()
                             if k != "synth_id_range"}, "synth_id_range"),
        ("real", lambda m: "not json", "invalid JSON"),
        ("real", lambda m: [m], "JSON object"),
        ("real", lambda m: {**m, "input_dim": 7}, "input_dim"),
        ("real", lambda m: {**m, "real_id_range": "abc"}, "real_id_range"),
        ("synth", lambda m: {**m, "num_colors": None}, "num_colors"),
        ("synth", lambda m: {**m, "num_types": "7"}, "num_types"),
        ("synth", lambda m: {**m, "num_orientation_bins": 2.5},
         "num_orientation_bins"),
        ("synth", lambda m: {**m, "synth_id_range": [0]}, "synth_id_range"),
        ("real", lambda m: {**m, "input_dim": "6"},
         "input_dim must be an integer"),
    ], ids=["missing-key", "not-json", "not-an-object", "input-dim",
            "range-string", "count-null", "count-string", "count-float",
            "range-short", "input-dim-string"])
    def test_bad_manifest_names_the_file(self, tmp_path, capsys, manifest,
                                         edit, named):
        _, data = run_gen(tmp_path)
        path = data / f"{manifest}.manifest.json"
        edited = edit(json.loads(path.read_text()))
        path.write_text(edited if isinstance(edited, str)
                        else json.dumps(edited))
        out = tmp_path / "run"
        assert run_train(data, out) == EXIT_RUNTIME
        err = capsys.readouterr().err
        assert str(path) in err and named in err and "Traceback" not in err
        assert not out.exists()

    def test_real_and_synthetic_widths_differ(self, tmp_path, capsys):
        _, data = run_gen(tmp_path)
        _, wide = run_gen(tmp_path, "wide", ("--dim", "7"))
        out = tmp_path / "run"
        code = main(["train", "--data", str(data / "real.jsonl"),
                     "--synth", str(wide / "synth.jsonl"),
                     "--out-dir", str(out)])
        assert code == EXIT_USAGE
        assert "6 features, synthetic rows 7" in capsys.readouterr().err
        assert not out.exists()

    def test_empty_synthetic_file_is_usage_error(self, tmp_path, capsys):
        _, data = run_gen(tmp_path)
        (data / "synth.jsonl").write_text("")
        out = tmp_path / "run"
        assert run_train(data, out) == EXIT_USAGE
        assert "domain 1 has 0 identities" in capsys.readouterr().err
        assert not out.exists()

    def test_color_outside_the_head_is_usage_error(self, tmp_path, capsys):
        _, data = run_gen(tmp_path)
        path = data / "synth.jsonl"
        lines = path.read_text().splitlines()
        rec = json.loads(lines[3])
        rec["color"] = 12                # the manifest has 12 colors
        lines[3] = json.dumps(rec)
        path.write_text("\n".join(lines) + "\n")
        out = tmp_path / "run"
        assert run_train(data, out) == EXIT_USAGE
        assert "color head's 12 classes" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, flag, value, named", [
        ("train", "--margin", "nan", "margin"),
        ("train", "--base-lr", "-1", "base_lr"),
        ("train", "--base-lr", "nan", "base_lr"),
        ("train", "--grl-lambda", "inf", "grl_lambda"),
        ("train", "--disjoint-weight", "nan", "disjoint_weight"),
        ("gen", "--noise-sigma", "nan", "noise_sigma"),
        ("gen", "--shift-offset", "inf", "offset"),
    ])
    def test_non_finite_or_negative_setting_is_usage_error(
            self, tmp_path, capsys, command, flag, value, named):
        out = tmp_path / "out"
        if command == "gen":
            code, _ = run_gen(tmp_path, "out", (flag, value))
        else:
            _, data = run_gen(tmp_path)
            code = run_train(data, out, (flag, value))
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert named in err and "Traceback" not in err
        assert not out.exists()

    def test_divergence_exit_code_and_report(self, tmp_path):
        _, data = run_gen(tmp_path)
        out = tmp_path / "boom"
        code = run_train(data, out, ("--base-lr", "1e200"))
        assert code == EXIT_DIVERGED
        report = json.loads((out / "report.json").read_text())
        assert report["status"] == "diverged" and report["iteration"] >= 1
        assert not (out / "checkpoint.bin").exists()

    def test_divergence_under_warnings_as_errors(self, tmp_path):
        # the overflow that stops the run is the guard's to report, not a
        # NumPy warning, so a process that turns warnings into errors
        # still exits 3
        _, data = run_gen(tmp_path)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [SRC] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
        done = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "dareid.cli",
             "train", "--data", str(data / "real.jsonl"),
             "--synth", str(data / "synth.jsonl"),
             "--out-dir", str(tmp_path / "boom"), "--epochs", "2",
             "--iterations", "4", "--n", "2", "--m", "2",
             "--hidden-dims", "8", "--embed-dim", "4", "--base-lr", "1e200"],
            env=env, capture_output=True, text=True)
        assert done.returncode == EXIT_DIVERGED, done.stderr
        assert "Traceback" not in done.stderr
        assert "RuntimeWarning" not in done.stderr
        assert "training diverged at iteration" in done.stderr


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("cli_eval")
    _, data = run_gen(tmp_path)
    out = tmp_path / "run"
    assert run_train(data, out) == EXIT_OK
    return data, out / "checkpoint.bin", tmp_path


class TestEval:
    def test_eval_writes_report(self, trained):
        data, ckpt, tmp_path = trained
        out = tmp_path / "eval.json"
        code = main(["eval", "--checkpoint", str(ckpt),
                     "--query", str(data / "real.jsonl"),
                     "--gallery", str(data / "real.jsonl"),
                     "--exclude-self", "--topk", "7", "--out", str(out)])
        assert code == EXIT_OK
        report = json.loads(out.read_text())
        assert report["config"] == {"top_k": 7, "rerank": None}
        assert 0.0 <= report["mAP"] <= 1.0
        assert len(report["per_query_ap"]) == 16

    def test_rerank_lambda_one_matches_plain(self, trained):
        data, ckpt, tmp_path = trained
        base_args = ["eval", "--checkpoint", str(ckpt),
                     "--query", str(data / "real.jsonl"),
                     "--gallery", str(data / "real.jsonl"),
                     "--exclude-self"]
        plain, rr = tmp_path / "p.json", tmp_path / "r.json"
        assert main(base_args + ["--out", str(plain)]) == EXIT_OK
        assert main(base_args + ["--rerank", "--k1", "4", "--k2", "2",
                                 "--lambda", "1.0", "--out", str(rr)]
                    ) == EXIT_OK
        a = json.loads(plain.read_text())
        b = json.loads(rr.read_text())
        assert b["mAP"] == pytest.approx(a["mAP"], abs=1e-12)
        assert b["reranked"] is True

    def test_per_query_and_pr_csv(self, trained):
        data, ckpt, tmp_path = trained
        pq, pr = tmp_path / "pq.csv", tmp_path / "pr.csv"
        code = main(["eval", "--checkpoint", str(ckpt),
                     "--query", str(data / "real.jsonl"),
                     "--gallery", str(data / "real.jsonl"),
                     "--exclude-self", "--out", str(tmp_path / "e2.json"),
                     "--per-query-csv", str(pq), "--pr-csv", str(pr)])
        assert code == EXIT_OK
        pq_lines = pq.read_text().splitlines()
        assert pq_lines[0] == "query_index,ap" and len(pq_lines) == 17
        assert pr.read_text().splitlines()[0] == "query_index,recall,precision"

    def test_pr_csv_follows_rerank(self, trained):
        data, ckpt, tmp_path = trained
        pq, pr = tmp_path / "rr_pq.csv", tmp_path / "rr_pr.csv"
        code = main(["eval", "--checkpoint", str(ckpt),
                     "--query", str(data / "real.jsonl"),
                     "--gallery", str(data / "real.jsonl"),
                     "--exclude-self", "--rerank", "--k1", "4", "--k2", "2",
                     "--lambda", "0.0", "--topk", "16",
                     "--out", str(tmp_path / "rr.json"),
                     "--per-query-csv", str(pq), "--pr-csv", str(pr)])
        assert code == EXIT_OK
        aps = [float(line.split(",")[1])
               for line in pq.read_text().splitlines()[1:]]
        precisions = {}
        for line in pr.read_text().splitlines()[1:]:
            qi, _, precision = line.split(",")
            precisions.setdefault(int(qi), []).append(float(precision))
        assert sorted(precisions) == list(range(len(aps)))
        for qi, ap in enumerate(aps):
            mean = sum(precisions[qi]) / len(precisions[qi])
            assert mean == pytest.approx(ap, abs=1e-12), qi

    @pytest.mark.parametrize("rerank", [(), ("--rerank", "--k1", "4",
                                              "--k2", "2")])
    def test_pr_csv_rows_follow_the_stable_ranking(self, trained, rerank):
        # every row, bit for bit: the points of a stable argsort of each
        # query's distances with its own row removed
        data, ckpt, tmp_path = trained
        pr = tmp_path / "pin_pr.csv"
        code = main(["eval", "--checkpoint", str(ckpt),
                     "--query", str(data / "real.jsonl"),
                     "--gallery", str(data / "real.jsonl"), "--exclude-self",
                     *rerank, "--out", str(tmp_path / "pin.json"),
                     "--pr-csv", str(pr)])
        assert code == EXIT_OK
        params, _ = load_checkpoint(str(ckpt))
        real, _ = read_dataset(str(data / "real.jsonl"))
        emb = embed_samples(params, real)
        ids = np.array([s.id for s in real])
        dist = (k_reciprocal_rerank(emb, emb, RerankParams(k1=4, k2=2))
                if rerank else pairwise_distances(emb, emb))
        expected = ["query_index,recall,precision"]
        for qi, row in enumerate(dist):
            order = np.argsort(row, kind="stable")
            matches = ids[order[order != qi]] == ids[qi]
            hits = np.cumsum(matches)
            expected += [f"{qi},{float(hits[p] / hits[-1])},"
                         f"{float(hits[p] / (p + 1))}"
                         for p in np.flatnonzero(matches)]
        assert pr.read_text().splitlines() == expected

    @pytest.mark.parametrize("narrow_set", ["query", "gallery"])
    def test_width_differs_from_checkpoint(self, trained, capsys,
                                           narrow_set):
        data, ckpt, tmp_path = trained
        _, narrow = run_gen(tmp_path, "narrow", ("--dim", "5"))
        sets = {"query": data / "real.jsonl", "gallery": data / "real.jsonl"}
        sets[narrow_set] = narrow / "real.jsonl"
        code = main(["eval", "--checkpoint", str(ckpt),
                     "--query", str(sets["query"]),
                     "--gallery", str(sets["gallery"]),
                     "--out", str(tmp_path / "narrow.json")])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert (f"error: checkpoint input_dim does not match {narrow_set} set"
                in err)
        assert "Traceback" not in err

    @pytest.mark.parametrize("empty_set", ["query", "gallery"])
    def test_empty_set_is_usage_error(self, trained, capsys, empty_set):
        data, ckpt, tmp_path = trained
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        sets = {"query": data / "real.jsonl", "gallery": data / "real.jsonl"}
        sets[empty_set] = empty
        out = tmp_path / "empty.json"
        code = main(["eval", "--checkpoint", str(ckpt),
                     "--query", str(sets["query"]),
                     "--gallery", str(sets["gallery"]), "--out", str(out)])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert f"error: {empty_set} set is empty" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_exclude_self_needs_the_query_set_as_gallery(self, trained,
                                                         capsys):
        data, ckpt, tmp_path = trained
        _, other = run_gen(tmp_path, "other", ("--seed", "1"))
        code = main(["eval", "--checkpoint", str(ckpt),
                     "--query", str(data / "real.jsonl"),
                     "--gallery", str(other / "real.jsonl"),
                     "--exclude-self", "--out", str(tmp_path / "ex.json")])
        assert code == EXIT_USAGE
        assert ("error: self-exclusion requires query set == gallery set"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("sizes", [("--k2", "0"), ("--k2", "-1"),
                                       ("--k1", "-3", "--k2", "-3")])
    def test_rerank_sizes_below_one_are_usage_errors(self, trained, capsys,
                                                     sizes):
        data, ckpt, tmp_path = trained
        code = main(["eval", "--checkpoint", str(ckpt),
                     "--query", str(data / "real.jsonl"),
                     "--gallery", str(data / "real.jsonl"),
                     "--rerank", *sizes, "--out", str(tmp_path / "k.json")])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert "error: k" in err and "Traceback" not in err

    def test_metric_is_not_a_setting(self, trained, capsys):
        # rankings are Euclidean: neither a flag nor a config file sets a
        # metric, and no report is written
        data, ckpt, tmp_path = trained
        out = tmp_path / "metric.json"
        cfg = tmp_path / "metric.cfg"
        cfg.write_text("metric=euclidean\n")
        base = ["eval", "--checkpoint", str(ckpt),
                "--query", str(data / "real.jsonl"),
                "--gallery", str(data / "real.jsonl"), "--out", str(out)]
        assert main(base + ["--metric", "euclidean"]) == EXIT_USAGE
        assert main(base + ["--config", str(cfg)]) == EXIT_USAGE
        assert f"{cfg}:1: unknown key 'metric'" in capsys.readouterr().err
        assert not out.exists()

    def test_self_set_eval_reads_and_stacks_once(self, trained, monkeypatch):
        # demo 04's eval: one file is the query and the gallery set
        data, ckpt, tmp_path = trained
        reads, gathers = [], []
        read, gather = cli.read_dataset, trainer._features

        def reading(path):
            reads.append(path)
            return read(path)

        def gathering(samples):
            gathers.append(len(samples))
            return gather(samples)
        monkeypatch.setattr(cli, "read_dataset", reading)
        monkeypatch.setattr(trainer, "_features", gathering)
        real = str(data / "real.jsonl")
        assert main(["eval", "--checkpoint", str(ckpt), "--query", real,
                     "--gallery", real, "--exclude-self", "--rerank",
                     "--k1", "6", "--k2", "2",
                     "--out", str(tmp_path / "self.json")]) == EXIT_OK
        assert reads == [real]
        assert gathers == [16]          # evaluate's one gather

    @pytest.mark.parametrize("features_equal", [True, False],
                             ids=["copy", "one-feature-differs"])
    def test_two_files_with_equal_ids_gather_each_set_once(
            self, trained, tmp_path, monkeypatch, features_equal):
        # a copy of the query file is the query set, embedded once; with one
        # feature changed it is a gallery of its own, embedded apart
        data, ckpt, _ = trained
        lines = (data / "real.jsonl").read_text().splitlines()
        if not features_equal:
            rec = json.loads(lines[3])
            rec["features"][0] += 1.0
            lines[3] = json.dumps(rec)
        copy = tmp_path / "copy.jsonl"
        copy.write_text("\n".join(lines) + "\n")
        (tmp_path / "copy.manifest.json").write_text(
            (data / "real.manifest.json").read_text())
        gathers, embeds = [], []
        gather, embed = trainer._features, trainer.embed_samples

        def gathering(samples):
            gathers.append(len(samples))
            return gather(samples)

        def embedding(params, samples):
            embeds.append(len(samples))
            return embed(params, samples)
        monkeypatch.setattr(trainer, "_features", gathering)
        monkeypatch.setattr(trainer, "embed_samples", embedding)
        reports = []
        for gallery in (data / "real.jsonl", copy):
            out = tmp_path / f"{gallery.stem}.json"
            assert main(["eval", "--checkpoint", str(ckpt),
                         "--query", str(data / "real.jsonl"),
                         "--gallery", str(gallery), "--rerank",
                         "--k1", "6", "--k2", "2", "--out", str(out)]) \
                == EXIT_OK
            reports.append(out.read_bytes())
        assert gathers == [16, 16, 16]  # the shared file, then each file
        assert embeds == [16, 16] if features_equal else [16, 16, 16]
        if features_equal:
            assert reports[0] == reports[1]

    @pytest.mark.parametrize("rerank", [(), ("--rerank", "--k1", "6")],
                             ids=["plain", "rerank"])
    @pytest.mark.parametrize("scale, reason", [
        (1e308, "the query set's embedding is not finite"),
        (1e306, "finite distances, but the squared distances overflow"),
    ], ids=["embedding", "distances"])
    def test_overflow_is_usage_error_without_a_warning(
            self, trained, tmp_path, scale, reason, rerank):
        # the first layer's weights scaled until the embedding overflows, or
        # only the squared distances between embeddings do
        data, ckpt, _ = trained
        params, _ = load_checkpoint(str(ckpt))
        w = params.embed_layers[0][0]
        w.data = w.data * scale
        bad = tmp_path / "big.ckpt"
        save_checkpoint(str(bad), params)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [SRC] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
        done = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "dareid.cli",
             "eval", "--checkpoint", str(bad),
             "--query", str(data / "real.jsonl"),
             "--gallery", str(data / "real.jsonl"), *rerank,
             "--out", str(tmp_path / "big.json")],
            env=env, capture_output=True, text=True)
        assert done.returncode == EXIT_USAGE, done.stderr
        assert done.stderr.startswith("error: ") and reason in done.stderr
        assert "Traceback" not in done.stderr
        assert "RuntimeWarning" not in done.stderr
        assert not (tmp_path / "big.json").exists()

    def test_missing_checkpoint_is_runtime_error(self, trained):
        data, _, tmp_path = trained
        code = main(["eval", "--checkpoint", str(tmp_path / "nope.bin"),
                     "--query", str(data / "real.jsonl"),
                     "--gallery", str(data / "real.jsonl"),
                     "--out", str(tmp_path / "e3.json")])
        assert code == EXIT_RUNTIME


class TestUsage:
    def test_no_command_is_usage_error(self):
        assert main([]) == EXIT_USAGE

    def test_unknown_flag_is_usage_error(self, tmp_path):
        assert main(["gen", "--out-dir", str(tmp_path), "--bogus"]) \
            == EXIT_USAGE


BAD_ROWS = {
    "nan": lambda f: f[:1] + [float("nan")] + f[2:],
    "inf": lambda f: f[:1] + [float("-inf")] + f[2:],
    "short": lambda f: f[:-1],
    "nested": lambda f: [f],
}


def _set(key, value):
    """A dataset line edit: the record with key set to value, as JSON."""
    return lambda rec: json.dumps({**rec, key: value})


# file-case -> edit of its third line; the file is real or synth
BAD_FIELDS = {
    "real-list-line": lambda rec: "[1, 2]",
    "real-number-line": lambda rec: "5",
    "real-list-domain": _set("domain", ["real"]),
    "real-float-id": _set("id", 2.9),
    "real-string-id": _set("id", "3"),
    "real-bool-id": _set("id", True),
    "synth-float-color": _set("color", 1.5),
    "synth-bool-color": _set("color", True),
    "synth-string-type": _set("type", "3"),
    "synth-float-type": _set("type", 2.9),
    "real-int64-overflow-id": _set("id", 2**63),
    "real-int64-underflow-id": _set("id", -2**63 - 1),
    "synth-huge-color": _set("color", 10**20),
    "synth-huge-type": _set("type", 10**20),
    "synth-nan-orientation": _set("orientation_deg", float("nan")),
    "synth-inf-orientation": _set("orientation_deg", float("inf")),
    "synth-string-orientation": _set("orientation_deg", "90"),
    "synth-bool-orientation": _set("orientation_deg", True),
    "real-string-features": lambda rec: json.dumps(
        {**rec, "features": [str(v) for v in rec["features"]]}),
    "real-bool-features": lambda rec: json.dumps(
        {**rec, "features": [True] * len(rec["features"])}),
}


class TestBadInput:
    @pytest.mark.parametrize("command", ["train", "eval"])
    @pytest.mark.parametrize("edit", BAD_ROWS.values(), ids=BAD_ROWS.keys())
    def test_bad_feature_row_names_its_line(self, trained, tmp_path, capsys,
                                            command, edit):
        data, ckpt, _ = trained
        lines = (data / "real.jsonl").read_text().splitlines()
        rec = json.loads(lines[2])
        rec["features"] = edit(rec["features"])
        lines[2] = json.dumps(rec)
        bad = tmp_path / "bad.jsonl"
        bad.write_text("\n".join(lines) + "\n")
        if command == "train":
            argv = ["train", "--data", str(bad), "--out-dir", str(tmp_path)]
        else:
            argv = ["eval", "--checkpoint", str(ckpt), "--query", str(bad),
                    "--gallery", str(data / "real.jsonl"),
                    "--out", str(tmp_path / "e.json")]
        assert main(argv) == EXIT_RUNTIME
        assert "line 3:" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_null_id_names_its_line(self, trained, tmp_path, capsys,
                                    command):
        data, ckpt, _ = trained
        lines = (data / "real.jsonl").read_text().splitlines()
        lines[2] = json.dumps({**json.loads(lines[2]), "id": None})
        bad = tmp_path / "bad.jsonl"
        bad.write_text("\n".join(lines) + "\n")
        out = tmp_path / "out"
        if command == "train":
            argv = ["train", "--data", str(bad), "--out-dir", str(out)]
        else:
            argv = ["eval", "--checkpoint", str(ckpt), "--query", str(bad),
                    "--gallery", str(data / "real.jsonl"), "--out", str(out)]
        assert main(argv) == EXIT_RUNTIME
        err = capsys.readouterr().err
        assert "line 3: id must be a 64-bit integer, got None" in err
        assert "Traceback" not in err and not out.exists()

    @pytest.mark.parametrize("name, edit", BAD_FIELDS.items(),
                             ids=BAD_FIELDS.keys())
    def test_bad_field_names_its_line(self, tmp_path, capsys, name, edit):
        # line 3 of either file; a synthetic row carries every field
        _, data = run_gen(tmp_path)
        path = data / f"{name.partition('-')[0]}.jsonl"
        lines = path.read_text().splitlines()
        lines[2] = edit(json.loads(lines[2]))
        path.write_text("\n".join(lines) + "\n")
        out = tmp_path / "run"
        assert run_train(data, out) == EXIT_RUNTIME
        err = capsys.readouterr().err
        assert f"error: {path}: line 3:" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_bytes_not_utf8_name_the_file_and_line(self, trained, tmp_path,
                                                   capsys, command):
        data, ckpt, _ = trained
        bad = tmp_path / "bad.jsonl"
        bad.write_bytes((data / "real.jsonl").read_bytes() + b"\xff\xfe")
        out = tmp_path / "out"
        if command == "train":
            argv = ["train", "--data", str(bad), "--out-dir", str(out)]
        else:
            argv = ["eval", "--checkpoint", str(ckpt), "--query", str(bad),
                    "--gallery", str(data / "real.jsonl"), "--out", str(out)]
        assert main(argv) == EXIT_RUNTIME
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: line 17: not UTF-8 (")
        assert err.count("\n") == 1 and not out.exists()

    @pytest.mark.parametrize("command", ["gen", "train", "eval"])
    def test_config_bytes_not_utf8_name_the_file_and_line(
            self, tmp_path, capsys, command):
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(b"# settings\nseed=1\xff\n")
        argv = {"gen": ["gen", "--out-dir", str(tmp_path / "o")],
                "train": ["train", "--data", "d", "--out-dir",
                          str(tmp_path / "o")],
                "eval": ["eval", "--checkpoint", "c", "--query", "q",
                         "--gallery", "g"]}
        assert main(argv[command] + ["--config", str(cfg)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cfg}:2: not UTF-8 (")
        assert err.count("\n") == 1 and not (tmp_path / "o").exists()

    @pytest.mark.parametrize("edit", [
        lambda text, ckpt: text[:len(text) // 2],
        lambda text, ckpt: json.dumps([ckpt]),
        lambda text, ckpt: json.dumps(
            {**ckpt, "params": {k: v for k, v in ckpt["params"].items()
                                if k != "embed.1.W"}}),
        lambda text, ckpt: json.dumps(
            {**ckpt, "config": {**ckpt["config"], "depth": 3}}),
        lambda text, ckpt: json.dumps(
            {**ckpt, "params": {**ckpt["params"], "embed.0.b": [[0.0]]}}),
        lambda text, ckpt: json.dumps(
            {**ckpt, "config": {**ckpt["config"],
                                "normalize_embeddings": True}}),
        lambda text, ckpt: json.dumps(      # json writes NaN
            {**ckpt, "params": {**ckpt["params"],
                                "embed.1.b": [[float("nan")] * 4]}}),
        lambda text, ckpt: json.dumps(
            {**ckpt, "params": {**ckpt["params"],
                                "embed.1.b": [[float("-inf")] * 4]}}),
        lambda text, ckpt: json.dumps(      # beyond float64
            {**ckpt, "params": {**ckpt["params"],
                                "embed.1.b": [[10**400] * 4]}}),
        lambda text, ckpt: json.dumps(
            {**ckpt, "config": {**ckpt["config"], "input_dim": float("nan")}}),
        lambda text, ckpt: json.dumps(      # the rows' width, as a float
            {**ckpt, "config": {**ckpt["config"], "input_dim": 6.0}}),
        lambda text, ckpt: json.dumps(
            {**ckpt, "config": {**ckpt["config"], "embed_dim": True}}),
        lambda text, ckpt: json.dumps(
            {**ckpt, "config": {**ckpt["config"], "head_class_counts": {
                **ckpt["config"]["head_class_counts"], "domain": 2.0}}}),
    ], ids=["truncated", "a-list", "missing-layer", "unknown-config-key",
            "wrong-shape", "normalised-embeddings", "nan-parameter",
            "infinite-parameter", "huge-int-parameter", "nan-input-dim",
            "float-input-dim", "bool-embed-dim", "float-domain-count"])
    def test_bad_checkpoint_names_the_file(self, trained, tmp_path, capsys,
                                           edit):
        data, ckpt, _ = trained
        text = ckpt.read_text()
        bad = tmp_path / "bad.ckpt"
        bad.write_text(edit(text, json.loads(text)))
        out = tmp_path / "e.json"
        assert main(["eval", "--checkpoint", str(bad),
                     "--query", str(data / "real.jsonl"),
                     "--gallery", str(data / "real.jsonl"),
                     "--out", str(out)]) == EXIT_RUNTIME
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: ") and "Traceback" not in err
        assert not out.exists()

    def test_checkpoint_with_normalisation_off_evaluates_the_same(
            self, trained, tmp_path):
        # checkpoints written before the setting was removed carry it
        data, ckpt, _ = trained
        old = tmp_path / "old.ckpt"
        stored = json.loads(ckpt.read_text())
        old.write_text(json.dumps(
            {**stored, "config": {**stored["config"],
                                  "normalize_embeddings": False}}))
        reports = []
        for path in (ckpt, old):
            out = tmp_path / f"{path.name}.json"
            assert main(["eval", "--checkpoint", str(path),
                         "--query", str(data / "real.jsonl"),
                         "--gallery", str(data / "real.jsonl"),
                         "--out", str(out)]) == EXIT_OK
            reports.append(out.read_bytes())
        assert reports[0] == reports[1]

    @pytest.mark.parametrize("command,line", [
        ("gen", "per_id=abc"), ("eval", "rerank=yes"),
        ("train", "losses=V,X"), ("train", "hidden_dims=x")])
    def test_bad_config_value_names_file_and_line(self, tmp_path, capsys,
                                                  command, line):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"# settings\n{line}\n")
        argv = {"gen": ["gen", "--out-dir", str(tmp_path / "o")],
                "train": ["train", "--data", "d", "--out-dir",
                          str(tmp_path / "o")],
                "eval": ["eval", "--checkpoint", "c", "--query", "q",
                         "--gallery", "g"]}
        code = main(argv[command] + ["--config", str(cfg)])
        assert code == EXIT_USAGE
        assert f"error: {cfg}:2: bad {line.split('=')[0]}:" \
            in capsys.readouterr().err


    @pytest.mark.parametrize("line,message", [
        ("hidden_dims=0", "hidden dims must be >= 1"),
        ("epochs=0", "epochs must be >= 1"),
        ("margin=-1", "triplet_margin must be finite and non-negative")])
    def test_config_value_out_of_range_names_file_and_line(
            self, tmp_path, capsys, line, message):
        _, data = run_gen(tmp_path)
        cfg = tmp_path / "range.cfg"
        cfg.write_text(f"# settings\nseed=3\n{line}\n")
        out = tmp_path / "o"
        code = main(["train", "--data", str(data / "real.jsonl"),
                     "--out-dir", str(out), "--config", str(cfg)])
        assert code == EXIT_USAGE
        assert f"error: {cfg}:3: {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_range_error_of_a_flag_names_no_config_line(self, tmp_path,
                                                        capsys):
        # the file's line is fine alone; the flag's value is at fault
        _, data = run_gen(tmp_path)
        cfg = tmp_path / "ok.cfg"
        cfg.write_text("epochs=2\n")
        code = main(["train", "--data", str(data / "real.jsonl"),
                     "--out-dir", str(tmp_path / "o"), "--config", str(cfg),
                     "--margin", "-1"])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert "error: triplet_margin must be" in err and str(cfg) not in err


TABLES = {"gen": GEN_OPTIONS, "train": TRAIN_OPTIONS, "eval": EVAL_OPTIONS}
REQUIRED_ARGS = {"gen": ["--out-dir", "o"],
                 "train": ["--data", "d", "--out-dir", "o"],
                 "eval": ["--checkpoint", "c", "--query", "q",
                          "--gallery", "g"]}
SAMPLE_TEXT = {int64: "7", float: "0.25", loss_letters: "V,D",
               layer_widths: "16,8", parse_bool: "true"}


@pytest.mark.parametrize("command,opt", [
    pytest.param(command, opt, id=f"{command}-{opt.key}")
    for command, table in TABLES.items() for opt in table])
def test_flag_and_config_file_set_the_same_value(tmp_path, command, opt):
    text = SAMPLE_TEXT[opt.type]
    name = "--" + opt.key.replace("_", "-")
    flag = [name] if opt.type is parse_bool else [name, text]
    cfg = tmp_path / "one.cfg"
    cfg.write_text(f"{opt.key}={text}\n")
    parser = build_parser()
    base = [command, *REQUIRED_ARGS[command]]
    by_flag = resolve_options(TABLES[command], parser.parse_args(base + flag))
    by_file = resolve_options(TABLES[command],
                              parser.parse_args(base + ["--config", str(cfg)]))
    assert by_flag[opt.key] != opt.default
    assert by_flag == by_file


@pytest.mark.parametrize("command,opt", [
    pytest.param(command, opt, id=f"{command}-{opt.key}")
    for command, table in TABLES.items() for opt in table
    if opt.type is int64])
@pytest.mark.parametrize("text", [str(10**20), str(-2**63 - 1)])
@pytest.mark.parametrize("where", ["flag", "config"])
def test_int_beyond_int64_is_usage_error_naming_the_option(
        tmp_path, capsys, command, opt, text, where):
    cfg = tmp_path / "big.cfg"
    cfg.write_text(f"{opt.key}={text}\n")
    name = "--" + opt.key.replace("_", "-")
    given = [name, text] if where == "flag" else ["--config", str(cfg)]
    assert main([command, *REQUIRED_ARGS[command], *given]) == EXIT_USAGE
    err = capsys.readouterr().err
    named = (f"argument {name}:" if where == "flag"
             else f"{cfg}:1: bad {opt.key}:")
    assert f"{named} {text} is outside the 64-bit integer range" in err
    assert "Traceback" not in err


def test_int64_bounds_are_inclusive():
    assert int64(" 9223372036854775807 ") == 2**63 - 1
    assert int64("-9223372036854775808") == -2**63


def test_exit_codes_are_the_documented_numbers(tmp_path):
    # the README documents the numbers, so they are compared as numbers
    assert (EXIT_OK, EXIT_RUNTIME, EXIT_USAGE, EXIT_DIVERGED) == (0, 1, 2, 3)
    code, data = run_gen(tmp_path)
    assert code == 0
    assert main(["train", "--data", str(tmp_path / "nope.jsonl"),
                 "--out-dir", str(tmp_path / "o")]) == 1
    assert main(["gen", "--out-dir", str(tmp_path / "g"), "--bogus"]) == 2
    assert run_train(data, tmp_path / "boom", ("--base-lr", "1e200")) == 3


BIG = "9223372036854775807"


def train_once(data, out, settings, where):
    """One training iteration with the (key, value) settings given as flags
    or as the lines of a config file; the other settings are defaults."""
    cfg = out.parent / f"{out.name}.cfg"
    cfg.write_text("".join(f"{k}={v}\n" for k, v in settings))
    given = (["--config", str(cfg)] if where == "config" else
             [a for k, v in settings for a in ("--" + k.replace("_", "-"), v)])
    return main(["train", "--data", str(data / "real.jsonl"),
                 "--synth", str(data / "synth.jsonl"), "--out-dir", str(out),
                 "--epochs", "1", "--iterations", "1", *given]), cfg


@pytest.mark.parametrize("settings, named", [
    ((("m", BIG),), "a batch's 36893488147419103228 x 6 features (n, m)"),
    ((("n", "3"), ("m", "4611686018427387904")), "features (n, m)"),
    ((("embed_dim", BIG),),
     f"layer 1's 32 x {BIG} weights (hidden_dims, embed_dim)"),
    ((("hidden_dims", BIG),), f"layer 0's 6 x {BIG} weights (hidden_dims"),
    ((("orientation_bins", BIG),),
     f"the orientation head's 16 x {BIG} weights (embed_dim, "
     "orientation_bins)"),
    ((("seed", "-1"),), "seed must be >= 0"),
], ids=["m", "n-and-m", "embed_dim", "hidden_dims", "orientation_bins",
        "seed"])
@pytest.mark.parametrize("where", ["flag", "config"])
def test_setting_no_run_can_use_leaves_no_out_dir(tmp_path, capsys, settings,
                                                 named, where):
    # a batch or weights beyond what NumPy can address, or a seed NumPy
    # rejects, used to fail at the first use, after the out-dir was made
    _, data = run_gen(tmp_path)
    capsys.readouterr()
    out = tmp_path / "run"
    code, cfg = train_once(data, out, settings, where)
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    # the last line is at fault: with two, the first is fine alone
    line = f"{cfg}:{len(settings)}: " if where == "config" else ""
    assert err.startswith(f"error: {line}") and named in err
    assert err.count("\n") == 1 and not out.exists()


@pytest.mark.parametrize("where", ["flag", "config"])
def test_gen_seed_below_zero_names_the_seed(tmp_path, capsys, where):
    cfg = tmp_path / "seed.cfg"
    cfg.write_text("seed=-1\n")
    out = tmp_path / "data"
    given = ["--seed", "-1"] if where == "flag" else ["--config", str(cfg)]
    assert main(["gen", "--out-dir", str(out), *given]) == EXIT_USAGE
    named = f"{cfg}:1: " if where == "config" else ""
    assert f"error: {named}seed must be >= 0" in capsys.readouterr().err
    assert not out.exists()


def test_report_embedding_that_overflows_names_the_real_set(tmp_path,
                                                            capsys):
    # one step at lr 1e300 leaves finite weights whose real-set embedding
    # overflows; the run's files stay, and no report is written
    _, data = run_gen(tmp_path)
    capsys.readouterr()
    out = tmp_path / "run"
    code, _ = train_once(data, out, [("base_lr", "1e300")], "flag")
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: the real set's embedding is not finite")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert sorted(p.name for p in out.iterdir()) == [
        "checkpoint.bin", "config.echo", "run.log.jsonl"]


def test_step_that_overflows_the_parameters_diverges(tmp_path, capsys):
    # one step at lr 1e308 overflows the weights: the run stops as
    # diverged, and no checkpoint holds the inf weights
    _, data = run_gen(tmp_path)
    capsys.readouterr()
    out = tmp_path / "run"
    code, _ = train_once(data, out, [("base_lr", "1e308")], "flag")
    assert code == EXIT_DIVERGED
    assert capsys.readouterr().err == "training diverged at iteration 1\n"
    assert json.loads((out / "report.json").read_text()) == {
        "status": "diverged", "iteration": 1}
    assert sorted(p.name for p in out.iterdir()) == [
        "config.echo", "report.json", "run.log.jsonl"]


@pytest.mark.parametrize("existing", [None, "a run log from before\n"])
def test_run_log_write_that_raises_leaves_the_file_as_it_was(tmp_path,
                                                             existing):
    # the second row is no JSON, so the first has been written when it
    # raises; neither the row nor the temporary file is left behind
    target = tmp_path / "run.log.jsonl"
    if existing is not None:
        target.write_text(existing)
    with pytest.raises(TypeError):
        cli._write_run_log(str(tmp_path), [{"iteration": 1},
                                           {"iteration": object()}])
    if existing is None:
        assert not target.exists()
    else:
        assert target.read_text() == existing
    assert [p.name for p in tmp_path.iterdir()] == (
        [] if existing is None else ["run.log.jsonl"])


EDGE_OPTIONS = ("n", "m", "embed_dim", "orientation_bins", "hidden_dims",
                "seed", "margin", "grl_lambda", "disjoint_weight", "base_lr")
EDGE_VALUES = (BIG, "-1", "0", "nan", "inf", "1e308")


def edge_cases(seed=27, pairs=24):
    """Each option at each edge value, then seeded pairs of two options at
    once; each as flags and as config lines."""
    cases = [((opt, value),) for opt in EDGE_OPTIONS for value in EDGE_VALUES]
    rng = random.Random(seed)
    cases += [tuple(zip(rng.sample(EDGE_OPTIONS, 2),
                        rng.choices(EDGE_VALUES, k=2))) for _ in range(pairs)]
    return [(case, where) for case in cases for where in ("flag", "config")]


def test_edge_values_of_numeric_settings(tmp_path, capsys):
    # epochs and iterations are left out: their largest values are runs
    # that never end
    _, data = run_gen(tmp_path)
    for i, (settings, where) in enumerate(edge_cases()):
        out = tmp_path / f"run{i}"
        capsys.readouterr()
        code, _ = train_once(data, out, settings, where)
        err = capsys.readouterr().err
        case = (settings, where, code, err)
        assert code in (0, 1, 2, 3), case
        assert sum("error:" in line for line in err.splitlines()) <= 1, case
        if code in (1, 2) and out.exists():
            # failed after training, whose run log is written first
            assert (out / "run.log.jsonl").exists(), case
