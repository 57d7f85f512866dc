import json
import os

import numpy as np
import pytest

from dareid import cli
from dareid.cli import (EVAL_OPTIONS, EXIT_DIVERGED, EXIT_OK, EXIT_RUNTIME,
                        EXIT_USAGE, GEN_OPTIONS, TRAIN_OPTIONS, build_parser,
                        main, parse_bool, resolve_options)
from dareid.datagen import read_dataset
from dareid.evaluation import (RerankParams, k_reciprocal_rerank,
                               pairwise_distances)
from dareid.network import load_checkpoint
from dareid.trainer import embed_samples


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

    def test_repeat_run_is_byte_identical(self, tmp_path):
        _, data = run_gen(tmp_path)
        a, b = tmp_path / "ra", tmp_path / "rb"
        assert run_train(data, a) == EXIT_OK
        assert run_train(data, b) == EXIT_OK
        for name in ("run.log.jsonl", "checkpoint.bin", "report.json",
                     "config.echo"):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

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

    def test_missing_id_loss_rejected(self, tmp_path):
        _, data = run_gen(tmp_path)
        code = run_train(data, tmp_path / "z", ("--losses", "D,O"))
        assert code == EXIT_USAGE

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
        monkeypatch.setattr(cli, "embed_samples", counting)
        report = cli._final_report(params, real, None)
        assert calls == [24]
        assert report["mAP_reranked"] is not None
        written = json.loads((out / "report.json").read_text())
        assert {**report, "status": "completed"} == written

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_divergence_exit_code_and_report(self, tmp_path):
        _, data = run_gen(tmp_path)
        out = tmp_path / "boom"
        code = run_train(data, out, ("--base-lr", "1e200"))
        assert code == EXIT_DIVERGED
        report = json.loads((out / "report.json").read_text())
        assert report["status"] == "diverged" and report["iteration"] >= 1
        assert not (out / "checkpoint.bin").exists()


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
        assert report["config"]["top_k"] == 7
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

    @pytest.mark.parametrize("command,line", [
        ("gen", "per_id=abc"), ("train", "normalize_embeddings=yes")])
    def test_bad_config_value_names_file_and_line(self, tmp_path, capsys,
                                                  command, line):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"# settings\n{line}\n")
        argv = {"gen": ["gen"],
                "train": ["train", "--data", str(tmp_path / "d.jsonl")]}
        code = main(argv[command] + ["--config", str(cfg),
                                     "--out-dir", str(tmp_path / "o")])
        assert code == EXIT_USAGE
        assert f"error: {cfg}:2: bad {line.split('=')[0]}:" \
            in capsys.readouterr().err


TABLES = {"gen": GEN_OPTIONS, "train": TRAIN_OPTIONS, "eval": EVAL_OPTIONS}
REQUIRED_ARGS = {"gen": ["--out-dir", "o"],
                 "train": ["--data", "d", "--out-dir", "o"],
                 "eval": ["--checkpoint", "c", "--query", "q",
                          "--gallery", "g"]}
SAMPLE_TEXT = {int: "7", float: "0.25", str: "V,D", parse_bool: "true"}


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
