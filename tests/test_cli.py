"""End-to-end CLI coverage: every subcommand, exit codes, determinism, and
artifact layout.  Runs in-process via main(argv)."""

import contextlib
import hashlib
import json
import os
import shutil
import struct

import numpy as np
import pytest

from sydes.checkpoint import MAGIC, load_checkpoint, read_checkpoint, save_checkpoint
from sydes import cli
from sydes import tensor as T
from sydes.cli import main
from sydes.config import RunConfig, full_scale_profile, merge_json
from sydes.model import SydesModel
from sydes.ppm import write_ppm

FAST_CONFIG = {
    "encoder": {"image_dim": 16, "text_dim": 16, "image_layers": 1,
                "text_layers": 1, "image_heads": 2, "text_heads": 2,
                "seq_len": 16},
    "decoder_layers": 1,
    "pretrain": {"epochs": 2, "batch_size": 4},
    "finetune": {"epochs": 2, "batch_size": 4},
}


def read_bytes(path):
    with open(path, "rb") as f:
        return f.read()


def read_text(path):
    with open(path, encoding="utf-8") as f:
        return f.read()


def resave(src, dst, edit):
    """Save checkpoint ``src`` again as ``dst`` with its meta passed
    through ``edit``; returns ``dst``."""
    meta, rng, _ = read_checkpoint(src)
    cfg = RunConfig.from_dict(meta["run_config"])
    model = SydesModel(cfg.image, cfg.encoder, len(meta["vocab"]),
                       decoder_layers=cfg.decoder_layers,
                       decoder_heads=cfg.decoder_heads)
    load_checkpoint(src, model)
    save_checkpoint(dst, model, rng, edit(meta))
    return dst


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Shared corpus + config + pretrain checkpoint for the command tests."""
    root = tmp_path_factory.mktemp("cli")
    data = str(root / "data")
    cfg_path = str(root / "config.json")
    cfg = dict(FAST_CONFIG)
    cfg["data_dir"] = data
    with open(cfg_path, "w") as f:
        json.dump(cfg, f)
    rc = main(["gen-data", "--config", cfg_path, "--out", data,
               "--n", "12", "--val-n", "8", "--test-n", "8", "--seed", "0"])
    assert rc == 0
    out = str(root / "run")
    rc = main(["pretrain", "--config", cfg_path, "--data", data,
               "--out", out, "--seed", "0"])
    assert rc == 0
    return {"root": root, "data": data, "config": cfg_path, "out": out,
            "ckpt": os.path.join(out, "pretrain-epoch2.ckpt")}


class TestGenData:
    def test_writes_manifests_and_images(self, workspace):
        data = workspace["data"]
        for split, count in (("train", 12), ("val", 8), ("test", 8)):
            path = os.path.join(data, f"{split}.jsonl")
            assert os.path.isfile(path)
            assert len(read_text(path).strip().split("\n")) == count
        images = os.listdir(os.path.join(data, "images"))
        assert len(images) == 28

    def test_seed_repeat_identical_bytes(self, tmp_path):
        for sub in ("a", "b"):
            rc = main(["gen-data", "--out", str(tmp_path / sub), "--n", "4",
                       "--seed", "3"])
            assert rc == 0
        a = read_text(tmp_path / "a" / "train.jsonl")
        b = read_text(tmp_path / "b" / "train.jsonl")
        assert a == b


class TestPretrain:
    def test_artifacts(self, workspace):
        out = workspace["out"]
        assert os.path.isfile(workspace["ckpt"])
        assert os.path.isfile(os.path.join(out, "pretrain-log.csv"))
        assert os.path.isfile(os.path.join(out, "vocab.txt"))

    def test_seed_repeat_identical_checkpoint(self, workspace, tmp_path):
        out2 = str(tmp_path / "again")
        rc = main(["pretrain", "--config", workspace["config"],
                   "--data", workspace["data"], "--out", out2, "--seed", "0"])
        assert rc == 0
        a = read_bytes(workspace["ckpt"])
        b = open(os.path.join(out2, "pretrain-epoch2.ckpt"), "rb").read()
        assert a == b

    def test_mask_ratio_override_logged(self, workspace, tmp_path, capsys):
        out2 = str(tmp_path / "mask")
        rc = main(["pretrain", "--config", workspace["config"],
                   "--data", workspace["data"], "--out", out2, "--seed", "0",
                   "--mask-ratio", "0.25", "--epochs", "1"])
        assert rc == 0
        captured = capsys.readouterr().out
        assert "0.25" in captured and "12/16" in captured

    def test_kept_patch_count_rounds_half_up(self, workspace, tmp_path, capsys):
        # (1 - 0.34375) * 16 = 10.5 patches: masking keeps 11, so the line says 11.
        rc = main(["pretrain", "--config", workspace["config"],
                   "--data", workspace["data"], "--out", str(tmp_path / "half"),
                   "--seed", "0", "--mask-ratio", "0.34375", "--epochs", "1"])
        assert rc == 0
        assert "(11/16 patches kept)" in capsys.readouterr().out

    @pytest.mark.parametrize("unbuffered", ["1", ""])
    def test_closed_stdout_exits_141_without_traceback(self, workspace, tmp_path,
                                                       unbuffered):
        """Standard output closed by its reader (``| head -1``): the command
        exits 141 with nothing on stderr.  Unbuffered, its first ``print``
        raises, so it stops there, as under SIGPIPE; buffered, the flush after
        the command raises, once the checkpoint is written."""
        import subprocess
        import sys

        read_end, write_end = os.pipe()
        os.close(read_end)
        src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
        env = dict(os.environ, PYTHONPATH=src, PYTHONUNBUFFERED=unbuffered)
        out = str(tmp_path / "closed")
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "sydes.cli", "pretrain",
                 "--config", workspace["config"], "--data", workspace["data"],
                 "--out", out, "--seed", "0", "--epochs", "1"],
                stdout=write_end, stderr=subprocess.PIPE, text=True, env=env)
        finally:
            os.close(write_end)
        assert proc.returncode == cli.EXIT_BROKEN_PIPE == 141
        assert proc.stderr == ""
        assert os.path.isfile(os.path.join(out, "pretrain-epoch1.ckpt")) == (not unbuffered)

    def test_missing_manifest_is_data_error(self, workspace, tmp_path):
        rc = main(["pretrain", "--config", workspace["config"],
                   "--data", str(tmp_path / "empty"), "--out", str(tmp_path / "o")])
        assert rc == 2

    @pytest.mark.parametrize("height, width", [(64, 32), (32, 64)], ids=["narrow", "short"])
    def test_wrong_image_size_is_data_error_naming_file(self, workspace, tmp_path, capsys,
                                                        height, width):
        data = tmp_path / "data"
        shutil.copytree(workspace["data"], data)
        first = json.loads((data / "train.jsonl").read_text().splitlines()[0])
        image = os.path.join(data, first["image"])
        write_ppm(image, np.zeros((height, width, 3)))
        rc = main(["pretrain", "--config", workspace["config"], "--data", str(data),
                   "--out", str(tmp_path / "o"), "--epochs", "1"])
        assert rc == 2
        err = capsys.readouterr().err
        assert image in err and f"got {width}x{height}" in err and "Traceback" not in err

    def test_truncated_pixel_data_is_data_error_naming_file(self, workspace, tmp_path, capsys):
        data = tmp_path / "data"
        shutil.copytree(workspace["data"], data)
        first = json.loads((data / "train.jsonl").read_text().splitlines()[0])
        image = os.path.join(data, first["image"])
        blob = read_bytes(image)
        with open(image, "wb") as f:
            f.write(blob[:-100])
        rc = main(["pretrain", "--config", workspace["config"], "--data", str(data),
                   "--out", str(tmp_path / "o"), "--epochs", "1"])
        assert rc == 2
        err = capsys.readouterr().err
        n = 64 * 64 * 3
        assert f"{image}: expected {n} pixel bytes, found {n - 100}" in err
        assert "Traceback" not in err and not os.path.exists(tmp_path / "o" / "pretrain-epoch1.ckpt")


@pytest.fixture(scope="module")
def finetuned(workspace):
    out = str(workspace["root"] / "ft")
    rc = main(["finetune", "--task", "sentiment",
               "--checkpoint", workspace["ckpt"],
               "--data", workspace["data"], "--out", out, "--seed", "0"])
    assert rc == 0
    return os.path.join(out, "sentiment", "finetune-epoch2.ckpt")


class TestFinetuneEval:
    def test_finetune_artifacts(self, finetuned):
        assert os.path.isfile(finetuned)
        assert os.path.isfile(os.path.join(os.path.dirname(finetuned),
                                           "finetune-log.csv"))

    def test_eval_reports_metrics(self, workspace, finetuned, tmp_path, capsys):
        rc = main(["eval", "--checkpoint", finetuned, "--data", workspace["data"],
                   "--split", "test", "--out", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "macro F1" in out and "task: sentiment" in out
        report = json.load(open(tmp_path / "metrics-sentiment-test.json"))
        assert set(report) >= {"accuracy", "precision", "recall", "macro_f1"}

    def test_no_itc_flag(self, workspace, tmp_path):
        out = str(tmp_path / "noitc")
        rc = main(["finetune", "--task", "emotion",
                   "--checkpoint", workspace["ckpt"],
                   "--data", workspace["data"], "--out", out, "--seed", "0",
                   "--no-itc", "--epochs", "1"])
        assert rc == 0
        log = open(os.path.join(out, "emotion", "finetune-log.csv")).read()
        # with the contrastive weight zeroed, loss column equals cls column
        rows = [line.split(",") for line in log.strip().split("\n")]
        li, ci = rows[0].index("loss"), rows[0].index("cls")
        for row in rows[1:]:
            assert row[li] == row[ci]

    @pytest.mark.parametrize("command", ["finetune", "eval"])
    def test_embedded_vocab_without_reserved_prefix_is_data_error(
            self, workspace, tmp_path, capsys, command):
        """A checkpoint whose vocab does not start with <pad> <cls> <unk>
        would shift every token id; it is refused, naming the file."""
        bad = resave(workspace["ckpt"], str(tmp_path / "swapped.ckpt"), lambda meta: {
            **meta, "vocab": [meta["vocab"][1], meta["vocab"][0], *meta["vocab"][2:]]})
        rc = main([command, "--task", "sentiment", "--checkpoint", bad,
                   "--data", workspace["data"], "--out", str(tmp_path / "o")])
        assert rc == 2
        assert bad in capsys.readouterr().err

    def test_truncated_checkpoint_is_data_error(self, finetuned, workspace, tmp_path, capsys):
        bad = tmp_path / "cut.ckpt"
        raw = read_bytes(finetuned)
        bad.write_bytes(raw[:len(raw) // 2])
        rc = main(["eval", "--checkpoint", str(bad), "--data", workspace["data"],
                   "--split", "test", "--out", str(tmp_path / "o")])
        assert rc == 2
        err = capsys.readouterr().err
        assert str(bad) in err and "Traceback" not in err

    def test_header_entry_without_offset_is_data_error(self, finetuned, workspace,
                                                       tmp_path, capsys):
        raw = read_bytes(finetuned)
        start = len(MAGIC) + 8
        (hlen,) = struct.unpack("<Q", raw[len(MAGIC):start])
        header = json.loads(raw[start:start + hlen])
        del header["params"][0]["offset"]
        blob = json.dumps(header).encode()
        bad = tmp_path / "no-offset.ckpt"
        bad.write_bytes(MAGIC + struct.pack("<Q", len(blob)) + blob + raw[start + hlen:])
        rc = main(["eval", "--checkpoint", str(bad), "--data", workspace["data"],
                   "--split", "test", "--out", str(tmp_path / "o")])
        assert rc == 2
        err = capsys.readouterr().err
        assert str(bad) in err and "offset" in err and "Traceback" not in err

    def test_missing_checkpoint_fails(self, workspace, tmp_path):
        rc = main(["finetune", "--task", "sentiment",
                   "--checkpoint", str(tmp_path / "nope.ckpt"),
                   "--data", workspace["data"], "--out", str(tmp_path / "o")])
        assert rc != 0


class TestConfigSources:
    def test_finetune_config_file_merges_over_checkpoint_config(self, workspace, tmp_path):
        """The --config file changes only what it names; the rest comes from
        the checkpoint's embedded config, not from the defaults."""
        pre_cfg = tmp_path / "pre.json"
        pre_cfg.write_text(json.dumps({**FAST_CONFIG, "tau": 0.1}))
        pre_out = str(tmp_path / "pre")
        assert main(["pretrain", "--config", str(pre_cfg), "--data", workspace["data"],
                     "--out", pre_out, "--epochs", "1"]) == 0
        ft_cfg = tmp_path / "ft.json"
        ft_cfg.write_text(json.dumps({"finetune": {"epochs": 1}}))
        out = str(tmp_path / "ft")
        assert main(["finetune", "--config", str(ft_cfg), "--task", "desire",
                     "--checkpoint", os.path.join(pre_out, "pretrain-epoch1.ckpt"),
                     "--data", workspace["data"], "--out", out]) == 0
        meta, _, _ = read_checkpoint(os.path.join(out, "desire", "finetune-epoch1.ckpt"))
        cfg = RunConfig.from_dict(meta["run_config"])
        assert cfg.tau == 0.1 and cfg.task == "desire"
        assert cfg.finetune.epochs == 1 and cfg.finetune.batch_size == 4
        assert cfg.encoder == RunConfig.from_dict(FAST_CONFIG).encoder

    def test_float_over_int_valued_float_field_in_checkpoint(self, workspace, tmp_path):
        """A checkpoint trained with an int in a float field (tau 1) can be
        fine-tuned with a --config file that sets a float there."""
        pre_cfg = tmp_path / "pre.json"
        pre_cfg.write_text(json.dumps({**FAST_CONFIG, "tau": 1}))
        pre_out = str(tmp_path / "pre")
        assert main(["pretrain", "--config", str(pre_cfg), "--data", workspace["data"],
                     "--out", pre_out, "--epochs", "1"]) == 0
        ft_cfg = tmp_path / "ft.json"
        ft_cfg.write_text(json.dumps({"tau": 0.5}))
        out = str(tmp_path / "ft")
        assert main(["finetune", "--config", str(ft_cfg), "--task", "desire",
                     "--checkpoint", os.path.join(pre_out, "pretrain-epoch1.ckpt"),
                     "--data", workspace["data"], "--out", out, "--epochs", "1"]) == 0
        meta, _, _ = read_checkpoint(os.path.join(out, "desire", "finetune-epoch1.ckpt"))
        assert RunConfig.from_dict(meta["run_config"]).tau == 0.5

    def test_no_itc_flag_over_int_weight_in_config_file(self, workspace, tmp_path):
        ft_cfg = tmp_path / "ft.json"
        ft_cfg.write_text(json.dumps({"finetune": {"weights": {"itc": 1}}}))
        out = str(tmp_path / "ft")
        assert main(["finetune", "--config", str(ft_cfg), "--task", "emotion",
                     "--checkpoint", workspace["ckpt"], "--data", workspace["data"],
                     "--out", out, "--no-itc", "--epochs", "1"]) == 0
        meta, _, _ = read_checkpoint(os.path.join(out, "emotion", "finetune-epoch1.ckpt"))
        assert meta["run_config"]["finetune"]["weights"]["itc"] == 0.0

    def test_mask_ratio_flag_over_int_ratio_in_config_file(self, workspace, tmp_path, capsys):
        cfg = tmp_path / "pre.json"
        cfg.write_text(json.dumps({**FAST_CONFIG, "pretrain": {**FAST_CONFIG["pretrain"],
                                                               "mask_ratio": 0}}))
        assert main(["pretrain", "--config", str(cfg), "--data", workspace["data"],
                     "--out", str(tmp_path / "o"), "--mask-ratio", "0.25",
                     "--epochs", "1"]) == 0
        assert "(12/16 patches kept)" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["finetune", "eval", "reconstruct"])
    @pytest.mark.parametrize("run_config, field", [
        (5, "config must be an object"), ({"tau": -1.0}, "tau"),
        ({"pretrain": {"epochs": "2"}}, "pretrain: epochs")])
    def test_bad_embedded_config_is_data_error(self, workspace, tmp_path, capsys,
                                               command, run_config, field):
        bad = resave(workspace["ckpt"], str(tmp_path / "bad-config.ckpt"), lambda meta: {
            **meta, "run_config": ({**meta["run_config"], **run_config}
                                   if isinstance(run_config, dict) else run_config)})
        rc = main([command, "--checkpoint", bad, "--data", workspace["data"],
                   "--out", str(tmp_path / "o")])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"{bad}: embedded run_config: {field}" in err and "Traceback" not in err

    @pytest.mark.parametrize("command", ["finetune", "eval", "reconstruct"])
    @pytest.mark.parametrize("vocab", [5, None, "nested", "int"])
    def test_bad_embedded_vocab_is_data_error(self, workspace, tmp_path, capsys,
                                              command, vocab):
        bad = resave(workspace["ckpt"], str(tmp_path / "bad-vocab.ckpt"), lambda meta: {
            **meta, "vocab": {"nested": [*meta["vocab"], ["x"]],
                              "int": [*meta["vocab"], 7]}.get(vocab, vocab)})
        rc = main([command, "--checkpoint", bad, "--data", workspace["data"],
                   "--out", str(tmp_path / "o")])
        assert rc == 2
        err = capsys.readouterr().err
        assert (f"{bad}: embedded vocab: expected a list of token strings" in err
                and "Traceback" not in err)

    @pytest.mark.parametrize("key, value", [("text", 5), ("image", 7), ("id", None)])
    def test_manifest_field_of_wrong_type_is_data_error(self, workspace, tmp_path, capsys,
                                                        key, value):
        with open(os.path.join(workspace["data"], "train.jsonl")) as f:
            rows = [json.loads(line) for line in f]
        for row in rows:
            row["image"] = os.path.join(workspace["data"], row["image"])
        rows[1][key] = value
        data = tmp_path / "data"
        data.mkdir()
        (data / "train.jsonl").write_text("".join(json.dumps(r) + "\n" for r in rows))
        rc = main(["pretrain", "--config", workspace["config"], "--data", str(data),
                   "--out", str(tmp_path / "o"), "--epochs", "1"])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"train.jsonl:2: {key} must be a string" in err and "Traceback" not in err

    @pytest.mark.parametrize("sid", ["sub/dir", "../x", "a\\b", "a\0b"],
                             ids=["slash", "parent", "backslash", "nul"])
    def test_manifest_id_with_path_separator_is_data_error(self, workspace, tmp_path, capsys,
                                                           sid):
        """Ids name the files ``reconstruct`` writes, so one that could
        leave ``--out`` is rejected where the manifest is read."""
        with open(os.path.join(workspace["data"], "train.jsonl")) as f:
            rows = [json.loads(line) for line in f]
        for row in rows:
            row["image"] = os.path.join(workspace["data"], row["image"])
        rows[1]["id"] = sid
        data = tmp_path / "data"
        data.mkdir()
        (data / "train.jsonl").write_text("".join(json.dumps(r) + "\n" for r in rows))
        rc = main(["reconstruct", "--checkpoint", workspace["ckpt"], "--data", str(data),
                   "--out", str(tmp_path / "o"), "--n", "12"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "train.jsonl:2: id" in err and "Traceback" not in err

    def test_to_dict_unchanged(self):
        """Merging keeps every serialized config byte for byte."""
        pinned = {
            "desk": (RunConfig(), "02d5ef0bbf1c12d84657d7906d36b8ed"),
            "full": (full_scale_profile(), "d538435489a786128a9ac593b43c498b"),
            "fast": (RunConfig.from_dict(FAST_CONFIG), "d0030ee745d9e7bdafeee05fd5ef1b98"),
        }
        for name, (cfg, digest) in pinned.items():
            blob = json.dumps(cfg.to_dict(), sort_keys=True).encode()
            assert hashlib.sha256(blob).hexdigest()[:32] == digest, name
            assert RunConfig.from_dict(cfg.to_dict()) == cfg, name


class TestReconstruct:
    def test_writes_triptychs_and_attention(self, workspace, tmp_path):
        out = str(tmp_path / "recon")
        rc = main(["reconstruct", "--checkpoint", workspace["ckpt"],
                   "--data", workspace["data"], "--out", out,
                   "--mask-ratio", "0.75", "--n", "2", "--seed", "1"])
        assert rc == 0
        files = os.listdir(out)
        trips = [f for f in files if f.startswith("triptych-")]
        attns = [f for f in files if f.startswith("attention-")]
        assert len(trips) == 2
        assert len(attns) == 2 * 4  # two samples x default four decoder heads
        from sydes.ppm import read_ppm
        img = read_ppm(os.path.join(out, sorted(trips)[0]))
        assert img.shape == (64, 3 * 64, 3)
        grid = np.loadtxt(os.path.join(out, sorted(attns)[0]), delimiter=",")
        assert grid.shape == (15, 5 * 17)  # (S-1) x 5(P+1)
        assert np.all(np.abs(grid.sum(axis=1) - 1.0) < 1e-6)

    def test_records_no_tape_and_writes_the_tracked_bytes(self, workspace, tmp_path,
                                                          monkeypatch):
        args = ["reconstruct", "--checkpoint", workspace["ckpt"], "--data", workspace["data"],
                "--mask-ratio", "0.75", "--n", "2", "--seed", "1"]
        tracked = []
        track = T._track

        def recording_track(data, parents, vjp):
            out = track(data, parents, vjp)
            tracked.append(out.requires_grad)
            return out

        monkeypatch.setattr(T, "_track", recording_track)
        assert main([*args, "--out", str(tmp_path / "plain")]) == 0
        assert tracked and not any(tracked)
        # The same forwards with the tape recorded write the same bytes.
        monkeypatch.setattr(cli, "no_grad", contextlib.nullcontext)
        assert main([*args, "--out", str(tmp_path / "taped")]) == 0
        assert any(tracked)
        names = sorted(os.listdir(tmp_path / "plain"))
        assert names == sorted(os.listdir(tmp_path / "taped")) and len(names) == 2 + 2 * 4
        for name in names:
            assert (read_bytes(tmp_path / "plain" / name)
                    == read_bytes(tmp_path / "taped" / name)), name

    def test_mask_ratio_zero_rejected(self, workspace, tmp_path):
        rc = main(["reconstruct", "--checkpoint", workspace["ckpt"],
                   "--data", workspace["data"], "--out", str(tmp_path / "x"),
                   "--mask-ratio", "0"])
        assert rc == 1


@pytest.mark.parametrize("command, ratio", [("pretrain", "0"), ("pretrain", "0.01"),
                                            ("reconstruct", "0.01")])
def test_mask_ratio_masking_no_patch_exit_1(workspace, tmp_path, capsys, command, ratio):
    args = ["--data", workspace["data"], "--out", str(tmp_path / "o"), "--mask-ratio", ratio]
    if command == "pretrain":
        args += ["--config", workspace["config"], "--epochs", "1"]
    else:
        args += ["--checkpoint", workspace["ckpt"]]
    assert main([command, *args]) == 1
    err = capsys.readouterr().err
    assert f"mask ratio {float(ratio)}" in err and "P=16" in err and "Traceback" not in err


@pytest.mark.parametrize("command", ["pretrain", "finetune", "reconstruct"])
def test_missing_manifest_leaves_no_output_dir(workspace, tmp_path, capsys, command):
    out = tmp_path / "o"
    args = ["--data", str(tmp_path / "empty"), "--out", str(out)]
    if command == "pretrain":
        args += ["--config", workspace["config"]]
    else:
        args += ["--checkpoint", workspace["ckpt"]]
    assert main([command, *args]) == 2
    assert "train.jsonl" in capsys.readouterr().err and not out.exists()


@pytest.mark.parametrize("command, kind", [("pretrain", "finetune"), ("finetune", "pretrain")])
def test_stage_of_the_other_kind_is_config_error(workspace, tmp_path, capsys, command, kind):
    """A config section must hold its own stage: ``finetune`` once ran masked
    pretraining and then died with a KeyError, and ``pretrain`` left
    ``vocab.txt`` behind before it failed."""
    cfg, out = tmp_path / "c.json", tmp_path / "o"
    cfg.write_text(json.dumps({command: {"stage": kind}}))
    args = ["--config", str(cfg), "--data", workspace["data"], "--out", str(out)]
    if command == "finetune":
        args += ["--checkpoint", workspace["ckpt"]]
    assert main([command, *args]) == 1
    err = capsys.readouterr().err
    assert f"{cfg}: {command}.stage" in err and "Traceback" not in err
    assert not out.exists()


class TestGradcheckCommand:
    def test_passes_and_prints_lines(self, capsys):
        rc = main(["gradcheck", "--cases", "3", "--seed", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        for name in ("rec", "itc", "si", "dc", "cls", "pretrain_total", "finetune_total"):
            assert name in out
        assert "pass" in out


class TestUsage:
    def test_unknown_command_exit_1(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 1

    def test_bad_flag_exit_1(self):
        with pytest.raises(SystemExit) as exc:
            main(["pretrain", "--nonsense"])
        assert exc.value.code == 1

    def test_bad_config_file_exit_1(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"bogus_key": 1}')
        rc = main(["pretrain", "--config", str(bad), "--data", str(tmp_path)])
        assert rc == 1

    @pytest.mark.parametrize("config, flags, field", [
        ({"pretrain": {"batch_size": 0}}, [], "pretrain: batch_size"),
        ({"pretrain": {"epochs": 0}}, [], "pretrain: epochs"),
        ({}, ["--epochs", "0"], "epochs"),
        ({"pretrain": {"epochs": "2"}}, [], "pretrain: epochs"),
        ({"finetune": {"batch_size": True}}, [], "finetune: batch_size"),
        ({"image": {"patch_size": 0}}, [], "image: patch_size"),
    ], ids=["batch_size_0", "epochs_0", "epochs_flag_0", "epochs_str", "batch_size_bool",
            "patch_size_0"])
    def test_bad_config_value_exit_1(self, tmp_path, capsys, config, flags, field):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(config))
        rc = main(["pretrain", "--config", str(bad), "--data", str(tmp_path), *flags])
        assert rc == 1
        err = capsys.readouterr().err
        assert field in err and "Traceback" not in err

    @pytest.mark.parametrize("config, field", [
        ([], "config must be an object"),
        ({"image": 5}, "image must be"),
        ({"pretrain": {"weights": 3}}, "pretrain: weights"),
        ({"pretrain": {"frozen": 5}}, "pretrain: frozen"),
        ({"pretrain": {"frozen": "abc"}}, "pretrain: frozen"),
        ({"pretrain": {"frozen": [5]}}, "pretrain: frozen"),
        ({"pretrain": {"lrs": {"image_encoder": True}}}, "pretrain: lrs"),
        ({"pretrain": {"mask_ratio": "0.5"}}, "pretrain: mask_ratio"),
        ({"encoder": {"image_dim": 64.0}}, "encoder: image_dim"),
        ({"encoder": {"seq_len": 8.0}}, "encoder: seq_len"),
        ({"image": {"patch_size": 8.0}}, "image: patch_size"),
        ({"image": {"normalize_mean": "abc", "normalize_std": [1, 1, 1]}},
         "image: normalize_mean"),
        ({"decoder_layers": 1.5}, "decoder_layers"),
        ({"seed": "x"}, "seed"),
        ({"tau": "x"}, "tau"),
        ({"tau": -1.0}, "tau"),
    ])
    def test_malformed_config_names_field_and_file(self, tmp_path, capsys, config, field):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(config))
        rc = main(["pretrain", "--config", str(bad), "--data", str(tmp_path),
                   "--out", str(tmp_path / "o"), "--epochs", "1"])
        assert rc == 1
        err = capsys.readouterr().err
        assert f"{bad}: {field}" in err and "Traceback" not in err

    @pytest.mark.parametrize("config, field", [
        ({"encoder": {"image_heads": 0}}, "encoder: image_heads"),
        ({"encoder": {"text_heads": -2}}, "encoder: text_heads"),
        ({"encoder": {"image_dim": 0}}, "encoder: image_dim"),
        ({"encoder": {"text_dim": -4}}, "encoder: text_dim"),
        ({"encoder": {"image_layers": -1}}, "encoder: image_layers"),
        ({"encoder": {"text_layers": 0}}, "encoder: text_layers"),
        ({"encoder": {"mlp_ratio": 0}}, "encoder: mlp_ratio"),
        ({"decoder_heads": 0}, "decoder_heads"),
        ({"decoder_heads": 3}, "decoder_heads"),
        ({"decoder_layers": 0}, "decoder_layers"),
        ({"tau": float("nan")}, "tau"),
        ({"tau": float("inf")}, "tau"),
        ({"pretrain": {"lrs": {"image_encoder": -1e-4}}}, "pretrain: lrs"),
        ({"finetune": {"lrs": {"heads": float("inf")}}}, "finetune: lrs"),
        ({"pretrain": {"lrs": {"image_encoder": float("nan")}}}, "pretrain: lrs"),
        ({"pretrain": {"mask_ratio": 1.0}}, "pretrain: mask_ratio"),
        ({"pretrain": {"mask_ratio": -0.25}}, "pretrain: mask_ratio"),
        ({"pretrain": {"mask_ratio": float("nan")}}, "pretrain: mask_ratio"),
        ({"pretrain": {"warmup_frac": 1.5}}, "pretrain: warmup_frac"),
        ({"finetune": {"warmup_frac": -0.1}}, "finetune: warmup_frac"),
        ({"pretrain": {"lr_floor_frac": 2}}, "pretrain: lr_floor_frac"),
        ({"finetune": {"lr_floor_frac": float("nan")}}, "finetune: lr_floor_frac"),
        ({"pretrain": {"stage": "warmup"}}, "pretrain: stage"),
    ])
    def test_out_of_range_config_names_field_and_file(self, tmp_path, capsys, config, field):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(config))
        rc = main(["pretrain", "--config", str(bad), "--data", str(tmp_path),
                   "--out", str(tmp_path / "o"), "--epochs", "1"])
        assert rc == 1
        err = capsys.readouterr().err
        assert f"{bad}: {field}" in err and "Traceback" not in err

    @pytest.mark.parametrize("config", [
        {"pretrain": {"mask_ratio": 0.0, "warmup_frac": 0.0, "lr_floor_frac": 1.0}},
        {"finetune": {"warmup_frac": 1, "lr_floor_frac": 0, "lrs": {"heads": 0}}},
        {"encoder": {"image_heads": 1, "text_layers": 1, "mlp_ratio": 1}, "decoder_heads": 1},
    ], ids=["pretrain_edges", "finetune_edges", "encoder_ones"])
    def test_range_edges_load(self, tmp_path, config):
        path = tmp_path / "edge.json"
        path.write_text(json.dumps(config))
        assert isinstance(merge_json(RunConfig(), str(path)), RunConfig)

    def test_missing_config_file_names_it(self, tmp_path, capsys):
        missing = tmp_path / "missing.json"
        assert main(["pretrain", "--config", str(missing), "--data", str(tmp_path)]) == 1
        assert str(missing) in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["gradcheck", "--cases", "1", "--config", "x.json"],
        ["gradcheck", "--cases", "1", "--out", "x"],
        ["eval", "--checkpoint", "x.ckpt", "--seed", "1"],
    ], ids=["gradcheck_config", "gradcheck_out", "eval_seed"])
    def test_unread_flag_is_usage_error(self, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1

    @pytest.mark.parametrize("argv, flag, least", [
        (["gen-data", "--n", "0"], "--n", 1),
        (["gen-data", "--n", "-3"], "--n", 1),
        (["gen-data", "--val-n", "-1"], "--val-n", 0),
        (["gen-data", "--test-n", "-2"], "--test-n", 0),
        (["gradcheck", "--cases", "0"], "--cases", 1),
        (["gradcheck", "--cases", "-2"], "--cases", 1),
        (["reconstruct", "--checkpoint", "x.ckpt", "--n", "0"], "--n", 1),
        (["reconstruct", "--checkpoint", "x.ckpt", "--n", "-2"], "--n", 1),
    ], ids=["gen_n_0", "gen_n_neg", "gen_val_n_neg", "gen_test_n_neg", "cases_0",
            "cases_neg", "reconstruct_n_0", "reconstruct_n_neg"])
    def test_count_below_its_least_is_usage_error(self, tmp_path, capsys, argv, flag, least):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--out", str(tmp_path)] if argv[0] == "gen-data" else argv)
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert f"{flag} must be at least {least}, got {argv[-1]}" in err
        assert not os.listdir(tmp_path)

    def test_invalid_task_choice_exit_1(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["finetune", "--task", "sarcasm", "--checkpoint", "x"])
        assert exc.value.code == 1


def test_config_documents_defaults():
    """The default config serializes completely (gives users a template)."""
    d = RunConfig().to_dict()
    assert d["pretrain"]["mask_ratio"] == 0.75
    assert d["finetune"]["weights"]["itc"] == pytest.approx(0.4)


def test_threads_env_caps_kernel_pools():
    """SYDES_THREADS propagates to the BLAS thread-pool variables before
    numpy loads (must run in a fresh interpreter)."""
    import subprocess
    import sys

    code = ("import os; os.environ['SYDES_THREADS'] = '1'; "
            "import sydes.cli; "
            "print(os.environ['OMP_NUM_THREADS'], os.environ['OPENBLAS_NUM_THREADS'])")
    env = {k: v for k, v in os.environ.items()
           if k not in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=env, check=True)
    assert out.stdout.split() == ["1", "1"]


def test_checkpoint_bytes_ignore_inherited_blas_threads(tmp_path):
    """With SYDES_THREADS unset the CLI runs one BLAS thread, whatever
    OPENBLAS_NUM_THREADS it inherits: a GEMM's bytes depend on its thread
    count, and a fine-tuning checkpoint shows it."""
    import subprocess
    import sys

    data, pre = str(tmp_path / "data"), str(tmp_path / "pre")
    assert main(["gen-data", "--out", data, "--n", "16"]) == 0
    assert main(["pretrain", "--data", data, "--out", pre, "--epochs", "1"]) == 0
    env = {k: v for k, v in os.environ.items()
           if k != "SYDES_THREADS" and not k.endswith("_NUM_THREADS")}
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    blobs = []
    for threads in ("1", "2"):
        out = str(tmp_path / f"threads{threads}")
        subprocess.run([sys.executable, "-m", "sydes.cli", "finetune", "--task", "desire",
                        "--epochs", "1", "--checkpoint", os.path.join(pre, "pretrain-epoch1.ckpt"),
                        "--data", data, "--out", out],
                       env=dict(env, OPENBLAS_NUM_THREADS=threads), check=True,
                       capture_output=True)
        blobs.append(read_bytes(os.path.join(out, "desire", "finetune-epoch1.ckpt")))
    assert blobs[0] == blobs[1]
