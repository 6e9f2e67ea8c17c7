"""CLI workflows: exit codes, determinism, file outputs."""

import configparser
import csv
import json
from pathlib import Path

import pytest

from fxlink.cli import _FIELDS, main, read_config

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

TINY_CONFIG = """\
[model]
hidden_nodes = 16
layers = 3

[train]
epochs = 2
batches_per_epoch = 10
seed = 3

[channel]
kind = awgn

[output]
dir = {out}
"""

SWEEP_CONFIG = """\
[model]
hidden_nodes = 12
layers = 2

[train]
epochs = 1
batches_per_epoch = 10
seed = 0

[channel]
kind = awgn
equalize = false

[sweep]
axis = bit_width
values = 8,16
seeds = 0
ref_snr_db = 20
rms_samples = 150
ber_min_bits = 10000
ber_max_bits = 20000

[output]
dir = {out}
"""


@pytest.fixture()
def tiny_config(tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text(TINY_CONFIG.format(out=tmp_path))
    return cfg


@pytest.fixture()
def trained_artifact(tiny_config, tmp_path):
    assert main(["train", "--config", str(tiny_config)]) == 0
    return tmp_path / "model.fxl"


def test_train_outputs(tiny_config, tmp_path, capsys):
    assert main(["train", "--config", str(tiny_config)]) == 0
    assert (tmp_path / "model.fxl").exists()
    rows = list(csv.reader(open(tmp_path / "loss.csv", newline="")))
    assert rows[0] == ["epoch", "loss"]
    assert len(rows) == 3
    assert float(rows[-1][1]) < float(rows[1][1])


def test_train_byte_identical(tiny_config, tmp_path):
    main(["train", "--config", str(tiny_config)])
    first = (tmp_path / "model.fxl").read_bytes()
    main(["train", "--config", str(tiny_config)])
    assert (tmp_path / "model.fxl").read_bytes() == first


def test_unknown_config_key_exits_1(tmp_path, capsys):
    cfg = tmp_path / "bad.ini"
    cfg.write_text("[train]\nlerning_rate = 0.1\n")
    assert main(["train", "--config", str(cfg)]) == 1
    assert "lerning_rate" in capsys.readouterr().err


def test_checked_in_configs_show_every_key():
    shown = set()
    for ini in CONFIGS.glob("*.ini"):
        parser = configparser.ConfigParser()
        parser.read(ini)
        shown |= {(s, k) for s in parser.sections() for k in parser[s]}
    assert shown == {(s, k) for s, keys in _FIELDS.items() for k in keys}


def test_unknown_section_exits_1(tmp_path, capsys):
    cfg = tmp_path / "bad.ini"
    cfg.write_text("[trainer]\nepochs = 2\n")
    assert main(["train", "--config", str(cfg)]) == 1
    assert "trainer" in capsys.readouterr().err


BAD_VALUES = {
    "optimizer": ("train", "[train]\noptimizer = adam"),     # a removed key
    "learning_rate": ("train", "[train]\nlearning_rate = 0"),
    "learning_rate_nan": ("train", "[train]\nlearning_rate = nan"),
    "snr_range": ("train", "[train]\nsnr_min_db = 30\nsnr_max_db = 10"),
    "snr_min_nan": ("train", "[train]\nsnr_min_db = nan"),
    "snr_max_inf": ("train", "[train]\nsnr_max_db = inf"),
    "n_subcarriers": ("train", "[ofdm]\nn_subcarriers = 12"),
    "sample_rate": ("train", "[ofdm]\nsample_rate = 0"),
    "modulation": ("train", "[ofdm]\nmodulation = qam4"),     # removed
    "train_kind": ("train", "[channel]\nkind = rician"),
    "equalize": ("train", "[channel]\nequalize = maybe"),
    "rate": ("train", "[model]\nrate = 1"),                 # removed
    "layers": ("train", "[model]\nlayers = 1"),
    "hidden_nodes": ("train", "[model]\nhidden_nodes = 0"),
    "epochs": ("train", "[train]\nepochs = 0"),
    "batches_per_epoch": ("train", "[train]\nbatches_per_epoch = 0"),
    "batch_size": ("train", "[train]\nbatch_size = 0"),
    "axis": ("sweep", "[sweep]\naxis = depth"),
    "values": ("sweep", "[sweep]\nvalues = 8,x"),
    "values_not_int": ("sweep", "[sweep]\nvalues = 8.5"),
    "values_layers": ("sweep", "[sweep]\naxis = n_layers\nvalues = 2,1"),
    "values_hidden": ("sweep", "[sweep]\naxis = hidden_nodes\nvalues = 0"),
    "train_base_hidden": ("train", "[model]\nhidden_nodes = 0\n"
                                   "[sweep]\naxis = hidden_nodes"),
    "sweep_base_hidden": ("sweep", "[model]\nhidden_nodes = 0\n"
                                   "[sweep]\naxis = hidden_nodes"),
    "seeds_empty": ("sweep", "[sweep]\nseeds ="),
    "sweep_kind": ("sweep", "[channel]\nkind = rician"),
    "bits": ("sweep", "[quantize]\nbits = 40"),
    "ber_max_bits": ("sweep", "[sweep]\nber_max_bits = 0"),
    "ber_min_bits": ("sweep", "[sweep]\nber_min_bits = 100"),
    "rms_samples": ("sweep", "[sweep]\nrms_samples = 0"),
    "ref_snr_nan": ("sweep", "[sweep]\nref_snr_db = nan"),
    "ref_snr_neg_inf": ("sweep", "[sweep]\nref_snr_db = -inf"),
}


@pytest.mark.parametrize("case", list(BAD_VALUES))
def test_bad_config_value_exits_1(tmp_path, capsys, case):
    command, text = BAD_VALUES[case]
    cfg = tmp_path / "bad.ini"
    cfg.write_text(text + "\n")
    assert main([command, "--config", str(cfg), "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "fxlink: config error:" in err
    if case in ("optimizer", "modulation", "rate"):    # removed keys
        assert f"'{case}'" in err
    assert not (tmp_path / "sweep.csv").exists()    # nothing was trained


def test_sweep_values_and_seeds_stay_exact_integers(tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text(f"[sweep]\nvalues = 8,16\nseeds = 0,{2 ** 60 + 1}\n")
    spec, _ = read_config(cfg)
    assert spec.values == [8, 16]
    assert spec.seeds == [0, 2 ** 60 + 1]


def test_quantize_descriptor(trained_artifact, capsys):
    assert main(["quantize", str(trained_artifact), "--bits", "16",
                 "--int-bits", "3"]) == 0
    out = capsys.readouterr().out
    assert "saturated_params" in out
    desc_path = trained_artifact.parent / (trained_artifact.name
                                           + ".q16i3.json")
    desc = json.loads(desc_path.read_text())
    assert desc["qformat"] == {"total_bits": 16, "int_bits": 3,
                               "frac_bits": 12}
    first = desc_path.read_bytes()
    main(["quantize", str(trained_artifact), "--bits", "16",
          "--int-bits", "3"])
    assert desc_path.read_bytes() == first   # idempotent re-run


def test_quantize_invalid_allocation_exits_1(trained_artifact):
    assert main(["quantize", str(trained_artifact), "--bits", "8",
                 "--int-bits", "7"]) == 1


def test_quantize_missing_artifact_exits_2(tmp_path):
    assert main(["quantize", str(tmp_path / "none.fxl")]) == 2


@pytest.mark.parametrize("case", ["no_encoder_dims", "dims_as_string",
                                  "payload_not_whole_values"])
def test_quantize_malformed_artifact_exits_2(tmp_path, capsys, case):
    from test_paramdelivery import BASE_HEADER, BASE_PAYLOAD, MALFORMED, seal
    path = tmp_path / "m.fxl"
    path.write_bytes(seal(*MALFORMED[case](BASE_HEADER, BASE_PAYLOAD)))
    assert main(["quantize", str(path)]) == 2
    assert "fxlink: error:" in capsys.readouterr().err


def test_simulate_outputs_and_determinism(trained_artifact, tmp_path,
                                          capsys):
    out1 = tmp_path / "sim1"
    out2 = tmp_path / "sim2"
    args = ["simulate", str(trained_artifact), "--engine", "fixed",
            "--channel", "rayleigh", "--snr", "20,30",
            "--bits-min", "10000", "--bits-max", "20000",
            "--rms-samples", "200", "--seed", "9"]
    assert main(args + ["--out", str(out1)]) == 0
    text = capsys.readouterr().out
    assert "evm_vs_float_pct" in text and "evm_vs_tx_pct" in text
    assert main(args + ["--out", str(out2)]) == 0
    for name in ("ber.csv", "layer_error.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    rows = list(csv.reader(open(out1 / "ber.csv", newline="")))
    assert len(rows) == 3  # header + 2 SNR points


def test_simulate_empty_snr_exits_1(trained_artifact):
    assert main(["simulate", str(trained_artifact), "--snr", ""]) == 1


def test_simulate_bad_budget_exits_1(trained_artifact, tmp_path, capsys):
    # rejected before the Monte-Carlo runs, so no ber.csv is written
    out = tmp_path / "sim"
    for bad in (["--rms-samples", "0"], ["--bits-min", "100"],
                ["--bits-max", "0"], ["--snr", "nan"],
                ["--snr", "10,-inf"]):
        assert main(["simulate", str(trained_artifact), "--snr", "10",
                     *bad, "--out", str(out)]) == 1, bad
        assert "fxlink: config error:" in capsys.readouterr().err
        assert not (out / "ber.csv").exists()


def test_simulate_usage_error_exit_code(trained_artifact):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", str(trained_artifact), "--engine", "warp",
              "--snr", "10"])
    assert exc.value.code == 1


def test_sweep_and_report(tmp_path):
    cfg = tmp_path / "sweep.ini"
    cfg.write_text(SWEEP_CONFIG.format(out=tmp_path))
    assert main(["sweep", "--config", str(cfg)]) == 0
    rows = list(csv.reader(open(tmp_path / "sweep.csv", newline="")))
    assert len(rows) == 3  # header + 2 values x 1 seed

    assert main(["report", str(tmp_path), "--out", str(tmp_path)]) == 0
    fig5 = list(csv.reader(open(tmp_path / "fig5.csv", newline="")))
    assert fig5[0] == ["value", "mean_final_rms_pct", "mean_ber_ref",
                       "n_seeds"]
    assert len(fig5) == 3
    assert float(fig5[1][1]) > float(fig5[2][1])  # rms falls with width


def test_report_empty_dir_nonzero(tmp_path):
    empty = tmp_path / "empty"
    empty.mkdir()
    assert main(["report", str(empty)]) == 2


def test_latency_csv_and_pass_fail(tmp_path, capsys):
    assert main(["latency", "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out
    rows = list(csv.reader(open(tmp_path / "latency.csv", newline="")))
    assert len(rows) == 6  # header + 5 layers
    assert all(r[-1] == "1" for r in rows[1:])

    assert main(["latency", "--parallel-macs", "1", "--out",
                 str(tmp_path)]) == 0
    assert "FAIL" in capsys.readouterr().out


def test_latency_non_integer_dims_exits_1(tmp_path, capsys):
    for bad in (["--dims", "32.7,512,32"], ["--dims", "32,0,32"],
                ["--parallel-macs", "0"], ["--n-subcarriers", "3"],
                ["--sample-rate-mhz", "0"], ["--sample-rate-mhz", "nan"],
                ["--sample-rate-mhz", "inf"], ["--clk-mhz", "nan"]):
        assert main(["latency", *bad, "--out", str(tmp_path)]) == 1, bad
        assert "fxlink: config error:" in capsys.readouterr().err
        assert not (tmp_path / "latency.csv").exists()


def test_fxlink_out_env_override(tiny_config, tmp_path, monkeypatch):
    target = tmp_path / "env_out"
    monkeypatch.setenv("FXLINK_OUT", str(target))
    assert main(["train", "--config", str(tiny_config)]) == 0
    assert (target / "model.fxl").exists()
