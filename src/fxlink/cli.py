"""Command-line workflows: train, quantize, simulate, sweep, latency, report.

Exit codes: 0 success, 1 usage/config error, 2 runtime failure.  All
randomness derives from one --seed (or the config seed) split into
per-component streams with numpy SeedSequence spawn keys, so runs are
reproducible and CSV outputs byte-stable.  FXLINK_OUT overrides the
output directory for every command.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import json
import os
import sys
from dataclasses import asdict, fields, is_dataclass, replace
from pathlib import Path

import numpy as np

from . import autoencoder as ae
from . import metrics as mx
from .fixedpoint import BitAllocationError, make_qformat
from .neuralnet import TrainConfig
from .ofdmlink import CHANNEL_KINDS, OfdmConfig, draw_channel
from .paramdelivery import (ArtifactError, load_artifact, quantize_model,
                            save_model)


class ConfigError(ValueError):
    pass


# seed-splitting rule: component k of root seed s uses
# default_rng(SeedSequence(s, spawn_key=(k,))); documented in README
_STREAM_TRAIN = 0
_STREAM_SIMULATE = 1
_STREAM_SWEEP = 2
_STREAM_EVM = 3


def split_rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed,
                                                        spawn_key=(stream,)))


# INI section -> key -> path of the SweepSpec field it sets (an int step
# is one end of a range); [ofdm] and [train] keys are their fields' names
_FIELDS = {
    "ofdm": {f.name: ("ofdm", f.name) for f in fields(OfdmConfig)},
    "model": {"hidden_nodes": ("hidden_nodes",), "layers": ("n_layers",)},
    "train": {**{f.name: ("train", f.name) for f in fields(TrainConfig)
                 if f.name != "snr_range_db"},
              "snr_min_db": ("train", "snr_range_db", 0),
              "snr_max_db": ("train", "snr_range_db", 1)},
    "channel": {"kind": ("channel",), "equalize": ("equalize",)},
    "quantize": {"bits": ("qformat", "total_bits"),
                 "int_bits": ("qformat", "int_bits")},
    "sweep": {k: (k,) for k in ("axis", "values", "seeds", "ref_snr_db",
                                "rms_samples", "ber_min_bits",
                                "ber_max_bits")},
    "output": {"dir": None},            # not a SweepSpec field
}


def _build(default, given: dict, path: tuple = ()):
    """`default` rebuilt with the INI values in `given` ({field path:
    (section, key)}), each parsed as the type of the default it replaces.
    Each dataclass is made once, so it checks its final values."""
    if is_dataclass(default):
        return type(default)(**{
            f.name: _build(getattr(default, f.name), given, path + (f.name,))
            for f in fields(default) if f.init})
    if isinstance(default, tuple):
        return tuple(_build(v, given, path + (i,))
                     for i, v in enumerate(default))
    if path not in given:
        return default
    section, key = given[path]
    try:
        if isinstance(default, bool):
            return section.getboolean(key)
        if isinstance(default, list):
            return _parse_list(section[key], int)
        return type(default)(section[key])
    except ValueError as exc:
        raise ConfigError(
            f"bad value for '{key}' in [{section.name}]: {exc}") from exc


def read_config(path) -> tuple[mx.SweepSpec, str]:
    """Resolve the INI run config into the SweepSpec that `train` and
    `sweep` run from, plus the [output] dir.  A missing key keeps the
    library's default, except for the CLI's own defaults below."""
    parser = configparser.ConfigParser()
    if not parser.read(path):
        raise ConfigError(f"cannot read config file {path}")
    given = {}
    for section in parser.sections():
        if section not in _FIELDS:
            raise ConfigError(f"unknown config section [{section}]")
        for key in parser[section]:
            if key not in _FIELDS[section]:
                raise ConfigError(
                    f"unknown config key '{key}' in section [{section}]")
            given[_FIELDS[section][key]] = (parser[section], key)
    defaults = mx.SweepSpec(
        axis="bit_width", values=[8, 16, 24], seeds=[0],
        train=TrainConfig(epochs=100, batches_per_epoch=200))
    # zero-forcing defaults to on for Rayleigh fading only
    defaults.equalize = parser.get("channel", "kind",
                                   fallback=defaults.channel) == "rayleigh"
    try:
        spec = _build(defaults, given)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return spec, parser.get("output", "dir", fallback=".")


def _outdir(args, config_dir: str = ".") -> Path:
    env = os.environ.get("FXLINK_OUT")
    if env:
        path = Path(env)
    elif getattr(args, "out", None):
        path = Path(args.out)
    else:
        path = Path(config_dir)
    path.mkdir(parents=True, exist_ok=True)
    return path


def cmd_train(args) -> int:
    spec, config_dir = read_config(args.config)
    out = _outdir(args, config_dir)
    tc = (spec.train if args.seed is None
          else replace(spec.train, seed=args.seed))
    model = ae.build_model(spec.ofdm, spec.hidden_nodes, spec.n_layers,
                           seed=tc.seed)
    result = ae.train(model, tc, spec.channel, spec.equalize,
                      rng=split_rng(tc.seed, _STREAM_TRAIN))
    meta = {"channel": spec.channel, "equalize": spec.equalize,
            **asdict(tc), "final_loss": result.loss_history[-1]}
    artifact_path = out / "model.fxl"
    save_model(result.model, artifact_path, training=meta)
    mx.write_csv(out / "loss.csv", "loss.csv",
                 ([i, f"{val:.10g}"]
                  for i, val in enumerate(result.loss_history, 1)))
    print(f"wrote {artifact_path} (final epoch loss "
          f"{result.loss_history[-1]:.6g}) and {out / 'loss.csv'}")
    return 0


def cmd_quantize(args) -> int:
    q = make_qformat(args.bits, args.int_bits)
    artifact = load_artifact(args.artifact)
    qm = quantize_model(artifact.to_model(), q)
    saturated = qm.encoder.saturated_params + qm.decoder.saturated_params
    descriptor = {
        "artifact": str(args.artifact),
        # load_artifact checked it against the payload
        "payload_sha256": artifact.header["payload_sha256"],
        "qformat": {"total_bits": q.total_bits, "int_bits": q.int_bits,
                    "frac_bits": q.frac_bits},
        "saturated_params": saturated,
    }
    out_path = Path(args.out) if args.out else Path(
        str(args.artifact) + f".q{q.total_bits}i{q.int_bits}.json")
    out_path.write_text(json.dumps(descriptor, indent=2, sort_keys=True)
                        + "\n")
    print(f"{q}: saturated_params={saturated}")
    print(f"wrote {out_path}")
    return 0


def cmd_simulate(args) -> int:
    snr_list = _parse_list(args.snr)
    if not snr_list:
        raise ConfigError("--snr needs at least one value")
    if not (np.asarray(snr_list) > -np.inf).all():
        raise ConfigError(f"--snr values must be above -inf, got {args.snr!r}")
    if args.channel not in CHANNEL_KINDS:
        raise ConfigError(f"unknown channel kind {args.channel!r}")
    try:
        mx.check_ber_budget(args.bits_min, args.bits_max)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if args.rms_samples < 1:
        raise ConfigError("--rms-samples must be at least 1")
    out = _outdir(args)
    q = make_qformat(args.bits, args.int_bits)
    model = load_artifact(args.artifact).to_model()
    qm = quantize_model(model, q)
    equalize = not args.no_equalize
    ber_model = qm if args.engine == "fixed" else model
    curve = mx.ber_sweep(ber_model, args.engine, args.channel, snr_list,
                         args.bits_min, args.bits_max,
                         split_rng(args.seed, _STREAM_SIMULATE),
                         equalize=equalize)
    mx.write_ber_csv(out / "ber.csv", [curve])
    report = mx.layer_error_report(
        model, q, args.rms_samples, split_rng(args.seed, _STREAM_SWEEP), qm)
    mx.write_layer_error_csv(out / "layer_error.csv", [report])

    rng = split_rng(args.seed, _STREAM_EVM)
    bits = rng.integers(0, 2, size=(2000, model.ofdm.bits_per_block))
    chan = draw_channel(args.channel,
                        (bits.shape[0], model.ofdm.n_subcarriers),
                        snr_list[-1], rng)
    _, taps_f = ae.end_to_end(model, bits, chan,
                              np.random.default_rng(args.seed),
                              equalize=equalize)
    evm_tx = mx.evm(taps_f["tx_symbols"], taps_f["rx_symbols"])
    print(f"evm_vs_tx_pct(float @ {snr_list[-1]:g} dB): {evm_tx:.4f}")
    if args.engine == "fixed":
        _, taps_q = ae.end_to_end(qm, bits, chan,
                                  np.random.default_rng(args.seed),
                                  equalize=equalize)
        evm_impl = mx.evm(taps_f["rx_symbols"], taps_q["rx_symbols"])
        print(f"evm_vs_float_pct({q}): {evm_impl:.4f}")
    for p in curve.points:
        print(f"ber snr={p.snr_db:g} dB: {p.ber:.6g} "
              f"({p.errors} errors / {p.bits} bits)")
    print(f"wrote {out / 'ber.csv'} and {out / 'layer_error.csv'}")
    return 0


def cmd_sweep(args) -> int:
    spec, config_dir = read_config(args.config)
    out = _outdir(args, config_dir)
    seed = spec.train.seed if args.seed is None else args.seed
    seeds = (spec.seeds if args.seed is None
             else [seed + i for i in range(len(spec.seeds))])
    n_rows = mx.write_sweep_csv(
        out / "sweep.csv",
        mx.run_sweep(replace(spec, seeds=seeds),
                     split_rng(seed, _STREAM_SWEEP)))
    print(f"wrote {out / 'sweep.csv'} ({n_rows} rows)")
    return 0


def cmd_latency(args) -> int:
    dims = _parse_list(args.dims, int)
    try:                            # every value comes from the arguments
        ofdm_cfg = OfdmConfig(args.n_subcarriers, args.cp_len,
                              sample_rate=args.sample_rate_mhz * 1e6)
        est = mx.estimate_latency(dims, args.parallel_macs,
                                  args.pipeline_depth, args.clk_mhz * 1e6,
                                  ofdm_cfg)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    out = _outdir(args)
    mx.write_latency_csv(out / "latency.csv", est)
    print(f"symbol duration: {est.symbol_duration_us:g} us")
    for l in est.layers:
        print(f"layer {l.layer_idx} ({l.in_dim}x{l.out_dim}): {l.macs} MACs, "
              f"{l.cycles} cycles, {l.time_us:g} us -> "
              f"{'PASS' if l.ok else 'FAIL'}")
    print(f"wrote {out / 'latency.csv'}")
    return 0


_REPORT_TABLES = {"bit_width": "fig5.csv", "hidden_nodes": "fig6a.csv",
                  "n_layers": "fig6b.csv"}


def cmd_report(args) -> int:
    src = Path(args.csv_dir)
    files = sorted(src.glob("sweep*.csv"))
    rows = []
    for path in files:
        with open(path, newline="") as fh:
            rows.extend(csv.DictReader(fh))
    if not rows:
        raise RuntimeError(f"no sweep rows found under {src}")
    out = _outdir(args)
    written = []
    for axis, name in _REPORT_TABLES.items():
        axis_rows = [r for r in rows if r["axis"] == axis]
        if not axis_rows:
            continue
        by_value: dict = {}
        for r in axis_rows:
            by_value.setdefault(float(r["value"]), []).append(r)
        mx.write_csv(out / name, "fig*.csv", (
            [f"{value:g}",
             f"{np.mean([float(r['final_rms_pct']) for r in grp]):.10g}",
             f"{np.mean([float(r['ber_ref']) for r in grp]):.10g}", len(grp)]
            for value, grp in sorted(by_value.items())))
        written.append(name)
    print(f"wrote {', '.join(written)} under {out}")
    return 0


def _parse_list(text: str, kind=float) -> list:
    try:
        return [kind(tok) for tok in str(text).replace(";", ",").split(",")
                if tok.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad list {text!r}: {exc}") from exc


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        sys.exit(1)


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="fxlink", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    t = sub.add_parser("train", help="train a model per the config file")
    t.add_argument("--config", required=True)
    t.add_argument("--seed", type=int, default=None)
    t.add_argument("--out", default=None)
    t.set_defaults(func=cmd_train)

    q = sub.add_parser("quantize", help="quantize an artifact's parameters")
    q.add_argument("artifact")
    q.add_argument("--bits", type=int, default=16)
    q.add_argument("--int-bits", type=int, default=3, dest="int_bits")
    q.add_argument("--out", default=None)
    q.set_defaults(func=cmd_quantize)

    s = sub.add_parser("simulate", help="BER + layer-error measurement")
    s.add_argument("artifact")
    s.add_argument("--engine", choices=["float", "fixed"], default="float")
    s.add_argument("--channel", default="rayleigh")
    s.add_argument("--snr", required=True,
                   help="comma-separated SNR points in dB")
    s.add_argument("--bits-min", type=int, default=100_000, dest="bits_min")
    s.add_argument("--bits-max", type=int, default=2_000_000, dest="bits_max")
    s.add_argument("--bits", type=int, default=16)
    s.add_argument("--int-bits", type=int, default=3, dest="int_bits")
    s.add_argument("--rms-samples", type=int, default=2000,
                   dest="rms_samples")
    s.add_argument("--no-equalize", action="store_true", dest="no_equalize")
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--out", default=None)
    s.set_defaults(func=cmd_simulate)

    w = sub.add_parser("sweep", help="structure sweep per the config file")
    w.add_argument("--config", required=True)
    w.add_argument("--seed", type=int, default=None)
    w.add_argument("--out", default=None)
    w.set_defaults(func=cmd_sweep)

    l = sub.add_parser("latency", help="MAC-array latency budget check")
    l.add_argument("--dims", default="32,512,512,32,512,32")
    l.add_argument("--parallel-macs", type=int, default=512,
                   dest="parallel_macs")
    l.add_argument("--pipeline-depth", type=int, default=4,
                   dest="pipeline_depth")
    l.add_argument("--clk-mhz", type=float, default=100.0, dest="clk_mhz")
    l.add_argument("--n-subcarriers", type=int, default=16,
                   dest="n_subcarriers")
    l.add_argument("--cp-len", type=int, default=4, dest="cp_len")
    l.add_argument("--sample-rate-mhz", type=float, default=1.0,
                   dest="sample_rate_mhz")
    l.add_argument("--out", default=None)
    l.set_defaults(func=cmd_latency)

    r = sub.add_parser("report", help="aggregate sweep CSVs into tables")
    r.add_argument("csv_dir")
    r.add_argument("--out", default=None)
    r.set_defaults(func=cmd_report)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, BitAllocationError) as exc:
        print(f"fxlink: config error: {exc}", file=sys.stderr)
        return 1
    except (ArtifactError, OSError, RuntimeError, ValueError) as exc:
        print(f"fxlink: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
