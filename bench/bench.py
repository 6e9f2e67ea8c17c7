#!/usr/bin/env python3
"""fxlink benchmark: one workload per run, measured end to end or traced.

Run from the repository root:

    python3 bench/bench.py --workload rayleigh --seed 1 --seconds 30 \
        --trace 0

A workload is the link channel.  Each run repeats rounds of every phase of
the codec over that channel (one caller, closed loop; every input is drawn
from --seed):

  train       channel-in-the-loop training of the 128-node, 5-layer
              reference model, ending in range calibration
  montecarlo  fixed-budget BER Monte-Carlo for the float engine, the
              uncoded chain and the fixed engine at Q16.3/Q24.3/Q32.3,
              then one large-batch per-layer error report at Q16.3
  stream      end_to_end one block at a time, float and fixed Q16.3

  rayleigh    ZF-equalized Rayleigh fading at 30 dB
  awgn        flat AWGN at 30 dB; training runs without ZF

With --trace 0 the last line of standard output is one JSON object with
the end-to-end metrics of BENCHMARK.json.  With --trace 1 it holds its
per-layer metrics of a traced run instead, and every span is written to
bench/out/trace-<workload>-seed<seed>.json.  The line before it records
the machine.  README.md beside this file defines every metric.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

# Pinned before numpy loads its BLAS.  One thread is at or below nproc on
# any machine and keeps small GEMMs from contending with their own helpers.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

ROOT = Path(__file__).resolve().parent.parent
MANIFEST = ROOT / "BENCHMARK.json"
OUT_DIR = Path(__file__).resolve().parent / "out"
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import fxlink  # noqa: E402
from fxlink import autoencoder as ae  # noqa: E402
from fxlink import metrics as fm  # noqa: E402
from fxlink import neuralnet as nn  # noqa: E402
from fxlink import ofdmlink as ofdm  # noqa: E402
from fxlink import paramdelivery as pd  # noqa: E402

from checks import (Checks, check_ber_points, check_fx_linear,  # noqa: E402
                    check_loss_histories)
from tracer import Tracer  # noqa: E402

OFDM = fxlink.OfdmConfig()
HIDDEN, LAYERS = 128, 5
REF_SEED = 0            # the delivered model is the same in every run
SHORT_TRAIN = dict(batch_size=64, epochs=4, batches_per_epoch=50)
TRAIN_STEPS = SHORT_TRAIN["epochs"] * SHORT_TRAIN["batches_per_epoch"]
SNR_DB = 30.0
FORMATS = {f"q{b}": fxlink.make_qformat(b, 3) for b in (16, 24, 32)}
# Bits per round and engine, in 512-block MC chunks: fewer where a chunk is
# slow, so that no engine takes most of a round.
BER_BITS = {name: chunks * 512 * OFDM.bits_per_block for name, chunks in
            (("float", 16), ("uncoded", 16), ("q16", 4), ("q24", 2),
             ("q32", 1))}
LAYER_ERROR_BLOCKS = 10240                  # ~10 MB per 128-wide activation
STREAM_POOL = 4096
STREAM_WINDOW = 1024        # blocks per engine and round
BATCH_VARIANT_BLOCKS = 512
ORACLE_ROWS = 4
AWGN_EBN0_DB = 4.0
AWGN_BITS = 1 << 20
CHECK_STREAM = 1 << 20      # rng stream id of the post-run checks


def deliver_reference(formats, channel):
    """Train the short-schedule reference model, ship it, quantize it."""
    model = ae.build_model(OFDM, HIDDEN, LAYERS, seed=REF_SEED)
    cfg = fxlink.TrainConfig(seed=REF_SEED, **SHORT_TRAIN)
    model = ae.train(model, cfg, channel=channel).model
    OUT_DIR.mkdir(exist_ok=True)
    # A fresh name each time: overwriting an existing file can cost tens of
    # milliseconds on filesystems mounted with online discard.
    path = OUT_DIR / f"reference-{os.getpid()}-{time.perf_counter_ns()}.fxl"
    pd.save_model(model, path)
    try:
        model = pd.load_model(path)
    finally:
        path.unlink()
    return model, {q: pd.quantize_model(model, formats[q]) for q in formats}


def check_codec(checks, qmodel, rng, tag):
    """Oracle rows of both fixed networks on 64 random blocks."""
    x0 = ae.random_block(64, OFDM, rng).reals
    check_fx_linear(checks, qmodel.encoder, x0, rng, ORACLE_ROWS, tag)
    # The decoder sees the encoder output at unit power per complex sample.
    enc, _ = nn.forward_fixed(qmodel.encoder, x0)
    dec_in = enc / np.sqrt(2.0 * np.mean(enc ** 2))
    check_fx_linear(checks, qmodel.decoder, dec_in, rng, ORACLE_ROWS, tag)


class Mix:
    """Every phase of the codec, one after another, on one channel.

    One iteration is a round: 200 training steps, a fixed-budget BER
    Monte-Carlo per engine and format, one large-batch layer-error report,
    then a window of batch-1 blocks per engine.  Each end-to-end metric is
    the median of its phase over the rounds, so a burst of load from
    another process that covers a few rounds moves none of them.
    """

    setup_reps = 5
    trace_iters = 2

    def __init__(self, channel, seed):
        self.channel = channel
        self.seed = seed
        self.steps_per_s = []
        self.histories = []
        self.curves = []            # (round, engine name, BerCurve)
        self.kblocks_s = []
        self.reports = []
        self.window_us = {"float": [], "q16": []}   # (p50, p90) per round
        self.blocks = 0
        self.malformed = 0

    def setup(self):
        self.train_model = ae.build_model(OFDM, HIDDEN, LAYERS,
                                          seed=self.seed)
        self.model, self.qmodels = deliver_reference(FORMATS, self.channel)
        self.engines = [("float", self.model, "float"),
                        ("uncoded", None, "float")]
        self.engines += [(q, self.qmodels[q], "fixed") for q in FORMATS]
        self.rates = {name: [] for name, _, _ in self.engines}
        self.stream_engines = (("float", self.model, "float"),
                               ("q16", self.qmodels["q16"], "fixed"))
        rng = np.random.default_rng([self.seed, 0])
        self.bits = rng.integers(0, 2, size=(STREAM_POOL,
                                             OFDM.bits_per_block))
        self.h = ofdm.draw_channel(self.channel,
                                   (STREAM_POOL, OFDM.n_subcarriers),
                                   SNR_DB, rng).h
        self.chans = [fxlink.ChannelRealization(h, SNR_DB) for h in self.h]
        self.noise_rng = np.random.default_rng([self.seed, 1])

    def iteration(self, i):
        self.train(i)
        self.montecarlo(i)
        self.stream(i)

    def train(self, i):
        cfg = fxlink.TrainConfig(seed=self.seed, **SHORT_TRAIN)
        rng = np.random.default_rng([self.seed, i, 0])
        t0 = time.perf_counter()
        res = ae.train(self.train_model, cfg, channel=self.channel, rng=rng)
        self.steps_per_s.append(TRAIN_STEPS / (time.perf_counter() - t0))
        self.histories.append(res.loss_history)

    def montecarlo(self, i):
        for k, (name, model, engine) in enumerate(self.engines, 1):
            rng = np.random.default_rng([self.seed, i, k])
            budget = BER_BITS[name]
            t0 = time.perf_counter()
            curve = fm.ber_sweep(model, engine, self.channel, [SNR_DB],
                                 budget, budget, rng)
            self.rates[name].append(budget / (time.perf_counter() - t0)
                                    / 1e6)
            self.curves.append((i, name, curve))
        rng = np.random.default_rng([self.seed, i, len(self.engines) + 1])
        t0 = time.perf_counter()
        rep = fm.layer_error_report(self.model, FORMATS["q16"],
                                    LAYER_ERROR_BLOCKS, rng,
                                    self.qmodels["q16"])
        self.kblocks_s.append(LAYER_ERROR_BLOCKS
                              / (time.perf_counter() - t0) / 1e3)
        self.reports.append(rep)

    def stream(self, i):
        """One window of batch-1 blocks, alternating the two engines."""
        lat = {name: np.empty(STREAM_WINDOW) for name in self.window_us}
        for b in range(STREAM_WINDOW):
            j = (i * STREAM_WINDOW + b) % STREAM_POOL
            for name, model, engine in self.stream_engines:
                t0 = time.perf_counter_ns()
                out, _ = ae.end_to_end(model, self.bits[j], self.chans[j],
                                       self.noise_rng, engine=engine)
                lat[name][b] = time.perf_counter_ns() - t0
                self.blocks += 1
                self.malformed += not (out.shape == (OFDM.bits_per_block,)
                                       and np.all((out == 0) | (out == 1)))
        for name, ns in lat.items():
            self.window_us[name].append(np.percentile(ns / 1e3, [50, 90]))

    def samples(self):
        return {"rounds": len(self.steps_per_s)}

    def metrics(self):
        out = {"train_steps_per_s": (statistics.median(self.steps_per_s),
                                     "1/s")}
        out.update({f"ber_mbit_s.{n}": (statistics.median(v), "Mbit/s")
                    for n, v in self.rates.items()})
        out["layer_error_kblocks_s"] = (statistics.median(self.kblocks_s),
                                        "kblock/s")
        for name, windows in self.window_us.items():
            p50, p90 = np.median(windows, axis=0)
            out[f"block_us_p50.{name}"] = (float(p50), "us")
            out[f"block_us_p90.{name}"] = (float(p90), "us")
        return out

    def trace_metrics(self, traced):
        out = {}
        for name, _, _ in self.engines:
            pts = [p for i, n, c in self.curves if i in traced and n == name
                   for p in c.points]
            out[f"metrics.ber_sweep.bits.{name}"] = (
                sum(p.bits for p in pts) / len(traced), "count")
            out[f"metrics.ber_sweep.errors.{name}"] = (
                sum(p.errors for p in pts) / len(traced), "count")
        # Blocks whose noiseless decisions change when batched.
        n = BATCH_VARIANT_BLOCKS
        out["autoencoder.batch_variant_base"] = (n, "count")
        rng = np.random.default_rng([self.seed, 2])
        for name, model, engine in self.stream_engines:
            batch, _ = ae.end_to_end(
                model, self.bits[:n],
                fxlink.ChannelRealization(self.h[:n], np.inf), rng,
                engine=engine)
            alone = np.stack([ae.end_to_end(
                model, self.bits[j],
                fxlink.ChannelRealization(self.h[j], np.inf), rng,
                engine=engine)[0] for j in range(n)])
            out[f"autoencoder.batch_variant_blocks.{name}"] = (
                int(np.any(alone != batch, axis=1).sum()), "count")
        return out

    def check(self, checks):
        check_loss_histories(checks, self.histories, SHORT_TRAIN["epochs"])
        for _, name, curve in self.curves:
            check_ber_points(checks, curve, BER_BITS[name], name)
        for rep in self.reports:
            checks.expect(len(rep.rel_rms_pct) == LAYERS and all(
                np.isfinite(v) and v >= 0 for v in rep.rel_rms_pct),
                f"layer error report {rep.rel_rms_pct}")
        checks.tally(self.blocks, self.malformed,
                     f"{self.malformed} of {self.blocks} blocks decoded to "
                     "something other than 32 bits")
        rng = np.random.default_rng([self.seed, CHECK_STREAM])
        for q, qm in self.qmodels.items():
            check_codec(checks, qm, rng, q)
        snr = fm.ebn0_to_symbol_snr_db(AWGN_EBN0_DB)
        curve = fm.ber_sweep(None, "float", "awgn", [snr], AWGN_BITS,
                             AWGN_BITS, rng)
        check_ber_points(checks, curve, AWGN_BITS, "uncoded awgn")
        theory = fm.qpsk_awgn_ber_theory(AWGN_EBN0_DB)
        ber = curve.points[0].ber
        checks.expect(abs(ber / theory - 1.0) <= 0.10,
                      f"uncoded AWGN BER {ber:.5g} vs theory {theory:.5g} "
                      f"at Eb/N0 {AWGN_EBN0_DB} dB")


WORKLOADS = ("rayleigh", "awgn")


# ---------------------------------------------------------------------------
# Tracing targets and the per-layer metrics derived from their spans
# ---------------------------------------------------------------------------

def _fx_linear_tag(args, kwargs):
    x, w, _, q = args
    out_dim, in_dim = w.raw.shape
    rows = 1 if x.raw.ndim == 1 else x.raw.shape[0]
    return f"q{q.total_bits}.{out_dim}x{in_dim}", rows * out_dim * in_dim


def _ber_sweep_tag(args, kwargs):
    model, engine = args[0], args[1]
    if model is None:
        return "uncoded", 0
    return (f"q{model.fmt.total_bits}" if engine == "fixed" else engine), 0


_OFDM_STAGES = {"qam4_modulate": "modulate", "ifft": "ifft_cp_fft",
                "add_cp": "ifft_cp_fft", "remove_cp": "ifft_cp_fft",
                "fft": "ifft_cp_fft", "draw_channel": "draw_channel",
                "apply_channel": "apply_channel",
                "equalize_zf": "equalize_zf", "qam4_demodulate": "demodulate"}
_PLAIN = {
    "neuralnet": ("forward_fixed", "forward_float", "optimizer_step",
                  "_forward_cached", "_backward_from"),
    "autoencoder": ("train", "chain_loss_and_grads", "_chain_forward",
                    "_chain_backward", "calibrate_ranges", "random_block",
                    "end_to_end", "normalize_power"),
    "paramdelivery": ("save_model", "load_artifact", "quantize_model"),
    "metrics": ("layer_error_report", "_uncoded_chain"),
}
TARGETS = [
    ("fxlink.neuralnet.fx_linear", "fixedpoint.fx_linear", _fx_linear_tag),
    ("fxlink.neuralnet.quantize", "fixedpoint.quantize", None),
    ("fxlink.metrics.ber_sweep", "metrics.ber_sweep", _ber_sweep_tag),
    *[(f"fxlink.ofdmlink.{f}", f"ofdmlink.{stage}", None)
      for f, stage in _OFDM_STAGES.items()],
    *[(f"fxlink.{mod}.{f}", f"{mod}.{f}", None)
      for mod, fns in _PLAIN.items() for f in fns],
]
# Reported as mean inclusive ms per call, set-up calls included.
PER_CALL_MS = ("autoencoder.calibrate_ranges", "paramdelivery.save_model",
               "paramdelivery.load_artifact", "paramdelivery.quantize_model")


def per_layer_metrics(tracer: Tracer, n_iters: int) -> dict:
    """Per-layer metrics from the spans of n_iters traced iterations.

    Times and counts are per round, so runs of any length
    compare.  Self time excludes the time of wrapped callees.
    """
    work = tracer.summarize(lambda run_id: run_id >= 0)
    out = {}
    per_q = {}
    for key, st in work.items():
        if key.startswith("fixedpoint.fx_linear."):
            q, shape = key.split(".")[-2:]
            out[f"fixedpoint.fx_linear.self_ms.{q}.{shape}"] = (
                st.self_ns / n_iters / 1e6, "ms")
            agg = per_q.setdefault(q, [0, 0, 0])
            agg[0] += st.calls
            agg[1] += st.count
            agg[2] += st.incl_ns
        elif key.startswith("metrics.ber_sweep."):
            engine = key.rsplit(".", 1)[1]
            out[f"metrics.ber_sweep.self_ms.{engine}"] = (
                st.self_ns / n_iters / 1e6, "ms")
            out[f"metrics.ber_sweep.chunks.{engine}"] = (
                tracer.children(key, "ofdmlink.draw_channel") / n_iters,
                "count")
        elif key not in PER_CALL_MS:
            out[f"{key}.self_ms"] = (st.self_ns / n_iters / 1e6, "ms")
    for q, (calls, macs, incl_ns) in per_q.items():
        out[f"fixedpoint.fx_linear.calls.{q}"] = (calls / n_iters, "count")
        out[f"fixedpoint.fx_linear.macs.{q}"] = (macs / n_iters, "count")
        out[f"fixedpoint.fx_linear.gmac_s.{q}"] = (macs / incl_ns, "GMAC/s")
        if q == "q16":
            out["fixedpoint.fx_linear.us_per_call.q16"] = (
                incl_ns / calls / 1e3, "us")
    if "neuralnet.optimizer_step" in work:
        out["neuralnet.optimizer_step.calls"] = (
            work["neuralnet.optimizer_step"].calls / n_iters, "count")
    every = tracer.summarize()
    for key in PER_CALL_MS:
        if key in every:
            st = every[key]
            out[f"{key}.ms"] = (st.incl_ns / st.calls / 1e6, "ms")
    return out


# ---------------------------------------------------------------------------
# Runner
# ---------------------------------------------------------------------------

def machine_facts() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas.get("name"), "blas_version": blas.get("version"),
            "blas_threads": BLAS_THREADS, "fxlink": fxlink.__version__}


def run_loop(wl, first, seconds, max_iters=None, tracer=None):
    """Run iterations from index `first` until the time is up (at least
    one); returns each iteration's wall time in seconds."""
    walls = []
    deadline = time.perf_counter() + seconds
    i = first
    while not walls or (time.perf_counter() < deadline
                        and (max_iters is None or len(walls) < max_iters)):
        if tracer is not None:
            tracer.run_id = i
        t0 = time.perf_counter()
        wl.iteration(i)
        walls.append(time.perf_counter() - t0)
        i += 1
    return walls


def declared(metrics: dict, section: str) -> dict:
    """The metrics BENCHMARK.json declares in `section`, in its units.

    An end-to-end metric the run did not produce is an error.  A per-layer
    metric it did not produce is 0: no call reached that layer, e.g.
    because the library no longer has the traced function (see "absent").
    """
    with open(MANIFEST) as fh:
        wanted = json.load(fh)[section]
    out = {}
    for m in wanted:
        name, unit = m["name"], m["unit"]
        if name not in metrics and section == "per_layer":
            metrics[name] = (0, unit)
        if name not in metrics or metrics[name][1] != unit:
            raise KeyError(f"{section} metric {name} [{unit}] was not "
                           f"measured, got {metrics.get(name)}")
        out[name] = metrics[name]
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")

    src = (ROOT / "src").resolve()
    if src not in Path(fxlink.__file__).resolve().parents:
        print(f"fxlink was imported from {fxlink.__file__}, not from {src}",
              file=sys.stderr)
        return 2

    wl = Mix(args.workload, args.seed)
    tracer = Tracer(TARGETS) if args.trace else None
    setup_s = []
    for k in range(wl.setup_reps):
        if tracer is not None:
            tracer.run_id = -1 - k
            tracer.install()
        t0 = time.perf_counter()
        wl.setup()
        setup_s.append(time.perf_counter() - t0)
        if tracer is not None:
            tracer.uninstall()

    if tracer is None:
        run_loop(wl, 0, args.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss \
            / 1024.0
        metrics = {"setup_s": (statistics.median(setup_s), "s"),
                   "peak_rss_mb": (peak_rss_mb, "MB"), **wl.metrics()}
    else:
        # Untraced, traced (up to trace_iters, which bounds the spans kept
        # in memory), then untraced again for the rest of the time.
        deadline = time.perf_counter() + args.seconds
        plain = run_loop(wl, 0, 0.4 * args.seconds)
        tracer.install()
        try:
            traced = run_loop(wl, len(plain), 0.6 * args.seconds,
                              wl.trace_iters, tracer)
        finally:
            tracer.uninstall()
        traced_ids = set(range(len(plain), len(plain) + len(traced)))
        plain += run_loop(wl, len(plain) + len(traced),
                          deadline - time.perf_counter())
        base, slow = statistics.median(plain), statistics.median(traced)
        metrics = {**per_layer_metrics(tracer, len(traced)),
                   **wl.trace_metrics(traced_ids),
                   "trace.overhead_ms": ((slow - base) * 1e3, "ms"),
                   "trace.overhead_pct": (100.0 * (slow - base) / base, "%")}

    checks = Checks()
    wl.check(checks)
    checks.report()
    facts = machine_facts()
    info = {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace, "machine": facts,
            "samples": wl.samples()}
    if tracer is not None:
        info["absent"] = tracer.absent
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.write(path, {**info, "metrics": {k: v[0] for k, v in
                                                metrics.items()}})
        info["trace_file"] = str(path.relative_to(ROOT))
    metrics = declared(metrics, "per_layer" if args.trace else "end_to_end")
    print(json.dumps(info))
    print(json.dumps({
        "correct": checks.failed == 0, "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in sorted(metrics.items())}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
