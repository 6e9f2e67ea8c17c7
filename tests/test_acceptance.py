"""Acceptance suite: one pass/fail line per criterion.

Run with `pytest tests/test_acceptance.py -v -s`.  Each criterion prints
`PASS`/`FAIL` with the measured value and its pinned tolerance.  Criteria
that need trained models train them here (desk scale: 128 hidden nodes
for the reference link model).
"""

import time

import numpy as np

import fxlink as fx
from fxlink import autoencoder as ae
from fxlink import metrics as mx

Q8 = fx.make_qformat(8, 3)
Q16 = fx.make_qformat(16, 3)
Q24 = fx.make_qformat(24, 3)


def check(name, ok, detail, elapsed=None, budget=None):
    status = "PASS" if ok else "FAIL"
    suffix = ""
    if elapsed is not None:
        suffix = f" [{elapsed:.1f}s]"
    print(f"{status}: {name}: {detail}{suffix}")
    if budget is not None and elapsed is not None:
        assert elapsed < budget, f"{name} exceeded runtime budget"
    assert ok, f"{name}: {detail}"


def test_c1_bit_width_ratio(ref_model):
    # first-layer relative RMS at Q8.3 over Q16.3 must be >= 50
    t0 = time.time()
    r8 = mx.layer_error_report(ref_model, Q8, 4000,
                               np.random.default_rng(101))
    r16 = mx.layer_error_report(ref_model, Q16, 4000,
                                np.random.default_rng(101))
    ratio = r8.first_layer / r16.first_layer
    check("C1 bit-width ratio",
          ratio >= 50.0,
          f"first-layer RMS Q8.3/Q16.3 = {ratio:.1f} (>= 50, step-size "
          "analysis predicts ~256)",
          time.time() - t0, budget=300.0)


def test_c2_16bit_implementation_error(ref_model):
    # final-layer relative RMS at Q16.3 <= 0.5% over >= 1e4 blocks
    t0 = time.time()
    rep = mx.layer_error_report(ref_model, Q16, 10_000,
                                np.random.default_rng(102))
    check("C2 16-bit implementation error",
          rep.final_layer <= 0.5,
          f"final-layer RMS at Q16.3 = {rep.final_layer:.4f}% (<= 0.5%) "
          f"over {rep.n_samples} blocks",
          time.time() - t0, budget=120.0)


def test_c3_error_propagation(ofdm16):
    # final-layer >= first-layer RMS in >= 9/10 seeds per bit width
    t0 = time.time()
    wins = {8: 0, 16: 0, 24: 0}
    for seed in range(10):
        model = ae.build_model(ofdm16, 64, 5, seed=seed)
        cfg = fx.TrainConfig(epochs=15, batches_per_epoch=100, seed=seed,
                             snr_range_db=(5.0, 25.0))
        trained = ae.train(model, cfg, channel="rayleigh").model
        for q, bits in ((Q8, 8), (Q16, 16), (Q24, 24)):
            rep = mx.layer_error_report(trained, q, 1500,
                                        np.random.default_rng(seed))
            wins[bits] += rep.final_layer >= rep.first_layer
    ok = all(v >= 9 for v in wins.values())
    check("C3 error propagation",
          ok,
          f"final >= first layer RMS in {wins[8]}/10 (8b), "
          f"{wins[16]}/10 (16b), {wins[24]}/10 (24b) seeds (>= 9 each)",
          time.time() - t0, budget=1800.0)


def test_c4_link_ber(ref_model):
    # fixed-engine Q16.3, Rayleigh + ZF, 30 dB, >= 1e5 bits, BER <= 3e-3
    t0 = time.time()
    qm = fx.quantize_model(ref_model, Q16)
    curve = mx.ber_sweep(qm, "fixed", "rayleigh", [30.0],
                         min_bits=100_000, max_bits=400_000,
                         rng=np.random.default_rng(104), equalize=True)
    p = curve.points[0]
    check("C4 link BER",
          p.ber <= 3e-3 and p.bits >= 100_000,
          f"fixed Q16.3 Rayleigh/ZF 30 dB BER = {p.ber:.3e} (<= 3e-3) "
          f"over {p.bits} bits",
          time.time() - t0, budget=600.0)


def test_c5_depth_benefit(ofdm16):
    # 5-layer float BER <= (1/3) x 2-layer at 25 and 30 dB, 3 seeds.
    # Depth study convention: flat Rayleigh (one gain per OFDM symbol),
    # no receiver equalization, so decoding requires the network to infer
    # the gain from block structure; an affine 2-layer codec cannot.
    t0 = time.time()
    seeds = (1, 2, 3)
    ber = {2: {25.0: [], 30.0: []}, 5: {25.0: [], 30.0: []}}
    for layers in (2, 5):
        for seed in seeds:
            model = ae.build_model(ofdm16, 128, layers, seed=seed)
            cfg = fx.TrainConfig(epochs=150, batches_per_epoch=200,
                                 seed=seed, snr_range_db=(5.0, 25.0))
            trained = ae.train(model, cfg, channel="rayleigh_block",
                               equalize=False).model
            curve = mx.ber_sweep(trained, "float", "rayleigh_block",
                                 [25.0, 30.0], min_bits=100_000,
                                 max_bits=400_000,
                                 rng=np.random.default_rng(500 + seed),
                                 equalize=False)
            for p in curve.points:
                ber[layers][p.snr_db].append(p.ber)
    detail = []
    ok = True
    for snr in (25.0, 30.0):
        deep = float(np.mean(ber[5][snr]))
        shallow = float(np.mean(ber[2][snr]))
        ok &= deep <= shallow / 3.0
        detail.append(f"{snr:g} dB: 5-layer {deep:.3e} vs 2-layer "
                      f"{shallow:.3e} ({shallow / max(deep, 1e-12):.0f}x)")
    check("C5 depth benefit", ok, "; ".join(detail) + " (need >= 3x)",
          time.time() - t0, budget=2700.0)


def test_c6_width_error_tradeoff(ofdm16):
    # final-layer Q16.3 RMS non-decreasing over {64,128,256,512} for
    # >= 7/10 seeds
    t0 = time.time()
    widths = (64, 128, 256, 512)
    good = 0
    per_seed = []
    for seed in range(10):
        final = []
        for w in widths:
            model = ae.build_model(ofdm16, w, 5, seed=seed)
            cfg = fx.TrainConfig(epochs=15, batches_per_epoch=100, seed=seed,
                                 snr_range_db=(5.0, 25.0))
            trained = ae.train(model, cfg, channel="rayleigh").model
            rep = mx.layer_error_report(trained, Q16, 2000,
                                        np.random.default_rng(600 + seed))
            final.append(rep.final_layer)
        monotone = all(a <= b for a, b in zip(final, final[1:]))
        good += monotone
        per_seed.append(monotone)
    check("C6 width/error trade-off",
          good >= 7,
          f"RMS non-decreasing in width for {good}/10 seeds (>= 7); "
          f"per-seed: {per_seed}",
          time.time() - t0)


def test_c7_oracle_suites(awgn_model, tmp_path):
    t0 = time.time()
    import test_fixedpoint as tf
    import test_neuralnet as tn

    # a) MAC pipeline bit-exact vs arbitrary-precision oracle, 1e4 cases
    rng = np.random.default_rng(700)
    formats = [Q8, Q16, Q24, fx.make_qformat(32, 3)]
    for q in formats:
        for _ in range(2500):
            n = int(rng.integers(1, 80))
            a_raw = rng.integers(q.raw_min, q.raw_max + 1, size=n)
            w_raw = rng.integers(q.raw_min, q.raw_max + 1, size=n)
            b_raw = int(rng.integers(q.raw_min, q.raw_max + 1))
            got = fx.fx_dot(fx.FixedTensor(a_raw, q),
                            fx.FixedTensor(w_raw, q),
                            fx.FixedTensor(np.array(b_raw), q), q)
            assert got.raw == tf.oracle_dot_raw(a_raw, w_raw, b_raw,
                                                q.total_bits, q.frac_bits)

    # b) gradients vs central differences on 100 small nets
    tn.test_gradcheck_100_random_nets()

    # c) FFT round trip + Parseval
    for n in (8, 16, 32, 64):
        x = rng.normal(size=n) + 1j * rng.normal(size=n)
        assert np.max(np.abs(fx.fft(fx.ifft(x)) - x)) < 1e-9
        assert abs(np.linalg.norm(fx.fft(x)) - np.linalg.norm(x)) < 1e-9

    # d) uncoded QPSK/AWGN within 10% of Q(sqrt(2*snr)), snr = Eb/N0
    for ebn0 in (0.0, 4.0, 8.0):
        want = mx.qpsk_awgn_ber_theory(ebn0)
        min_bits = int(min(max(2000 / want, 100_000), 16_000_000))
        curve = mx.ber_sweep(None, "float", "awgn",
                             [mx.ebn0_to_symbol_snr_db(ebn0)],
                             min_bits=min_bits, max_bits=2 * min_bits,
                             rng=np.random.default_rng(701 + int(ebn0)))
        got = curve.points[0].ber
        assert abs(got - want) / want <= 0.10, (ebn0, got, want)

    # e) save/load bit-exact
    path = tmp_path / "m.fxl"
    fx.save_model(awgn_model, path)
    loaded = fx.load_model(path)
    for a, b in ((awgn_model.encoder, loaded.encoder),
                 (awgn_model.decoder, loaded.decoder)):
        assert np.array_equal(a.params, b.params)

    # f) fixed engine at 32 bits matches float decisions on 1e4 blocks
    qm = fx.quantize_model(awgn_model, fx.make_qformat(32, 3))
    rng2 = np.random.default_rng(702)
    bits = rng2.integers(0, 2, size=(10_000, 32))
    chan = fx.draw_channel("awgn", (10_000, 16), 20.0, rng2)
    out_f, _ = ae.end_to_end(awgn_model, bits, chan,
                             np.random.default_rng(703), engine="float")
    out_q, _ = ae.end_to_end(qm, bits, chan,
                             np.random.default_rng(703), engine="fixed")
    assert np.array_equal(out_f, out_q)

    elapsed = time.time() - t0
    check("C7 oracle suites", True,
          "MAC oracle 1e4 cases, gradcheck 100 nets, FFT 1e-9, QPSK "
          "theory 10%, save/load, 32-bit parity on 1e4 blocks",
          elapsed, budget=120.0)


def test_c8_latency_budget():
    t0 = time.time()
    cfg = fx.OfdmConfig()           # N=16, CP=4, 1 MHz -> 20 us budget
    dims = [32, 512, 512, 32, 512, 32]
    est = mx.estimate_latency(dims, 512, 4, 100e6, cfg)
    worst = max(l.cycles for l in est.layers)
    est_serial = mx.estimate_latency(dims, 1, 4, 100e6, cfg)
    ok = est.all_pass and not est_serial.all_pass \
        and worst == 516 and max(l.cycles for l in est_serial.layers) == 262_148
    check("C8 latency budget",
          ok,
          f"P=512: all {len(est.layers)} layers <= {worst} cycles "
          f"(5.16 us < {est.symbol_duration_us:g} us); P=1: "
          f"{max(l.cycles for l in est_serial.layers)} cycles fails",
          time.time() - t0, budget=1.0)
