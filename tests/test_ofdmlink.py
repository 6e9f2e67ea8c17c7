"""OFDM chain components: exact mappings, unitarity, channel statistics."""

import numpy as np
import pytest

from fxlink.metrics import ebn0_to_symbol_snr_db, qpsk_awgn_ber_theory
from fxlink.ofdmlink import (ZF_SINGULAR_THRESHOLD, ChannelRealization,
                             OfdmConfig, add_cp, apply_channel, draw_channel,
                             equalize_zf, fft, ifft, qam4_demodulate,
                             qam4_modulate, remove_cp, to_complex, to_reals)

S = 1 / np.sqrt(2)


# ---------------------------------------------------------------------------
# 4-QAM
# ---------------------------------------------------------------------------

def test_modulate_gray_mapping():
    sym = qam4_modulate(np.array([0, 0, 1, 1, 0, 1, 1, 0]))
    assert sym[0] == pytest.approx(S + 1j * S)
    assert sym[1] == pytest.approx(-S - 1j * S)
    assert sym[2] == pytest.approx(S - 1j * S)
    assert sym[3] == pytest.approx(-S + 1j * S)


def test_modulate_unit_power():
    rng = np.random.default_rng(0)
    sym = qam4_modulate(rng.integers(0, 2, size=2048))
    assert np.allclose(np.abs(sym) ** 2, 1.0)


def test_modulate_odd_length_rejected():
    with pytest.raises(ValueError):
        qam4_modulate(np.array([0, 1, 0]))


def test_demodulate_sign_rule():
    assert np.array_equal(qam4_demodulate(np.array([0.7 + 0.7j])), [0, 0])
    assert np.array_equal(qam4_demodulate(np.array([-0.1 + 0.9j])), [1, 0])


def test_mod_demod_roundtrip_exhaustive():
    bits = np.array([0, 0, 0, 1, 1, 0, 1, 1])
    assert np.array_equal(qam4_demodulate(qam4_modulate(bits)), bits)


# ---------------------------------------------------------------------------
# FFT pair
# ---------------------------------------------------------------------------

def test_fft_impulse():
    e0 = np.zeros(16, dtype=complex)
    e0[0] = 1.0
    assert np.allclose(fft(e0), 0.25)


@pytest.mark.parametrize("n", [8, 16, 32, 64])
def test_fft_roundtrip_and_parseval(n):
    rng = np.random.default_rng(n)
    x = rng.normal(size=n) + 1j * rng.normal(size=n)
    assert np.max(np.abs(fft(ifft(x)) - x)) < 1e-9
    assert abs(np.linalg.norm(fft(x)) - np.linalg.norm(x)) < 1e-9


def test_fft_rejects_non_power_of_two():
    with pytest.raises(ValueError):
        fft(np.zeros(12, dtype=complex))


# ---------------------------------------------------------------------------
# cyclic prefix
# ---------------------------------------------------------------------------

def test_cp_example():
    x = np.array([1.0, 2.0, 3.0, 4.0])
    assert np.array_equal(add_cp(x, 1), [4.0, 1.0, 2.0, 3.0, 4.0])


def test_cp_roundtrip_and_length():
    rng = np.random.default_rng(1)
    x = rng.normal(size=16) + 1j * rng.normal(size=16)
    y = add_cp(x, 4)
    assert y.shape[-1] == 20
    assert np.array_equal(remove_cp(y, 4), x)


def test_cp_too_long():
    with pytest.raises(ValueError):
        add_cp(np.zeros(4), 4)


# ---------------------------------------------------------------------------
# channels
# ---------------------------------------------------------------------------

def test_identity_channel_noiseless():
    x = np.array([1.0 + 1j, -2.0 + 0.5j])
    chan = ChannelRealization(np.ones(2, dtype=complex), np.inf)
    y = apply_channel(x, chan, np.random.default_rng(0))
    assert np.array_equal(y, x)


def test_awgn_noise_power():
    rng = np.random.default_rng(2)
    x = np.zeros(100_000, dtype=complex)
    chan = ChannelRealization(np.ones(x.size, dtype=complex), 0.0)
    y = apply_channel(x, chan, rng)
    assert np.mean(np.abs(y) ** 2) == pytest.approx(1.0, rel=0.05)


def test_awgn_empirical_snr_within_02db():
    rng = np.random.default_rng(3)
    snr_db = 10.0
    n = 1_000_000
    x = qam4_modulate(rng.integers(0, 2, size=2 * n))
    chan = ChannelRealization(np.ones(n, dtype=complex), snr_db)
    y = apply_channel(x, chan, rng)
    measured = 10 * np.log10(np.mean(np.abs(x) ** 2)
                             / np.mean(np.abs(y - x) ** 2))
    assert abs(measured - snr_db) < 0.2


def test_rayleigh_unit_average_power():
    rng = np.random.default_rng(4)
    chan = draw_channel("rayleigh", 100_000, 20.0, rng)
    assert np.mean(np.abs(chan.h) ** 2) == pytest.approx(1.0, rel=0.02)


def test_rayleigh_block_shares_gain_per_symbol():
    rng = np.random.default_rng(5)
    chan = draw_channel("rayleigh_block", (50, 16), 20.0, rng)
    assert np.all(chan.h == chan.h[:, :1])
    assert len(np.unique(chan.h[:, 0])) == 50


def test_channel_accepts_real_gains_and_symbols():
    x = np.array([1.0, -1.0, 1.0, -1.0])
    y = apply_channel(x, ChannelRealization(np.ones(4), 10.0),
                      np.random.default_rng(1))
    want = apply_channel(x.astype(complex),
                         ChannelRealization(np.ones(4, dtype=complex), 10.0),
                         np.random.default_rng(1))
    assert np.array_equal(y, want)


def test_channel_length_mismatch():
    chan = ChannelRealization(np.ones(4, dtype=complex), 10.0)
    with pytest.raises(ValueError):
        apply_channel(np.zeros(5, dtype=complex), chan,
                      np.random.default_rng(0))


# ---------------------------------------------------------------------------
# equalizer
# ---------------------------------------------------------------------------

def test_zf_inverts_noiseless():
    rng = np.random.default_rng(6)
    x = rng.normal(size=8) + 1j * rng.normal(size=8)
    h = rng.normal(size=8) + 1j * rng.normal(size=8)
    assert np.allclose(equalize_zf(h * x, h), x)


def test_zf_identity_for_unit_gain():
    y = np.array([1.0 + 2j, 3.0 - 1j])
    assert np.array_equal(equalize_zf(y, np.ones(2, dtype=complex)), y)


def test_zf_flags_singular_subcarrier():
    y = np.array([1.0 + 0j, 1.0 + 0j])
    h = np.array([1.0 + 0j, 0.0 + 0j])
    singular = np.abs(h) < ZF_SINGULAR_THRESHOLD
    assert singular.tolist() == [False, True]
    assert equalize_zf(y, h).tolist() == [1.0, 0.0]


# ---------------------------------------------------------------------------
# full uncoded chain
# ---------------------------------------------------------------------------

def uncoded_chain(bits, cfg, chan, rng):
    tx = qam4_modulate(bits)
    tx_time = add_cp(ifft(tx), cfg.cp_len)
    rx = fft(remove_cp(tx_time, cfg.cp_len))
    rx = apply_channel(rx, chan, rng)
    return qam4_demodulate(equalize_zf(rx, chan.h))


def test_noiseless_chain_identity():
    cfg = OfdmConfig()
    rng = np.random.default_rng(7)
    bits = rng.integers(0, 2, size=(100, 32))
    chan = ChannelRealization(np.ones((100, 16), dtype=complex), np.inf)
    assert np.array_equal(uncoded_chain(bits, cfg, chan, rng), bits)


@pytest.mark.parametrize("ebn0_db", [0.0, 4.0, 8.0])
def test_uncoded_qpsk_awgn_matches_theory(ebn0_db):
    # analytic oracle: BER = Q(sqrt(2*snr)) with snr meaning Eb/N0
    cfg = OfdmConfig()
    rng = np.random.default_rng(int(ebn0_db) + 10)
    want = qpsk_awgn_ber_theory(ebn0_db)
    # aim for ~3000 errors so the 10% band sits at ~5 sigma
    n_bits_needed = int(max(3000 / want, 200_000))
    n_blocks = min(n_bits_needed // 32 + 1, 600_000)
    symbol_snr = ebn0_to_symbol_snr_db(ebn0_db)
    errors = 0
    total = 0
    step = 4096
    for start in range(0, n_blocks, step):
        m = min(step, n_blocks - start)
        bits = rng.integers(0, 2, size=(m, 32))
        chan = draw_channel("awgn", (m, 16), symbol_snr, rng)
        out = uncoded_chain(bits, cfg, chan, rng)
        errors += int(np.sum(out != bits))
        total += bits.size
    assert errors / total == pytest.approx(want, rel=0.10)


def test_interleaving_roundtrip():
    rng = np.random.default_rng(8)
    z = rng.normal(size=(3, 5)) + 1j * rng.normal(size=(3, 5))
    assert np.array_equal(to_complex(to_reals(z)), z)
    r = rng.normal(size=6)
    assert np.array_equal(to_reals(to_complex(r)), r)
