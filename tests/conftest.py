"""Shared trained models (session-scoped: training is the slow part)."""

import pytest

import fxlink as fx
from fxlink import autoencoder as ae

try:
    from hypothesis import settings
except ImportError:
    pass
else:
    # a failing property prints the blob that reproduces it; each test
    # keeps its own max_examples and deadline
    settings.register_profile("fxlink", print_blob=True)
    settings.load_profile("fxlink")

REF_SEED = 0
REF_HIDDEN = 128
REF_LAYERS = 5
REF_TRAIN = dict(learning_rate=1e-3, batch_size=64, epochs=100,
                 batches_per_epoch=200, snr_range_db=(5.0, 25.0))


@pytest.fixture(scope="session")
def ofdm16():
    return fx.OfdmConfig()


@pytest.fixture(scope="session")
def ref_model(ofdm16):
    """Reference link model: 5 weight layers, trained on equalized Rayleigh."""
    model = ae.build_model(ofdm16, REF_HIDDEN, REF_LAYERS, seed=REF_SEED)
    cfg = fx.TrainConfig(seed=REF_SEED, **REF_TRAIN)
    return ae.train(model, cfg, channel="rayleigh", equalize=True).model


@pytest.fixture(scope="session")
def ref_qmodel(ref_model):
    return fx.quantize_model(ref_model, fx.make_qformat(16, 3))


@pytest.fixture(scope="session")
def awgn_model(ofdm16):
    """Smaller model trained on AWGN; converges to a zero noiseless
    error floor (no bit errors over 2e6 noiseless bits)."""
    model = ae.build_model(ofdm16, 64, 5, seed=1)
    cfg = fx.TrainConfig(learning_rate=1e-3, batch_size=64, epochs=150,
                         batches_per_epoch=100, seed=1,
                         snr_range_db=(5.0, 25.0))
    return ae.train(model, cfg, channel="awgn").model
