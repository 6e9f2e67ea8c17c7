"""Fixed-point neural codec for an OFDM link.

Train a fully-connected encoder/decoder pair around the channel, ship the
weights as a checksummed artifact, run bit-exact fixed-point inference the
way a hardware MAC datapath would, and measure what the quantization costs:
per-layer error, EVM, BER, and per-layer latency against the OFDM symbol
budget.
"""

from .autoencoder import (AutoencoderModel, SymbolBlock, TrainResult,
                          TrainingDiverged, build_model, calibrate_ranges,
                          end_to_end, train)
from .fixedpoint import (BitAllocationError, FixedTensor, FormatMismatchError,
                         QFormat, fx_dot, fx_linear, make_qformat, quantize)
from .metrics import (BerCurve, LatencyEstimate, LayerErrorReport, SweepRow,
                      SweepSpec, ber_sweep, estimate_latency, evm,
                      layer_error_report, qpsk_awgn_ber_theory, relative_rms,
                      run_sweep)
from .neuralnet import (AdamState, DenseLayer, FCNet, QuantizedNet,
                        TrainConfig, forward_fixed, forward_float, init_he,
                        optimizer_step, quantize_net)
from .ofdmlink import (CHANNEL_KINDS, ChannelRealization, OfdmConfig, add_cp,
                       apply_channel, draw_channel, equalize_zf, fft, ifft,
                       qam4_demodulate, qam4_modulate, remove_cp, to_complex,
                       to_reals)
from .paramdelivery import (ArtifactError, ChecksumMismatch, ModelArtifact,
                            UnsupportedVersion, load_artifact, load_model,
                            quantize_model, save_model)

__version__ = "0.1.0"
