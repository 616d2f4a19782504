"""trimask: single-stage speech denoising and dereverberation.

Complex time-frequency masks built from triangle geometry (beta-scaled
sigmoid magnitudes, a phase that closes the triangle, binary rotation sign),
computed in closed form from the triangle's sides, decompose a mixture into
direct source, reverberation, and noise; a valid-convolution U-Net supplies
the mask logits either windowed or incrementally with per-layer frame
queues.
"""

from .types import SAMPLE_RATE, ComplexSpectrogram, SignalBuffer
from .spectral import (NRT_PRESET, PRESETS, RT_PRESET, StftConfig,
                       OverlapAdd, extract_features, istft, restore_low_bins, stft,
                       trim_low_bins)
from .wavio import read_wav, write_wav
from .masking import MaskLogits, assemble_masks, oracle_fit, quadrangle_decompose, remix
from .losses import (cos_sim_loss, emphasized_loss, final_loss, loss_gradient, mu_law,
                     multiscale_loss, pre_emphasis)
from .unet import (ConvSpec, UNetConfig, WeightSet, config_for_preset,
                   config_from_json_dict, config_to_json_dict, default_config,
                   fuse_batchnorm, load_weights, naive_infer, random_weights,
                   save_weights, split_head, validate_weights)
from .streaming import StreamPlan, StreamState, required_queues, stream_push
from .opcount import LayerOps, OpCountReport, count_ops, measured_ops
from .simulate import (MixtureTruth, RirParams, ScenarioRanges, mix,
                       sample_scenario, synth_rir, tail_envelope)
from .metrics import MetricReport, evaluate_pair, phase_distance, phase_gain, si_sdr
from .dynamics import DrcConfig, DrcState, compress
from .enhance import (EnhancedSamples, EnhanceResult, StreamingEnhancer, enhance,
                      oracle_reconstruct)

__version__ = "0.1.0"
