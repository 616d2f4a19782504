"""End-to-end enhancement pipeline.

stft -> trim -> features -> per-frame mask logits (streaming or windowed
backend) -> mask assembly -> quadrangle decomposition -> restore -> istft
per component -> remix (optionally compressed). Frames outside the
backend's coverage (the first window minus lookahead, and the trailing
lookahead) receive identity masks: direct passes the mixture through, noise
is zero. Both backends compute the same mathematical object, so their
outputs agree to within accumulation order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import spectral
from .dynamics import DrcConfig, compress
from .masking import assemble_masks, check_reverb_gain_db, quadrangle_decompose, remix
from .opcount import OpCountReport, count_ops
from .streaming import StreamState, stream_push
from .types import SignalBuffer, as_samples
from .unet import (IDENTITY_HEAD, UNetConfig, WeightSet, features_to_tensor, split_head,
                   unet_forward)
from .spectral import StftConfig

MODES = ("causal-stream", "noncausal-window")


@dataclass
class EnhanceResult:
    direct: SignalBuffer
    reverb: SignalBuffer
    noise: SignalBuffer
    remixed: SignalBuffer
    op_report: OpCountReport
    mode: str
    frames_total: int
    frames_emitted: int


def enhance(signal, weights: WeightSet, cfg: UNetConfig, stft_cfg: StftConfig,
            mode: str = "causal-stream", reverb_gain_db: float = -15.0,
            drc: DrcConfig | None = None) -> EnhanceResult:
    """Separate a 16 kHz mixture into direct/reverb/noise estimates and a remix.

    The three component estimates always sum to the engine's front-end round
    trip of the input, independent of the weights.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    check_reverb_gain_db(reverb_gain_db)
    x = as_samples(signal)

    spec_full = spectral.stft(x, stft_cfg)
    spec = spectral.trim_low_bins(spec_full, stft_cfg.discard_low_bins)
    feats = spectral.extract_features(spec, stft_cfg)
    n_frames = feats.frame_count
    if feats.bin_count != cfg.in_bins:
        raise ValueError(f"config expects {cfg.in_bins} bins, features have {feats.bin_count}")

    # head logits per frame; frames the backend never emits keep identity masks
    grids = np.tile(IDENTITY_HEAD[:, None, None], (1, n_frames, cfg.in_bins))
    la = cfg.lookahead_frames
    t0 = cfg.in_frames
    emitted = 0

    if mode == "causal-stream":
        state = StreamState(cfg, weights)
        frames = feats.channels.transpose(0, 2, 1)  # (C, F, T)
        for t in range(n_frames):
            head = stream_push(frames[:, :, t], state)
            if head is not None:
                grids[:, t - la] = head
                emitted += 1
        del state  # its packed decoder weights would sit on the mask-assembly peak
    else:
        tensor = features_to_tensor(feats, cfg, weights.dtype)
        for target in range(t0 - 1 - la, n_frames - la):
            window = tensor[:, :, target + la - (t0 - 1) : target + la + 1]
            grids[:, target] = unet_forward(window, weights, cfg)[:, :, cfg.target_index]
            emitted += 1

    logits_d, logits_n = split_head(grids)
    field_d = assemble_masks(logits_d)
    field_n = assemble_masks(logits_n)
    y_d, y_r, y_n = quadrangle_decompose(spec, field_d, field_n)

    n = stft_cfg.discard_low_bins
    sig_d = spectral.istft(spectral.restore_low_bins(y_d, n), stft_cfg, length=len(x))
    sig_r = spectral.istft(spectral.restore_low_bins(y_r, n), stft_cfg, length=len(x))
    sig_n = spectral.istft(spectral.restore_low_bins(y_n, n), stft_cfg, length=len(x))

    remixed = remix(sig_d, sig_r, reverb_gain_db)
    if drc is not None:
        remixed = compress(remixed, drc)

    return EnhanceResult(direct=sig_d, reverb=sig_r, noise=sig_n, remixed=remixed,
                         op_report=count_ops(cfg), mode=mode,
                         frames_total=n_frames, frames_emitted=emitted)


def oracle_reconstruct(truth, stft_cfg: StftConfig):
    """Reconstruct a simulated mixture's components through analytically
    fitted masks (untrimmed spectra); exactness of the mask algebra makes
    this a near-perfect decomposition."""
    from .masking import oracle_fit

    X = spectral.stft(truth.x, stft_cfg)
    field_d = assemble_masks(oracle_fit(X, spectral.stft(truth.y_d, stft_cfg)))
    field_n = assemble_masks(oracle_fit(X, spectral.stft(truth.y_n, stft_cfg)))
    y_d, y_r, y_n = quadrangle_decompose(X, field_d, field_n)
    n = len(truth.x)
    return (spectral.istft(y_d, stft_cfg, length=n),
            spectral.istft(y_r, stft_cfg, length=n),
            spectral.istft(y_n, stft_cfg, length=n))
