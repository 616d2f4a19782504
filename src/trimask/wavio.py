"""WAV file I/O: 16 kHz mono, little-endian RIFF; reads 16-bit PCM or 32-bit
float and writes 32-bit float."""

from __future__ import annotations

import numpy as np
from scipy.io import wavfile

from .types import SAMPLE_RATE, SignalBuffer, as_samples

_PCM16_SCALE = 32767.0


def read_wav(path) -> SignalBuffer:
    """Read a 16 kHz mono WAV file (PCM16 or float32) into a SignalBuffer."""
    try:
        rate, data = wavfile.read(path)
    except Exception as exc:
        raise ValueError(f"cannot read WAV file {path}: {exc}") from exc
    if rate != SAMPLE_RATE:
        raise ValueError(f"unsupported sample rate {rate} Hz in {path} (expected {SAMPLE_RATE})")
    if data.ndim != 1:
        raise ValueError(f"unsupported channel count {data.shape[1]} in {path} (expected mono)")
    if data.dtype == np.int16:
        samples = data.astype(np.float64) / _PCM16_SCALE
    elif data.dtype == np.float32:
        samples = data.astype(np.float64)
    else:
        raise ValueError(f"unsupported sample format {data.dtype} in {path} "
                         "(expected int16 PCM or float32)")
    if not np.all(np.isfinite(samples)):
        raise ValueError(f"non-finite samples in {path}")
    return SignalBuffer(samples=samples)


def write_wav(path, signal) -> None:
    """Write a signal as 16 kHz mono 32-bit float WAV."""
    wavfile.write(path, SAMPLE_RATE, as_samples(signal).astype(np.float32))
