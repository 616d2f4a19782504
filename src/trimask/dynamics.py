"""Zero-delay single-band dynamic range compression.

The detector averages the squared signal over a short causal window (2 ms)
and smooths that power with a one-pole follower using attack/release
coefficients 1 - exp(-1/(ms * 16)); the tracked level is an RMS measure and
levels are RMS dB. The pre-average removes the double-frequency ripple of
tonal inputs, which would otherwise bias the asymmetric follower above the
RMS level. Gain is applied sample-synchronously with no lookahead: output n
depends only on inputs <= n.

A signal may be compressed in consecutive blocks through one
:class:`DrcState`; the blocks' outputs then equal one whole-signal call
bit for bit. A call runs in fixed chunks through that state itself, so its
memory beyond the output does not grow with the signal's length.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .types import SignalBuffer, as_samples, check_fields

_ENV_FLOOR = 1e-30
_POWER_WINDOW = 32  # 2 ms at 16 kHz, causal
# Samples per chunk of one call. On 20 s of noise (2 vCPUs), chunks of 2048, 4096,
# 8192, 16384, 32768 and 65536 samples took a median 39.7, 37.9, 39.1, 37.7,
# 35.9 and 36.5 ms, and one whole-signal pass 50.9 ms; the tracemalloc peak
# beyond the 2.4 MiB result was 0.31, 0.41, 0.82, 1.63, 3.27, 6.54 and
# 31.8 MiB. 16384 is one rt engine block.
_CHUNK = 16384


@dataclass(frozen=True)
class DrcConfig:
    threshold_db: float = -18.0
    ratio: float = 3.0
    attack_ms: float = 5.0
    release_ms: float = 50.0
    makeup_db: float = 0.0

    def __post_init__(self):
        check_fields(self, float, "threshold_db", "ratio", "attack_ms", "release_ms", "makeup_db")
        with np.errstate(over="ignore"):
            if not np.isfinite(np.power(10.0, self.makeup_db / 20.0)):
                raise ValueError(f"makeup_db must have a finite 10^(gain/20), "
                                 f"got {self.makeup_db}")
        if self.ratio < 1.0:
            raise ValueError("ratio must be >= 1")
        if self.attack_ms <= 0 or self.release_ms <= 0:
            raise ValueError("attack/release must be positive")


@dataclass
class DrcState:
    """What the compressor carries from one block to the next: the follower
    envelope and the running sums of x^2 at the last `_POWER_WINDOW` + 1
    sample boundaries (fewer at the head of the signal), oldest first."""

    env: float = 0.0
    csum: np.ndarray = field(default_factory=lambda: np.zeros(1))


def compress(signal, cfg: DrcConfig = DrcConfig(), state: DrcState | None = None) -> SignalBuffer:
    """Feedforward compressor: gain_db = min(0, (threshold - env_db) *
    (1 - 1/ratio)) + makeup_db, evaluated per sample.

    With ``state``, the signal continues the one that state has seen, and
    the state advances past it.
    """
    x = as_samples(signal)
    if state is None:
        state = DrcState()
    out = np.empty(len(x))
    for i in range(0, len(x), _CHUNK):
        out[i : i + _CHUNK] = _compress_chunk(x[i : i + _CHUNK], cfg, state)
    return SignalBuffer(samples=out)


def _compress_chunk(x: np.ndarray, cfg: DrcConfig, state: DrcState) -> np.ndarray:
    a_att = 1.0 - math.exp(-1.0 / (cfg.attack_ms * 16.0))
    a_rel = 1.0 - math.exp(-1.0 / (cfg.release_ms * 16.0))
    slope = 1.0 - 1.0 / cfg.ratio

    # causal moving-average power (partial windows at the head); the running
    # sum continues from the carried one, so it adds in whole-signal order
    carried = len(state.csum)
    sq = np.concatenate([state.csum[-1:], x * x])
    csum = np.concatenate([state.csum[:-1], np.cumsum(sq)])
    end = np.arange(carried, carried + len(x))
    start = np.maximum(end - _POWER_WINDOW, 0)
    power = (csum[end] - csum[start]) / (end - start)
    state.csum = csum[-(_POWER_WINDOW + 1):]

    env = []
    e = state.env
    for p in power.tolist():
        e += (a_att if p > e else a_rel) * (p - e)
        env.append(e)
    state.env = e

    env_db = 10.0 * np.log10(np.array(env) + _ENV_FLOOR)
    gain_db = np.minimum(0.0, (cfg.threshold_db - env_db) * slope) + cfg.makeup_db
    return x * 10.0 ** (gain_db / 20.0)
