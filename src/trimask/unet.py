"""Valid-convolution U-Net: configuration, weights, and whole-window inference.

All convolutions are valid (no zero padding) on both axes, so layer shapes
are fixed by kernels and strides and must compose exactly; the decoder
mirrors the encoder with transposed convolutions and skip-channel
concatenation. The head is a linear 1x1 convolution emitting the ten logit
grids of the two mask pairs (direct-vs-rest, noise-vs-rest).
"""

from __future__ import annotations

import struct
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .masking import LOGIT_CLAMP, MaskLogits
from .types import FEATURE_CHANNELS, FeatureStack

HEAD_CHANNELS = 10  # 2 mask pairs x (z_k, z_notk, beta_logit, q0, q1)

# Head logits whose masks pass the mixture through: direct sigma = 1,
# beta = 1, xi = +1; noise sigma = 0.
IDENTITY_HEAD = np.array([LOGIT_CLAMP, -LOGIT_CLAMP, -LOGIT_CLAMP, 0.0, 1.0,
                          -LOGIT_CLAMP, LOGIT_CLAMP, -LOGIT_CLAMP, 0.0, 1.0])

_MAGIC = b"PHMW"
_VERSION = 1


@dataclass(frozen=True)
class ConvSpec:
    kernel_f: int
    kernel_t: int
    stride_f: int
    stride_t: int
    in_ch: int
    out_ch: int


def _chain(size: int, kernel: int, stride: int, what: str) -> int:
    if size < kernel:
        raise ValueError(f"{what}: input extent {size} smaller than kernel {kernel}")
    if (size - kernel) % stride != 0:
        raise ValueError(
            f"{what}: extent {size} with kernel {kernel} stride {stride} "
            "does not divide exactly (decoder could not mirror it)"
        )
    return (size - kernel) // stride + 1


@dataclass(frozen=True)
class UNetConfig:
    """U-Net geometry. The decoder mirrors the encoder: decoder layer j has
    encoder level L+1-j's kernels and strides, reads the previous decoder
    output concatenated with that level's skip (the bottleneck alone for
    j = 1), and has `decoder_channels[j-1]` outputs. `decoder` is that
    derived ConvSpec tuple."""

    encoder: tuple
    decoder_channels: tuple
    in_bins: int = 253
    in_frames: int = 65
    activation_slope: float = 0.01
    lookahead_frames: int = 4
    decoder: tuple = field(init=False, repr=False)

    def __post_init__(self):
        if not self.encoder:
            raise ValueError("encoder must have at least one layer")
        if len(self.decoder_channels) != len(self.encoder):
            raise ValueError("decoder_channels must give one width per encoder level")
        if min(self.decoder_channels) < 1:
            raise ValueError("decoder_channels must be >= 1")
        if not (0 <= self.lookahead_frames <= self.in_frames - 1):
            raise ValueError("lookahead_frames out of range")
        if not np.isfinite(self.activation_slope):
            raise ValueError(f"activation_slope must be finite, got {self.activation_slope!r}")
        ch = FEATURE_CHANNELS
        f, t = self.in_bins, self.in_frames
        for i, spec in enumerate(self.encoder):
            if min(spec.kernel_f, spec.kernel_t, spec.stride_f, spec.stride_t, spec.out_ch) < 1:
                raise ValueError(f"enc{i + 1}: kernel sizes, strides and out_ch must be >= 1")
            if spec.in_ch != ch:
                raise ValueError(f"enc{i + 1}: expected in_ch {ch}, got {spec.in_ch}")
            f = _chain(f, spec.kernel_f, spec.stride_f, f"enc{i + 1} freq")
            t = _chain(t, spec.kernel_t, spec.stride_t, f"enc{i + 1} time")
            ch = spec.out_ch
        decoder = []
        for mirror, out_ch in zip(reversed(self.encoder), self.decoder_channels):
            in_ch = ch if not decoder else ch + mirror.out_ch
            decoder.append(ConvSpec(mirror.kernel_f, mirror.kernel_t, mirror.stride_f,
                                    mirror.stride_t, in_ch, out_ch))
            ch = out_ch
        object.__setattr__(self, "decoder", tuple(decoder))

    @property
    def depth(self) -> int:
        return len(self.encoder)

    @property
    def target_index(self) -> int:
        """Window position of the emitted frame: newest minus lookahead."""
        return self.in_frames - 1 - self.lookahead_frames

    def encoder_shapes(self):
        """Per-level (freq, time) extents, index 0 = input."""
        shapes = [(self.in_bins, self.in_frames)]
        for spec in self.encoder:
            f, t = shapes[-1]
            shapes.append((
                (f - spec.kernel_f) // spec.stride_f + 1,
                (t - spec.kernel_t) // spec.stride_t + 1,
            ))
        return shapes

    def decoder_shapes(self):
        """Per-decoder-layer output (freq, time) extents, index 0 = bottleneck."""
        shapes = [self.encoder_shapes()[-1]]
        for spec in self.decoder:
            f, t = shapes[-1]
            shapes.append((
                (f - 1) * spec.stride_f + spec.kernel_f,
                (t - 1) * spec.stride_t + spec.kernel_t,
            ))
        return shapes

    def layer_names(self):
        L = self.depth
        return [f"enc{i + 1}" for i in range(L)] + [f"dec{j + 1}" for j in range(L)] + ["head"]


_DEFAULT_CHANNELS = (16, 32, 48, 64, 80)
_DEFAULT_DEC_CHANNELS = (64, 48, 32, 16, 16)
_DEFAULT_TIME_STRIDES = (1, 2, 1, 2, 1)


def default_config(bins: int = 253, frames: int = 65, lookahead_frames: int = 4) -> UNetConfig:
    """Stock architecture: five 5x3 encoder layers, frequency stride 2,
    temporal strides (1,2,1,2,1), mirrored decoder with skip concatenation.

    The frequency kernel widens to 6 on levels where the running bin count
    is even, keeping the valid-convolution arithmetic exact for any input
    bin count (253 bins uses 5 everywhere).
    """
    enc = []
    f = bins
    ch = FEATURE_CHANNELS
    for out_ch, st in zip(_DEFAULT_CHANNELS, _DEFAULT_TIME_STRIDES):
        kf = 5 if (f - 5) % 2 == 0 else 6
        enc.append(ConvSpec(kernel_f=kf, kernel_t=3, stride_f=2, stride_t=st,
                            in_ch=ch, out_ch=out_ch))
        f = (f - kf) // 2 + 1
        ch = out_ch
    return UNetConfig(encoder=tuple(enc), decoder_channels=_DEFAULT_DEC_CHANNELS,
                      in_bins=bins, in_frames=frames, lookahead_frames=lookahead_frames)


def config_for_preset(stft_cfg, lookahead_ms: float = 32.0, frames: int = 65) -> UNetConfig:
    """Architecture matched to an STFT preset; lookahead rounds to frames."""
    if not np.isfinite(lookahead_ms):
        raise ValueError(f"lookahead_ms must be finite, got {lookahead_ms}")
    bins = stft_cfg.bin_count - stft_cfg.discard_low_bins
    frame_ms = stft_cfg.hop_size / 16.0  # 16 samples per ms at 16 kHz
    la = int(round(lookahead_ms / frame_ms))
    return default_config(bins=bins, frames=frames, lookahead_frames=la)


_SPEC_KEYS = tuple(f.name for f in fields(ConvSpec))
_CONFIG_KEYS = tuple(f.name for f in fields(UNetConfig) if f.init)


def config_to_json_dict(cfg: UNetConfig) -> dict:
    data = {key: getattr(cfg, key) for key in _CONFIG_KEYS}
    data["encoder"] = [asdict(spec) for spec in cfg.encoder]
    data["decoder_channels"] = list(cfg.decoder_channels)
    return data


def _check_int(value, what: str) -> None:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{what} must be an integer, got {value!r}")


def config_from_json_dict(data: dict) -> UNetConfig:
    """Inverse of config_to_json_dict; malformed input is a ValueError."""
    if not isinstance(data, dict):
        raise ValueError(f"config must be a JSON object, got {type(data).__name__}")
    unknown = sorted(set(data) - set(_CONFIG_KEYS))
    if unknown:
        raise ValueError(f"unknown config keys {unknown}; expected {list(_CONFIG_KEYS)}")
    for key in ("encoder", "decoder_channels"):
        if key not in data:
            raise ValueError(f"config is missing {key!r}")
        if not isinstance(data[key], list):
            raise ValueError(f"config {key!r} must be a list, got {data[key]!r}")
    for i, entry in enumerate(data["encoder"]):
        if not isinstance(entry, dict) or set(entry) != set(_SPEC_KEYS):
            raise ValueError(f"encoder entry {i + 1} must have exactly the keys "
                             f"{list(_SPEC_KEYS)}")
        for key, value in entry.items():
            _check_int(value, f"encoder entry {i + 1} {key!r}")
    for width in data["decoder_channels"]:
        _check_int(width, "config 'decoder_channels' entry")
    for key in ("in_bins", "in_frames", "lookahead_frames"):
        if key in data:
            _check_int(data[key], f"config {key!r}")
    slope = data.get("activation_slope", 0.0)
    if isinstance(slope, bool) or not isinstance(slope, (int, float)):
        raise ValueError(f"config 'activation_slope' must be a number, got {slope!r}")
    return UNetConfig(**{**data, "encoder": tuple(ConvSpec(**e) for e in data["encoder"]),
                         "decoder_channels": tuple(data["decoder_channels"])})


@dataclass
class WeightSet:
    """Named filter/bias tensors for one UNetConfig."""

    tensors: dict
    provenance: str = "unspecified"

    def __getitem__(self, name: str) -> np.ndarray:
        return self.tensors[name]

    @property
    def dtype(self):
        return next(iter(self.tensors.values())).dtype

    def astype(self, dtype) -> "WeightSet":
        return WeightSet({k: v.astype(dtype) for k, v in self.tensors.items()},
                         provenance=self.provenance)


def _weight_shapes(cfg: UNetConfig):
    shapes = {}
    for i, spec in enumerate(cfg.encoder):
        shapes[f"enc{i + 1}.weight"] = (spec.out_ch, spec.in_ch, spec.kernel_f, spec.kernel_t)
        shapes[f"enc{i + 1}.bias"] = (spec.out_ch,)
    for j, spec in enumerate(cfg.decoder):
        shapes[f"dec{j + 1}.weight"] = (spec.out_ch, spec.in_ch, spec.kernel_f, spec.kernel_t)
        shapes[f"dec{j + 1}.bias"] = (spec.out_ch,)
    shapes["head.weight"] = (HEAD_CHANNELS, cfg.decoder_channels[-1], 1, 1)
    shapes["head.bias"] = (HEAD_CHANNELS,)
    return shapes


def random_weights(cfg: UNetConfig, seed: int, dtype=np.float32) -> WeightSet:
    """Seeded uniform [-0.1, 0.1] weights (tests are equivalence-based)."""
    rng = np.random.default_rng(seed)
    tensors = {}
    for name, shape in _weight_shapes(cfg).items():
        tensors[name] = rng.uniform(-0.1, 0.1, size=shape).astype(dtype)
    return WeightSet(tensors, provenance=f"seed:{seed}")


def validate_weights(cfg: UNetConfig, weights: WeightSet) -> None:
    for name, shape in _weight_shapes(cfg).items():
        if name not in weights.tensors:
            raise ValueError(f"missing tensor: {name}")
        if tuple(weights.tensors[name].shape) != shape:
            raise ValueError(
                f"shape mismatch: {name} has {tuple(weights.tensors[name].shape)}, "
                f"config expects {shape}"
            )


def save_weights(path, weights: WeightSet) -> None:
    """Binary container: magic, version, then per-layer name + dims + f32 data."""
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<II", _VERSION, len(weights.tensors)))
        for name, tensor in weights.tensors.items():
            raw = name.encode("utf-8")
            fh.write(struct.pack("<I", len(raw)))
            fh.write(raw)
            fh.write(struct.pack("<I", tensor.ndim))
            fh.write(struct.pack(f"<{tensor.ndim}I", *tensor.shape))
            fh.write(np.ascontiguousarray(tensor, dtype="<f4").tobytes())


def load_weights(path, cfg: UNetConfig | None = None) -> WeightSet:
    with open(path, "rb") as fh:
        data = fh.read()
    off = 0

    def take(n: int) -> bytes:
        nonlocal off
        if off + n > len(data):
            raise ValueError(f"truncated weight file {path}")
        chunk = data[off : off + n]
        off += n
        return chunk

    if take(4) != _MAGIC:
        raise ValueError(f"bad magic in weight file {path}")
    version, count = struct.unpack("<II", take(8))
    if version != _VERSION:
        raise ValueError(f"unsupported weight file version {version}")
    tensors = {}
    for _ in range(count):
        (name_len,) = struct.unpack("<I", take(4))
        name = take(name_len).decode("utf-8")
        (rank,) = struct.unpack("<I", take(4))
        dims = struct.unpack(f"<{rank}I", take(4 * rank))
        n_items = int(np.prod(dims)) if rank else 1
        arr = np.frombuffer(take(4 * n_items), dtype="<f4").reshape(dims)
        if not np.all(np.isfinite(arr)):
            raise ValueError(f"non-finite values in tensor {name} of weight file {path}")
        tensors[name] = arr.astype(np.float32)
    ws = WeightSet(tensors, provenance=f"file:{path}")
    if cfg is not None:
        validate_weights(cfg, ws)
    return ws


def fuse_batchnorm(conv_w: np.ndarray, conv_b: np.ndarray, gamma, beta, mean, var,
                   eps: float = 1e-5):
    """Fold a per-channel batch norm into the preceding convolution.

    Returns (w', b') with w' = w * g/sqrt(v+eps) and
    b' = (b - m) * g/sqrt(v+eps) + beta, so the fused layer equals
    conv followed by normalization.
    """
    gamma = np.asarray(gamma, dtype=conv_w.dtype)
    beta = np.asarray(beta, dtype=conv_w.dtype)
    mean = np.asarray(mean, dtype=conv_w.dtype)
    var = np.asarray(var, dtype=conv_w.dtype)
    n_out = conv_w.shape[0]
    for name, arr in (("gamma", gamma), ("beta", beta), ("mean", mean), ("var", var)):
        if arr.shape != (n_out,):
            raise ValueError(f"channel-count mismatch: {name} has shape {arr.shape}, "
                             f"conv has {n_out} output channels")
    scale = gamma / np.sqrt(var + eps)
    return conv_w * scale[:, None, None, None], (conv_b - mean) * scale + beta


def leaky(x: np.ndarray, slope: float) -> np.ndarray:
    return np.maximum(x, np.asarray(slope, dtype=x.dtype) * x)


def conv_valid(x: np.ndarray, w: np.ndarray, b: np.ndarray, sf: int, st: int,
               counter=None, name: str | None = None) -> np.ndarray:
    """Valid strided 2-D convolution; x is (C, F, T), w is (O, C, kf, kt)."""
    O, C, kf, kt = w.shape
    _, F, T = x.shape
    Fo = (F - kf) // sf + 1
    To = (T - kt) // st + 1
    windows = np.lib.stride_tricks.sliding_window_view(x, (kf, kt), axis=(1, 2))
    windows = windows[:, ::sf, ::st]  # (C, Fo, To, kf, kt)
    cols = np.ascontiguousarray(windows.transpose(0, 3, 4, 1, 2)).reshape(C * kf * kt, Fo * To)
    y = (w.reshape(O, -1) @ cols).reshape(O, Fo, To)
    y += b[:, None, None]
    if counter is not None:
        counter[name] = counter.get(name, 0) + O * C * kf * kt * Fo * To
    return y


def conv_transposed_valid(x: np.ndarray, w: np.ndarray, b: np.ndarray, sf: int, st: int,
                          counter=None, name: str | None = None) -> np.ndarray:
    """Valid transposed 2-D convolution (scatter form); output grows by
    kernel-1 per axis. Edge positions naturally receive fewer taps."""
    O, C, kf, kt = w.shape
    _, F, T = x.shape
    Fo = (F - 1) * sf + kf
    To = (T - 1) * st + kt
    y = np.empty((O, Fo, To), dtype=x.dtype)
    y[:] = b[:, None, None]
    flat = x.reshape(C, F * T)
    contrib = (w.transpose(2, 3, 0, 1).reshape(kf * kt * O, C) @ flat).reshape(kf, kt, O, F, T)
    for i in range(kf):
        for j in range(kt):
            y[:, i : i + (F - 1) * sf + 1 : sf, j : j + (T - 1) * st + 1 : st] += contrib[i, j]
    if counter is not None:
        counter[name] = counter.get(name, 0) + O * C * kf * kt * F * T
    return y


def unet_forward(x: np.ndarray, weights: WeightSet, cfg: UNetConfig,
                 counter=None) -> np.ndarray:
    """Full forward pass over a (FEATURE_CHANNELS, F, T) tensor -> (10, F, T) logits."""
    slope = cfg.activation_slope
    skips = []
    h = x
    for i, spec in enumerate(cfg.encoder):
        h = leaky(conv_valid(h, weights[f"enc{i + 1}.weight"], weights[f"enc{i + 1}.bias"],
                             spec.stride_f, spec.stride_t, counter, f"enc{i + 1}"), slope)
        skips.append(h)
    L = len(cfg.encoder)
    for j, spec in enumerate(cfg.decoder):
        inp = h if j == 0 else np.concatenate([h, skips[L - 1 - j]], axis=0)
        h = leaky(conv_transposed_valid(inp, weights[f"dec{j + 1}.weight"],
                                        weights[f"dec{j + 1}.bias"],
                                        spec.stride_f, spec.stride_t, counter, f"dec{j + 1}"),
                  slope)
    hw = weights["head.weight"]
    O, C = hw.shape[0], hw.shape[1]
    _, F, T = h.shape
    logits = (hw.reshape(O, C) @ h.reshape(C, F * T)).reshape(O, F, T)
    logits += weights["head.bias"][:, None, None]
    if counter is not None:
        counter["head"] = counter.get("head", 0) + O * C * F * T
    return logits


def split_head(head: np.ndarray):
    """Split (10, T, F) head logits into the direct and noise MaskLogits,
    each field a view of one channel (channel order = MaskLogits fields)."""
    if head.shape[0] != HEAD_CHANNELS:
        raise ValueError(f"expected {HEAD_CHANNELS} head channels, got {head.shape[0]}")
    return MaskLogits(*head[:5]), MaskLogits(*head[5:])


def features_to_tensor(features, cfg: UNetConfig, dtype) -> np.ndarray:
    """FeatureStack (5, T, F) -> engine layout (C, F, T), validated."""
    arr = features.channels if isinstance(features, FeatureStack) else np.asarray(features)
    if arr.ndim != 3 or arr.shape[0] != FEATURE_CHANNELS:
        raise ValueError(f"expected ({FEATURE_CHANNELS}, T, F) features, got {arr.shape}")
    if arr.shape[2] != cfg.in_bins:
        raise ValueError(f"expected {cfg.in_bins} bins, got {arr.shape[2]}")
    return np.ascontiguousarray(arr.transpose(0, 2, 1), dtype=dtype)


def naive_infer(features, weights: WeightSet, cfg: UNetConfig, counter=None):
    """Whole-window forward pass; returns the (10, F) head frame at window
    position in_frames - 1 - lookahead_frames, in the weights' dtype."""
    x = features_to_tensor(features, cfg, weights.dtype)
    if x.shape[2] != cfg.in_frames:
        raise ValueError(f"expected {cfg.in_frames} frames, got {x.shape[2]}")
    logits = unet_forward(x, weights, cfg, counter)
    return logits[:, :, cfg.target_index]
