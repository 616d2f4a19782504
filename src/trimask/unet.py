"""Valid-convolution U-Net: configuration, weights, and whole-window inference.

All convolutions are valid (no zero padding) on both axes, so layer shapes
are fixed by kernels and strides and must compose exactly; the decoder
mirrors the encoder with transposed convolutions and skip-channel
concatenation. The head is a linear 1x1 convolution emitting the ten logit
grids of the two mask pairs (direct-vs-rest, noise-vs-rest).
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from .masking import LOGIT_CLAMP, MaskLogits
from .types import FEATURE_CHANNELS, check_fields

HEAD_CHANNELS = 10  # 2 mask pairs x (z_k, z_notk, beta_logit, q0, q1)
LEAKY_SLOPE = 0.01  # of every encoder and decoder layer's leaky ReLU
BN_EPS = 1e-5  # variance stabilizer of the batch norms fuse_batchnorm folds

# Head logits whose masks pass the mixture through: direct sigma = 1,
# beta = 1, xi = +1; noise sigma = 0.
IDENTITY_HEAD = np.array([LOGIT_CLAMP, -LOGIT_CLAMP, -LOGIT_CLAMP, 0.0, 1.0,
                          -LOGIT_CLAMP, LOGIT_CLAMP, -LOGIT_CLAMP, 0.0, 1.0])

_MAGIC = b"PHMW"
_VERSION = 2  # 2 appends a CRC32 of every byte before it; 1 has no checksum


@dataclass(frozen=True)
class ConvSpec:
    kernel_f: int
    kernel_t: int
    stride_f: int
    stride_t: int
    out_ch: int

    def __post_init__(self):
        check_fields(self, int, "kernel_f", "kernel_t", "stride_f", "stride_t", "out_ch")


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
    derived ConvSpec tuple, and `in_channels` every layer's input width,
    enc1..encL then dec1..decL."""

    encoder: tuple
    decoder_channels: tuple
    in_bins: int = 253
    in_frames: int = 65
    lookahead_frames: int = 4
    decoder: tuple = field(init=False, repr=False)
    in_channels: tuple = field(init=False, repr=False)
    _shapes: tuple = field(init=False, repr=False)  # per-level (freq, time), 0 = input

    def __post_init__(self):
        check_fields(self, int, "in_bins", "in_frames", "lookahead_frames")
        check_fields(self, int, "decoder_channels", arity=-1)
        if not self.encoder:
            raise ValueError("encoder must have at least one layer")
        if len(self.decoder_channels) != len(self.encoder):
            raise ValueError("decoder_channels must give one width per encoder level")
        if min(self.decoder_channels) < 1:
            raise ValueError("decoder_channels must be >= 1")
        if not (0 <= self.lookahead_frames <= self.in_frames - 1):
            raise ValueError("lookahead_frames out of range")
        shapes = [(self.in_bins, self.in_frames)]
        widths = [FEATURE_CHANNELS]
        for i, spec in enumerate(self.encoder):
            if min(spec.kernel_f, spec.kernel_t, spec.stride_f, spec.stride_t, spec.out_ch) < 1:
                raise ValueError(f"enc{i + 1}: kernel sizes, strides and out_ch must be >= 1")
            f, t = shapes[-1]
            shapes.append((_chain(f, spec.kernel_f, spec.stride_f, f"enc{i + 1} freq"),
                           _chain(t, spec.kernel_t, spec.stride_t, f"enc{i + 1} time")))
            widths.append(spec.out_ch)  # the last is dec1's: the bottleneck alone
        for skip, prev in zip(reversed(self.encoder[:-1]), self.decoder_channels):
            widths.append(prev + skip.out_ch)
        object.__setattr__(self, "_shapes", tuple(shapes))
        object.__setattr__(self, "in_channels", tuple(widths))
        decoder = zip(reversed(self.encoder), self.decoder_channels)
        object.__setattr__(self, "decoder", tuple(replace(m, out_ch=w) for m, w in decoder))

    @property
    def depth(self) -> int:
        return len(self.encoder)

    @property
    def target_index(self) -> int:
        """Window position of the emitted frame: newest minus lookahead."""
        return self.in_frames - 1 - self.lookahead_frames

    def encoder_shapes(self):
        """Per-level (freq, time) extents, index 0 = input."""
        return list(self._shapes)

    def decoder_shapes(self):
        """Per-decoder-layer output (freq, time) extents, index 0 = bottleneck.
        Each mirrors an encoder level exactly, since every extent divides."""
        return list(self._shapes[::-1])


_DEFAULT_CHANNELS = (16, 32, 48, 64, 80)
_DEFAULT_DEC_CHANNELS = (64, 48, 32, 16, 16)
_DEFAULT_TIME_STRIDES = (1, 2, 1, 2, 1)


def default_config(bins: int = 253, lookahead_frames: int = 4) -> UNetConfig:
    """Stock architecture: five 5x3 encoder layers, frequency stride 2,
    temporal strides (1,2,1,2,1), mirrored decoder with skip concatenation.

    The frequency kernel widens to 6 on levels where the running bin count
    is even, keeping the valid-convolution arithmetic exact for any input
    bin count (253 bins uses 5 everywhere).
    """
    enc = []
    f = bins
    for out_ch, st in zip(_DEFAULT_CHANNELS, _DEFAULT_TIME_STRIDES):
        kf = 5 if (f - 5) % 2 == 0 else 6
        enc.append(ConvSpec(kernel_f=kf, kernel_t=3, stride_f=2, stride_t=st, out_ch=out_ch))
        f = (f - kf) // 2 + 1
    return UNetConfig(encoder=tuple(enc), decoder_channels=_DEFAULT_DEC_CHANNELS,
                      in_bins=bins, lookahead_frames=lookahead_frames)


def config_for_preset(stft_cfg, lookahead_ms: float = 32.0) -> UNetConfig:
    """Architecture matched to an STFT preset; lookahead rounds to frames."""
    if not np.isfinite(lookahead_ms):
        raise ValueError(f"lookahead_ms must be finite, got {lookahead_ms}")
    bins = stft_cfg.bin_count - stft_cfg.discard_low_bins
    frame_ms = stft_cfg.hop_size / 16.0  # 16 samples per ms at 16 kHz
    la = int(round(lookahead_ms / frame_ms))
    return default_config(bins=bins, lookahead_frames=la)


_SPEC_KEYS = tuple(f.name for f in fields(ConvSpec))
_CONFIG_KEYS = tuple(f.name for f in fields(UNetConfig) if f.init)


def config_to_json_dict(cfg: UNetConfig) -> dict:
    data = {key: getattr(cfg, key) for key in _CONFIG_KEYS}
    data["encoder"] = [asdict(spec) for spec in cfg.encoder]
    data["decoder_channels"] = list(cfg.decoder_channels)
    return data


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
                             f"{list(_SPEC_KEYS)}, got {entry!r}")
    return UNetConfig(**{**data, "encoder": tuple(ConvSpec(**e) for e in data["encoder"]),
                         "decoder_channels": tuple(data["decoder_channels"])})


@dataclass
class WeightSet:
    """Named filter/bias tensors for one UNetConfig."""

    tensors: dict

    def __getitem__(self, name: str) -> np.ndarray:
        return self.tensors[name]

    @property
    def dtype(self):
        return next(iter(self.tensors.values())).dtype

    def astype(self, dtype) -> "WeightSet":
        return WeightSet({k: v.astype(dtype) for k, v in self.tensors.items()})


def _weight_shapes(cfg: UNetConfig):
    shapes = {}
    names = [f"{kind}{i + 1}" for kind in ("enc", "dec") for i in range(cfg.depth)]
    for name, spec, in_ch in zip(names, (*cfg.encoder, *cfg.decoder), cfg.in_channels):
        shapes[f"{name}.weight"] = (spec.out_ch, in_ch, spec.kernel_f, spec.kernel_t)
        shapes[f"{name}.bias"] = (spec.out_ch,)
    shapes["head.weight"] = (HEAD_CHANNELS, cfg.decoder_channels[-1], 1, 1)
    shapes["head.bias"] = (HEAD_CHANNELS,)
    return shapes


def random_weights(cfg: UNetConfig, seed: int, dtype=np.float32) -> WeightSet:
    """Seeded uniform [-0.1, 0.1] weights (tests are equivalence-based)."""
    rng = np.random.default_rng(seed)
    tensors = {}
    for name, shape in _weight_shapes(cfg).items():
        tensors[name] = rng.uniform(-0.1, 0.1, size=shape).astype(dtype)
    return WeightSet(tensors)


def validate_weights(cfg: UNetConfig, weights: WeightSet) -> None:
    """Every tensor the config needs is present, of its shape and finite."""
    for name, shape in _weight_shapes(cfg).items():
        if name not in weights.tensors:
            raise ValueError(f"missing tensor: {name}")
        tensor = weights.tensors[name]
        if tuple(tensor.shape) != shape:
            raise ValueError(
                f"shape mismatch: {name} has {tuple(tensor.shape)}, config expects {shape}"
            )
        if not np.isfinite(tensor).all():
            raise ValueError(f"non-finite values in tensor {name}")


def save_weights(path, weights: WeightSet) -> None:
    """Binary container: magic, version, then per-layer name + dims + f32
    data, then a CRC32 of all of the above."""
    parts = [_MAGIC, struct.pack("<II", _VERSION, len(weights.tensors))]
    for name, tensor in weights.tensors.items():
        raw = name.encode("utf-8")
        parts += [struct.pack("<I", len(raw)), raw, struct.pack("<I", tensor.ndim),
                  struct.pack(f"<{tensor.ndim}I", *tensor.shape),
                  np.ascontiguousarray(tensor, dtype="<f4").tobytes()]
    data = b"".join(parts)
    with open(path, "wb") as fh:
        fh.write(data + struct.pack("<I", zlib.crc32(data)))


def load_weights(path, cfg: UNetConfig | None = None) -> WeightSet:
    """Read a version 2 or version 1 PHMW file. A version 2 file whose
    checksum does not match, and any byte after the data, is a ValueError."""
    with open(path, "rb") as fh:
        data = fh.read()
    off = 0
    end = len(data)

    def take(n: int) -> bytes:
        nonlocal off
        if off + n > end:
            raise ValueError(f"truncated weight file {path}")
        chunk = data[off : off + n]
        off += n
        return chunk

    if take(4) != _MAGIC:
        raise ValueError(f"bad magic in weight file {path}")
    version, count = struct.unpack("<II", take(8))
    if version not in (1, 2):
        raise ValueError(f"unsupported weight file version {version}")
    if version == 2:
        end -= 4  # the checksum
        if end < off:
            raise ValueError(f"truncated weight file {path}")
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
    if off != end:
        raise ValueError(f"{end - off} trailing bytes in weight file {path}")
    if version == 2 and struct.unpack("<I", data[end:])[0] != zlib.crc32(memoryview(data)[:end]):
        raise ValueError(f"checksum mismatch in weight file {path}")
    ws = WeightSet(tensors)
    if cfg is not None:
        validate_weights(cfg, ws)
    return ws


def fuse_batchnorm(conv_w: np.ndarray, conv_b: np.ndarray, gamma, beta, mean, var):
    """Fold a per-channel batch norm into the preceding convolution.

    Returns (w', b') with w' = w * g/sqrt(v+eps) and
    b' = (b - m) * g/sqrt(v+eps) + beta, eps = ``BN_EPS``, so the fused
    layer equals conv followed by normalization.
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
    scale = gamma / np.sqrt(var + BN_EPS)
    return conv_w * scale[:, None, None, None], (conv_b - mean) * scale + beta


def leaky(x: np.ndarray, out=None, scratch=None) -> np.ndarray:
    """Leaky ReLU; `out` and `scratch` (for the scaled copy) are optional
    buffers of x's shape."""
    return np.maximum(x, np.multiply(x, LEAKY_SLOPE, out=scratch), out=out)


def _matmul(a: np.ndarray, b: np.ndarray, counter, name: str | None,
            out=None) -> np.ndarray:
    """``a @ b``, into `out` if given; with a counter, its multiplies are
    tallied under ``name``. Every GEMM of both backends runs through here,
    so this is the one place that counts multiplies."""
    if counter is not None:
        counter[name] = counter.get(name, 0) + a.shape[0] * a.shape[1] * b.shape[1]
    return np.matmul(a, b, out=out)


def _im2col(x: np.ndarray, kf: int, kt: int, sf: int, st: int) -> np.ndarray:
    """The (C, kf, kt, Fo, To) strided view of x (C, F, T) whose [c, i, j]
    plane holds tap (i, j) of channel c under every output position of a
    valid (kf, kt) convolution with strides (sf, st)."""
    windows = np.lib.stride_tricks.sliding_window_view(x, (kf, kt), axis=(1, 2))
    return windows[:, ::sf, ::st].transpose(0, 3, 4, 1, 2)


def conv_valid(x: np.ndarray, w: np.ndarray, b: np.ndarray, sf: int, st: int,
               counter=None, name: str | None = None) -> np.ndarray:
    """Valid strided 2-D convolution; x is (C, F, T), w is (O, C, kf, kt)."""
    O, C, kf, kt = w.shape
    windows = _im2col(x, kf, kt, sf, st)
    _, _, _, Fo, To = windows.shape
    cols = np.ascontiguousarray(windows).reshape(C * kf * kt, Fo * To)
    y = _matmul(w.reshape(O, -1), cols, counter, name).reshape(O, Fo, To)
    y += b[:, None, None]
    return y


def conv_transposed_valid(x: np.ndarray, w: np.ndarray, b: np.ndarray, sf: int, st: int,
                          counter=None, name: str | None = None) -> np.ndarray:
    """Valid transposed 2-D convolution (scatter form); output grows by
    kernel-1 per axis. Edge positions naturally receive fewer taps."""
    O, C, kf, kt = w.shape
    _, F, T = x.shape
    y = np.empty((O, (F - 1) * sf + kf, (T - 1) * st + kt), dtype=x.dtype)
    y[:] = b[:, None, None]
    contrib = _matmul(w.transpose(2, 3, 0, 1).reshape(kf * kt * O, C), x.reshape(C, F * T),
                      counter, name).reshape(kf, kt, O, F, T)
    # tap (i, j) adds onto frequency rows i, i+sf, ... and time columns j, j+st, ...
    for i in range(kf):
        for j in range(kt):
            y[:, i : i + (F - 1) * sf + 1 : sf, j : j + (T - 1) * st + 1 : st] += contrib[i, j]
    return y


def head(h: np.ndarray, weights: WeightSet, counter=None) -> np.ndarray:
    """The 1x1 head over decoder output (C, F, ...) -> (HEAD_CHANNELS, F, ...) logits."""
    logits = _matmul(weights["head.weight"].reshape(HEAD_CHANNELS, -1),
                     h.reshape(h.shape[0], -1), counter, "head")
    logits += weights["head.bias"][:, None]
    return logits.reshape((HEAD_CHANNELS,) + h.shape[1:])


def unet_forward(x: np.ndarray, weights: WeightSet, cfg: UNetConfig,
                 counter=None) -> np.ndarray:
    """Full forward pass over a (FEATURE_CHANNELS, F, T) tensor -> (10, F, T) logits."""
    skips = []
    h = x
    for i, spec in enumerate(cfg.encoder):
        h = leaky(conv_valid(h, weights[f"enc{i + 1}.weight"], weights[f"enc{i + 1}.bias"],
                             spec.stride_f, spec.stride_t, counter, f"enc{i + 1}"))
        skips.append(h)
    L = len(cfg.encoder)
    for j, spec in enumerate(cfg.decoder):
        inp = h if j == 0 else np.concatenate([h, skips[L - 1 - j]], axis=0)
        h = leaky(conv_transposed_valid(inp, weights[f"dec{j + 1}.weight"],
                                        weights[f"dec{j + 1}.bias"],
                                        spec.stride_f, spec.stride_t, counter, f"dec{j + 1}"))
    return head(h, weights, counter)


def split_head(head: np.ndarray) -> MaskLogits:
    """Decode (10, ...) head logits into one MaskLogits with a leading pair
    axis (direct, noise): field i is the view ``head[i::5]`` of channels i
    and i + 5 (channel order = MaskLogits fields, direct pair first)."""
    if head.shape[0] != HEAD_CHANNELS:
        raise ValueError(f"expected {HEAD_CHANNELS} head channels, got {head.shape[0]}")
    return MaskLogits(*(head[i::5] for i in range(5)))


def features_to_tensor(features, cfg: UNetConfig, dtype) -> np.ndarray:
    """Features (5, T, F) -> engine layout (C, F, T), validated."""
    arr = np.asarray(features)
    if arr.ndim != 3 or arr.shape[0] != FEATURE_CHANNELS:
        raise ValueError(f"expected ({FEATURE_CHANNELS}, T, F) features, got {arr.shape}")
    if arr.shape[2] != cfg.in_bins:
        raise ValueError(f"expected {cfg.in_bins} bins, got {arr.shape[2]}")
    return np.ascontiguousarray(arr.transpose(0, 2, 1), dtype=dtype)


def naive_infer(features, weights: WeightSet, cfg: UNetConfig):
    """Whole-window forward pass; returns the (10, F) head frame at window
    position in_frames - 1 - lookahead_frames, in the weights' dtype."""
    x = features_to_tensor(features, cfg, weights.dtype)
    if x.shape[2] != cfg.in_frames:
        raise ValueError(f"expected {cfg.in_frames} frames, got {x.shape[2]}")
    logits = unet_forward(x, weights, cfg)
    return logits[:, :, cfg.target_index]
