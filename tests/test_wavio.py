import numpy as np
import pytest
from scipy.io import wavfile

from trimask import read_wav, write_wav


def test_float32_round_trip_exact(tmp_path):
    rng = np.random.default_rng(0)
    x = rng.uniform(-0.9, 0.9, 4000).astype(np.float32).astype(np.float64)
    path = tmp_path / "x.wav"
    write_wav(path, x)
    back = read_wav(path)
    assert np.array_equal(back.samples, x)


def test_pcm16_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    x = rng.uniform(-0.9, 0.9, 4000)
    path = tmp_path / "x.wav"
    pcm = np.round(x * 32767).astype(np.int16)
    wavfile.write(path, 16000, pcm)
    back = read_wav(path)
    assert np.array_equal(back.samples, pcm / 32767.0)
    assert np.max(np.abs(back.samples - x)) < 1.0 / 32767


def test_rejects_wrong_sample_rate(tmp_path):
    path = tmp_path / "bad.wav"
    wavfile.write(path, 44100, np.zeros(100, dtype=np.float32))
    with pytest.raises(ValueError, match="sample rate"):
        read_wav(path)


def test_rejects_stereo(tmp_path):
    path = tmp_path / "bad.wav"
    wavfile.write(path, 16000, np.zeros((100, 2), dtype=np.float32))
    with pytest.raises(ValueError, match="channel"):
        read_wav(path)


def test_rejects_unsupported_format(tmp_path):
    path = tmp_path / "bad.wav"
    wavfile.write(path, 16000, np.zeros(100, dtype=np.int32))
    with pytest.raises(ValueError, match="format"):
        read_wav(path)


def test_rejects_garbage(tmp_path):
    path = tmp_path / "bad.wav"
    path.write_bytes(b"not a riff file at all")
    with pytest.raises(ValueError, match="cannot read"):
        read_wav(path)
