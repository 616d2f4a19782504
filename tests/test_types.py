import numpy as np
import pytest

from trimask.types import SignalBuffer, as_samples


@pytest.mark.parametrize("bad", [np.zeros((2, 3)), np.array([0.0, np.nan]),
                                 np.array([0.0, np.inf])], ids=["2-d", "nan", "inf"])
def test_signal_buffer_rejects_what_as_samples_rejects(bad):
    # one definition of a valid signal: both raise the same ValueError
    with pytest.raises(ValueError) as from_samples:
        as_samples(bad)
    with pytest.raises(ValueError) as from_buffer:
        SignalBuffer(bad)
    assert str(from_buffer.value) == str(from_samples.value)
