import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from trimask import (ConvSpec, UNetConfig, config_for_preset, count_ops, default_config,
                     measured_ops, naive_infer, random_weights, required_queues)
from trimask.spectral import PRESETS
from trimask.streaming import StreamPlan, StreamState, stream_push


def _max_diff(head_a, head_b):
    return float(np.max(np.abs(head_a - head_b)))


def _stride_config(strides, kernel_t=3):
    """Minimal valid config with the given temporal strides (queue tests)."""
    return _mirrored_config(strides, [kernel_t] * len(strides), 0, bottleneck=1,
                            bottleneck_bins=9)


def test_required_queues_examples():
    assert required_queues(_stride_config([2, 2]), 2) == 4
    cfg1 = _stride_config([1, 1, 1])
    assert [required_queues(cfg1, d) for d in (1, 2, 3)] == [1, 1, 1]
    cfg2 = _stride_config([2, 1, 2])
    assert required_queues(cfg2, 3) == 4
    with pytest.raises(ValueError, match="depth"):
        required_queues(cfg2, 0)
    with pytest.raises(ValueError, match="depth"):
        required_queues(cfg2, 4)


def _brute_force_phase_count(strides, depth):
    """Recomputation-pattern simulator: slide windows one frame at a time and
    count the distinct frame lattices seen at `depth` (composing the per-layer
    index maps rather than multiplying strides)."""
    def start_slot(window_start, frame_idx):
        idx = frame_idx
        for s in reversed(strides[:depth]):
            idx = idx * s
        return window_start + idx

    step = start_slot(0, 1) - start_slot(0, 0)  # lattice spacing at this depth
    lattices = set()
    for w in range(4 * step + 5):
        lattices.add(start_slot(w, 0) % step if step > 1 else 0)
    return max(len(lattices), 1)


def test_required_queues_against_brute_force_simulator():
    rng = np.random.default_rng(77)
    for _ in range(50):
        depth = int(rng.integers(1, 6))
        strides = [int(rng.integers(1, 4)) for _ in range(depth)]
        cfg = _stride_config(strides)
        for d in range(1, depth + 1):
            assert required_queues(cfg, d) == _brute_force_phase_count(strides, d)


def test_stream_matches_naive_on_every_emission():
    cfg = default_config()
    w = random_weights(cfg, 11, dtype=np.float64)
    rng = np.random.default_rng(8)
    feats = rng.standard_normal((5, 82, 253))

    state = StreamState(cfg, w)
    emissions = {}
    for t in range(82):
        out = stream_push(feats[:, t, :], state)
        if out is not None:
            emissions[t - cfg.lookahead_frames] = out
    assert len(emissions) == 82 - 64

    for target, head in emissions.items():
        end = target + cfg.lookahead_frames
        naive = naive_infer(feats[:, end - 64 : end + 1, :], w, cfg)
        assert _max_diff(head, naive) < 1e-10


def test_stream_warmup_emits_nothing():
    cfg = default_config()
    state = StreamState(cfg, random_weights(cfg, 1))
    rng = np.random.default_rng(2)
    for t in range(64):
        assert stream_push(rng.standard_normal((5, 253)).astype(np.float32), state) is None
    assert stream_push(rng.standard_normal((5, 253)).astype(np.float32), state) is not None


def test_emission_count_closed_form():
    cfg = default_config()
    state = StreamState(cfg, random_weights(cfg, 3))
    rng = np.random.default_rng(4)
    emitted = 0
    for n in range(1, 100):
        emitted += stream_push(rng.standard_normal((5, 253)).astype(np.float32), state) is not None
        assert emitted == max(0, n - 64)


def test_stream_determinism_bit_identical():
    cfg = default_config()
    rng = np.random.default_rng(21)
    feats = rng.standard_normal((5, 70, 253)).astype(np.float32)

    def run():
        state = StreamState(cfg, random_weights(cfg, 13))
        outs = []
        for t in range(70):
            out = stream_push(feats[:, t, :], state)
            if out is not None:
                outs.append(out)
        return outs

    a, b = run(), run()
    assert len(a) == len(b)
    for ha, hb in zip(a, b):
        assert np.array_equal(ha, hb)


def test_stream_single_precision_tolerance():
    cfg = default_config()
    w32 = random_weights(cfg, 17, dtype=np.float32)
    rng = np.random.default_rng(17)
    feats = rng.standard_normal((5, 65, 253)).astype(np.float32)
    state = StreamState(cfg, w32)
    out = None
    for t in range(65):
        out = stream_push(feats[:, t, :], state)
    naive = naive_infer(feats, w32, cfg)
    assert _max_diff(out, naive) < 1e-4


def test_steady_state_cost_below_20_percent():
    from trimask.opcount import count_ops

    report = count_ops(default_config())
    assert report.streaming_total < 0.20 * report.naive_total


def test_op_counter_holds_only_the_layers_run_so_far():
    cfg = default_config()
    state = StreamState(cfg, random_weights(cfg, 0))
    per_push = {l.name: l.streaming_mults for l in count_ops(cfg).layers}
    delta = state.plan.delta
    # no layer has a tally before it first runs: push delta[1] gives {"enc1": ...}
    for n in range(cfg.in_frames - 1):
        stream_push(np.zeros((5, cfg.in_bins)), state)
        assert state.op_counter == {f"enc{l}": per_push[f"enc{l}"] * (n + 1 - delta[l])
                                    for l in range(1, cfg.depth + 1) if n >= delta[l]}


def test_decoder_frame_operands_are_column_slices_of_one_matrix_per_step():
    # each step packs its layer's taps once; an output frame's GEMM operand
    # is its gathered taps, as a column slice of that step's storage
    cfg = default_config()
    weights = random_weights(cfg, 0)
    state = StreamState(cfg, weights)
    packed_bytes = 0
    for step, dec in zip(state.plan.steps, state.decoder):
        full = weights[f"dec{step.layer}.weight"]
        O, C, kf, _ = full.shape
        storage = dec.gemms[0][0].base
        packed_bytes += storage.nbytes
        assert len(dec.gemms) == len(step.taps)
        for (operand, _, _), row in zip(dec.gemms, step.taps):
            assert operand.base is storage
            expect = full[:, :, :, [tap for _, tap in row]].transpose(2, 0, 3, 1)
            assert np.array_equal(operand, expect.reshape(kf * O, len(row) * C))
    decoder_bytes = sum(weights[f"dec{j}.weight"].nbytes for j in range(1, cfg.depth + 1))
    assert packed_bytes == decoder_bytes


def _steady_rt_state():
    cfg = config_for_preset(PRESETS["rt"])
    state = StreamState(cfg, random_weights(cfg, 5))
    rng = np.random.default_rng(6)
    frames = rng.standard_normal((cfg.in_frames + 75, 5, cfg.in_bins)).astype(np.float32)
    for frame in frames[: cfg.in_frames]:
        stream_push(frame, state)
    return state, frames[cfg.in_frames :]


def test_steady_push_allocates_little_beyond_its_head():
    # a push runs on buffers built with the state: its traced peak is the
    # head frame plus the one ufunc iterator buffer left, that of the head's
    # broadcast bias add (no decoder add is buffered); with those buffers
    # capped at 16 elements, the head frame is all that is left
    state, frames = _steady_rt_state()

    def peaks(frames):
        for frame in frames:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            head = stream_push(frame, state)
            yield tracemalloc.get_traced_memory()[1] - before, head.nbytes

    bufsize = np.getbufsize()
    tracemalloc.start()
    try:
        for peak, head in peaks(frames[:50]):
            assert peak <= 2 * head + 4096, (peak, head)
        np.setbufsize(16)
        for peak, head in peaks(frames[50:]):
            assert peak <= head + 4096, (peak, head)
    finally:
        np.setbufsize(bufsize)
        tracemalloc.stop()


def test_returned_heads_are_distinct_and_stay_unchanged():
    state, frames = _steady_rt_state()
    heads, copies = [], []
    for frame in frames[:10]:
        heads.append(stream_push(frame, state))
        copies.append(heads[-1].copy())
    assert len({id(h) for h in heads}) == len(heads)
    assert not any(np.shares_memory(a, b) for i, a in enumerate(heads) for b in heads[i + 1 :])
    for head, copy in zip(heads, copies):
        assert np.array_equal(head, copy)


def _assert_reads_fit_minimal_queues(cfg, plan):
    """Every read slice takes exactly its frames from its `capacity`-long
    queue, and each capacity is its queue's deepest read + 1."""
    reads = [(l, sl, spec.kernel_t)
             for l, (sl, spec) in enumerate(zip(plan.slabs, cfg.encoder))]
    reads += [(step.level, step.read, len(step.inputs)) for step in plan.steps]
    for level, cap in enumerate(plan.capacity):
        mine = [(sl, count) for l, sl, count in reads if l == level]
        for sl, count in mine:
            assert 0 <= sl.start and sl.stop <= cap and sl.step == plan.lattice[level]
            assert len(range(*sl.indices(cap))) == count
        assert cap == max(cap - 1 - sl.start for sl, _ in mine) + 1
    # each encoder slab ends at its queue's newest frame
    assert all(sl.stop == cap for sl, cap in zip(plan.slabs, plan.capacity))


def test_plan_capacities_are_minimal_extents():
    cfg = default_config()
    plan = StreamPlan(cfg)
    # input queue only needs the newest kernel_t frames
    assert plan.capacity[0] == cfg.encoder[0].kernel_t
    # every queue holds a finite small history, far below the window length
    assert all(1 <= c <= cfg.in_frames for c in plan.capacity)
    _assert_reads_fit_minimal_queues(cfg, plan)


def _mirrored_config(strides, kernels_t, lookahead, stride_f=1, kernel_f=1,
                     bottleneck=2, bottleneck_bins=5):
    """Exact-arithmetic mirrored U-Net with the given temporal geometry and
    one frequency kernel and stride for every layer; frames and bins are
    built backward from the bottleneck's extents."""
    t, f = bottleneck, bottleneck_bins
    for s, kt in zip(reversed(strides), reversed(kernels_t)):
        t, f = (t - 1) * s + kt, (f - 1) * stride_f + kernel_f
    enc = tuple(ConvSpec(kernel_f=kernel_f, kernel_t=kt, stride_f=stride_f, stride_t=s,
                         out_ch=4 + 2 * i)
                for i, (s, kt) in enumerate(zip(strides, kernels_t)))
    return UNetConfig(encoder=enc, decoder_channels=(6,) * len(enc), in_bins=f,
                      in_frames=t, lookahead_frames=lookahead)


@pytest.mark.parametrize("strides,kernels_t,lookahead,stride_f,kernel_f", [
    ([2, 3], [3, 2], 0, 1, 1),
    ([3, 1, 2], [2, 4, 3], 3, 1, 1),
    ([1, 2], [3, 3], 1, 2, 5),
    ([2, 2, 1], [4, 2, 3], 5, 2, 5),
    ([2, 1], [2, 3], 2, 2, 1),  # every other bin receives no tap
    ([1, 2], [2, 3], 1, 3, 2),  # a phase receives no tap
])
def test_stream_matches_naive_on_varied_architectures(strides, kernels_t, lookahead,
                                                      stride_f, kernel_f):
    cfg = _mirrored_config(strides, kernels_t, lookahead, stride_f=stride_f,
                           kernel_f=kernel_f)
    w = random_weights(cfg, 23, dtype=np.float64)
    rng = np.random.default_rng(19)
    total = cfg.in_frames + 11
    feats = rng.standard_normal((5, total, cfg.in_bins))
    state = StreamState(cfg, w)
    worst = 0.0
    emissions = 0
    for t in range(total):
        out = stream_push(feats[:, t, :], state)
        if out is None:
            continue
        emissions += 1
        window = feats[:, t - cfg.in_frames + 1 : t + 1, :]
        worst = max(worst, _max_diff(out, naive_infer(window, w, cfg)))
    assert emissions == 12
    assert worst < 1e-10


@st.composite
def _random_mirrored_config(draw):
    depth = draw(st.integers(1, 3))
    strides = [draw(st.integers(1, 3)) for _ in range(depth)]
    kernels_t = [draw(st.integers(s, 4)) for s in strides]
    cfg = _mirrored_config(strides, kernels_t, 0, stride_f=draw(st.integers(1, 4)),
                           kernel_f=draw(st.integers(1, 6)))
    lookahead = draw(st.integers(0, cfg.in_frames - 1))
    return dataclasses.replace(cfg, lookahead_frames=lookahead)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(cfg=_random_mirrored_config(), seed=st.integers(0, 2**16))
def test_stream_matches_naive_and_counts_on_random_architectures(cfg, seed):
    # every tap geometry: residue groups, edge-truncated frames, strided bins,
    # frequency phases without taps and pads wider than one bin
    _assert_reads_fit_minimal_queues(cfg, StreamPlan(cfg))
    # each decoder output extent is the transposed-conv growth of the one before
    shapes = cfg.decoder_shapes()
    for (f, t), spec, grown in zip(shapes, cfg.decoder, shapes[1:]):
        assert grown == ((f - 1) * spec.stride_f + spec.kernel_f,
                         (t - 1) * spec.stride_t + spec.kernel_t)
    w = random_weights(cfg, seed, dtype=np.float64)
    feats = np.random.default_rng(seed).standard_normal((5, cfg.in_frames + 3, cfg.in_bins))
    state = StreamState(cfg, w)
    worst = 0.0
    emitted = 0
    for t in range(feats.shape[1]):
        out = stream_push(feats[:, t, :], state)
        if out is not None:
            emitted += 1
            window = feats[:, t - cfg.in_frames + 1 : t + 1, :]
            worst = max(worst, _max_diff(out, naive_infer(window, w, cfg)))
    assert emitted == 4
    assert worst < 1e-10

    naive_m, stream_m = measured_ops(cfg)
    for layer in count_ops(cfg).layers:
        assert naive_m[layer.name] == layer.naive_mults, layer.name
        assert stream_m[layer.name] == layer.streaming_mults, layer.name


def test_long_stream_exact_after_many_queue_shifts():
    # emissions stay exact long after every queue has shifted through many times
    cfg = _mirrored_config([2, 2], [3, 3], 1)
    w = random_weights(cfg, 3, dtype=np.float64)
    rng = np.random.default_rng(4)
    total = cfg.in_frames + 280
    feats = rng.standard_normal((5, total, cfg.in_bins))
    state = StreamState(cfg, w)
    worst = 0.0
    emitted = 0
    for t in range(total):
        out = stream_push(feats[:, t, :], state)
        emitted += out is not None
        if out is not None and t % 37 == 0:
            window = feats[:, t - cfg.in_frames + 1 : t + 1, :]
            worst = max(worst, _max_diff(out, naive_infer(window, w, cfg)))
    assert emitted == 281  # pushes - (window - 1)
    assert worst < 1e-10


def test_stream_push_shape_error():
    cfg = default_config()
    state = StreamState(cfg, random_weights(cfg, 0))
    with pytest.raises(ValueError, match="frame shape"):
        stream_push(np.zeros((5, 100)), state)


def test_queue_depths_report_phase_products():
    cfg = default_config()
    assert [required_queues(cfg, d) for d in range(1, cfg.depth + 1)] == [1, 2, 2, 4, 4]
