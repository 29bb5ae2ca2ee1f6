import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tsfo.tensor as tensor_mod
from tsfo.errors import CapacityError, InputError, ShapeError
from tsfo.model import FloatOps
from tsfo.tensor import (
    BLOCK_BYTES,
    FOLDED_ACT_MAX,
    INT8_MAX,
    INT8_MIN,
    MAX_ACCUM_K,
    QTensor,
    _quantize_folded,
    compile_linear,
    compiled_linear,
    dequantize_linear,
    im2col_batch,
    int8_matmul,
    layer_norm,
    pack_weight,
    quantize_linear,
    round_half_away,
    seeded_rng,
    softmax,
)

# Largest K whose float32 GEMM of folded activations (|a| <= 255) and
# weights at +-127 keeps every partial sum below 2^24.
F32_EXACT_K = (2**24 - 1) // (FOLDED_ACT_MAX * INT8_MAX)


def quantized_linear(x, scale, zero_point, packed, bias):
    """``x @ W + bias`` with x quantized by one activation map: ``compile_linear``
    then ``compiled_linear``, as the int8 model runs each site."""
    return compiled_linear(x, *compile_linear(scale, zero_point, packed, bias))


def worst_case_operands(m, k, n, zero_point, seed):
    """int8 activations at the end farthest from the zero point, and weights at +-127.

    Row 0 and column 0 are all extreme with one sign, so their dot product is
    the largest sum the kernel can meet; the rest are random signs.
    """
    rng = seeded_rng(seed)
    far = INT8_MAX if zero_point == INT8_MIN else INT8_MIN
    near = INT8_MIN if far == INT8_MAX else INT8_MAX
    qa = rng.choice(np.array([far, near], np.int8), size=(m, k))
    qa[0] = far
    qw = rng.choice(np.array([-INT8_MAX, INT8_MAX], np.int8), size=(k, n))
    qw[:, 0] = INT8_MAX
    return qa, qw


def int64_reference(qa, zero_point, qw, scale_a, scale_w):
    acc = (qa.astype(np.int64) - zero_point) @ qw.astype(np.int64)
    return (acc.astype(np.float64) * (float(scale_a) * scale_w.astype(np.float64))).astype(
        np.float32
    )


def matmul(a, b):
    """a @ b through the float ops' linear step, with a zero bias."""
    ops = FloatOps({"w": b, "b": np.zeros(b.shape[1], b.dtype)})
    return ops.linear("site", a, "w", "b")


def conv1d_valid(x, w, b, stride):
    """Valid 1-D cross-correlation [C, T] -> [O, T'], as the encoder embeds patches."""
    cols = im2col_batch(x[None], w.shape[2], stride)
    return FloatOps({"w": w, "b": b}).linear("embed.in", cols, "w", "b")[0].T


class TestMatmul:
    def test_identity(self):
        a = np.arange(6, dtype=np.float32).reshape(2, 3)
        assert np.allclose(matmul(np.eye(2, dtype=np.float32), a), a)

    def test_hand_computed(self):
        a = np.array([[1, 2], [3, 4]], dtype=np.float32)
        b = np.array([[5], [6]], dtype=np.float32)
        assert np.array_equal(matmul(a, b), np.array([[17], [39]], dtype=np.float32))

    def test_zeros_annihilate(self):
        b = seeded_rng(0).normal(size=(4, 5)).astype(np.float32)
        out = matmul(np.zeros((3, 4), dtype=np.float32), b)
        assert np.array_equal(out, np.zeros((3, 5), dtype=np.float32))


class TestSoftmax:
    def test_symmetry(self):
        assert np.allclose(softmax(np.array([0.0, 0.0])), [0.5, 0.5])

    def test_log2(self):
        out = softmax(np.array([np.log(2.0), 0.0]))
        assert np.allclose(out, [2 / 3, 1 / 3], atol=1e-7)

    def test_extreme_magnitude_no_overflow(self):
        out = softmax(np.array([1000.0, 0.0], dtype=np.float32))
        assert np.all(np.isfinite(out))
        assert np.allclose(out, [1.0, 0.0])

    @given(
        st.lists(st.floats(-1e4, 1e4, allow_nan=False), min_size=1, max_size=16),
    )
    def test_rows_sum_to_one(self, values):
        # float32 underflow can make the smallest entries exactly 0, as in
        # the [1000, 0] stability example; the sum must still be 1
        out = softmax(np.array(values, dtype=np.float32))
        assert abs(out.sum() - 1.0) <= 1e-6
        assert np.all(out >= 0)


class TestLayerNorm:
    def test_constant_row_maps_to_beta(self):
        x = np.ones(3, dtype=np.float32)
        out = layer_norm(x, np.ones(3, np.float32), np.zeros(3, np.float32))
        assert np.allclose(out, 0.0, atol=1e-3)

    def test_two_point_row(self):
        x = np.array([1.0, 3.0])
        out = layer_norm(x, np.ones(2), np.zeros(2))
        # unit variance, so eps = 1e-5 moves the result by about 5e-6
        assert np.allclose(out, [-1.0, 1.0], atol=1e-5)

    def test_beta_offset(self):
        x = np.array([4.0, 4.0])
        out = layer_norm(x, np.ones(2), np.full(2, 5.0))
        assert np.allclose(out, [5.0, 5.0], atol=1e-2)


def parent_softmax(x, axis=-1):
    """The out-of-place formula softmax replaced; outputs must not change."""
    e = np.exp(x - x.max(axis=axis, keepdims=True))
    return e / e.sum(axis=axis, keepdims=True)


def parent_layer_norm(x, gamma, beta, eps=1e-5):
    centered = x - x.mean(axis=-1, keepdims=True)
    var = (centered * centered).mean(axis=-1, keepdims=True)
    return gamma * (centered / np.sqrt(var + eps)) + beta


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
class TestInPlaceKernels:
    """softmax and layer_norm work in place on one fresh buffer: same bits, input untouched."""

    @pytest.mark.parametrize("axis", [-1, -2])
    def test_softmax_bit_identical(self, dtype, axis):
        x = (seeded_rng(31).normal(size=(3, 4, 24, 24)) * 5).astype(dtype)
        before = x.copy()
        out = softmax(x, axis=axis)
        assert out.dtype == dtype
        assert np.array_equal(out, parent_softmax(before, axis))
        assert np.array_equal(x, before)
        assert not np.shares_memory(out, x)

    @pytest.mark.parametrize("axis", [-1, -2])
    def test_softmax_out_normalizes_in_place(self, dtype, axis):
        x = seeded_rng(32).normal(size=(2, 6, 5)).astype(dtype)
        want = parent_softmax(x, axis)
        assert softmax(x, axis=axis, out=x) is x
        assert np.array_equal(x, want)

    @pytest.mark.parametrize(
        "shape, integer",
        [((7,), False), ((24, 64), False), ((4, 24, 96), False), ((1, 24, 64), False),
         ((24, 64), True)],
        ids=["shape0", "shape1", "shape2", "batch1", "int64"],
    )
    def test_layer_norm_bit_identical(self, dtype, shape, integer):
        rng = seeded_rng(33)
        x = rng.normal(size=shape) * 3 + 1
        # integer input is normalized in float64, whatever gamma's type
        x = np.rint(x * 100).astype(np.int64) if integer else x.astype(dtype)
        gamma = rng.normal(size=shape[-1:]).astype(dtype)
        beta = rng.normal(size=shape[-1:]).astype(dtype)
        before = x.copy()
        out = layer_norm(x, gamma, beta)
        assert out.dtype == (np.float64 if integer else dtype)
        assert np.array_equal(out, parent_layer_norm(before, gamma, beta))
        assert np.array_equal(x, before)
        assert not np.shares_memory(out, x)

    def test_layer_norm_wider_params_promote(self, dtype):
        x = seeded_rng(34).normal(size=(3, 8)).astype(np.float32)
        gamma = np.full(8, 1.5, dtype)
        beta = np.full(8, 0.25, dtype)
        out = layer_norm(x, gamma, beta)
        assert out.dtype == dtype
        assert np.array_equal(out, parent_layer_norm(x, gamma, beta))


def parent_im2col_batch(xs, k, stride):
    """The sliding_window_view formula im2col_batch replaced; outputs must not change."""
    b, c, t = xs.shape
    n = (t - k) // stride + 1
    windows = np.lib.stride_tricks.sliding_window_view(xs, k, axis=2)[:, :, ::stride]
    return np.ascontiguousarray(windows.transpose(0, 2, 1, 3).reshape(b, n, c * k))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
class TestIm2col:
    @pytest.mark.parametrize("k, stride", [(8, 4), (8, 8), (4, 8)], ids=["overlap", "tile", "gap"])
    @pytest.mark.parametrize("channels", [1, 3])
    @pytest.mark.parametrize("length", [48, 50])
    @pytest.mark.parametrize("strided", [False, True], ids=["contiguous", "every-other"])
    def test_matches_sliding_window_formula(self, dtype, k, stride, channels, length, strided):
        xs = seeded_rng(35).normal(size=(2, channels, 2 * length)).astype(dtype)
        xs = xs[:, :, ::2] if strided else np.ascontiguousarray(xs[:, :, :length])
        before = xs.copy()
        cols = im2col_batch(xs, k, stride)
        assert cols.dtype == dtype
        assert cols.shape == (2, (length - k) // stride + 1, channels * k)
        assert cols.flags.c_contiguous
        assert np.array_equal(cols, parent_im2col_batch(before, k, stride))
        assert np.array_equal(xs, before)

    def test_tiling_one_channel_is_a_read_only_view(self, dtype):
        xs = seeded_rng(36).normal(size=(2, 1, 192)).astype(dtype)
        cols = im2col_batch(xs, 8, 8)
        assert np.shares_memory(cols, xs)
        assert not cols.flags.writeable
        assert np.array_equal(cols, xs.reshape(2, 24, 8))


class TestConv1d:
    def test_kernel_one_identity(self):
        x = np.array([[1.0, 2.0, 3.0]], dtype=np.float32)
        w = np.array([[[1.0]]], dtype=np.float32)
        out = conv1d_valid(x, w, np.zeros(1, np.float32), 1)
        assert np.array_equal(out, x)

    def test_hand_computed(self):
        x = np.array([[1.0, 2.0, 3.0]], dtype=np.float32)
        w = np.array([[[1.0, 1.0]]], dtype=np.float32)
        out = conv1d_valid(x, w, np.zeros(1, np.float32), 1)
        assert np.array_equal(out, np.array([[3.0, 5.0]], dtype=np.float32))

    def test_output_length_formula(self):
        x = np.zeros((1, 96), dtype=np.float32)
        w = np.zeros((4, 1, 8), dtype=np.float32)
        out = conv1d_valid(x, w, np.zeros(4, np.float32), 8)
        assert out.shape == (4, 12)


class TestRounding:
    def test_half_away_from_zero(self):
        vals = np.array([0.5, -0.5, 1.5, -1.5, 2.4, -2.4])
        assert np.array_equal(round_half_away(vals), [1, -1, 2, -2, 2, -2])


class TestQuantize:
    def test_zero_maps_to_zero_point(self):
        q = quantize_linear(np.zeros(3, np.float32), 0.1, 0)
        assert np.array_equal(q.data, np.zeros(3, np.int8))

    def test_hand_computed_affine(self):
        # range [0, 2.55] -> scale 0.01, zero point -128
        q = quantize_linear(np.array([1.27], np.float32), 0.01, -128)
        assert q.data[0] == -1

    def test_scalar_input(self):
        assert quantize_linear(np.float32(0.3), 0.01, 3).data == 33
        assert quantize_linear(-0.3, 0.01, -3).data == -33

    def test_saturation(self):
        q = quantize_linear(np.array([1e9], np.float32), 0.01, 0)
        assert q.data[0] == 127

    def test_dequantize_inverse(self):
        q = QTensor(np.array([-1], dtype=np.int8), np.float32(0.01), -128)
        assert np.allclose(dequantize_linear(q), [1.27], atol=1e-7)

    def test_zero_point_dequantizes_to_zero(self):
        q = QTensor(np.array([-5], dtype=np.int8), np.float32(0.3), -5)
        assert dequantize_linear(q)[0] == 0.0

    def test_round_trip_error_bound_1000(self):
        rng = seeded_rng(11)
        x = rng.uniform(-3.0, 3.0, size=1000).astype(np.float32)
        scale = 6.0 / 255.0
        zp = 0
        err = np.abs(dequantize_linear(quantize_linear(x, scale, zp)) - x)
        assert err.max() <= scale / 2 * (1 + 1e-5)

    @settings(max_examples=60)
    @given(
        st.floats(-60.0, 0.0, allow_nan=False),
        st.floats(0.0, 60.0, allow_nan=False),
        st.integers(0, 400),
    )
    def test_round_trip_error_random_ranges(self, lo, hi, n):
        # ranges straddle zero, as calibrated activation ranges do; the
        # affine zero point is then always representable
        if hi - lo < 1e-3:
            hi = lo + 1e-3
        scale = (hi - lo) / 255.0
        zp = int(np.clip(round_half_away(np.float64(-128 - lo / scale)), -128, 127))
        rng = seeded_rng(n)
        x = rng.uniform(lo, hi, size=n + 1).astype(np.float32)
        back = dequantize_linear(quantize_linear(x, scale, zp))
        assert np.abs(back - x).max() <= scale / 2 * (1 + 1e-4)

    def test_scale_must_be_positive(self):
        with pytest.raises(InputError):
            quantize_linear(np.zeros(2, np.float32), 0.0)

    def test_per_channel_scale_length_checked(self):
        with pytest.raises(ShapeError):
            QTensor(
                np.zeros((2, 3), dtype=np.int8),
                np.array([1.0, 1.0], np.float32),
                0,
                channel_axis=1,
            )


def reference_folded(x, s, zero_point):
    """The rounding rule written the long way: round_half_away(x / s) in
    float64, then clamp to [-128 - z, 127 - z]. Returns q - z in float64."""
    q = round_half_away(np.divide(x, s, dtype=np.float64))
    return np.clip(q, INT8_MIN - zero_point, INT8_MAX - zero_point)


def tie_cases(s, n):
    """Float32 values at and next to the quantization ties (n + 1/2) * s and
    the steps n * s, plus signed zeros, infinities and values far out of range."""
    n = np.asarray(n, dtype=np.float64)
    base = np.concatenate([((n + 0.5) * s).astype(np.float32), (n * s).astype(np.float32)])
    up = np.nextafter(base, np.float32(np.inf))
    down = np.nextafter(base, np.float32(-np.inf))
    special = np.array([0.0, -0.0, np.inf, -np.inf, 1e30, -1e30, 3e38, -3e38], np.float32)
    return np.concatenate([base, up, down, special])


def scaled_identity(k):
    """127 times the [k, k] identity, packed: quantized_linear through it
    returns 127 (q - z) s, and K > F32_EXACT_K packs it in float64."""
    return pack_weight(QTensor(np.eye(k, dtype=np.int8) * INT8_MAX, np.float32(1.0), 0))


def identity_linear(x, scale, zero_point):
    k = x.shape[-1]
    return quantized_linear(x, scale, zero_point, scaled_identity(k), np.zeros(k, np.float32))


def identity_reference(folded, s):
    """identity_linear's output for q - z; the product with the identity
    spreads a NaN over its row, as the GEMM does."""
    return ((folded @ np.eye(folded.shape[-1])) * INT8_MAX * float(s)).astype(np.float32)


ZERO_POINTS = (INT8_MIN, -3, 0, 5, INT8_MAX)
TIE_SCALES = (0.013, 1.0, 2.0**-7, 0.3, 6.0 / 255, 1e-8, 3.7e3)


class TestQuantizeRule:
    """quantize_linear and quantized_linear against the rule written out."""

    @pytest.mark.parametrize("zero_point", ZERO_POINTS)
    @pytest.mark.parametrize("scale", TIE_SCALES)
    def test_quantize_linear_matches_reference(self, scale, zero_point):
        s = np.float32(scale)
        x = tie_cases(s, np.arange(-300, 301))
        want = (reference_folded(x, s, zero_point) + zero_point).astype(np.int8)
        assert np.array_equal(quantize_linear(x, s, zero_point).data, want)

    @pytest.mark.parametrize("zero_point", ZERO_POINTS)
    @pytest.mark.parametrize("scale", TIE_SCALES)
    def test_quantized_linear_matches_reference(self, scale, zero_point):
        s = np.float32(scale)
        x = np.append(tie_cases(s, np.arange(-300, 301)), np.float32(np.nan))
        x = np.resize(x, (len(x) // 8 + 1, 8))
        want = identity_reference(reference_folded(x, s, zero_point), s)
        assert np.array_equal(identity_linear(x, s, zero_point), want, equal_nan=True)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_quantize_pass_returns_a_fresh_array(self, dtype):
        s, zero_point = np.float32(0.3), -3
        inv, lo, hi = compile_linear(s, zero_point, scaled_identity(4), np.zeros(4))[:3]
        x = tie_cases(s, np.arange(-300, 301)).astype(np.float64)
        before = x.copy()
        got = _quantize_folded(x, inv, lo, hi, dtype)
        assert got.dtype == dtype and not np.shares_memory(got, x)
        assert np.array_equal(x, before)
        assert np.array_equal(got, reference_folded(before, s, zero_point))

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("zero_point", [INT8_MIN, -3, 0])
    def test_blocks_equal_one_buffer(self, monkeypatch, zero_point, dtype):
        """With a budget of 37 float64 elements, a scalar-scale pass runs in
        blocks and gives the bits of one buffer at every block edge: ties,
        signed zeros, infinities and NaN, any shape, contiguous or not."""
        s = np.float32(0.013)
        inv, lo, hi = compile_linear(s, zero_point, scaled_identity(4), np.zeros(4))[:3]
        x = np.append(tie_cases(s, np.arange(-300, 301)), np.float32(np.nan))
        monkeypatch.setattr(tensor_mod, "BLOCK_BYTES", 8 * 37)
        bits = f"u{np.dtype(dtype).itemsize}"
        for part in (x[:36], x[:37], x[:38], x[:37 * 5], x, x[-3600:].reshape(-1, 5, 8),
                     x[-3600:].reshape(-1, 8).T):
            got = _quantize_folded(part, inv, lo, hi, dtype)
            with monkeypatch.context() as one_buffer:
                one_buffer.setattr(tensor_mod, "BLOCK_BYTES", 2**62)
                want = _quantize_folded(part, inv, lo, hi, dtype)
            assert got.dtype == dtype and got.shape == part.shape
            assert np.array_equal(got.view(bits), want.view(bits))
            assert np.array_equal(got, reference_folded(part, s, zero_point), equal_nan=True)

    @pytest.mark.parametrize("axis", [0, 1])
    def test_per_channel_matches_reference_past_the_budget(self, monkeypatch, axis):
        # a vector of scales is never blocked: it broadcasts along x's own axes
        monkeypatch.setattr(tensor_mod, "BLOCK_BYTES", 64)
        self.test_per_channel_matches_reference(axis)

    @pytest.mark.parametrize("axis", [0, 1])
    def test_per_channel_matches_reference(self, axis):
        rng = seeded_rng(21)
        scales = rng.uniform(1e-3, 0.1, size=7).astype(np.float32)
        n = np.arange(-140, 141)
        # channel j holds the ties and steps of scales[j]
        x = np.stack([tie_cases(s, n) for s in scales], axis=axis)
        shape = [1, 1]
        shape[axis] = len(scales)
        want = reference_folded(x, scales.reshape(shape), 0).astype(np.int8)
        got = quantize_linear(x, scales, 0, channel_axis=axis)
        assert np.array_equal(got.data, want)

    @pytest.mark.parametrize("zero_point", [INT8_MIN, 0, INT8_MAX])
    def test_float64_packed_path_matches_reference(self, zero_point):
        s = np.float32(0.0173)
        k = F32_EXACT_K + 82
        assert scaled_identity(k).data.dtype == np.float64
        x = np.resize(tie_cases(s, np.arange(-300, 301)), (5, k))
        got = identity_linear(x, s, zero_point)
        want = identity_reference(reference_folded(x, s, zero_point), s)
        assert np.array_equal(got, want)

    @settings(max_examples=200, deadline=None)
    @given(
        st.floats(2.0**-20, 1e4, width=32),
        st.integers(-400, 400),
        st.integers(INT8_MIN, INT8_MAX),
    )
    def test_ties_match_reference(self, scale, n, zero_point):
        s = np.float32(scale)
        x = tie_cases(s, [n - 1, n, n + 1])
        want = reference_folded(x, s, zero_point)
        assert np.array_equal(
            quantize_linear(x, s, zero_point).data, (want + zero_point).astype(np.int8)
        )
        got = identity_linear(x.reshape(1, -1), s, zero_point)
        assert np.array_equal(got, identity_reference(want.reshape(1, -1), s))

    def test_quantized_linear_peak_memory(self):
        # one float32 copy of x and one BLOCK_BYTES float64 block at most while it is quantized
        rng = seeded_rng(13)
        x = rng.normal(size=(1536, 384)).astype(np.float32)
        w = quantize_linear(rng.uniform(-1, 1, size=(384, 96)).astype(np.float32), 1 / 127)
        packed = pack_weight(w)
        bias = np.zeros(96, np.float32)
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            out = quantized_linear(x, 0.02, 3, packed, bias)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            if not tracing:
                tracemalloc.stop()
        assert x.size * 8 > 8 * BLOCK_BYTES  # its float64 copy spans several blocks
        assert peak < BLOCK_BYTES + x.size * 4 + out.nbytes


def fraction_half_away(x, s):
    """round_half_away(x / s) in exact rational arithmetic."""
    t = Fraction(x) / Fraction(s)
    n = math.floor(abs(t) + Fraction(1, 2))
    return n if t >= 0 else -n


def ratio_half_away(xs, s):
    """``fraction_half_away`` over a float32 array, in integer arithmetic, and
    clamped to [-256, 256], past every clamp bound: with x = a / b and
    s = c / d, floor(|x / s| + 1/2) = (2 |a| d + b c) // (2 b c)."""
    c, d = float(s).as_integer_ratio()
    out = []
    for x in xs.tolist():
        a, b = x.as_integer_ratio()
        n = min((2 * abs(a) * d + b * c) // (2 * b * c), 256)
        out.append(n if a >= 0 else -n)
    return np.array(out, dtype=np.int64)


def check_exact(xs, s, zero_point, rounded):
    """quantize_linear and quantized_linear of float32 ``xs`` against the
    exact half-away rounding ``rounded`` of xs / s, clamped."""
    want = np.clip(rounded, INT8_MIN - zero_point, INT8_MAX - zero_point)
    assert np.array_equal(quantize_linear(xs, s, zero_point).data, want + zero_point)
    rows = xs.reshape(-1, 3) if len(xs) % 3 == 0 else xs.reshape(1, -1)
    with np.errstate(over="ignore"):  # 127 (q - z) s may pass float32's range
        got = identity_linear(rows, s, zero_point)
        assert np.array_equal(got, identity_reference(want.reshape(rows.shape).astype(float), s))


F32 = np.finfo(np.float32)
# the smallest subnormal, the smallest normal and a value near the largest
EDGE_VALUES = [float(np.float32(v)) for v in (1e-45, F32.tiny, 3e38)]
SWEEP_SCALES = np.geomspace(1e-44, 1e35, 500).astype(np.float32)


def sweep_values(s):
    """The float32 nearest each tie (n + 1/2) s, |n| <= 300, and its two neighbours."""
    ties = ((np.arange(-300, 301) + 0.5) * float(s)).astype(np.float32)
    return np.concatenate(
        [ties, np.nextafter(ties, np.float32(np.inf)), np.nextafter(ties, np.float32(-np.inf))]
    )


@pytest.fixture(scope="module")
def sweep():
    """[scales, values] float32 sweep values and their exact roundings."""
    xs = np.stack([sweep_values(s) for s in SWEEP_SCALES])
    return xs, np.stack([ratio_half_away(x, s) for x, s in zip(xs, SWEEP_SCALES)])


class TestQuantizeRuleExact:
    """quantize_linear and quantized_linear against exact rational rounding of x / s."""

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.floats(width=32, allow_nan=False, allow_infinity=False),
                st.sampled_from(EDGE_VALUES + [-v for v in EDGE_VALUES]),
            ),
            max_size=12,
        ),
        st.one_of(
            st.floats(min_value=EDGE_VALUES[0], width=32, allow_infinity=False),
            st.sampled_from(EDGE_VALUES),
        ),
        st.lists(st.tuples(st.integers(-300, 300), st.integers(-1, 1)), max_size=6),
    )
    def test_matches_fraction_oracle(self, values, scale, near_ties):
        s = np.float32(scale)
        # the float32 nearest the tie (n + 1/2) s, moved by step ulps
        ties = []
        for n, step in near_ties:
            with np.errstate(over="ignore"):
                x = np.float32((n + 0.5) * scale)
            ties.append(np.nextafter(x, np.float32(step * np.inf)) if step else x)
        xs = np.array(values + [x for x in ties if np.isfinite(x)], np.float32)
        if xs.size == 0:
            return
        rounded = np.array([max(-256, min(fraction_half_away(x, scale), 256)) for x in xs.tolist()])
        # the sweep's integer oracle agrees with this one
        assert np.array_equal(ratio_half_away(xs, s), rounded)
        for zero_point in ZERO_POINTS:
            check_exact(xs, s, zero_point, rounded)

    @pytest.mark.parametrize("zero_point", ZERO_POINTS)
    def test_tie_sweep(self, sweep, zero_point):
        for s, xs, rounded in zip(SWEEP_SCALES, *sweep):
            check_exact(xs, s, zero_point, rounded)

    @pytest.mark.parametrize("axis", [0, 1])
    def test_per_channel_tie_sweep(self, sweep, axis):
        xs, rounded = sweep
        want = np.clip(rounded, INT8_MIN, INT8_MAX).astype(np.int8)
        if axis == 1:
            xs, want = xs.T, want.T
        assert np.array_equal(quantize_linear(xs, SWEEP_SCALES, 0, channel_axis=axis).data, want)


class TestInt8Matmul:
    def test_all_zero_operands(self):
        a = QTensor(np.zeros((2, 3), np.int8), np.float32(0.1), 0)
        b = QTensor(np.zeros((3, 2), np.int8), np.float32(0.2), 0)
        assert np.array_equal(int8_matmul(a, b), np.zeros((2, 2), np.float32))

    def test_against_float_oracle(self):
        rng = seeded_rng(3)
        for _ in range(20):
            m, k, n = rng.integers(1, 33, size=3)
            a = quantize_linear(
                rng.uniform(-2, 2, size=(m, k)).astype(np.float32), 4.0 / 255, 3
            )
            b = quantize_linear(
                rng.uniform(-1, 1, size=(k, n)).astype(np.float32), 1.0 / 127, 0
            )
            got = int8_matmul(a, b)
            want = dequantize_linear(a) @ dequantize_linear(b)
            denom = max(np.abs(want).max(), 1e-6)
            assert np.abs(got - want).max() / denom < 1e-4

    def test_per_channel_right_operand(self):
        rng = seeded_rng(4)
        w = rng.uniform(-1, 1, size=(8, 5)).astype(np.float32)
        scales = (np.abs(w).max(axis=0) / 127).astype(np.float32)
        b = quantize_linear(w, scales, 0, channel_axis=1)
        a = quantize_linear(rng.uniform(-2, 2, size=(3, 8)).astype(np.float32), 4 / 255, -7)
        got = int8_matmul(a, b)
        want = dequantize_linear(a) @ dequantize_linear(b)
        assert np.allclose(got, want, atol=1e-5)

    def test_max_magnitude_exact(self):
        # K=4 of +-127: 4 * 16129 < 2^31, accumulation must be exact
        a = QTensor(np.full((1, 4), 127, np.int8), np.float32(1.0), 0)
        b = QTensor(np.full((4, 1), 127, np.int8), np.float32(1.0), 0)
        assert int8_matmul(a, b)[0, 0] == 4 * 127 * 127

    @pytest.mark.parametrize("zero_point", [INT8_MIN, INT8_MAX])
    def test_worst_case_exact_at_k_1024(self, zero_point):
        qa, qw = worst_case_operands(3, 1024, 4, zero_point, seed=11)
        scale_w = np.full(4, 0.5, np.float32)
        a = QTensor(qa, np.float32(0.25), zero_point)
        b = QTensor(qw, scale_w, 0, channel_axis=1)
        want = int64_reference(qa, zero_point, qw, 0.25, scale_w)
        assert np.array_equal(int8_matmul(a, b), want)

    @pytest.mark.parametrize("zero_point", [INT8_MIN, INT8_MAX])
    @pytest.mark.parametrize("k", [512, 513, F32_EXACT_K, F32_EXACT_K + 1])
    def test_quantized_linear_worst_case_exact(self, k, zero_point):
        qa, qw = worst_case_operands(3, k, 4, zero_point, seed=k)
        scale_w = np.array([0.5, 0.25, 2.0, 1.0], np.float32)
        packed = pack_weight(QTensor(qw, scale_w, 0, channel_axis=1))
        # float32 exactly while K * 255 * 127 < 2^24, float64 beyond
        assert packed.data.dtype == (np.float32 if k <= F32_EXACT_K else np.float64)
        scale = np.float32(0.125)
        # real values that quantize back to qa under (scale, zero_point)
        x = ((qa.astype(np.float32) - zero_point) * scale).astype(np.float32)
        bias = np.array([1.0, -2.0, 0.5, 0.0], np.float32)
        got = quantized_linear(x, scale, zero_point, packed, bias)
        want = int64_reference(qa, zero_point, qw, scale, scale_w) + bias
        assert np.array_equal(got, want)

    def test_quantized_linear_matches_per_call_path(self):
        rng = seeded_rng(12)
        x = rng.uniform(-3, 3, size=(2, 5, 16)).astype(np.float32)
        w = quantize_linear(rng.uniform(-1, 1, size=(16, 7)).astype(np.float32),
                            rng.uniform(0.002, 0.01, size=7), 0, channel_axis=1)
        bias = rng.normal(size=7).astype(np.float32)
        for scale, zp in ((6.0 / 255, -3), (0.01, 127), (0.05, INT8_MIN)):
            q = quantize_linear(x.reshape(-1, 16), scale, zp)
            want = (int8_matmul(q, w) + bias).reshape(2, 5, 7)
            got = quantized_linear(x, scale, zp, pack_weight(w), bias)
            assert np.array_equal(got, want)

    def test_quantized_linear_validates_qparams(self):
        packed = pack_weight(QTensor(np.ones((3, 2), np.int8), np.float32(1.0), 0))
        x = np.ones((1, 3), np.float32)
        bias = np.zeros(2, np.float32)
        for scale in (0.0, -1.0, np.nan, np.inf, 1e39):  # 1e39 rounds to float32 infinity
            with pytest.raises(InputError), np.errstate(over="ignore"):
                quantized_linear(x, scale, 0, packed, bias)
        with pytest.raises(InputError):
            quantized_linear(x, 1.0, 128, packed, bias)
        with pytest.raises(InputError):
            pack_weight(QTensor(np.ones((3, 2), np.int8), np.float32(1.0), 5))

    def test_accumulator_capacity_guard(self):
        k = MAX_ACCUM_K + 1
        a = QTensor(np.zeros((1, k), np.int8), np.float32(1.0), 0)
        b = QTensor(np.zeros((k, 1), np.int8), np.float32(1.0), 0)
        with pytest.raises(CapacityError):
            int8_matmul(a, b)


def integer_sums(qa, zero_point, qw):
    """The exact GEMM of (qa - z) and qw, accumulated in int64, as float64."""
    return ((qa.astype(np.int64) - zero_point) @ qw.astype(np.int64)).astype(np.float64)


def multiplier_reference(qa, zero_point, qw, scale_a, scale_w):
    """The requantization rule written out: the int64 sums times the float32
    multiplier fl32(s_a * s_w), in float64, rounded to float32. Below 2^24 the
    float64 product is exact, so this is the correctly rounded float32 product."""
    multiplier = np.float32(scale_a) * scale_w
    return (integer_sums(qa, zero_point, qw) * multiplier.astype(np.float64)).astype(np.float32)


def float64_rescale_reference(qa, zero_point, qw, scale_a, scale_w):
    """The int64 sums times s_a * s_w (exact in float64), rounded once to float32."""
    rescale = np.float64(scale_a) * scale_w.astype(np.float64)
    return (integer_sums(qa, zero_point, qw) * rescale).astype(np.float32)


def requantize_operands(k, per_column, seed):
    """Random int8 operands and scales spread log-uniformly over [2^-20, 2^5),
    none a power of two, for a [16, k] x [k, 24] GEMM."""
    rng = seeded_rng(seed)
    qa = rng.integers(INT8_MIN, INT8_MAX + 1, size=(16, k), dtype=np.int8)
    qw = rng.integers(-INT8_MAX, INT8_MAX + 1, size=(k, 24), dtype=np.int8)
    qw[0, 0] = INT8_MAX  # so pack_weight sees the full weight range
    scales = np.float32(2.0) ** rng.uniform(-20, 5, size=25).astype(np.float32)
    assert not np.any(np.frexp(scales)[0] == 0.5)
    scale_a, scale_w = scales[0], scales[1:] if per_column else scales[1]
    return qa, qw, scale_a, scale_w


class TestRequantize:
    """Every int8 GEMM requantizes by one float32 multiplier per column."""

    @pytest.mark.parametrize("per_column", [True, False], ids=["per-column", "per-tensor"])
    @pytest.mark.parametrize("k", [96, F32_EXACT_K + 1], ids=["float32-gemm", "float64-gemm"])
    @pytest.mark.parametrize("seed", range(4))
    def test_compiled_linear_is_int8_matmul_is_the_multiplier_rule(self, k, per_column, seed):
        zero_point = -3
        qa, qw, scale_a, scale_w = requantize_operands(k, per_column, seed)
        w = QTensor(qw, scale_w, 0, channel_axis=1 if per_column else None)
        packed = pack_weight(w)
        assert packed.data.dtype == (np.float32 if k <= F32_EXACT_K else np.float64)
        # real values that quantize back to qa under (scale_a, zero_point)
        x = ((qa.astype(np.float32) - zero_point) * scale_a).astype(np.float32)
        bias = seeded_rng(seed + 100).normal(size=24).astype(np.float32)

        matmul_out = int8_matmul(QTensor(qa, scale_a, zero_point), w)
        served = quantized_linear(x, scale_a, zero_point, packed, bias)
        assert np.array_equal(served, matmul_out + bias)

        col_scales = np.broadcast_to(scale_w, (24,))
        want = multiplier_reference(qa, zero_point, qw, scale_a, col_scales)
        assert np.array_equal(matmul_out, want)
        assert np.array_equal(served, want + bias)

        # at most one float32 step from the float64 rescale it replaced
        old = float64_rescale_reference(qa, zero_point, qw, scale_a, col_scales)
        assert np.all(np.abs(matmul_out - old) <= np.abs(np.spacing(old)))

    def test_multipliers_are_float32(self):
        qa, qw, scale_a, scale_w = requantize_operands(32, True, 7)
        packed = pack_weight(QTensor(qw, scale_w, 0, channel_axis=1))
        assert packed.scale.dtype == np.float32
        assert np.array_equal(packed.scale, scale_w)
        rescale = compile_linear(scale_a, 5, packed, np.zeros(24, np.float32))[4]
        assert rescale.dtype == np.float32
        assert np.array_equal(rescale, np.float32(scale_a) * scale_w)
        per_tensor = pack_weight(QTensor(qw, scale_w[0], 0))
        assert per_tensor.scale.dtype == np.float32 and per_tensor.scale.shape == (24,)


def test_kernels_deterministic():
    rng = seeded_rng(5)
    a = rng.normal(size=(16, 16)).astype(np.float32)
    b = rng.normal(size=(16, 16)).astype(np.float32)
    assert np.array_equal(matmul(a, b), matmul(a.copy(), b.copy()))
    assert np.array_equal(softmax(a), softmax(a.copy()))


def test_seeded_rng_reproducible():
    assert np.array_equal(seeded_rng(99).random(8), seeded_rng(99).random(8))
