"""Dense float and int8 tensor kernels that everything else is built on.

Arrays are plain numpy ndarrays in row-major order; float32 is the working
precision of the public API. Kernels preserve the dtype they are given so
numerical oracles (finite differences, exact references) can run the same
code in float64. All operations are pure functions of their inputs and
bit-deterministic for fixed inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, ConfigError, InputError, ShapeError

INT8_MIN = -128
INT8_MAX = 127

# K * 127^2 must stay below 2^31 so an int32 accumulator cannot overflow.
MAX_ACCUM_K = (2**31) // (INT8_MAX * INT8_MAX)

# An activation quantized with its zero point folded into the clamp,
# clip(r, -128 - z, 127 - z) = q - z, lies in [-255, 255].
FOLDED_ACT_MAX = INT8_MAX - INT8_MIN

# The working set, in bytes, of one block of a batch-sized pass: a quarter of
# a 2 MiB L2, so a block's buffer stays in cache across the pass's steps.
# ``_quantize_folded`` and ``model.attention_context`` block by it.
BLOCK_BYTES = 2**19

# The least absmax a symmetric scale is derived from, so that an all-zero
# tensor still gets a positive scale.
SCALE_FLOOR = 1e-8


def check_seed(seed: int) -> None:
    """The rule of every seed, which ``seeded_rng`` applies: a negative one is a
    ``ConfigError``. A config checks it here, without building a generator."""
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")


def seeded_rng(seed: int) -> np.random.Generator:
    """Deterministic PCG64 generator: identical seed, identical stream."""
    check_seed(seed)
    return np.random.Generator(np.random.PCG64(int(seed)))


def softmax(x: np.ndarray, axis: int = -1, out: np.ndarray | None = None) -> np.ndarray:
    """Stable softmax: max is subtracted before exponentiation.

    Returns a fresh array and leaves ``x`` untouched, unless ``out`` is given
    (``out=x`` normalizes in place). The shifted values are written once,
    into that one buffer, and exponentiated and normalized there. Integer
    input is computed in float64.
    """
    x = np.asarray(x)
    if x.dtype.kind != "f":
        x = x.astype(np.float64)
    e = np.subtract(x, np.maximum.reduce(x, axis=axis, keepdims=True), out=out)
    np.exp(e, out=e)
    e /= np.add.reduce(e, axis=axis, keepdims=True)
    return e


def relu(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """max(x, 0); ``out=x`` rectifies in place."""
    return np.maximum(x, 0, out=out)


def standardize(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(xhat, std): each feature vector (last axis) centred and divided by
    std = sqrt(population variance + 1e-5), the normalization of every layer
    norm, in inference and training alike. A constant row has zero variance
    and maps to zeros. ``xhat`` is a fresh array, written once and divided in
    place; ``x`` is untouched. Integer input is computed in float64.

    Each mean is ``np.add.reduce`` divided by d, which is what ``ndarray.mean``
    computes, bit for bit, minus numpy's Python ``_mean`` wrapper; on a
    [24, 64] block that wrapper costs more than the reduction itself.
    """
    x = np.asarray(x)
    if x.dtype.kind != "f":
        x = x.astype(np.float64)
    d = x.shape[-1]
    xhat = x - np.add.reduce(x, axis=-1, keepdims=True) / d
    std = np.sqrt(np.add.reduce(xhat * xhat, axis=-1, keepdims=True) / d + 1e-5)
    xhat /= std
    return xhat, std


def layer_norm(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """``gamma * xhat + beta`` of ``standardize(x)``, so a constant row maps to
    beta. Returns a fresh array: xhat is multiplied and shifted in place."""
    out = standardize(x)[0]
    if gamma.dtype != out.dtype or beta.dtype != out.dtype:
        # a gamma or beta of another dtype may promote the result, as out-of-place ops do
        return gamma * out + beta
    out *= gamma
    out += beta
    return out


def im2col_batch(xs: np.ndarray, k: int, stride: int) -> np.ndarray:
    """Unfold [B, C, T] into C-contiguous [B, T', C*k] windows in one strided pass.

    Window j of channel c is ``xs[:, c, j*stride : j*stride + k]``. The result
    may be a read-only view of ``xs``: one C-contiguous channel tiled at
    stride k, as the presets embed patches, is already laid out as [B, T', k].
    Otherwise it is a fresh copy.
    """
    b, c, t = xs.shape
    n = (t - k) // stride + 1
    s_b, s_c, s_t = xs.strides
    windows = np.lib.stride_tricks.as_strided(
        xs, (b, n, c, k), (s_b, stride * s_t, s_c, s_t), writeable=False
    )
    return np.ascontiguousarray(windows.reshape(b, n, c * k))


def round_half_away(x: np.ndarray) -> np.ndarray:
    """Round to nearest integer, halves away from zero (not banker's)."""
    return np.copysign(np.floor(np.abs(x) + 0.5), x)


@dataclass(frozen=True)
class QTensor:
    """Signed 8-bit payload plus the affine map back to real values.

    ``scale`` is either a positive scalar (per-tensor) or a positive vector
    along ``channel_axis`` (per-channel). ``zero_point`` is a per-tensor
    integer in [-128, 127]; per-channel quantization is always symmetric
    (zero_point 0).
    """

    data: np.ndarray
    scale: np.ndarray
    zero_point: int = 0
    channel_axis: int | None = None

    def __post_init__(self):
        if self.data.dtype != np.int8:
            raise InputError(f"QTensor payload must be int8, got {self.data.dtype}")
        scale = np.asarray(self.scale, dtype=np.float32)
        object.__setattr__(self, "scale", scale)
        if np.any(scale <= 0):
            raise InputError("QTensor scale must be positive")
        if not (INT8_MIN <= self.zero_point <= INT8_MAX):
            raise InputError(f"zero_point {self.zero_point} outside int8 range")
        if scale.ndim == 0:
            if self.channel_axis is not None:
                raise InputError("scalar scale cannot carry a channel_axis")
        else:
            if self.channel_axis is None:
                raise InputError("vector scale requires a channel_axis")
            if scale.shape[0] != self.data.shape[self.channel_axis]:
                raise ShapeError(
                    f"per-channel scale length {scale.shape[0]} does not match "
                    f"axis {self.channel_axis} of shape {self.data.shape}"
                )
            if self.zero_point != 0:
                raise InputError("per-channel quantization must be symmetric")

    @property
    def shape(self) -> tuple:
        return self.data.shape


def _broadcast_scale(scale: np.ndarray, channel_axis: int | None, ndim: int) -> np.ndarray:
    if scale.ndim == 0 or channel_axis is None:
        return scale
    shape = [1] * ndim
    shape[channel_axis] = scale.shape[0]
    return scale.reshape(shape)


# Enlarges the reciprocal so that an exact tie x / s = n + 1/2 lands past it,
# away from zero; _quantize_folded says why that makes rint exact.
_TIE_NUDGE = 1.0 + 2.0**-38


def _quantize_folded(x: np.ndarray, inv, lo: int | None, hi: int | None, dtype) -> np.ndarray:
    """rint(clip(x * inv, lo, hi)) in float64, returned as a fresh array of ``dtype``.

    With lo = hi = None it skips the clamp: ``compile_dynamic_linear`` passes
    None for a site whose scale is set by its own x, where the lemma at the
    end shows that the clamp changes no bit.

    The rounding rule of every int8 quantizer. With inv = (1 + 2^-38) / s in
    float64, for a positive float32 scale s (a scalar or a broadcastable
    vector), and integer bounds lo = -128 - z, hi = 127 - z, it returns
    clip(round_half_away(x / s), lo, hi) = q - z for every float32 x, of any
    shape; ``x`` is untouched. ``dtype`` is float64 or the GEMM operand's
    float type.

    x is widened by one cast into a fresh float64 buffer (a copy even of a
    float64 x), multiplied, clamped and rounded in place, and narrowed once:
    numpy's buffered mixed-dtype loops cost more than this arithmetic at
    single-instance sizes. Widening a float32 is exact, so r below is the
    product the proof reads, and the narrowing casts integers of magnitude
    at most 255, which every float type holds.

    With a scalar ``inv``, an x whose float64 copy would exceed BLOCK_BYTES
    runs in blocks of its flattened elements, each widened, scaled, clamped,
    rounded and narrowed into one output while its buffer is in cache. The
    rule is elementwise, so the blocks leave the proof below untouched.

    Proof. Let t = x / s exactly and r = x * inv as computed.

    * No overflow or underflow. Every float32 is a multiple of 2^-149 below
      2^128, so 2^-128 < inv < 2^150, and a non-zero |x| * inv lies in
      (2^-277, 2^277), inside float64's normal range, subnormal x and s
      included. inv and r round once each, so r = t (1 + 2^-38)(1 + e) with
      |e| < 2^-51.99: r lies beyond t, away from zero, by |t| d with
      2^-38.001 < d < 2^-37.999.
    * Clamping first is exact: the bounds are integers and rint is monotone,
      so rint(clip(r, lo, hi)) = clip(rint(r), lo, hi). Where |t| > 256, |r|
      > 255.5 and both rint(r) and round_half_away(t) lie past both bounds
      (|lo|, |hi| <= 255) on the same side, so they clamp alike. Where
      |t| <= 256, |r - t| < 2^-29.9, and it is left to show rint(r) =
      round_half_away(t).
    * Exact ties. If t = n + 1/2, r lies beyond it by more than 2^-40 and by
      less than 2^-29.9 < 1/2, strictly between t and the integer past it,
      so rint(r) rounds t away from zero.
    * Every other t lies at least 2^-25 from each half-integer h. Let 2^e
      be the float32 spacing at s, so s = S 2^e with integer S < 2^24 (S >=
      2^23 when s is normal; e = -149 when it is subnormal), and h s is a
      multiple of 2^(e-1). If x is a multiple of 2^(e-1) too, x - h s is a
      non-zero one and |t - h| = |x - h s| / s > 2^(e-1) / 2^(e+24) =
      2^-25. Otherwise e > -149, because every float32 is a multiple of
      2^-149, so s >= 2^(e+23) is normal; and |x| < 2^(e+22), as every float32
      from there up is a multiple of 2^(e-1), so |x| <= 2^(e+22) - 2^(e-2),
      the float32 just below. Then |t| < 1/2, and its distance to +-1/2,
      (s/2 - |x|) / s, is at least (s/2 - 2^(e+22) + 2^(e-2)) / s, which
      grows with s and equals 2^-25 at s = 2^(e+23). So r, within 2^-29.9
      of t, is on the same side of every half-integer as t, and rint(r) is
      the integer nearest t.
    * Infinite x clamps to a bound. NaN stays NaN through the clamp and
      rint: ``compiled_linear``'s GEMM spreads it over its output row, and
      ``quantize_linear`` gives it no defined int8 payload. Which zero
      represents q - z = 0 is not part of the contract: where the lower bound
      is 0, a negative x clamps to +0 here while round_half_away gives -0;
      int8 payloads and GEMM sums are the same either way.

    A float64 x lacks the 2^-25 margin: it gets round_half_away(x / s)
    except where x / s lies within 2^-29.9 of a half-integer, on the side
    toward zero.

    Lemma: the clamp of a dynamic site is a no-op. There z = 0, so [lo, hi] =
    [-128, 127], and s = fl32(fl64(m / 127)) with m = max(|x|max, 1e-8)
    (``_dynamic_qparams``; m is exact for a float32 or float64 x). As m / 127 >
    2^-34 lies far inside float32's normal range, s >= (m / 127)(1 - 2^-24)
    (1 - 2^-53); inv = (1 + 2^-38) / s and r = x * inv round once each, and
    |x| <= m, so every |r| <= 127 (1 + 2^-38)(1 + 2^-53)^2 / ((1 - 2^-24)
    (1 - 2^-53)) < 127 (1 + 2^-23.9) < 127.5. So rint(r) lies in [-127, 127],
    and clip(rint(r), -128, 127) = rint(r), -0 and +0 included: by the
    commuting step above, the clamp changes no bit. A NaN or infinite x
    gives a NaN or infinite scale, which ``compile_dynamic_linear`` rejects
    before any quantizing, as it rejects an m of float64's range that
    rounds to float32 infinity.
    """
    if x.size * 8 > BLOCK_BYTES and np.ndim(inv) == 0:
        flat, out, step = x.reshape(-1), np.empty(x.size, dtype), BLOCK_BYTES // 8
        for i in range(0, x.size, step):
            out[i:i + step] = _quantize_folded(flat[i:i + step], inv, lo, hi, np.float64)
        return out.reshape(x.shape)
    r = x.astype(np.float64)
    r *= inv
    if lo is not None:
        # np.maximum/np.minimum rather than np.clip, whose Python-level dispatch
        # costs more than the clamp itself at single-instance sizes
        np.maximum(r, lo, out=r)
        np.minimum(r, hi, out=r)
    np.rint(r, out=r)
    return r.astype(dtype, copy=False)


def quantize_linear(
    x: np.ndarray,
    scale,
    zero_point: int = 0,
    channel_axis: int | None = None,
) -> QTensor:
    """Quantize real values to int8: q = clamp(round(x/s) + z, -128, 127).

    Rounding is half-away-from-zero, by ``_quantize_folded``: x / s is clamped
    to [-128 - z, 127 - z] and rounded, then z is added. As z is an integer,
    round(clip(r, -128 - z, 127 - z)) + z is the formula above. Per-channel
    scales go through the same rule.
    """
    x = np.asarray(x)
    scale = np.asarray(scale, dtype=np.float32)
    if np.any(scale <= 0):
        raise InputError("scale must be positive")
    inv = _TIE_NUDGE / _broadcast_scale(scale, channel_axis, x.ndim).astype(np.float64)
    q = _quantize_folded(x, inv, INT8_MIN - zero_point, INT8_MAX - zero_point, np.float64)
    q += zero_point
    return QTensor(q.astype(np.int8), scale, zero_point, channel_axis)


def dequantize_linear(q: QTensor) -> np.ndarray:
    """Inverse affine map: x_hat = (q - zero_point) * scale."""
    s = _broadcast_scale(q.scale, q.channel_axis, q.data.ndim)
    return ((q.data.astype(np.float32) - q.zero_point) * s).astype(np.float32)


def _exact_dtype(k: int, a_max: int, b_max: int):
    """Float type whose GEMM of integer-valued operands is exact.

    With |a| <= a_max and |b| <= b_max, every product and partial sum of a
    K-term dot product is an integer of magnitude at most K * a_max * b_max.
    Below 2^24 (the float32 significand) float32 holds them all exactly, in
    whatever order the BLAS sums; otherwise float64 does, since callers keep
    K within MAX_ACCUM_K.
    """
    return np.float32 if k * a_max * b_max < 2**24 else np.float64


def int8_matmul(a: QTensor, b: QTensor) -> np.ndarray:
    """Integer matmul of quantized operands, returned in real units.

    Accumulation is exact: the zero points are subtracted from the payloads
    before the GEMM, and ``_exact_dtype`` picks a float type in which every
    partial sum of up to MAX_ACCUM_K terms is an exact integer, so the result
    reproduces int32 accumulation bit for bit (and is much faster than a
    naive integer loop). The sums are requantized by one multiply, in the
    GEMM's dtype, by the float32 multiplier fl32(s_a * s_b), and rounded to
    float32: for the float32 GEMM that product is the correctly rounded
    acc * fl32(s_a * s_b), within one float32 ulp of acc * s_a * s_b.

    b may carry a per-output-channel scale (channel_axis == 1).
    """
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ShapeError("int8_matmul expects rank-2 operands")
    m, k = a.data.shape
    k2, n = b.data.shape
    if k != k2:
        raise ShapeError(f"inner dimensions disagree: {a.data.shape} x {b.data.shape}")
    if k > MAX_ACCUM_K:
        raise CapacityError(
            f"K={k} exceeds the int32 accumulator bound ({MAX_ACCUM_K})"
        )
    if a.channel_axis is not None:
        raise InputError("left operand must be per-tensor quantized")
    if b.channel_axis not in (None, 1):
        raise InputError("right operand scale must be per-tensor or per-column")

    # |q - z| <= 255 for any int8 payload q and zero point z
    dtype = _exact_dtype(k, FOLDED_ACT_MAX, FOLDED_ACT_MAX)
    acc = (a.data.astype(dtype) - a.zero_point) @ (b.data.astype(dtype) - b.zero_point)

    acc *= np.float32(a.scale) * b.scale  # fl32(s_a * s_b), in acc's own dtype
    return acc.astype(np.float32, copy=False)


@dataclass(frozen=True)
class PackedWeight:
    """An int8 weight laid out once for ``compiled_linear``.

    ``data`` is the [K, N] integer payload, stored as float32 when a float32
    GEMM against zero-point-folded activations is exact (``_exact_dtype``)
    and as float64 otherwise; ``scale`` is the [N] per-column scale in
    float32.
    """

    data: np.ndarray
    scale: np.ndarray


def pack_weight(w: QTensor) -> PackedWeight:
    """Pack a symmetric rank-2 weight, per tensor or per column, for compiled_linear."""
    if w.data.ndim != 2:
        raise ShapeError(f"pack_weight expects a rank-2 weight, got {w.data.shape}")
    if w.zero_point != 0 or w.channel_axis not in (None, 1):
        raise InputError("packed weights must be symmetric, per tensor or per column")
    k, n = w.data.shape
    if k > MAX_ACCUM_K:
        raise CapacityError(
            f"K={k} exceeds the int32 accumulator bound ({MAX_ACCUM_K})"
        )
    # measured rather than assumed to be 127: a loaded payload may hold -128
    b_max = int(np.abs(w.data.astype(np.int16)).max(initial=0))
    data = w.data.astype(_exact_dtype(k, FOLDED_ACT_MAX, b_max))
    scale = np.broadcast_to(w.scale, (n,)).copy()
    return PackedWeight(data, scale)


# The least float64 that rounds to float32 infinity: halfway from float32's
# maximum, 2^128 - 2^104, to 2^128, where a tie rounds to the even 2^128.
# A scale is checked against it before its cast to float32, which would warn
# of the overflow; a numpy float64, so that comparing a float32 casts nothing.
_FLOAT32_OVERFLOW = np.float64(2.0**128 - 2.0**103)


def compile_linear(scale, zero_point: int, packed: PackedWeight, bias: np.ndarray) -> tuple:
    """Check an activation map once; returns ``compiled_linear``'s arguments after x.

    They are the float64 reciprocal (1 + 2^-38) / s of the float32-rounded
    scale s, the clamp bounds -128 - z and 127 - z, the packed payload, the
    float32 requantization multipliers s * ``packed.scale`` (each correctly
    rounded), and the bias.
    """
    if not 0 < scale < _FLOAT32_OVERFLOW:  # NaN fails too
        raise InputError(f"scale must be positive and finite in float32, got {scale!r}")
    s = np.float32(scale)
    if s == 0:
        raise InputError(f"scale {scale!r} underflows to 0 in float32")
    if not INT8_MIN <= zero_point <= INT8_MAX:
        raise InputError(f"zero_point {zero_point} outside int8 range")
    lo, hi = INT8_MIN - zero_point, INT8_MAX - zero_point
    return _TIE_NUDGE / float(s), lo, hi, packed.data, s * packed.scale, bias


def _dynamic_qparams(x: np.ndarray) -> tuple[float, int]:
    """A dynamic site's activation map: symmetric, scale max(|x|max, 1e-8) / 127."""
    # max(|x|) without an |x| temporary; a NaN in x still gives a NaN scale.
    # The ufunc reductions are x.max() and x.min() without their Python wrappers.
    scale = max(float(np.maximum.reduce(x, axis=None)), -float(np.minimum.reduce(x, axis=None)),
                SCALE_FLOOR) / 127.0
    return scale, 0


def compile_dynamic_linear(x: np.ndarray, packed: PackedWeight, bias: np.ndarray) -> tuple:
    """``compile_linear`` of x's own map, ``_dynamic_qparams(x)``, without a clamp.

    The bounds are None: by the lemma in ``_quantize_folded``, a clamp to
    [-128, 127] cannot move a bit of x quantized by its own scale. The zero
    point is 0 and the scale at least 1e-8 / 127, so only a NaN, infinite or
    float32-overflowing scale needs rejecting.
    """
    scale = _dynamic_qparams(x)[0]
    if not scale < _FLOAT32_OVERFLOW:  # NaN fails too
        raise InputError(f"scale must be positive and finite in float32, got {scale!r}")
    s = np.float32(scale)
    return _TIE_NUDGE / float(s), None, None, packed.data, s * packed.scale, bias


def compiled_linear(x: np.ndarray, inv, lo: int | None, hi: int | None, weight: np.ndarray,
                    rescale: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """``x @ W + bias`` in float32, with x quantized per tensor and W packed int8,
    on ``compile_linear``'s or ``compile_dynamic_linear``'s checked arguments:
    quantize x, one exact GEMM, requantize by one multiply in the GEMM's dtype
    rounded once to float32, add bias.

    x may have any leading shape [..., K], and the result is [..., N].
    Bit-identical to ``quantize_linear`` -> ``int8_matmul`` -> ``+ bias`` on
    the flattened rows: every product and partial sum of the GEMM is an exact
    integer, so neither the row grouping nor the summation order can move a
    bit. The zero point is folded into the clamp bounds (clip(r, -128 - z,
    127 - z) = q - z), so the GEMM needs no zero-point correction.
    """
    acc = _quantize_folded(x, inv, lo, hi, weight.dtype) @ weight
    acc *= rescale
    if acc.dtype != np.float32:  # the float64 GEMM of a long K
        acc = acc.astype(np.float32)
    acc += bias
    return acc
