"""Error-bounded linear quantization with outlier compaction (paper §III-A).

Every prediction-based compressor in this reproduction shares the same
quantization contract:

* ``q = round((value - prediction) / (2 * eb))`` maps the prediction error
  onto integer bins of width ``2*eb``;
* the reconstruction ``prediction + 2*eb*q`` is then within ``eb`` of the
  original value;
* codes with ``|q| >= radius`` (or that fail the bound after float32
  rounding) are *outliers*: they get the reserved code ``0`` and their exact
  float32 value is stream-compacted into a side channel (§VI-A), matching
  cuSZ's outlier design. Regular codes are stored as ``q + radius`` so the
  full code alphabet is ``[0, 2*radius)``.

Compressor and decompressor both run the arithmetic in float64, in the same
order, so reconstructions replay bit-exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.common.errors import ConfigError, CorruptStreamError

__all__ = ["LinearQuantizer", "QuantResult", "DEFAULT_RADIUS",
           "check_error_bound"]

DEFAULT_RADIUS = 512


def check_error_bound(eb: float) -> None:
    """Reject an absolute error bound that is not a finite positive number.

    A NaN bound compares False with everything, so ``eb <= 0`` lets it
    through, and every code and range test after it silently passes:
    :class:`~repro.common.errors.ConfigError` up front instead.
    """
    if not (math.isfinite(eb) and eb > 0):
        raise ConfigError(
            f"error bound must be a finite positive number, got {eb}")


@dataclass
class QuantResult:
    """Outcome of quantizing one prediction pass.

    Attributes
    ----------
    codes:
        uint32 array, same length as the pass, values in ``[0, 2*radius)``;
        code 0 marks an outlier.
    reconstructed:
        float64 array the decompressor will reproduce exactly.
    outlier_values:
        float32 array of the original values at outlier positions, in pass
        order (stream compaction).
    """

    codes: np.ndarray
    reconstructed: np.ndarray
    outlier_values: np.ndarray

    @property
    def n_outliers(self) -> int:
        return int(self.outlier_values.size)


class LinearQuantizer:
    """Linear error-bounded quantizer with a symmetric code radius.

    ``value_dtype`` is the dtype the reconstruction will finally be emitted
    in (float32 for the paper's datasets): the error bound is checked after
    rounding to that dtype, and outliers are stored in it, so the bound
    holds on the actual decompressor output.
    """

    def __init__(self, radius: int = DEFAULT_RADIUS,
                 value_dtype: np.dtype = np.float32):
        if radius < 2:
            raise ConfigError(f"radius must be >= 2, got {radius}")
        self.radius = int(radius)
        self.value_dtype = np.dtype(value_dtype)
        if self.value_dtype not in (np.float32, np.float64):
            raise ConfigError(f"unsupported value dtype {value_dtype}")

    @property
    def n_codes(self) -> int:
        """Size of the code alphabet (including the reserved outlier 0)."""
        return 2 * self.radius

    def quantize(self, values: np.ndarray, predictions: np.ndarray,
                 eb: float) -> QuantResult:
        """Quantize prediction errors for one pass.

        ``values`` are originals, ``predictions`` the same-shape predicted
        values; ``eb`` the absolute error bound for this pass.
        """
        check_error_bound(eb)
        v = np.asarray(values, dtype=np.float64).ravel()
        p = np.asarray(predictions, dtype=np.float64).ravel()
        ebx2 = 2.0 * eb

        q = np.rint((v - p) / ebx2)
        recon = p + ebx2 * q
        # Outlier when the code leaves the alphabet or the bound fails after
        # rounding to the output dtype.
        bad = np.abs(q) >= self.radius
        bad |= np.abs(recon.astype(self.value_dtype).astype(np.float64)
                      - v) > eb

        outlier_values = v[bad].astype(self.value_dtype)
        # Exact float32 round-trip on both sides: the decompressor reads the
        # stored float32 and upcasts, so do the same here.
        recon[bad] = outlier_values.astype(np.float64)

        codes = np.zeros(v.size, dtype=np.uint32)
        good = ~bad
        codes[good] = (q[good] + self.radius).astype(np.uint32)
        return QuantResult(codes=codes, reconstructed=recon,
                           outlier_values=outlier_values)

    def quantize_into(self, values: np.ndarray, predictions: np.ndarray,
                      eb: float, codes_out: np.ndarray, *,
                      v_buf: np.ndarray, q_buf: np.ndarray,
                      r_buf: np.ndarray
                      ) -> tuple[np.ndarray, np.ndarray]:
        """Buffered :meth:`quantize`: write codes straight into the stream.

        ``values`` may be any-dimensional (a strided view of the original
        field); ``predictions`` is its flat-order prediction vector, a
        contiguous float64 array that this call overwrites (it is dead
        once the reconstruction is formed, so it serves as scratch for
        the value-dtype round trip and the outlier masks). Codes land in
        ``codes_out`` (a uint32 slice of the caller's full code stream).
        ``values`` is read once, staged as float64 into ``v_buf``; the
        rounding runs in ``q_buf`` and the reconstruction in ``r_buf``.
        Every buffer is reused scratch of at least ``values.size``
        elements, so a call allocates only its outlier indices and
        values, and only when it has outliers. Returns
        ``(reconstructed, outlier_values)`` where ``reconstructed`` is a
        ``values``-shaped view of ``r_buf`` valid until the next call.

        Bit-identical to :meth:`quantize` lane for lane: the staged
        values and the subtraction are exact float64 upcasts, the fused
        ``ebx2*q + p`` is the same IEEE sum as ``p + ebx2*q``, an
        outlier lane's code is formed as ``-radius + radius`` = 0, and
        every other lane's ``q + radius`` lies in ``[1, 2*radius)``, so
        no float outside the code alphabet is ever cast to an integer.
        """
        check_error_bound(eb)
        n = values.size
        p = predictions
        if p.dtype != np.float64 or p.size != n \
                or not p.flags.c_contiguous:
            raise ConfigError("predictions must be a contiguous float64 "
                              f"vector of {n} elements")
        p = p.reshape(n)
        v = v_buf[:n]
        q = q_buf[:n]
        r = r_buf[:n]
        radius = self.radius
        ebx2 = 2.0 * eb

        np.copyto(v.reshape(values.shape), values)   # the one strided read
        np.subtract(v, p, out=q)
        q /= ebx2
        np.rint(q, out=q)
        np.multiply(q, ebx2, out=r)
        r += p                            # == p + ebx2*q bit for bit
        # p is dead from here on: its bytes hold the masks and residuals
        wide = None
        if n and (q.max() >= radius or q.min() <= -radius):
            hi, lo = p.view(np.bool_)[:n], p.view(np.bool_)[n:2 * n]
            np.greater_equal(q, radius, out=hi)
            np.less_equal(q, -radius, out=lo)
            hi |= lo
            wide = np.flatnonzero(hi)
            q[wide] = -radius             # code 0: reserved for outliers
        # every code fits int32 at any practical radius, and the float to
        # int32 cast is the cheaper one; the bits are the uint32 code's
        np.add(q, radius, casting="unsafe", out=codes_out.view(np.int32)
               if radius < 2 ** 30 else codes_out)

        # the bound after rounding to the output dtype (a float64 output
        # needs no round trip); q is free now
        if self.value_dtype == np.float64:
            np.subtract(r, v, out=p)
        else:
            r32 = q.view(np.float32)[:n]
            np.copyto(r32, r, casting="same_kind")
            np.subtract(r32, v, out=p, dtype=np.float64)
        np.abs(p, out=p)
        if n and p.max() > eb:
            bad = q.view(np.bool_)[4 * n:5 * n]
            np.greater(p, eb, out=bad)
            if wide is not None:
                bad[wide] = True
            wide = np.flatnonzero(bad)
            codes_out[wide] = 0
        if wide is None:
            return r.reshape(values.shape), np.empty(0, self.value_dtype)
        outlier_values = v[wide].astype(self.value_dtype)
        # the decompressor reads the stored value and upcasts it
        r[wide] = outlier_values
        return r.reshape(values.shape), outlier_values

    def dequantize(self, codes: np.ndarray, predictions: np.ndarray,
                   eb: float, outlier_values: np.ndarray,
                   outlier_cursor: int) -> tuple[np.ndarray, int]:
        """Invert :meth:`quantize` for one pass.

        ``outlier_values`` is the full compacted outlier stream;
        ``outlier_cursor`` the index of the next unconsumed outlier. Returns
        the reconstructed float64 values and the advanced cursor. A thin
        allocating wrapper over :meth:`dequantize_into`.
        """
        codes = np.asarray(codes).ravel()
        recon = np.empty(codes.size, dtype=np.float64)
        cursor = self.dequantize_into(codes, predictions, eb, recon,
                                      outlier_values, outlier_cursor)
        return recon, cursor

    def dequantize_into(self, codes: np.ndarray, predictions: np.ndarray,
                        eb: float, out: np.ndarray,
                        outlier_values: np.ndarray, outlier_cursor: int,
                        *, q_buf: np.ndarray | None = None) -> int:
        """Buffered :meth:`dequantize`: reconstruct straight into ``out``.

        ``out`` may be any-dimensional (a strided view of the caller's
        work array); ``codes`` and ``predictions`` are its flat-order code
        and prediction vectors. The scaled codes ``ebx2*(codes - radius)``
        are staged in the reusable float64 scratch ``q_buf`` (default:
        ``out`` itself), so a strided ``out`` is written once, by the
        final sum with the predictions, and nothing pass-sized is
        allocated beyond the outlier mask. Returns the advanced outlier
        cursor; raises :class:`~repro.common.errors.CorruptStreamError`
        when the outlier stream runs dry — a short slice would silently
        reconstruct garbage at every remaining outlier position.

        Bit-identical to ``p + ebx2*(codes - radius)`` lane for lane: the
        difference of two small integers is exact in float64, and
        ``ebx2*q + p`` is the same IEEE sum as ``p + ebx2*q``.
        """
        check_error_bound(eb)
        shape = out.shape
        codes = codes.reshape(shape)
        q = out if q_buf is None else q_buf[:out.size].reshape(shape)
        np.subtract(codes, self.radius, out=q, dtype=np.float64)
        q *= 2.0 * eb
        np.add(q, np.asarray(predictions, dtype=np.float64).reshape(shape),
               out=out)
        is_out = codes == 0
        n_out = int(np.count_nonzero(is_out))
        if n_out:
            take = outlier_values[outlier_cursor:outlier_cursor + n_out]
            if take.size != n_out:
                raise CorruptStreamError(
                    f"outlier stream exhausted: pass has {n_out} outlier "
                    f"code(s) but only {take.size} stored value(s) remain")
            out[is_out] = take
        return outlier_cursor + n_out
