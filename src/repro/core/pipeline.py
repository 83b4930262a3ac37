"""The cuSZ-i end-to-end pipeline (paper §IV, Fig. 1).

Compression:  G-Interp prediction + error quantization -> chunked Huffman
over the quant-codes -> optional GLE (Bitcomp-lossless stand-in) pass over
the whole archive. Anchors and stream-compacted outliers travel as side
segments. Auto-tuning decisions (alpha, per-axis cubic spline, axis order)
are made by the profiling kernel and recorded in the header, because the
decompressor must replay the traversal without the original data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro import telemetry
from repro.telemetry import quality, recorder

from repro.common.arrayutils import (crop_to_shape, pad_to_grid,
                                     validate_field, value_range)
from repro.common.container import build_container, parse_container
from repro.common.errors import CodecError, ConfigError
from repro.common.lossless_wrap import (framed_codec, unwrap_lossless,
                                        wrap_lossless)
from repro.common.quantizer import DEFAULT_RADIUS, LinearQuantizer
from repro.core.ginterp.autotune import (alpha_from_eb, autotune,
                                         field_fingerprint)
from repro.core.ginterp.engine import (InterpSpec, check_stream_geometry,
                                       check_stream_header,
                                       check_stream_values, interp_compress,
                                       interp_decompress)
from repro.core.ginterp.plans import get_plan
from repro.huffman import (FORMAT_KEY, FORMAT_VERSION,
                           best_static_profile, huffman_decode,
                           huffman_encode, read_stream, static_lengths)
from repro.registry import register

__all__ = ["CuSZi", "CompressionStats", "resolve_eb",
           "DEFAULT_ANCHOR_STRIDE", "DEFAULT_WINDOW"]

#: paper §V-A: 8^3 chunks for 3D, 16^2 for 2D, 512 for 1D
DEFAULT_ANCHOR_STRIDE = {1: 512, 2: 16, 3: 8}
#: shared thread-block windows: 4 basic blocks fused along the fastest axis
#: (Fig. 2's 33x9x9, anchor-inclusive extents)
DEFAULT_WINDOW = {1: (2049,), 2: (17, 65), 3: (9, 9, 33)}


def resolve_eb(data: np.ndarray, eb: float, mode: str) -> float:
    """Turn a user error bound into an absolute bound.

    ``mode="abs"`` passes through; ``mode="rel"`` scales by the value range
    (the paper's "value-range-based relative error bound").
    """
    if eb <= 0:
        raise ConfigError(f"error bound must be positive, got {eb}")
    if mode == "abs":
        return float(eb)
    if mode == "rel":
        rng = value_range(data)
        if rng == 0.0:
            # constant field: any positive absolute bound preserves it
            return float(eb)
        return float(eb) * rng
    raise ConfigError(f"unknown eb mode {mode!r}; use 'abs' or 'rel'")


@dataclass
class CompressionStats:
    """Byte-level accounting of one compression run."""

    n_elements: int
    original_nbytes: int
    compressed_nbytes: int
    segment_nbytes: dict[str, int] = field(default_factory=dict)
    inner_nbytes: int = 0          # container size before the lossless pass
    n_outliers: int = 0
    nonzero_code_fraction: float = 0.0
    abs_eb: float = 0.0
    tuning: dict = field(default_factory=dict)

    @property
    def ratio(self) -> float:
        if self.compressed_nbytes <= 0:
            # degenerate accounting (e.g. hand-built stats): an empty
            # archive of empty input is a no-op, not a division error
            return math.inf if self.original_nbytes > 0 else 1.0
        return self.original_nbytes / self.compressed_nbytes

    @property
    def bit_rate(self) -> float:
        if self.n_elements <= 0:
            return 0.0
        return 8.0 * self.compressed_nbytes / self.n_elements


@register
class CuSZi:
    """The cuSZ-i compressor.

    Parameters
    ----------
    eb, mode:
        Error bound and its interpretation (``"rel"`` = value-range
        relative, ``"abs"`` = absolute).
    lossless:
        Outer de-redundancy pass: ``"auto"`` (the default — segment-aware
        orchestration that picks a backend per container stream),
        ``"gle"`` (whole-container Bitcomp-lossless stand-in), ``"none"``
        (Huffman-only pipeline), or ``"zlib"``.
    radius:
        Quantizer radius R; the code alphabet is ``2*radius``.
    tune:
        Run the §V-C profiling kernel. When off, not-a-knot cubics, default
        axis order and the Eq. 1 alpha are used.
    anchor_stride, window_shape, alpha, beta:
        Overrides for the G-Interp geometry (defaults follow the paper per
        dimensionality). ``window_shape=None`` with ``use_windows=False``
        interpolates globally (the CPU-style ablation).
    codebook:
        ``"dynamic"`` builds the optimal Huffman codebook per stream;
        ``"static"`` uses a prebuilt two-sided-geometric codebook (the
        §VI-A speed direction), trading a few percent of ratio.
    """

    name = "cuszi"

    def __init__(self, eb: float = 1e-3, mode: str = "rel",
                 lossless: str = "auto", radius: int = DEFAULT_RADIUS,
                 tune: bool = True, anchor_stride: int | None = None,
                 window_shape: tuple[int, ...] | None = None,
                 use_windows: bool = True, alpha: float | None = None,
                 beta: float | None = None, pad: bool = False,
                 codebook: str = "dynamic"):
        self.eb = float(eb)
        self.mode = mode
        self.lossless = lossless
        self.radius = int(radius)
        self.tune = bool(tune)
        self.anchor_stride = anchor_stride
        self.window_shape = window_shape
        self.use_windows = use_windows
        self.alpha = alpha
        self.beta = beta
        self.pad = bool(pad)
        if codebook not in ("dynamic", "static"):
            raise ConfigError(f"codebook must be 'dynamic' or 'static', "
                              f"got {codebook!r}")
        self.codebook = codebook

    # -- spec construction -------------------------------------------------

    def _geometry(self, ndim: int) -> tuple[int, tuple[int, ...] | None]:
        if ndim not in DEFAULT_ANCHOR_STRIDE:
            raise ConfigError(f"cuSZ-i supports 1..3D data, got {ndim}D")
        stride = self.anchor_stride or DEFAULT_ANCHOR_STRIDE[ndim]
        if not self.use_windows:
            window = None
        elif self.window_shape is not None:
            window = self.window_shape
        elif self.anchor_stride is None:
            window = DEFAULT_WINDOW[ndim]
        else:
            # derived window for a custom stride: 4 chunks along the
            # fastest axis, 1 elsewhere (anchor-inclusive extents)
            window = tuple([stride + 1] * (ndim - 1) + [4 * stride + 1])
        return stride, window

    def _build_spec(self, padded: np.ndarray, abs_eb: float
                    ) -> tuple[InterpSpec, dict]:
        stride, window = self._geometry(padded.ndim)
        rng = value_range(padded)
        rel_eb = abs_eb / rng if rng > 0 else 1.0
        tuning: dict = {}
        if self.tune:
            report = autotune(padded, abs_eb)
            cubic = report.cubic_variant
            order = report.axis_order
            if window is not None:
                # Fig. 2-5: within each level the widest shared-window axis
                # is interpolated last, so the bulk of the targets use the
                # axis where cubic neighbors exist; smoothness profiling
                # only orders the remaining (equally confined) axes.
                widest = int(np.argmax(window))
                order = tuple([ax for ax in report.axis_order
                               if ax != widest] + [widest])
            alpha = report.alpha
            tuning = {
                "alpha": report.alpha,
                "cubic_variant": list(report.cubic_variant),
                "axis_order": list(order),
                "profiled_errors": list(report.profiled_errors),
                "fingerprint": report.fingerprint,
            }
        else:
            cubic = ()
            order = ()
            alpha = alpha_from_eb(rel_eb)
        if self.alpha is not None:
            alpha = float(self.alpha)
        spec = InterpSpec(anchor_stride=stride, window_shape=window,
                          cubic_variant=cubic, axis_order=order,
                          alpha=alpha,
                          beta=self.beta if self.beta is not None
                          else float("inf"))
        return spec.resolved(padded.ndim), tuning

    # -- public API --------------------------------------------------------

    def compress(self, data: np.ndarray) -> bytes:
        """Compress ``data`` into a self-describing blob."""
        blob, _stats = self.compress_detailed(data)
        return blob

    def compress_detailed(self, data: np.ndarray
                          ) -> tuple[bytes, CompressionStats]:
        """Compress and report byte-level accounting."""
        with recorder.capture("compress", codec=self.name) as cap:
            return self._compress_traced(data, cap)

    def _compress_traced(self, data: np.ndarray, cap
                         ) -> tuple[bytes, CompressionStats]:
        data = validate_field(data)
        abs_eb = resolve_eb(data, self.eb, self.mode)
        quantizer = LinearQuantizer(self.radius, value_dtype=data.dtype)

        stride, _window = self._geometry(data.ndim)
        padded = pad_to_grid(data, stride) if self.pad else data
        with cap.stage("tune", enabled=self.tune):
            spec, tuning = self._build_spec(padded, abs_eb)
        # resolve the compiled pass plan up front: repeated same-shape
        # compressions (and the decompress replay) hit the plan LRU
        with cap.stage("plan"):
            plan = get_plan(padded.shape, spec.resolved(padded.ndim))
        with cap.stage("predict", bytes_in=data.nbytes) as sp:
            result = interp_compress(padded, spec, abs_eb, quantizer,
                                     plan=plan)
            sp.set(segment="anchors",
                   segment_nbytes=result.anchors.nbytes,
                   codes_nbytes=result.codes.nbytes,
                   n_passes=len(result.pass_sizes))
        with cap.stage("quantize") as sp:
            # quantization proper is fused into the predict traversal
            # (as on the GPU — inside each ginterp.pass child span);
            # this sibling accounts for its side channel, the
            # stream-compacted outliers, and the anchor serialization
            outlier_seg = result.outliers.tobytes()
            anchor_seg = result.anchors.tobytes()
            sp.set(segment="outliers", segment_nbytes=len(outlier_seg),
                   n_outliers=int(result.outliers.size))
            telemetry.incr("outliers", int(result.outliers.size))
        with cap.stage("huffman", bytes_in=result.codes.nbytes) as sp:
            if self.codebook == "static":
                # prebuilt two-sided-geometric codebook (§VI-A, ref
                # [37]): skips the histogram + tree build at a small
                # ratio cost
                spread = best_static_profile(result.codes,
                                             quantizer.n_codes,
                                             self.radius)
                lengths = static_lengths(quantizer.n_codes, self.radius,
                                         spread)
            else:
                lengths = None
            stream = huffman_encode(result.codes, quantizer.n_codes,
                                    lengths=lengths)
            huff_seg = stream.to_bytes()
            sp.set(segment="huffman", segment_nbytes=len(huff_seg),
                   bytes_out=len(huff_seg), codebook=self.codebook)
        segments = {
            "huffman": huff_seg,
            "outliers": outlier_seg,
            "anchors": anchor_seg,
        }
        meta = {
            "shape": list(data.shape),
            "padded_shape": list(padded.shape),
            "dtype": data.dtype.name,
            "abs_eb": abs_eb,
            "radius": self.radius,
            "n_outliers": int(result.outliers.size),
            "spec": spec.to_meta(),
            FORMAT_KEY: FORMAT_VERSION,
        }
        with cap.stage("container") as sp:
            inner = build_container(self.name, meta, segments)
            sp.set(bytes_out=len(inner))
        with cap.stage("lossless", codec=self.lossless,
                       bytes_in=len(inner)) as sp:
            blob = wrap_lossless(inner, self.lossless)
            sp.set(bytes_out=len(blob))
        cap.set(bytes_in=data.nbytes, bytes_out=len(blob),
                n_elements=data.size, shape=list(data.shape),
                eb=self.eb, eb_mode=self.mode, abs_eb=abs_eb,
                lossless=self.lossless, n_outliers=int(
                    result.outliers.size))
        # the sampled content fingerprint keys the run's analytics
        # cohort; with tuning on it falls out of the profiling pass for
        # free, otherwise hash only when a record is actually being
        # built (the disabled-recorder path must stay hash-free)
        fp = tuning.get("fingerprint")
        if fp is None and cap.run_id:
            fp = field_fingerprint(padded)
        if fp:
            cap.set(fingerprint=fp)
        if quality.should_audit():
            # verify the archive actually decodes within the promised
            # bound; the internal decode runs ledger-suppressed so the
            # audit never shows up as a phantom decompress record
            with cap.stage("quality"), recorder.suppressed():
                recon = self.decompress(blob)
                report = quality.audit(
                    data, recon, abs_eb, codes=result.codes,
                    pass_levels=[cp.desc.level for cp in plan.passes],
                    pass_sizes=result.pass_sizes,
                    n_outliers=int(result.outliers.size))
            cap.set(quality=report.to_dict())
        stats = CompressionStats(
            n_elements=data.size,
            original_nbytes=data.nbytes,
            compressed_nbytes=len(blob),
            segment_nbytes={k: len(v) for k, v in segments.items()},
            inner_nbytes=len(inner),
            n_outliers=int(result.outliers.size),
            # read off the encoder's symbol counts: no second scan of
            # the code stream
            nonzero_code_fraction=(
                (stream.n_symbols - int(stream.symbol_counts[self.radius]))
                / stream.n_symbols) if stream.n_symbols else 0.0,
            abs_eb=abs_eb,
            tuning=tuning,
        )
        return blob, stats

    def decompress(self, blob: bytes) -> np.ndarray:
        """Reconstruct the field from a cuSZ-i blob."""
        with recorder.capture("decompress", codec=self.name,
                              bytes_in=len(blob)) as cap:
            with cap.stage("lossless", bytes_in=len(blob)) as sp:
                inner = unwrap_lossless(blob)
                sp.set(bytes_out=len(inner))
            with cap.stage("container", bytes_in=len(inner)):
                codec, meta, segments = parse_container(inner)
            if codec != self.name:
                raise CodecError(
                    f"blob codec {codec!r} is not {self.name!r}")
            stream = read_stream(segments["huffman"], meta)
            dtype, abs_eb, radius, spec = check_stream_header(
                meta, stream.alphabet_size,
                extra_keys=("padded_shape", "n_outliers"))
            shape = tuple(meta["shape"])
            padded_shape = tuple(meta["padded_shape"])
            quantizer = LinearQuantizer(radius, value_dtype=dtype)
            anchor_shape = check_stream_geometry(
                shape, padded_shape, spec.anchor_stride,
                len(segments["anchors"]), dtype.itemsize, stream.n_symbols)
            with cap.stage("huffman",
                           bytes_in=len(segments["huffman"])) as sp:
                codes = huffman_decode(stream)
                sp.set(bytes_out=codes.nbytes)
            outliers = np.frombuffer(segments["outliers"], dtype=dtype)
            if outliers.size != int(meta["n_outliers"]):
                raise CodecError("outlier segment size mismatch")
            anchors = np.frombuffer(segments["anchors"],
                                    dtype=dtype).reshape(anchor_shape)
            check_stream_values(anchors, outliers, abs_eb, radius, spec)
            with cap.stage("plan"):
                plan = get_plan(padded_shape,
                                spec.resolved(len(padded_shape)))
            with cap.stage("predict") as sp:
                work = interp_decompress(padded_shape, spec, abs_eb,
                                         codes, outliers, anchors,
                                         quantizer, plan=plan)
                sp.set(bytes_out=work.size * dtype.itemsize)
            out = crop_to_shape(work, shape).astype(dtype)
            cap.set(bytes_out=out.nbytes, n_elements=out.size,
                    shape=list(out.shape), abs_eb=abs_eb,
                    lossless=framed_codec(blob))
            return out
