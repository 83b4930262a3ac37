"""Join measured span trees against the GPU perf model.

:mod:`repro.gpu.perfmodel` encodes the *structure* the paper reports —
which kernels a pipeline runs and how their costs split on an A100/A40.
Until now it was a write-only artifact: nothing checked its shape against
the code that actually runs. This module closes the loop. Given a traced
``compress``/``decompress`` root span (see ``docs/OBSERVABILITY.md`` for
the taxonomy), it:

1. aggregates the measured children into the perf model's stage
   vocabulary (``predict`` / ``huffman`` / ``lossless``),
2. rebuilds the modelled kernel inventory for the same codec,
   element count and compressed size via
   :func:`repro.gpu.perfmodel.estimate_throughput`, and
3. reports, stage by stage, how the Python substrate's *relative* cost
   shape diverges from the modelled device shape (``skew`` = measured
   share / modelled share).

Absolute times are incomparable (NumPy on a CPU vs a roofline model of
an A100); relative stage shares are the comparable quantity, and large
skews are exactly the model-vs-reality deltas worth investigating.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.common.errors import ConfigError
from repro.gpu.device import DEVICES, DeviceSpec
from repro.gpu.perfmodel import estimate_throughput
from repro.telemetry import Span

__all__ = ["StageRow", "CrosscheckReport", "crosscheck", "find_root"]

#: measured child-span names folded into each model stage, per direction.
#: The GPU fuses quantization into the prediction kernel, so the traced
#: ``tune``/``predict``/``quantize`` siblings all map onto ``predict``.
MEASURED_STAGES = {
    "compress": {
        "predict": ("tune", "predict", "quantize"),
        "huffman": ("huffman",),
        "lossless": ("lossless",),
    },
    "decompress": {
        "predict": ("predict",),
        "huffman": ("huffman",),
        "lossless": ("lossless",),
    },
}

#: run attribute holding the compressed size, per direction. A traced
#: run's root span carries its ledger record's attributes, so the span
#: cross-check and :func:`repro.telemetry.recorder.model_deviation` read
#: the same names.
COMPRESSED_ATTR = {"compress": "bytes_out", "decompress": "bytes_in"}

#: modelled kernel names folded into each stage, per (codec, direction).
MODEL_STAGES = {
    ("cuszi", "compress"): {
        "predict": ("profile-autotune", "ginterp-predict-quant"),
        "huffman": ("histogram", "huffman-encode"),
        "lossless": ("gle-deredundancy",),
    },
    ("cuszi", "decompress"): {
        "predict": ("ginterp-reconstruct",),
        "huffman": ("huffman-decode",),
        "lossless": ("gle-deredundancy",),
    },
}


@dataclass
class StageRow:
    """One stage's measured-vs-modelled accounting."""

    stage: str
    measured_s: float
    measured_share: float
    modelled_s: float
    modelled_share: float

    @property
    def skew(self) -> float:
        """measured share / modelled share (1.0 = same relative cost)."""
        if self.modelled_share <= 0.0:
            return math.inf if self.measured_share > 0 else 1.0
        return self.measured_share / self.modelled_share


@dataclass
class CrosscheckReport:
    """Stage-share comparison for one traced pipeline run."""

    codec: str
    direction: str
    device: str
    n_elements: int
    compressed_bytes: int
    rows: list[StageRow] = field(default_factory=list)
    measured_total_s: float = 0.0
    modelled_total_s: float = 0.0

    @property
    def max_skew(self) -> float:
        return max((max(r.skew, 1.0 / r.skew) if r.skew > 0 else math.inf
                    for r in self.rows), default=1.0)

    def format(self) -> str:
        head = (f"perf-model cross-check: {self.codec} {self.direction} "
                f"on modelled {self.device} "
                f"({self.n_elements} elements, "
                f"{self.compressed_bytes} compressed bytes)")
        cols = (f"{'stage':<10} {'measured':>10} {'share':>7} "
                f"{'modelled':>10} {'share':>7} {'skew':>7}")
        lines = [head, cols, "-" * len(cols)]
        for r in self.rows:
            skew = "inf" if math.isinf(r.skew) else f"{r.skew:.2f}x"
            lines.append(f"{r.stage:<10} {r.measured_s * 1e3:>8.2f}ms "
                         f"{r.measured_share:>6.1%} "
                         f"{r.modelled_s * 1e3:>8.2f}ms "
                         f"{r.modelled_share:>6.1%} {skew:>7}")
        lines.append(f"{'total':<10} {self.measured_total_s * 1e3:>8.2f}ms "
                     f"{'':>7} {self.modelled_total_s * 1e3:>8.2f}ms")
        lines.append(
            "(skew = measured share / modelled share; absolute times are "
            "CPU-substrate vs modelled-GPU and not directly comparable)")
        return "\n".join(lines)


def find_root(spans: list[Span],
              direction: str | None = None) -> Span | None:
    """Locate the first ``compress``/``decompress`` root span in a trace.

    A root for this purpose is any span named ``compress`` or
    ``decompress`` carrying the codec attribute — it need not be
    top-level (the experiment harness nests pipeline roots under its own
    spans).
    """
    wanted = (direction,) if direction else ("compress", "decompress")
    for sp in sorted(spans, key=lambda s: (s.start, s.span_id)):
        if sp.name in wanted and "codec" in sp.attrs:
            return sp
    return None


def crosscheck(spans: list[Span], device: DeviceSpec | str = "a100",
               direction: str | None = None) -> CrosscheckReport:
    """Compare a traced pipeline run against the modelled device shape.

    ``spans`` is a full trace (e.g. ``Registry.spans`` or a re-parsed
    JSONL dump); the first ``compress``/``decompress`` root span found
    provides codec, element count and compressed size.
    """
    if isinstance(device, str):
        try:
            device = DEVICES[device.lower()]
        except KeyError:
            raise ConfigError(f"unknown device {device!r}; "
                              f"choose from {sorted(DEVICES)}")
    root = find_root(spans, direction)
    if root is None:
        raise ConfigError("trace contains no compress/decompress root span "
                          "with a codec attribute")
    codec = str(root.attrs["codec"])
    dir_ = root.name
    try:
        n_elements = int(root.attrs["n_elements"])
        compressed = int(root.attrs[COMPRESSED_ATTR[dir_]])
    except KeyError as exc:
        raise ConfigError(f"root span lacks required attribute {exc}")
    if (codec, dir_) not in MODEL_STAGES:
        raise ConfigError(f"no stage mapping for codec {codec!r} "
                          f"direction {dir_!r}")

    lossless = str(root.attrs.get("lossless", "none"))
    # the perf model only knows the paper's GLE pass; the orchestrator
    # ("auto") is GLE-dominated so it borrows that model, while other
    # outer codecs (zlib) are modelled as absent, which the skew column
    # then surfaces
    model_lossless = "gle" if lossless in ("gle", "auto") else "none"
    timing = estimate_throughput(codec, dir_, n_elements, compressed,
                                 device, model_lossless)
    kernel_s = dict(timing.kernels)

    children = [sp for sp in spans if sp.parent_id == root.span_id]
    measured: dict[str, float] = {}
    for stage, names in MEASURED_STAGES[dir_].items():
        measured[stage] = sum(sp.duration_s for sp in children
                              if sp.name in names)
    modelled: dict[str, float] = {}
    for stage, names in MODEL_STAGES[(codec, dir_)].items():
        modelled[stage] = sum(kernel_s.get(n, 0.0) for n in names)

    m_total = sum(measured.values())
    mod_total = sum(modelled.values())
    report = CrosscheckReport(codec=codec, direction=dir_,
                              device=device.name, n_elements=n_elements,
                              compressed_bytes=compressed,
                              measured_total_s=m_total,
                              modelled_total_s=mod_total)
    for stage in MODEL_STAGES[(codec, dir_)]:
        meas = measured.get(stage, 0.0)
        mod = modelled.get(stage, 0.0)
        report.rows.append(StageRow(
            stage=stage, measured_s=meas,
            measured_share=meas / m_total if m_total else 0.0,
            modelled_s=mod,
            modelled_share=mod / mod_total if mod_total else 0.0))
    return report
