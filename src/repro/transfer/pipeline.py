"""Pipelined multi-file transfers.

The paper's case study ships multi-file datasets (Table II: up to 37 RTM
files) "distributed and parallel": while file *k* is on the wire, file
*k+1* is already compressing on the source GPU and file *k-1* is
decompressing at the destination. This module models that three-stage
pipeline exactly: each stage is a serial resource (one GPU per side, one
wire), files flow in order, and a file enters a stage as soon as both the
file and the stage are free. Pipelining hides whichever two stages are not
the bottleneck — which is why GPU-speed compression matters even when the
wire dominates.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro import telemetry
from repro.common.errors import ConfigError
from repro.gpu.device import A100_THETA, DeviceSpec
from repro.gpu.perfmodel import estimate_throughput
from repro.transfer.globus import THETA_TO_ANVIL, TransferLink

__all__ = ["FileSpec", "PipelineSchedule", "pipelined_transfer",
           "filespecs_from_fields", "pipelined_transfer_fields"]


@dataclass(frozen=True)
class FileSpec:
    """One file of a dataset: its element count and compressed size."""

    name: str
    n_elements: int
    compressed_bytes: int


@dataclass
class PipelineSchedule:
    """Completion schedule of a pipelined transfer."""

    codec: str
    #: per file: (name, compress_done, wire_done, decompress_done), the
    #: absolute completion times of each stage in seconds
    timeline: list[tuple[str, float, float, float]] = field(
        default_factory=list)
    #: per file: (name, compress_s, wire_s, decompress_s) stage durations
    stage_times: list[tuple[str, float, float, float]] = field(
        default_factory=list)

    @property
    def makespan(self) -> float:
        """Wall-clock time until the last file is decompressed."""
        return self.timeline[-1][3] if self.timeline else 0.0

    @property
    def serial_time(self) -> float:
        """What the same work would cost without stage overlap."""
        return sum(c + w + d for _, c, w, d in self.stage_times)

    @property
    def overlap_speedup(self) -> float:
        """Serial time / pipelined makespan (>= 1)."""
        return self.serial_time / self.makespan if self.makespan else 1.0


def filespecs_from_fields(named_fields, codec: str = "cuszi", *,
                          eb: float = 1e-3, mode: str = "rel",
                          lossless: str = "gle",
                          workers: int | str | None = None,
                          **codec_kwargs) -> list[FileSpec]:
    """Compress real arrays into the :class:`FileSpec` list a schedule
    needs — measured compressed sizes, not modelled ones.

    ``named_fields`` is a sequence of ``(name, ndarray)`` pairs; the
    fields are independent, so the codec work fans out across worker
    processes via :func:`repro.runtime.map_compress` when ``workers`` is
    set (results are identical either way).
    """
    from repro.runtime import map_compress
    named_fields = list(named_fields)
    if not named_fields:
        raise ConfigError("no fields to compress")
    blobs = map_compress([data for _, data in named_fields], codec,
                         workers=workers, eb=eb, mode=mode,
                         lossless=lossless, **codec_kwargs)
    return [FileSpec(name=name, n_elements=int(data.size),
                     compressed_bytes=len(blob))
            for (name, data), blob in zip(named_fields, blobs)]


def pipelined_transfer_fields(codec: str, named_fields, *,
                              link: TransferLink = THETA_TO_ANVIL,
                              src_device: DeviceSpec = A100_THETA,
                              dst_device: DeviceSpec = A100_THETA,
                              eb: float = 1e-3, mode: str = "rel",
                              lossless: str = "gle",
                              workers: int | str | None = None,
                              **codec_kwargs) -> PipelineSchedule:
    """Compress real arrays (optionally in parallel), then schedule them
    through the three-stage transfer pipeline."""
    files = filespecs_from_fields(named_fields, codec, eb=eb, mode=mode,
                                  lossless=lossless, workers=workers,
                                  **codec_kwargs)
    return pipelined_transfer(codec, files, link=link,
                              src_device=src_device, dst_device=dst_device,
                              lossless=lossless)


def pipelined_transfer(codec: str, files: list[FileSpec],
                       link: TransferLink = THETA_TO_ANVIL,
                       src_device: DeviceSpec = A100_THETA,
                       dst_device: DeviceSpec = A100_THETA,
                       lossless: str = "gle") -> PipelineSchedule:
    """Schedule a multi-file dataset through the 3-stage pipeline.

    Classic pipeline recurrence over serial stages: with stage durations
    ``c_k, w_k, d_k``,

        C_k = C_{k-1} + c_k
        W_k = max(C_k, W_{k-1}) + w_k
        D_k = max(W_k, D_{k-1}) + d_k
    """
    if not files:
        raise ConfigError("no files to transfer")
    schedule = PipelineSchedule(codec=codec)
    with telemetry.span("transfer.pipeline", codec=codec,
                        n_files=len(files), link=link.name,
                        src=src_device.name, dst=dst_device.name) as root:
        c_done = w_done = d_done = 0.0
        for f in files:
            comp = estimate_throughput(codec, "compress", f.n_elements,
                                       f.compressed_bytes, src_device,
                                       lossless).total_seconds
            wire = link.wire_time(f.compressed_bytes)
            dec = estimate_throughput(codec, "decompress", f.n_elements,
                                      f.compressed_bytes, dst_device,
                                      lossless).total_seconds
            c_done = c_done + comp
            w_done = max(c_done, w_done) + wire
            d_done = max(w_done, d_done) + dec
            schedule.timeline.append((f.name, c_done, w_done, d_done))
            schedule.stage_times.append((f.name, comp, wire, dec))
            if telemetry.enabled():
                # modelled (not clocked) durations: record_span, one
                # parent per file with the three pipeline stages under it
                fsp = telemetry.record_span(
                    "transfer.file", comp + wire + dec, file=f.name,
                    bytes_in=f.n_elements * 4,
                    bytes_out=f.compressed_bytes, done_at=d_done)
                for stage, dur in (("transfer.compress", comp),
                                   ("transfer.wire", wire),
                                   ("transfer.decompress", dec)):
                    telemetry.record_span(stage, dur,
                                          parent_id=fsp.span_id,
                                          file=f.name)
        root.set(makespan_s=schedule.makespan,
                 serial_s=schedule.serial_time)
    return schedule
