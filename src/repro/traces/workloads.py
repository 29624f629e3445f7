"""Synthetic enterprise workload generators.

The paper evaluates on two MSR Cambridge enterprise traces: a *media
server* and a *web/SQL server*.  Since the originals cannot ship with
this repository, these generators synthesize traces with the same
structure along the axes PPB's behaviour depends on:

* **request size mix** — drives the paper's first-stage size-check
  identifier (request < page size => hot path);
* **read/write ratio and re-access skew** — drives how much read volume
  can be served from fast pages;
* **the four data-temperature populations** the paper names in
  Section 3.2: file-system metadata (iron-hot: frequent read+write),
  temp/cache files (hot: frequent write, few reads), media/static
  content (cold: write-once-read-many, Zipf popularity) and
  backups/logs (icy-cold: write-once-read-few).

Each generator partitions its byte footprint into regions for those
populations and emits a seeded, timestamped request stream.  All knobs
are constructor parameters so sensitivity studies can sweep them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigError
from repro.traces.record import IORequest, OpType, Trace
from repro.traces.synthetic import (
    PatternPhase,
    ScrambledZipfian,
    UniformSampler,
    make_pattern,
    parse_phases,
)

_KB = 1024
_MB = 1024 * 1024


@dataclass(frozen=True)
class Region:
    """A byte range of the logical volume hosting one data population."""

    name: str
    start: int
    size: int

    @property
    def end(self) -> int:
        """One past the last byte of the region."""
        return self.start + self.size

    def slot_offset(self, slot: int, slot_size: int) -> int:
        """Byte offset of fixed-size slot ``slot`` inside the region."""
        offset = self.start + slot * slot_size
        if offset + slot_size > self.end:
            raise ConfigError(
                f"slot {slot} of size {slot_size} overflows region {self.name}"
            )
        return offset

    def num_slots(self, slot_size: int) -> int:
        """How many fixed-size slots fit in the region."""
        return max(1, self.size // slot_size)


class SyntheticWorkload:
    """Base class: footprint partitioning, arrival process, emission.

    Subclasses override :meth:`_emit` to append one logical event (which
    may be several sequential requests) per step.
    """

    #: subclass name used for the generated trace.
    trace_name = "synthetic"

    def __init__(
        self,
        num_requests: int = 100_000,
        footprint_bytes: int = 1024 * _MB,
        seed: int = 42,
        mean_interarrival_us: float = 1000.0,
    ) -> None:
        if num_requests < 1:
            raise ConfigError(f"num_requests must be >= 1, got {num_requests}")
        if footprint_bytes < 16 * _MB:
            raise ConfigError(
                f"footprint_bytes must be >= 16 MiB, got {footprint_bytes}"
            )
        self.num_requests = num_requests
        self.footprint_bytes = footprint_bytes
        self.seed = seed
        self.mean_interarrival_us = mean_interarrival_us
        self.rng = np.random.default_rng(seed)
        self._now_us = 0.0
        self._out: list[IORequest] = []

    # -- helpers for subclasses ----------------------------------------

    def _advance_clock(self) -> float:
        """Advance simulated arrival time by an exponential interarrival."""
        self._now_us += float(self.rng.exponential(self.mean_interarrival_us))
        return self._now_us

    def _push(self, op: OpType, offset: int, size: int) -> None:
        """Append one request at the current clock."""
        offset = max(0, min(offset, self.footprint_bytes - size))
        self._out.append(IORequest(op, offset, size, self._now_us))

    def _partition(self, fractions: dict[str, float]) -> dict[str, Region]:
        """Split the footprint into named regions by fraction (sums to <= 1)."""
        total = sum(fractions.values())
        if total > 1.0 + 1e-9:
            raise ConfigError(f"region fractions sum to {total} > 1")
        regions: dict[str, Region] = {}
        cursor = 0
        for name, frac in fractions.items():
            size = int(self.footprint_bytes * frac) // 4096 * 4096
            regions[name] = Region(name, cursor, size)
            cursor += size
        return regions

    # -- generation ------------------------------------------------------

    def _emit(self) -> None:
        """Append one or more requests for a single workload event."""
        raise NotImplementedError

    def generate(self) -> Trace:
        """Produce the trace (deterministic for a given seed)."""
        self._out = []
        self._now_us = 0.0
        while len(self._out) < self.num_requests:
            self._advance_clock()
            self._emit()
        del self._out[self.num_requests:]
        return Trace(self._out, name=f"{self.trace_name}-s{self.seed}")


class MediaServerWorkload(SyntheticWorkload):
    """Streaming media server, modelled on the MSRC media-server volume.

    Traffic classes (weights are event probabilities, not request
    counts — streaming events emit whole sequential runs):

    * ``stream`` — sequential read runs over media files whose
      popularity follows a Zipf law.  Popular file bodies are the
      paper's *cold* population (write-once-read-many); the unpopular
      tail behaves *icy-cold*.
    * ``ingest`` — sequential large writes of fresh content
      (write-once).
    * ``metadata`` — small reads/writes of the catalogue/file-system
      metadata (*iron-hot*).
    * ``temp`` — small rewrites of transcode/session scratch (*hot*).
    """

    trace_name = "media-server"

    def __init__(
        self,
        num_requests: int = 100_000,
        footprint_bytes: int = 1024 * _MB,
        seed: int = 42,
        file_size_bytes: int = 8 * _MB,
        stream_request_bytes: int = 128 * _KB,
        stream_run_requests: int = 16,
        zipf_theta: float = 0.9,
        event_weights: dict[str, float] | None = None,
        **kwargs: object,
    ) -> None:
        super().__init__(num_requests, footprint_bytes, seed, **kwargs)
        self.file_size_bytes = file_size_bytes
        self.stream_request_bytes = stream_request_bytes
        self.stream_run_requests = stream_run_requests
        self.regions = self._partition(
            {"metadata": 0.02, "temp": 0.05, "media": 0.85, "backup": 0.08}
        )
        self.event_weights = event_weights or {
            "stream": 0.52,
            "ingest": 0.10,
            "metadata": 0.28,
            "temp": 0.08,
            "backup": 0.02,
        }
        media = self.regions["media"]
        self.num_files = media.num_slots(file_size_bytes)
        self._file_popularity = ScrambledZipfian(self.num_files, zipf_theta, self.rng)
        meta_slots = self.regions["metadata"].num_slots(4 * _KB)
        self._meta_sampler = ScrambledZipfian(meta_slots, 0.8, self.rng)
        temp_slots = self.regions["temp"].num_slots(8 * _KB)
        self._temp_sampler = UniformSampler(temp_slots, self.rng)
        self._ingest_cursor = 0
        self._events = list(self.event_weights)
        weights = np.array([self.event_weights[e] for e in self._events])
        self._event_p = weights / weights.sum()

    def _emit(self) -> None:
        event = self._events[int(self.rng.choice(len(self._events), p=self._event_p))]
        if event == "stream":
            self._emit_stream()
        elif event == "ingest":
            self._emit_ingest()
        elif event == "metadata":
            self._emit_metadata()
        elif event == "temp":
            self._emit_temp()
        else:
            self._emit_backup()

    def _emit_stream(self) -> None:
        """Sequential read run inside a Zipf-popular media file."""
        media = self.regions["media"]
        file_idx = self._file_popularity.next()
        base = media.slot_offset(file_idx, self.file_size_bytes)
        max_start = max(1, self.file_size_bytes - self.stream_request_bytes)
        cursor = base + int(self.rng.integers(0, max_start)) // 4096 * 4096
        run = int(self.rng.integers(self.stream_run_requests // 2, self.stream_run_requests + 1))
        for _ in range(run):
            if cursor + self.stream_request_bytes > base + self.file_size_bytes:
                break
            self._push(OpType.READ, cursor, self.stream_request_bytes)
            cursor += self.stream_request_bytes

    def _emit_ingest(self) -> None:
        """Write-once sequential ingest of new content (cold bodies)."""
        media = self.regions["media"]
        file_idx = self._ingest_cursor % self.num_files
        self._ingest_cursor += 1
        base = media.slot_offset(file_idx, self.file_size_bytes)
        chunk = 256 * _KB
        chunks = int(self.rng.integers(4, 12))
        for i in range(chunks):
            offset = base + i * chunk
            if offset + chunk > base + self.file_size_bytes:
                break
            self._push(OpType.WRITE, offset, chunk)

    def _emit_metadata(self) -> None:
        """Iron-hot: small catalogue/file-system metadata, mostly reads."""
        region = self.regions["metadata"]
        offset = region.slot_offset(self._meta_sampler.next(), 4 * _KB)
        op = OpType.READ if self.rng.random() < 0.7 else OpType.WRITE
        self._push(op, offset, 4 * _KB)

    def _emit_temp(self) -> None:
        """Hot: scratch files rewritten often, read rarely."""
        region = self.regions["temp"]
        offset = region.slot_offset(self._temp_sampler.next(), 8 * _KB)
        op = OpType.WRITE if self.rng.random() < 0.85 else OpType.READ
        self._push(op, offset, 8 * _KB)

    def _emit_backup(self) -> None:
        """Icy-cold: append-style backup writes, almost never read."""
        region = self.regions["backup"]
        slots = region.num_slots(256 * _KB)
        offset = region.slot_offset(int(self.rng.integers(0, slots)), 256 * _KB)
        op = OpType.WRITE if self.rng.random() < 0.95 else OpType.READ
        self._push(op, offset, 256 * _KB)


class WebSqlWorkload(SyntheticWorkload):
    """Web + SQL server, modelled on the MSRC web/SQL volumes.

    Small, random, strongly skewed traffic:

    * ``index`` — database index / hot-row pages: very hot Zipf,
      read *and* written (*iron-hot*).
    * ``query`` — data-page reads over static + DB content with Zipf
      popularity (*cold* for the popular head, *icy* for the tail).
    * ``session`` — small session/temp-table writes (*hot*).
    * ``log`` — append-only transaction log (*icy-cold*).
    """

    trace_name = "web-sql"

    def __init__(
        self,
        num_requests: int = 100_000,
        footprint_bytes: int = 1024 * _MB,
        seed: int = 7,
        zipf_theta: float = 0.99,
        index_write_bytes: int = 8 * _KB,
        session_write_bytes: int = 8 * _KB,
        event_weights: dict[str, float] | None = None,
        **kwargs: object,
    ) -> None:
        super().__init__(num_requests, footprint_bytes, seed, **kwargs)
        self.index_write_bytes = index_write_bytes
        self.session_write_bytes = session_write_bytes
        self.regions = self._partition(
            {"index": 0.025, "session": 0.06, "content": 0.795, "log": 0.12}
        )
        self.event_weights = event_weights or {
            "index": 0.40,
            "query": 0.34,
            "session": 0.16,
            "log": 0.10,
        }
        index_slots = self.regions["index"].num_slots(index_write_bytes)
        self._index_sampler = ScrambledZipfian(index_slots, zipf_theta, self.rng)
        content_slots = self.regions["content"].num_slots(16 * _KB)
        self._content_sampler = ScrambledZipfian(content_slots, zipf_theta, self.rng)
        session_slots = self.regions["session"].num_slots(session_write_bytes)
        self._session_sampler = UniformSampler(session_slots, self.rng)
        self._log_cursor = 0
        self._events = list(self.event_weights)
        weights = np.array([self.event_weights[e] for e in self._events])
        self._event_p = weights / weights.sum()

    def _emit(self) -> None:
        event = self._events[int(self.rng.choice(len(self._events), p=self._event_p))]
        if event == "index":
            self._emit_index()
        elif event == "query":
            self._emit_query()
        elif event == "session":
            self._emit_session()
        else:
            self._emit_log()

    def _emit_index(self) -> None:
        """Iron-hot: hot index pages, ~70% reads, small writes."""
        region = self.regions["index"]
        offset = region.slot_offset(self._index_sampler.next(), self.index_write_bytes)
        op = OpType.READ if self.rng.random() < 0.70 else OpType.WRITE
        self._push(op, offset, self.index_write_bytes)

    def _emit_query(self) -> None:
        """Cold/icy: Zipf-popular content reads; occasional bulk loads."""
        region = self.regions["content"]
        if self.rng.random() < 0.06:
            # Bulk load / content refresh: sequential write-once run.
            slots = region.num_slots(16 * _KB)
            start = int(self.rng.integers(0, max(1, slots - 16)))
            for i in range(int(self.rng.integers(4, 16))):
                self._push(OpType.WRITE, region.slot_offset(start + i, 16 * _KB), 16 * _KB)
            return
        offset = region.slot_offset(self._content_sampler.next(), 16 * _KB)
        self._push(OpType.READ, offset, 16 * _KB)

    def _emit_session(self) -> None:
        """Hot: session state rewritten constantly, read rarely."""
        region = self.regions["session"]
        offset = region.slot_offset(self._session_sampler.next(), self.session_write_bytes)
        op = OpType.WRITE if self.rng.random() < 0.8 else OpType.READ
        self._push(op, offset, self.session_write_bytes)

    def _emit_log(self) -> None:
        """Icy-cold: circular append-only log, written once, read ~never."""
        region = self.regions["log"]
        chunk = 64 * _KB
        slots = region.num_slots(chunk)
        offset = region.slot_offset(self._log_cursor % slots, chunk)
        self._log_cursor += 1
        self._push(OpType.WRITE, offset, chunk)


class UniformWorkload(SyntheticWorkload):
    """Null workload: uniform random reads/writes of one size.

    No skew means no hot data, so PPB should gain ~nothing — the test
    suite uses this as a negative control.
    """

    trace_name = "uniform"

    def __init__(
        self,
        num_requests: int = 50_000,
        footprint_bytes: int = 256 * _MB,
        seed: int = 1,
        read_fraction: float = 0.5,
        request_bytes: int = 16 * _KB,
        **kwargs: object,
    ) -> None:
        super().__init__(num_requests, footprint_bytes, seed, **kwargs)
        if not 0.0 <= read_fraction <= 1.0:
            raise ConfigError(f"read_fraction must be in [0,1], got {read_fraction}")
        self.read_fraction = read_fraction
        self.request_bytes = request_bytes
        self._slots = footprint_bytes // request_bytes
        self._written: set[int] = set()

    def _emit(self) -> None:
        slot = int(self.rng.integers(0, self._slots))
        offset = slot * self.request_bytes
        if self.rng.random() < self.read_fraction and self._written:
            # Read something that exists so replay never touches free pages.
            slot = int(self.rng.integers(0, self._slots))
            if slot not in self._written:
                # Audited: element choice is deterministic in practice
                # (CPython int-set order is seed-independent) and fixing
                # it would shift the tenants/timed-multichip golden run.
                slot = next(iter(self._written))  # repro-lint: disable=DET003
            self._push(OpType.READ, slot * self.request_bytes, self.request_bytes)
        else:
            self._written.add(slot)
            self._push(OpType.WRITE, offset, self.request_bytes)


class PatternSuiteWorkload(SyntheticWorkload):
    """Programmable workload: a phase list from the pattern algebra.

    The footprint is split into ``num_zones`` equal zones of fixed-size
    slots; each phase (see :func:`repro.traces.synthetic.parse_phases`)
    walks a slot pattern over its zone subset with one op class.  The
    request budget is divided across phases by weight, and every phase
    boundary jumps the clock by ``barrier_us`` so phases stay disjoint
    in timed replays.  Examples::

        phases="write:seq | read:snake"        # fill, then sweep-read
        phases="write:seq | trim:rand*0.5"     # fill, discard half as many
        phases="mixed:zipf"                    # steady skewed read/write/trim
    """

    trace_name = "pattern-suite"

    def __init__(
        self,
        num_requests: int = 50_000,
        footprint_bytes: int = 256 * _MB,
        seed: int = 42,
        phases: str | tuple[PatternPhase, ...] = "write:seq | mixed:zipf",
        num_zones: int = 8,
        request_bytes: int = 16 * _KB,
        stride: int = 8,
        zipf_theta: float = 0.9,
        read_fraction: float = 0.6,
        trim_fraction: float = 0.1,
        barrier_us: float = 10_000.0,
        **kwargs: object,
    ) -> None:
        super().__init__(num_requests, footprint_bytes, seed, **kwargs)
        if num_zones < 1:
            raise ConfigError(f"num_zones must be >= 1, got {num_zones}")
        if not 0.0 <= read_fraction <= 1.0:
            raise ConfigError(f"read_fraction must be in [0,1], got {read_fraction}")
        if not 0.0 <= trim_fraction <= 1.0:
            raise ConfigError(f"trim_fraction must be in [0,1], got {trim_fraction}")
        if read_fraction + trim_fraction > 1.0 + 1e-9:
            raise ConfigError(
                "read_fraction + trim_fraction must be <= 1, got "
                f"{read_fraction + trim_fraction:g}"
            )
        self.phases = parse_phases(phases) if isinstance(phases, str) else tuple(phases)
        self.num_zones = num_zones
        self.request_bytes = request_bytes
        self.stride = stride
        self.zipf_theta = zipf_theta
        self.read_fraction = read_fraction
        self.trim_fraction = trim_fraction
        self.barrier_us = barrier_us
        self.slots_per_zone = (footprint_bytes // num_zones) // request_bytes
        if self.slots_per_zone < 1:
            raise ConfigError(
                f"footprint {footprint_bytes} too small for {num_zones} zones "
                f"of {request_bytes}-byte slots"
            )
        for phase in self.phases:
            if phase.zones is not None and phase.zones[1] >= num_zones:
                raise ConfigError(
                    f"phase zones {phase.zones} exceed num_zones={num_zones}"
                )
        # Weight-proportional request quotas; the last phase absorbs the
        # rounding remainder so the budget is spent exactly.
        total_weight = sum(p.weight for p in self.phases)
        self._quotas = [
            int(num_requests * p.weight / total_weight) for p in self.phases
        ]
        self._quotas[-1] = num_requests - sum(self._quotas[:-1])
        self._phase_idx = -1
        self._emitted_in_phase = 0
        self._pattern = None
        self._phase_base = 0

    def _enter_phase(self, idx: int) -> None:
        phase = self.phases[idx]
        lo, hi = phase.zones if phase.zones is not None else (0, self.num_zones - 1)
        n = (hi - lo + 1) * self.slots_per_zone
        self._phase_base = lo * self.slots_per_zone * self.request_bytes
        self._pattern = make_pattern(
            phase.pattern,
            n,
            self.rng,
            stride=self.stride,
            theta=self.zipf_theta,
            row=self.slots_per_zone,
        )
        self._phase_idx = idx
        self._emitted_in_phase = 0

    def _phase_op(self, phase: PatternPhase) -> OpType:
        if phase.op == "write":
            return OpType.WRITE
        if phase.op == "read":
            return OpType.READ
        if phase.op == "trim":
            return OpType.TRIM
        # mixed: one draw decides trim / read / write by the fractions.
        u = float(self.rng.random())
        if u < self.trim_fraction:
            return OpType.TRIM
        if u < self.trim_fraction + self.read_fraction:
            return OpType.READ
        return OpType.WRITE

    def _emit(self) -> None:
        while (
            self._phase_idx < 0
            or self._emitted_in_phase >= self._quotas[self._phase_idx]
        ):
            if self._phase_idx + 1 >= len(self.phases):
                break  # budget rounding: keep emitting from the last phase
            if self._phase_idx >= 0:
                self._now_us += self.barrier_us  # phase barrier
            self._enter_phase(self._phase_idx + 1)
        phase = self.phases[self._phase_idx]
        offset = self._phase_base + self._pattern.next() * self.request_bytes
        self._push(self._phase_op(phase), offset, self.request_bytes)
        self._emitted_in_phase += 1


#: Canonical workload registry: name -> generator class.  This is THE
#: lookup table — the scenario layer, the memoized replay runner, the
#: paper figures and the CLI all resolve workload names through it, so a
#: new generator registered here is immediately sweepable everywhere.
WORKLOADS: dict[str, type[SyntheticWorkload]] = {
    "media-server": MediaServerWorkload,
    "web-sql": WebSqlWorkload,
    "uniform": UniformWorkload,
    "pattern-suite": PatternSuiteWorkload,
}
