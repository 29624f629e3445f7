"""The declarative scenario specification: one frozen object per experiment.

Every experiment this repository runs — a paper figure cell, a
reliability sweep point, a placement frontier variant, a retention A/B
re-read — is "replay a workload on a configured device", and
:class:`ScenarioSpec` is the one description of it: the sweep drivers
take a base spec plus their axes, and the figure cells reduce to one.

Design rules
------------
* **Frozen and hashable** — a spec is a value, so it serves directly as
  the memoization cache key of
  :class:`~repro.bench.memo.ReplayRunner` and pickles across the worker
  pool unchanged.
* **Total** — every knob the simulator honours appears here; nothing
  about a run is implied by the call site.
* **Serializable** — round-trips losslessly through plain dicts and
  JSON/TOML files (:mod:`repro.scenario.serialize`), so an experiment
  is a config file, not a code change.
* **Sweepable** — every field, including those of the nested
  :class:`~repro.nand.spec.NandSpec` / :class:`~repro.core.config.PPBConfig`
  / :class:`~repro.reliability.manager.ReliabilityConfig`, is reachable
  by dotted path (:mod:`repro.scenario.sweep`), e.g.
  ``device.speed_ratio`` or ``ppb.reliability_weight``.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

from repro.core.config import PPBConfig
from repro.errors import ConfigError
from repro.ftl.mapping import FULL_MAP_MAX_ENTRIES
from repro.ftl.transmap import MappingConfig
from repro.nand.spec import NandSpec, sim_spec
from repro.reliability.faults import FaultSpec
from repro.reliability.manager import ReliabilityConfig
from repro.sim.arrival import ArrivalSpec
from repro.traces.workloads import WORKLOADS

#: Replay modes the engine accepts (see :meth:`repro.sim.ssd.SSD.replay`).
VALID_MODES = ("sequential", "timed")

#: value types a workload kwarg may carry (pattern names are strings,
#: zone counts are ints — not everything is a float).
KWARG_TYPES = (int, float, str, bool)


def _fmt_value(value: int | float | str | bool) -> str:
    """Compact kwarg rendering for :meth:`ScenarioSpec.describe`."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:g}"
    return str(value)


def _normalize_kwargs(
    kwargs: object, owner: str
) -> tuple[tuple[str, int | float | str | bool], ...]:
    """Canonically-sorted, validated item tuple (dicts accepted)."""
    if isinstance(kwargs, dict):
        items = tuple(sorted(kwargs.items()))
    else:
        # Sort by key only: values may mix types (str vs float) and
        # must never be compared.
        items = tuple(sorted((tuple(item) for item in kwargs), key=lambda kv: kv[0]))
    for key, value in items:
        if not isinstance(key, str):
            raise ConfigError(f"{owner} keys must be strings, got {key!r}")
        if not isinstance(value, KWARG_TYPES):
            raise ConfigError(
                f"{owner}[{key!r}] must be int/float/str/bool, got {value!r}"
            )
    return items


@dataclass(frozen=True)
class TenantSpec:
    """One named sub-workload of a multi-tenant scenario.

    Tenants share a single device but own disjoint LBA-range
    partitions (share-weighted slices of the scenario's footprint), so
    their traffic interferes only where real co-located workloads do:
    in the FTL (shared blocks, shared GC) and in the timed mode's chip
    and channel queues.
    """

    #: tenant name — the key of every per-tenant report column.
    name: str
    workload: str = "web-sql"
    num_requests: int = 4_000
    workload_kwargs: tuple[tuple[str, int | float | str | bool], ...] = ()
    #: generator seed; -1 (the default) derives one from the scenario
    #: seed and the tenant's position, so tenants never share a stream.
    seed: int = -1
    #: relative weight of this tenant's LBA partition.
    share: float = 1.0

    def __post_init__(self) -> None:
        if not self.name or not isinstance(self.name, str):
            raise ConfigError(f"tenant name must be a non-empty string, got {self.name!r}")
        if self.workload not in WORKLOADS:
            raise ConfigError(
                f"tenant {self.name!r}: unknown workload {self.workload!r}; "
                f"choose from {sorted(WORKLOADS)}"
            )
        if self.num_requests < 1:
            raise ConfigError(
                f"tenant {self.name!r}: num_requests must be >= 1, got {self.num_requests}"
            )
        object.__setattr__(
            self,
            "workload_kwargs",
            _normalize_kwargs(self.workload_kwargs, f"tenant {self.name!r} workload_kwargs"),
        )
        if self.seed < -1:
            raise ConfigError(f"tenant {self.name!r}: seed must be >= -1, got {self.seed}")
        if not self.share > 0:
            raise ConfigError(f"tenant {self.name!r}: share must be > 0, got {self.share}")


@dataclass(frozen=True)
class PreconditionPhase:
    """One steady-state preconditioning pass run before the measured replay.

    Phases replay over the scenario's full footprint and leave every
    device-state consequence in place — fragmentation, wear, data
    temperature, retention age — but none of their timing is accounted
    (stats reset after each phase, exactly like the warm fill).
    """

    workload: str = "uniform"
    num_requests: int = 10_000
    workload_kwargs: tuple[tuple[str, int | float | str | bool], ...] = ()
    #: generator seed; -1 derives one from the scenario seed and the
    #: phase's position.
    seed: int = -1

    def __post_init__(self) -> None:
        if self.workload not in WORKLOADS:
            raise ConfigError(
                f"precondition phase: unknown workload {self.workload!r}; "
                f"choose from {sorted(WORKLOADS)}"
            )
        if self.num_requests < 1:
            raise ConfigError(
                f"precondition phase: num_requests must be >= 1, got {self.num_requests}"
            )
        object.__setattr__(
            self,
            "workload_kwargs",
            _normalize_kwargs(self.workload_kwargs, "precondition workload_kwargs"),
        )
        if self.seed < -1:
            raise ConfigError(f"precondition phase: seed must be >= -1, got {self.seed}")


@dataclass(frozen=True)
class ScenarioSpec:
    """One fully-specified, hashable, serializable experiment.

    The phase schedule of a run is: build the device -> warm fill ->
    optional pre-age (``retention_age_s``) -> replay the trace ->
    optional shelf-age + re-read of the trace's reads
    (``reread_age_s`` — the two-phase retention A/B harness).
    """

    # -- workload / trace source ----------------------------------------
    #: registered workload generator name (see
    #: :data:`repro.traces.workloads.WORKLOADS`).
    workload: str = "web-sql"
    num_requests: int = 8_000
    #: extra generator kwargs as a sorted item tuple (hashable), e.g.
    #: ``(("zipf_theta", 0.95),)`` for the hotness-skew axis or
    #: ``(("phases", "write:seq | read:zipf"),)`` for the pattern
    #: suite.  Dicts are accepted and normalized; values may be
    #: int/float/str/bool.
    workload_kwargs: tuple[tuple[str, int | float | str | bool], ...] = ()
    #: fraction of logical capacity the workload's footprint spans.
    footprint_fraction: float = 0.80
    seed: int = 42
    #: optional MSRC CSV file to replay instead of generating the
    #: workload (the trace still fits to the device's capacity).
    trace_path: str | None = None
    #: multi-tenant mode: named sub-workloads on disjoint LBA-range
    #: partitions of the footprint.  When non-empty, the single
    #: ``workload``/``workload_kwargs`` above are ignored — the trace is
    #: the timestamp-merged union of the tenants' streams.
    tenants: tuple[TenantSpec, ...] = ()
    #: steady-state preconditioning: phases replayed (unaccounted)
    #: between the warm fill and the measured replay.
    precondition: tuple[PreconditionPhase, ...] = ()

    # -- device ---------------------------------------------------------
    #: full device geometry/timing (the paper's Table 1 knobs).
    device: NandSpec = field(default_factory=sim_spec)

    # -- FTL / placement ------------------------------------------------
    #: "conventional", "fast", "ppb" or "dftl"
    #: (see :data:`repro.sim.replay.FTL_FACTORIES`).
    ftl: str = "conventional"
    #: PPB strategy knobs; only consulted by the "ppb" FTL.
    ppb: PPBConfig | None = None
    #: demand-paged mapping knobs; only consulted by the "dftl" FTL.
    mapping: MappingConfig | None = None

    # -- reliability stack ----------------------------------------------
    #: attach the reliability stack (None = latency-only simulator).
    reliability: ReliabilityConfig | None = None
    #: attach the retention-aware refresh policy (needs ``reliability``).
    refresh: bool = False
    #: deterministic fault injection on host reads (None or rate 0 =
    #: off, byte-identical to the baseline; needs ``reliability``).
    faults: FaultSpec | None = None

    # -- phase schedule -------------------------------------------------
    #: fraction of logical capacity sequentially pre-written before the
    #: replay; ``None`` means "same as footprint_fraction" (the sweep
    #: convention, so GC is active over exactly the replayed footprint).
    warm_fill_fraction: float | None = None
    #: shelf age (seconds) applied to the warm-filled data before the
    #: replay — models a device powered off that long (needs
    #: ``reliability`` to have an effect).
    retention_age_s: float = 0.0
    #: two-phase harness: after the replay, shelf-age by this much and
    #: replay the trace's reads again; the result then describes the
    #: aged re-read phase (requires ``reliability``).
    reread_age_s: float = 0.0
    #: "sequential" (service-time accounting) or "timed" (queued
    #: arrivals with response-time percentiles).
    mode: str = "sequential"
    #: timed mode: the arrival discipline (open trace-timestamped
    #: arrivals or a closed fixed-QD population); ``None`` means the
    #: open-loop defaults.  See :class:`~repro.sim.arrival.ArrivalSpec`.
    arrival: ArrivalSpec | None = None

    def __post_init__(self) -> None:
        if self.workload not in WORKLOADS:
            raise ConfigError(
                f"unknown workload {self.workload!r}; choose from {sorted(WORKLOADS)}"
            )
        if self.num_requests < 1:
            raise ConfigError(f"num_requests must be >= 1, got {self.num_requests}")
        if not 0.0 < self.footprint_fraction <= 1.0:
            raise ConfigError(
                f"footprint_fraction must be in (0, 1], got {self.footprint_fraction}"
            )
        # Normalize workload_kwargs to a canonically-sorted item tuple so
        # equal scenarios hash equal however they were written.
        object.__setattr__(
            self,
            "workload_kwargs",
            _normalize_kwargs(self.workload_kwargs, "workload_kwargs"),
        )
        tenants = tuple(
            TenantSpec(**t) if isinstance(t, dict) else t for t in self.tenants
        )
        for tenant in tenants:
            if not isinstance(tenant, TenantSpec):
                raise ConfigError(f"tenants entries must be TenantSpec, got {tenant!r}")
        names = [t.name for t in tenants]
        if len(set(names)) != len(names):
            raise ConfigError(f"tenant names must be unique, got {names}")
        object.__setattr__(self, "tenants", tenants)
        if tenants and self.trace_path is not None:
            raise ConfigError("tenants and trace_path are mutually exclusive")
        phases = tuple(
            PreconditionPhase(**p) if isinstance(p, dict) else p
            for p in self.precondition
        )
        for phase in phases:
            if not isinstance(phase, PreconditionPhase):
                raise ConfigError(
                    f"precondition entries must be PreconditionPhase, got {phase!r}"
                )
        object.__setattr__(self, "precondition", phases)
        from repro.sim.replay import FTL_FACTORIES  # deferred: avoids import cycle

        if self.ftl not in FTL_FACTORIES:
            raise ConfigError(
                f"unknown FTL {self.ftl!r}; choose from {sorted(FTL_FACTORIES)}"
            )
        if self.mode not in VALID_MODES:
            raise ConfigError(
                f"mode must be one of {VALID_MODES}, got {self.mode!r}"
            )
        if self.ftl != "dftl" and self.device.full_map_entries > FULL_MAP_MAX_ENTRIES:
            raise ConfigError(
                f"the {self.ftl!r} FTL keeps the full page map in RAM, and this "
                f"geometry needs {self.device.full_map_entries} map entries "
                f"(limit {FULL_MAP_MAX_ENTRIES}); "
                f'set ftl = "dftl" and bound its cache with the mapping knobs '
                f"(mapping.cache_entries or mapping.cache_ratio)"
            )
        if self.warm_fill_fraction is not None and not 0.0 <= self.warm_fill_fraction <= 1.0:
            raise ConfigError(
                f"warm_fill_fraction must be in [0, 1], got {self.warm_fill_fraction}"
            )
        if self.retention_age_s < 0:
            raise ConfigError(
                f"retention_age_s must be >= 0, got {self.retention_age_s}"
            )
        if self.reread_age_s < 0:
            raise ConfigError(f"reread_age_s must be >= 0, got {self.reread_age_s}")
        if self.arrival is not None and not isinstance(self.arrival, ArrivalSpec):
            raise ConfigError(
                f"arrival must be an ArrivalSpec, got {self.arrival!r}"
            )
        if (
            self.arrival is not None
            and self.arrival.is_closed
            and self.mode != "timed"
        ):
            raise ConfigError(
                'arrival.mode = "closed" requires mode = "timed" '
                "(sequential replays have no arrival process)"
            )
        if self.reread_age_s > 0 and self.reliability is None:
            raise ConfigError("reread_age_s requires the reliability stack")
        if (
            self.faults is not None
            and self.faults.rate > 0
            and self.reliability is None
        ):
            raise ConfigError("faults.rate > 0 requires the reliability stack")

    # ------------------------------------------------------------------

    @property
    def effective_arrival(self) -> ArrivalSpec:
        """The arrival discipline the timed engine actually uses
        (open-loop defaults when no ``[arrival]`` section is given)."""
        if self.arrival is None:
            return ArrivalSpec()
        return self.arrival

    @property
    def effective_warm_fill(self) -> float:
        """The warm-fill fraction the engine actually uses."""
        if self.warm_fill_fraction is None:
            return self.footprint_fraction
        return self.warm_fill_fraction

    @property
    def footprint_bytes(self) -> int:
        """The workload footprint in bytes on this device."""
        return int(self.device.logical_bytes * self.footprint_fraction)

    def tenant_partitions(self) -> tuple[tuple[str, int, int], ...]:
        """``(name, start_byte, size_bytes)`` per tenant: share-weighted
        contiguous slices of the footprint, 4 KiB-aligned, with the last
        tenant absorbing the rounding remainder."""
        if not self.tenants:
            return ()
        total_share = sum(t.share for t in self.tenants)
        footprint = self.footprint_bytes
        partitions: list[tuple[str, int, int]] = []
        cursor = 0
        for i, tenant in enumerate(self.tenants):
            if i == len(self.tenants) - 1:
                size = footprint - cursor
            else:
                size = int(footprint * tenant.share / total_share) // 4096 * 4096
            partitions.append((tenant.name, cursor, size))
            cursor += size
        return tuple(partitions)

    def tenant_seed(self, index: int) -> int:
        """Effective generator seed of tenant ``index`` (explicit seed,
        or one derived from the scenario seed and the position)."""
        tenant = self.tenants[index]
        if tenant.seed >= 0:
            return tenant.seed
        return self.seed + index

    def trace_key(self) -> tuple:
        """What the replayed trace depends on — deliberately *not* the
        FTL, device timing or reliability knobs, so every variant at one
        sweep point replays the byte-identical request stream."""
        if self.trace_path is not None:
            return ("trace-file", self.trace_path)
        if self.tenants:
            return ("tenants", self.footprint_bytes, self.seed, self.tenants)
        return (
            self.workload,
            self.num_requests,
            self.footprint_bytes,
            self.seed,
            self.workload_kwargs,
        )

    def with_(self, **changes: object) -> "ScenarioSpec":
        """A modified copy (convenience for sweeps)."""
        return dataclasses.replace(self, **changes)  # type: ignore[arg-type]

    def describe(self) -> str:
        """Short human-readable digest for reports and CLI output."""
        if self.tenants:
            tenants = "+".join(
                f"{t.name}:{t.workload}x{t.num_requests}" for t in self.tenants
            )
            parts = [f"tenants[{tenants}] on {self.ftl}"]
        else:
            parts = [f"{self.workload} x{self.num_requests} on {self.ftl}"]
        if self.workload_kwargs and not self.tenants:
            parts.append(
                "("
                + ", ".join(f"{k}={_fmt_value(v)}" for k, v in self.workload_kwargs)
                + ")"
            )
        if self.precondition:
            parts.append(f"precond x{len(self.precondition)}")
        parts.append(
            f"[{self.device.blocks_per_chip} blk, {self.device.speed_ratio:g}x]"
        )
        if self.reliability is not None:
            parts.append("+reliability")
        if self.refresh:
            parts.append("+refresh")
        if self.faults is not None and self.faults.rate > 0:
            parts.append(f"+faults({self.faults.rate:g})")
        if self.retention_age_s:
            parts.append(f"age={self.retention_age_s:g}s")
        if self.reread_age_s:
            parts.append(f"reread={self.reread_age_s:g}s")
        if self.mode == "timed":
            parts.append(f"timed({self.effective_arrival.describe()})")
        return " ".join(parts)

