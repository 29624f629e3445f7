"""Stateful reliability engine: clocks, wear, and per-read penalties.

:class:`ReliabilityManager` owns the dynamic state the pure models in
:mod:`~repro.reliability.variation`, :mod:`~repro.reliability.retention`
and :mod:`~repro.reliability.ecc` need:

* a simulation clock in seconds, advanced by the FTL with every
  operation's latency (the DES/sequential replay time base);
* per-block retention timestamps (when the block's current erase cycle
  was first programmed) and program/erase cycle counts;
* the accounting of retries, uncorrectable reads and refresh work.

On every host read the owning FTL asks :meth:`on_host_read` for the
retry penalty of the physical page: instantaneous RBER = base RBER x
spatial variation x retention x wear, pushed through the ECC model to a
retry-step count, and priced with the page's own asymmetric read
latency.  The whole stack is optional — an FTL built without a manager
is byte-for-byte the latency-only simulator.

Hot-path design
---------------
:meth:`on_host_read` runs once per mapped host read, so its state lives
in flat Python lists (numpy scalar indexing costs more than the whole
model evaluation) and the common case — fresh data whose worst page
needs zero retries — is a single float comparison against a per-block
*safe deadline*: the simulation time until which the block's worst page
provably decodes without retries.  The deadline is a conservative
analytic bound (see :meth:`_refresh_safe_deadline`), cached per block
and invalidated lazily by erase, first-program, shelf-aging, and — when
read disturb is enabled — by the read counter crossing the lookahead
window the bound was computed for.  Reads past the deadline fall back
to the exact model, so results are bit-identical either way (the
golden-run tests pin this).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.errors import ConfigError
from repro.nand.device import NandDevice
from repro.reliability.disturb import ReadDisturbModel
from repro.reliability.ecc import EccModel
from repro.reliability.faults import FaultInjector, FaultSpec
from repro.reliability.retention import RetentionModel
from repro.reliability.state import StateAwareModel
from repro.reliability.variation import VariationModel

#: valid values of :attr:`ReliabilityConfig.refresh_triage`.
REFRESH_TRIAGE_MODES = ("worst", "holds")

#: With read disturb enabled, a block's safe deadline is computed
#: assuming up to this many further reads of the block; the deadline is
#: recomputed when the counter crosses the window.
DISTURB_LOOKAHEAD_READS = 1024

#: Relative safety margin on the zero-retry RBER target.  The analytic
#: deadline bound is exact in real arithmetic; this margin (many orders
#: of magnitude above accumulated float rounding, many below anything
#: physically meaningful) keeps it conservative in floating point, so
#: the fast path can never claim zero retries where the exact model
#: would find one.
_SAFE_MARGIN = 1e-9


@dataclass(frozen=True)
class ReliabilityConfig:
    """Every knob of the reliability stack in one frozen bundle."""

    #: RBER of a fresh, median, bottom-layer page.
    base_rber: float = 2e-4
    # -- spatial variation --------------------------------------------------
    variation_profile: str = "tapered"
    layer_exponent: float = 2.0
    block_sigma: float = 0.25
    variation_seed: int = 42
    # -- retention / wear ---------------------------------------------------
    fast_amp: float = 4.0
    fast_tau_s: float = 7200.0
    slow_amp: float = 2.5
    slow_tau_s: float = 86400.0
    pe_ref: float = 100.0
    pe_exponent: float = 1.0
    # -- read disturb -------------------------------------------------------
    #: RBER multiplier growth per (kiloread ** disturb_exponent) since
    #: the block's last erase; 0 disables read disturb entirely (the
    #: PR 1 behavior).
    disturb_coeff: float = 0.0
    disturb_exponent: float = 1.0
    # -- state-aware errors (STAR-style program-level skew) ------------------
    #: worst/best-state-mix RBER ratio; 1.0 (the default) disables the
    #: state-aware layer entirely (see repro.reliability.state).
    state_skew: float = 1.0
    #: data-randomizer (scrambler) quality in [0, 1]; 1.0 — a perfect
    #: scrambler, the default — whitens the state mix completely and
    #: also disables the layer.
    randomizer: float = 1.0
    # -- ECC / read-retry ---------------------------------------------------
    rber_limit: float = 1e-3
    retry_gain: float = 2.0
    max_retries: int = 8
    #: driver-level recovery cost of an uncorrectable read (RAID rebuild).
    uncorrectable_penalty_us: float = 10_000.0
    # -- refresh policy (consumed by repro.reliability.refresh) -------------
    refresh_retry_budget: int = 1
    refresh_check_interval: int = 128
    refresh_max_blocks_per_check: int = 4
    refresh_min_age_s: float = 3600.0
    #: read count past which a block may be refreshed regardless of its
    #: retention age — the read-disturb refresh trigger.  0 disables the
    #: disturb gate (blocks then only qualify by age, as in PR 1).
    refresh_disturb_reads: int = 0
    #: refresh triage basis: "worst" (the block's worst physical page,
    #: the PR 1 behavior) or "holds" (the worst page the block actually
    #: *holds* live data on — fewer refreshes where the hot physical
    #: pages are invalid).
    refresh_triage: str = "worst"
    # -- reliability-QoS loop ------------------------------------------------
    #: GC victim-score bonus per predicted retry step of a block; > 0
    #: biases victim selection toward at-risk blocks so collection
    #: doubles as refresh (0, the default, keeps pure greedy selection).
    gc_risk_weight: float = 0.0

    def __post_init__(self) -> None:
        if self.base_rber < 0:
            raise ConfigError(f"base_rber must be >= 0, got {self.base_rber}")
        if self.state_skew < 1.0:
            raise ConfigError(f"state_skew must be >= 1, got {self.state_skew}")
        if not 0.0 <= self.randomizer <= 1.0:
            raise ConfigError(f"randomizer must be in [0, 1], got {self.randomizer}")
        if self.refresh_triage not in REFRESH_TRIAGE_MODES:
            raise ConfigError(
                f"refresh_triage must be one of {REFRESH_TRIAGE_MODES}, "
                f"got {self.refresh_triage!r}"
            )
        if self.gc_risk_weight < 0:
            raise ConfigError(
                f"gc_risk_weight must be >= 0, got {self.gc_risk_weight}"
            )
        if self.uncorrectable_penalty_us < 0:
            raise ConfigError(
                f"uncorrectable_penalty_us must be >= 0, got {self.uncorrectable_penalty_us}"
            )
        if self.refresh_check_interval < 1:
            raise ConfigError(
                f"refresh_check_interval must be >= 1, got {self.refresh_check_interval}"
            )
        if self.refresh_max_blocks_per_check < 1:
            raise ConfigError(
                "refresh_max_blocks_per_check must be >= 1, got "
                f"{self.refresh_max_blocks_per_check}"
            )
        if self.refresh_disturb_reads < 0:
            raise ConfigError(
                f"refresh_disturb_reads must be >= 0, got {self.refresh_disturb_reads}"
            )

    @classmethod
    def null(cls, **overrides: object) -> "ReliabilityConfig":
        """The uniform null model: no variation, zero RBER, no retries.

        Running any workload with this config must reproduce the
        latency-only simulator's numbers exactly (acceptance check).
        """
        base = dict(variation_profile="uniform", block_sigma=0.0, base_rber=0.0)
        base.update(overrides)
        return cls(**base)  # type: ignore[arg-type]

    def replace(self, **changes: object) -> "ReliabilityConfig":
        """A modified copy (convenience for sweeps)."""
        import dataclasses

        return dataclasses.replace(self, **changes)  # type: ignore[arg-type]


@dataclass
class ReliabilityStats:
    """Counters accumulated by one manager over one simulation run."""

    #: host reads that needed at least one retry step.
    retried_reads: int = 0
    #: total retry steps across all host reads.
    retry_steps: int = 0
    #: total extra read latency from retries (us).
    retry_us: float = 0.0
    #: host reads the full retry budget could not decode.
    uncorrectable_reads: int = 0
    #: host reads examined by the manager.
    checked_reads: int = 0
    #: refresh accounting (filled via note_refresh).
    refresh_runs: int = 0
    refresh_copied_pages: int = 0
    refresh_us: float = 0.0
    extra: dict[str, float] = field(default_factory=dict)

    @property
    def mean_retries_per_read(self) -> float:
        """Average retry steps per examined host read."""
        if not self.checked_reads:
            return 0.0
        return self.retry_steps / self.checked_reads

    def snapshot(self) -> dict[str, float]:
        """Plain-dict view for reporting."""
        return {
            "checked_reads": self.checked_reads,
            "retried_reads": self.retried_reads,
            "retry_steps": self.retry_steps,
            "retry_us": self.retry_us,
            "uncorrectable_reads": self.uncorrectable_reads,
            "mean_retries_per_read": self.mean_retries_per_read,
            "refresh_runs": self.refresh_runs,
            "refresh_copied_pages": self.refresh_copied_pages,
            "refresh_us": self.refresh_us,
            **{f"extra.{k}": v for k, v in sorted(self.extra.items())},
        }


class ReliabilityManager:
    """Composes the reliability models over one device's lifetime."""

    def __init__(
        self,
        device: NandDevice,
        config: ReliabilityConfig | None = None,
        faults: FaultSpec | None = None,
    ) -> None:
        self.device = device
        self.spec = device.spec
        self.config = config or ReliabilityConfig()
        cfg = self.config
        self.variation = VariationModel(
            self.spec,
            profile=cfg.variation_profile,
            layer_exponent=cfg.layer_exponent,
            block_sigma=cfg.block_sigma,
            seed=cfg.variation_seed,
        )
        self.retention = RetentionModel(
            fast_amp=cfg.fast_amp,
            fast_tau_s=cfg.fast_tau_s,
            slow_amp=cfg.slow_amp,
            slow_tau_s=cfg.slow_tau_s,
            pe_ref=cfg.pe_ref,
            pe_exponent=cfg.pe_exponent,
        )
        self.ecc = EccModel(
            rber_limit=cfg.rber_limit,
            retry_gain=cfg.retry_gain,
            max_retries=cfg.max_retries,
        )
        self.disturb = ReadDisturbModel(
            coeff_per_kread=cfg.disturb_coeff,
            exponent=cfg.disturb_exponent,
        )
        self.state = StateAwareModel(
            skew=cfg.state_skew,
            randomizer=cfg.randomizer,
            seed=cfg.variation_seed,
            pages_per_block=self.spec.pages_per_block,
        )
        #: hot-path guards: the disabled model must leave every float
        #: untouched (goldens pin byte-identity of default configs).
        self._state_enabled = self.state.enabled
        self._state_worst = self.state.worst_factor()
        self.faults = faults
        self._injector = (
            FaultInjector(faults) if faults is not None and faults.enabled else None
        )
        #: driver-recovery share of the last read's penalty; consumed by
        #: the FTL hook so timed mode can queue it as its own device op.
        self._recovery_us = 0.0
        total_blocks = self.spec.total_blocks
        #: simulation clock in seconds, advanced by the owning FTL.
        self.now_s = 0.0
        #: when each block's current erase cycle was first programmed.
        self._program_time_s: list[float] = [0.0] * total_blocks
        #: whether the block holds data this erase cycle (timestamp valid).
        self._stamped: list[bool] = [False] * total_blocks
        #: program/erase cycles seen by this manager.
        self._pe_cycles: list[int] = [0] * total_blocks
        #: host reads of each block since its last erase (read disturb).
        self._block_reads: list[int] = [0] * total_blocks
        self.stats = ReliabilityStats()
        self._pages_per_block = self.spec.pages_per_block
        # -- flat spatial-multiplier caches (tentpole fast path) --------
        variation = self.variation
        #: per-block lognormal multiplier, plain floats.
        self._block_mult: list[float] = [float(m) for m in variation.block_multipliers]
        #: per-page-index layer multiplier, plain floats.
        self._page_mult: list[float] = [float(m) for m in variation.page_multipliers]
        page_mult_max = variation.page_multipliers.max()
        #: per-block worst-page spatial multiplier (refresh triage +
        #: safe-deadline bound); same product the VariationModel computes.
        self._worst_mult: list[float] = [
            float(b * page_mult_max) for b in variation.block_multipliers
        ]
        #: per-block wear factor cache, updated on erase (pure function
        #: of the P/E count, so caching cannot drift).
        self._pe_factor: list[float] = [1.0] * total_blocks
        #: per-block simulation-time deadline below which the worst page
        #: needs zero retries; None = needs (re)computation.
        self._safe_until_s: list[float | None] = [None] * total_blocks
        #: read-counter ceiling each deadline was computed for.
        self._safe_reads_hi: list[int] = [0] * total_blocks

    # ------------------------------------------------------------------
    # Clock and lifecycle notifications (called by the FTL)
    # ------------------------------------------------------------------

    def advance_us(self, latency_us: float) -> None:
        """Advance the simulation clock by an operation's latency."""
        self.now_s += latency_us * 1e-6

    def note_program(self, pbn: int) -> None:
        """A page was programmed into ``pbn``; stamp its retention clock."""
        if not self._stamped[pbn]:
            self._stamped[pbn] = True
            self._program_time_s[pbn] = self.now_s
            self._safe_until_s[pbn] = None

    def note_erase(self, pbn: int) -> None:
        """Block ``pbn`` was erased; one more P/E cycle, clocks cleared.

        The erase also resets the block's read-disturb accumulation —
        the physical cells are reprogrammed from scratch.
        """
        pe = self._pe_cycles[pbn] + 1
        self._pe_cycles[pbn] = pe
        self._stamped[pbn] = False
        self._block_reads[pbn] = 0
        self._pe_factor[pbn] = self.retention.pe_factor(pe)
        self._safe_until_s[pbn] = None

    def age_all(self, extra_age_s: float) -> None:
        """Pre-age all currently-written data by ``extra_age_s`` seconds.

        Models a device that sat powered-off after preconditioning: the
        benchmark scenario calls this once after the warm fill so the
        sweep's *retention age* applies to the resident cold data, while
        data rewritten during the replay restarts from age 0.
        """
        if extra_age_s < 0:
            raise ConfigError(f"extra_age_s must be >= 0, got {extra_age_s}")
        program_time = self._program_time_s
        for pbn, stamped in enumerate(self._stamped):
            if stamped:
                program_time[pbn] -= extra_age_s
        self._safe_until_s = [None] * len(program_time)

    def reset_stats(self) -> None:
        """Zero the accounting (after warm fill)."""
        self.stats = ReliabilityStats()

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def age_of(self, pbn: int) -> float:
        """Retention age in seconds of the block's oldest data this cycle."""
        if not self._stamped[pbn]:
            return 0.0
        return self.now_s - self._program_time_s[pbn]

    def pe_cycles_of(self, pbn: int) -> int:
        """P/E cycles the manager has seen for ``pbn``."""
        return self._pe_cycles[pbn]

    def reads_of(self, pbn: int) -> int:
        """Host reads of ``pbn`` since its last erase (disturb count)."""
        return self._block_reads[pbn]

    def rber_of(self, pbn: int, page_index: int) -> float:
        """Instantaneous RBER of one physical page."""
        spatial = self._block_mult[pbn] * self._page_mult[page_index]
        temporal = self.retention.retention_factor(self.age_of(pbn)) * self._pe_factor[pbn]
        rber = self.config.base_rber * spatial * temporal
        if self.disturb.enabled:
            rber *= self.disturb.factor(self._block_reads[pbn])
        if self._state_enabled:
            rber *= self.state.factor(pbn, page_index, self._pe_cycles[pbn])
        return rber

    def predicted_block_retries(self, pbn: int) -> tuple[int, bool]:
        """Retry steps the block's *worst* page would need right now."""
        rber = (
            self.config.base_rber
            * self._worst_mult[pbn]
            * (self.retention.retention_factor(self.age_of(pbn)) * self._pe_factor[pbn])
        )
        if self.disturb.enabled:
            rber *= self.disturb.factor(self._block_reads[pbn])
        if self._state_enabled:
            rber *= self._state_worst
        return self.ecc.retries_needed(rber)

    def predicted_holds_retries(self, pbn: int, pages) -> tuple[int, bool]:
        """Retry steps the worst page the block *holds* would need now.

        ``pages`` iterates the block's in-block page indices that carry
        live data; empty means nothing worth refreshing.  Where the
        worst *physical* page of a block is invalid (its data already
        rewritten elsewhere), this bound is strictly tighter than
        :meth:`predicted_block_retries` — the basis of the "holds"
        refresh triage mode.
        """
        page_mult = self._page_mult
        worst = 0.0
        for page in pages:
            mult = page_mult[page]
            if mult > worst:
                worst = mult
        if worst <= 0.0:
            return 0, False
        rber = (
            self.config.base_rber
            * self._block_mult[pbn]
            * worst
            * (self.retention.retention_factor(self.age_of(pbn)) * self._pe_factor[pbn])
        )
        if self.disturb.enabled:
            rber *= self.disturb.factor(self._block_reads[pbn])
        if self._state_enabled:
            rber *= self._state_worst
        return self.ecc.retries_needed(rber)

    def worst_page_is_safe(self, pbn: int) -> bool:
        """O(1) check that the block's worst page needs zero retries now.

        The refresh policy's scan uses this to skip healthy blocks
        without evaluating the retention exponentials; ``False`` only
        means "not provably safe" — the caller then runs the exact
        :meth:`predicted_block_retries`.
        """
        safe_until = self._safe_until_s[pbn]
        if safe_until is None or self._block_reads[pbn] >= self._safe_reads_hi[pbn]:
            safe_until = self._refresh_safe_deadline(pbn)
        return self.now_s <= safe_until

    # ------------------------------------------------------------------
    # Per-read penalty (hot path)
    # ------------------------------------------------------------------

    def on_host_read(self, ppn: int) -> float:
        """Retry/recovery latency penalty (us) for a host read of ``ppn``.

        The read itself suffers the disturb accumulated by *prior*
        reads, then counts as one more disturb event against its block.
        """
        pbn, page = divmod(ppn, self._pages_per_block)
        stats = self.stats
        stats.checked_reads += 1
        block_reads = self._block_reads
        reads = block_reads[pbn]
        # Injected faults preempt the model: the read still disturbs its
        # block, but its penalty comes from the fault class.
        if self._injector is not None:
            kind = self._injector.check()
            if kind is not None:
                block_reads[pbn] = reads + 1
                return self._injected_fault(pbn, page, kind)
        # Fast path: inside the block's safe window even the worst page
        # decodes with zero retries, so this page certainly does.
        safe_until = self._safe_until_s[pbn]
        if safe_until is None or reads >= self._safe_reads_hi[pbn]:
            safe_until = self._refresh_safe_deadline(pbn)
        if self.now_s <= safe_until:
            block_reads[pbn] = reads + 1
            return 0.0
        # Exact path: same arithmetic, in the same order, as rber_of.
        if self._stamped[pbn]:
            age_s = self.now_s - self._program_time_s[pbn]
        else:
            age_s = 0.0
        spatial = self._block_mult[pbn] * self._page_mult[page]
        temporal = self.retention.retention_factor(age_s) * self._pe_factor[pbn]
        rber = self.config.base_rber * spatial * temporal
        if self.disturb.enabled:
            rber *= self.disturb.factor(reads)
        if self._state_enabled:
            rber *= self.state.factor(pbn, page, self._pe_cycles[pbn])
        block_reads[pbn] = reads + 1
        steps, uncorrectable = self.ecc.retries_needed(rber)
        if not steps and not uncorrectable:
            return 0.0
        extra = self.device.latency.retry_read_us(page, steps)
        if steps:
            stats.retried_reads += 1
            stats.retry_steps += steps
        if uncorrectable:
            stats.uncorrectable_reads += 1
            penalty = self.config.uncorrectable_penalty_us
            extra += penalty
            if penalty:
                self._recovery_us = penalty
        stats.retry_us += extra
        return extra

    def _injected_fault(self, pbn: int, page: int, kind: str) -> float:
        """Penalty (us) of one injected fault; same accounting as the model.

        Both classes walk the full ECC ladder (the worst correctable
        read); an ``"uncorrectable"`` additionally fails it and charges
        driver recovery, flagged for :meth:`consume_recovery_us` so the
        timed engine can queue the recovery as real device work.
        """
        stats = self.stats
        steps = self.ecc.max_retries
        extra = self.device.latency.retry_read_us(page, steps)
        if steps:
            stats.retried_reads += 1
            stats.retry_steps += steps
        ex = stats.extra
        ex["injected.reads"] = ex.get("injected.reads", 0.0) + 1.0
        if kind == "uncorrectable":
            stats.uncorrectable_reads += 1
            ex["injected.uncorrectable"] = ex.get("injected.uncorrectable", 0.0) + 1.0
            penalty = self.config.uncorrectable_penalty_us
            extra += penalty
            if penalty:
                self._recovery_us = penalty
        else:
            ex["injected.storms"] = ex.get("injected.storms", 0.0) + 1.0
        stats.retry_us += extra
        return extra

    def consume_recovery_us(self) -> float:
        """Driver-recovery share of the last read's penalty, then 0.

        The FTL's read hook calls this right after
        :meth:`on_host_read` returned nonzero: the recovery share is
        reported to the device as a queued recovery op
        (:meth:`~repro.nand.device.NandDevice.note_recovery`) instead of
        inflating the page's retry-ladder segment.
        """
        recovery = self._recovery_us
        if recovery:
            self._recovery_us = 0.0
        return recovery

    # ------------------------------------------------------------------
    # Safe-deadline bound (the zero-retry fast path)
    # ------------------------------------------------------------------

    def _refresh_safe_deadline(self, pbn: int) -> float:
        """Recompute and cache the block's zero-retry deadline.

        Returns the simulation time until which the block's *worst*
        page provably needs zero ECC retries, i.e. the latest ``t`` with

            base_rber * worst_mult * pe_factor * disturb_hi
                * retention_factor(t - program_time) <= rber_limit

        where ``disturb_hi`` is the read-disturb factor at the current
        read count plus :data:`DISTURB_LOOKAHEAD_READS` (the deadline is
        invalidated when the counter crosses that window).  The age
        threshold comes from closed-form *lower* bounds on the inverse
        retention curve — ``1 - exp(-x) <= min(1, x)`` and
        ``log1p(x) <= x`` — shrunk by :data:`_SAFE_MARGIN`, so the fast
        path is conservative: every read it answers with 0.0 would get
        0.0 from the exact model too (reads between the bound and the
        true threshold just take the exact path).
        """
        reads = self._block_reads[pbn]
        disturb = self.disturb
        if disturb.enabled:
            reads_hi = reads + DISTURB_LOOKAHEAD_READS
            disturb_factor = disturb.factor(reads_hi)
        else:
            reads_hi = 1 << 62
            disturb_factor = 1.0
        self._safe_reads_hi[pbn] = reads_hi
        static_rber = (
            self.config.base_rber
            * self._worst_mult[pbn]
            * self._pe_factor[pbn]
            * disturb_factor
        )
        if self._state_enabled:
            # State skew can only worsen a page up to the worst-mix
            # factor; folding it in keeps the deadline conservative.
            static_rber *= self._state_worst
        target = self.ecc.rber_limit * (1.0 - _SAFE_MARGIN)
        if static_rber <= 0.0:
            # Null model (or zero base RBER): never any retries.
            deadline = math.inf
        elif static_rber > target:
            # Even at age 0 the worst page is past the zero-retry limit.
            deadline = -math.inf
        elif not self._stamped[pbn]:
            # Age is pinned at 0 until the next program restamps it.
            deadline = math.inf
        else:
            ratio = target / static_rber  # >= 1: retention budget left
            retention = self.retention
            budget = ratio - 1.0
            # Small-age bound: retention_factor(a) <= 1 + a * slope.
            slope = retention.fast_amp / retention.fast_tau_s + (
                retention.slow_amp / retention.slow_tau_s
            )
            threshold = budget / slope if slope > 0.0 else math.inf
            # Large-age bound: once the fast phase is saturated,
            # retention_factor(a) <= 1 + fast_amp + slow_amp * log1p(a/slow_tau).
            log_budget = budget - retention.fast_amp
            if log_budget > 0.0 and retention.slow_amp > 0.0:
                try:
                    large_age = retention.slow_tau_s * math.expm1(
                        log_budget / retention.slow_amp
                    )
                except OverflowError:
                    # The bound exceeds the float range: no finite age
                    # reaches the limit.
                    large_age = math.inf
                threshold = max(threshold, large_age)
            elif log_budget > 0.0:
                # No slow-growth term: past the fast amplitude the
                # factor can never reach the target.
                threshold = math.inf
            deadline = self._program_time_s[pbn] + threshold
        self._safe_until_s[pbn] = deadline
        return deadline

    # ------------------------------------------------------------------
    # Refresh accounting (called by the FTL's refresh driver)
    # ------------------------------------------------------------------

    def note_refresh(self, copied_pages: int, latency_us: float) -> None:
        """Record one refreshed block's relocation work."""
        self.stats.refresh_runs += 1
        self.stats.refresh_copied_pages += copied_pages
        self.stats.refresh_us += latency_us

    def result_extras(self) -> dict[str, float]:
        """``RunResult.extra`` entries this stack surfaces.

        Keys appear only for features the run actually carried (fault
        injection, holds-aware refresh triage), so baseline results —
        and the goldens that pin them — keep their exact key set.
        """
        out: dict[str, float] = {}
        stats = self.stats
        extra = stats.extra
        if self._injector is not None:
            out["faults.injected_reads"] = extra.get("injected.reads", 0.0)
            out["faults.injected_uncorrectable"] = extra.get(
                "injected.uncorrectable", 0.0
            )
            out["faults.injected_storms"] = extra.get("injected.storms", 0.0)
            out["reliability.uncorrectable_reads"] = float(stats.uncorrectable_reads)
        if self.config.refresh_triage == "holds":
            out["refresh.triage_skipped_blocks"] = extra.get(
                "triage.skipped_blocks", 0.0
            )
            out["refresh.triage_saved_pages"] = extra.get("triage.saved_pages", 0.0)
        return out

    def describe(self) -> str:
        """One-line summary for logs."""
        state = f", {self.state.describe()}" if self._state_enabled else ""
        faults = f", {self.faults.describe()}" if self._injector is not None else ""
        return (
            f"ReliabilityManager(base_rber={self.config.base_rber:.1e}, "
            f"{self.variation.describe()}, {self.retention.describe()}, "
            f"{self.disturb.describe()}, {self.ecc.describe()}{state}{faults})"
        )
