"""Memoized scenario replays: never run the same simulation twice.

The sweep scenarios (``repro reliability``, ``repro placement``, the
generic ``repro sweep``) share a shape: a sweep point varies one knob
(retention age, placement weight) while its *baseline* replays — the
latency-only reference, the speed-oblivious FTLs, pure-speed PPB — do
not depend on that knob and would otherwise be replayed identically at
every point.

The **canonical cache key is the**
:class:`~repro.scenario.spec.ScenarioSpec` itself: frozen, hashable and
total, so two requests collide exactly when they describe the same
simulation.  :class:`ReplayRunner` executes specs on demand, caches
traces by :meth:`ScenarioSpec.trace_key` and results by the full spec,
and counts hits and misses so the scenarios can *prove* no identical
replay ran twice.

Parallel execution
------------------
``ReplayRunner(workers=N)`` adds a process-pool mode: :meth:`run_many`
fans the not-yet-cached specs of a batch across ``N`` worker processes
and absorbs the pickled results into the memo, after which the usual
:meth:`run` calls are cache hits.  Every replay is an independent,
deterministic simulation, so the results are byte-identical to
single-process execution regardless of scheduling; ``workers=1`` (the
default) never spawns a pool and behaves exactly as before.  Worker
processes build their own traces, so :attr:`ReplayMemoStats.trace_builds`
counts only parent-side builds.

The pool is created lazily on the first parallel batch and then **kept
alive across** :meth:`run_many` calls, so a CLI invocation that runs
several sweeps (or a sweep plus its baselines) pays the worker spawn
cost once.  Call :meth:`close` (or use the runner as a context manager)
to release the workers deterministically; a garbage-collected runner
shuts its pool down too.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Iterable

from repro.errors import ConfigError
from repro.scenario.run import build_trace, execute_scenario
from repro.scenario.spec import ScenarioSpec
from repro.sim.ssd import RunResult
from repro.traces.record import Trace


def _require_scenario(spec: ScenarioSpec) -> ScenarioSpec:
    """The spec itself; anything else is a :class:`ConfigError`."""
    if not isinstance(spec, ScenarioSpec):
        raise ConfigError(f"expected a ScenarioSpec, got {type(spec).__name__}")
    return spec


@dataclass
class ReplayMemoStats:
    """Cache accounting for one runner."""

    hits: int = 0
    misses: int = 0
    trace_builds: int = 0

    @property
    def replays_saved(self) -> int:
        """Identical replays the cache absorbed."""
        return self.hits


def _execute_specs(specs: list[ScenarioSpec]) -> list[RunResult]:
    """Process-pool entry point: run a batch of specs in a fresh runner.

    Module-level so it pickles by reference; the worker rebuilds traces
    itself (the batches :meth:`ReplayRunner.run_many` dispatches share
    one trace, so it is built once per task) and ships the finished
    :class:`RunResult`\\ s — each including the attached FTL with its
    stats and reliability manager — back through pickling.
    """
    runner = ReplayRunner()
    return [runner.run(spec) for spec in specs]


class ReplayRunner:
    """Executes :class:`ScenarioSpec`\\ s with trace and result memoization.

    ``workers`` > 1 enables the process-pool mode used by
    :meth:`run_many`; see the module docstring.
    """

    def __init__(self, workers: int = 1) -> None:
        if workers < 1:
            raise ConfigError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self._traces: dict[tuple, Trace] = {}
        self._results: dict[ScenarioSpec, RunResult] = {}
        #: pool-executed specs whose first :meth:`run` fetch must not
        #: count as a memo hit — keeps the hit/miss accounting (and the
        #: sweep reports rendered from it) byte-identical to
        #: single-process execution.
        self._fresh: set[ScenarioSpec] = set()
        #: lazily-created, *reused* process pool (see module docstring).
        self._pool: ProcessPoolExecutor | None = None
        self.stats = ReplayMemoStats()

    # -- lifecycle -----------------------------------------------------

    def close(self) -> None:
        """Shut down the worker pool (idempotent; memo stays usable)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def __enter__(self) -> "ReplayRunner":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __del__(self) -> None:  # best-effort; close() is the real API
        try:
            self.close()
        except Exception:
            pass

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self.workers)
        return self._pool

    # -- execution -----------------------------------------------------

    def trace_for(self, spec: ScenarioSpec) -> Trace:
        """The (cached) trace a spec replays."""
        spec = _require_scenario(spec)
        key = spec.trace_key()
        if key not in self._traces:
            self._traces[key] = build_trace(spec)
            self.stats.trace_builds += 1
        return self._traces[key]

    def run(self, spec: ScenarioSpec) -> RunResult:
        """Run (or fetch) one replay.

        Cached results are shared objects: treat them as read-only.
        """
        spec = _require_scenario(spec)
        if spec in self._results:
            if spec in self._fresh:
                # First fetch of a pool-executed result: the pool run
                # already counted the miss, so this is not a cache hit.
                self._fresh.discard(spec)
            else:
                self.stats.hits += 1
            return self._results[spec]
        self.stats.misses += 1
        result = execute_scenario(spec, self.trace_for(spec))
        self._results[spec] = result
        return result

    def prefetch(self, specs: Iterable[ScenarioSpec]) -> None:
        """Execute the uncached specs of a batch in the process pool.

        No-op with ``workers == 1`` (or when at most one spec is
        uncached).  Each executed spec is counted as one miss — exactly
        what a sequential execution would record — and its *first*
        subsequent :meth:`run` fetch is not counted as a hit, so the
        sweeps' memo accounting (which their reports render) is
        byte-identical whether or not a pool ran.
        """
        if self.workers <= 1:
            return
        pending: list[ScenarioSpec] = []
        seen: set[ScenarioSpec] = set()
        for spec in specs:
            spec = _require_scenario(spec)
            if spec not in self._results and spec not in seen:
                seen.add(spec)
                pending.append(spec)
        if len(pending) <= 1:
            return
        # Order specs so same-trace variants sit together, then chunk
        # contiguously into one batch per worker: chunks mostly stay
        # within a trace (few duplicate builds) but a grid dominated by
        # one trace — the reliability sweep — still fans out across
        # every worker.
        groups: dict[tuple, list[ScenarioSpec]] = {}
        for spec in pending:
            groups.setdefault(spec.trace_key(), []).append(spec)
        ordered = [spec for group in groups.values() for spec in group]
        num_batches = min(self.workers, len(ordered))
        size = (len(ordered) + num_batches - 1) // num_batches
        batches = [ordered[i : i + size] for i in range(0, len(ordered), size)]
        pool = self._ensure_pool()
        for batch, results in zip(batches, pool.map(_execute_specs, batches)):
            for spec, result in zip(batch, results):
                self._results[spec] = result
                self._fresh.add(spec)
                self.stats.misses += 1

    def run_many(self, specs: Iterable[ScenarioSpec]) -> list[RunResult]:
        """Run (or fetch) a batch of specs; returns results in order.

        With ``workers > 1`` the uncached specs execute concurrently
        via :meth:`prefetch` — reusing one long-lived pool across calls
        — and with ``workers == 1`` this is just ``[self.run(s) for s
        in specs]``.  Either way the memo stats come out the same.
        """
        spec_list = [_require_scenario(spec) for spec in specs]
        self.prefetch(spec_list)
        return [self.run(spec) for spec in spec_list]
