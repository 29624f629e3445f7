"""Low-level samplers and the composable access-pattern algebra.

Two layers live here:

* **Samplers** — the bounded Zipfian generator (Gray et al.'s
  algorithm, the same one YCSB uses): rank 0 is the most popular item
  and popularity falls as ``1 / rank**theta``.  :class:`ScrambledZipfian`
  hashes the rank so the popular items are spread across the whole item
  space instead of clustering at low addresses — matching how hot files
  and hot database pages are scattered across a real volume.

* **Access patterns** — slot-space walkers (sequential, random,
  stride, snake-over-zones, Zipfian) plus the phase grammar that
  composes them into whole workloads.  A *phase* is ``op:pattern`` with
  optional zone subset and weight (``"write:seq@0-3*2"``); a pipe- or
  comma-separated phase list is a full experiment program, e.g.
  ``"write:seq | read:snake | trim:rand | mixed:zipf"``.  Phase
  boundaries act as barriers: the workload's clock jumps so later
  phases never overlap earlier ones in timed replays.  The
  ``pattern-suite`` workload (:mod:`repro.traces.workloads`) binds this
  algebra to the standard generator interface.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigError

#: FNV-1a 64-bit constants, used to scramble Zipfian ranks.
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = (1 << 64) - 1


def fnv1a_64(value: int) -> int:
    """FNV-1a hash of an integer's 8 little-endian bytes."""
    h = _FNV_OFFSET
    for _ in range(8):
        h ^= value & 0xFF
        h = (h * _FNV_PRIME) & _MASK64
        value >>= 8
    return h


class ZipfianGenerator:
    """Bounded Zipfian sampler over ranks ``0 .. n-1`` (0 most popular).

    Implements the constant-time rejection-free method of Gray et al.
    ("Quickly generating billion-record synthetic databases"), with the
    zeta constant computed once at construction (O(n), acceptable for
    the item counts used here).
    """

    def __init__(self, n: int, theta: float = 0.99, rng: np.random.Generator | None = None):
        if n < 1:
            raise ConfigError(f"n must be >= 1, got {n}")
        if not 0.0 < theta < 1.0:
            raise ConfigError(f"theta must be in (0, 1), got {theta}")
        self.n = n
        self.theta = theta
        # Seeded fallback: an OS-entropy stream here would make default
        # construction nondeterministic (DET001); callers that want
        # distinct streams pass their own rng.
        self.rng = rng if rng is not None else np.random.default_rng(0)
        ranks = np.arange(1, n + 1, dtype=np.float64)
        self._zetan = float(np.sum(ranks ** -theta))
        self._zeta2 = 1.0 + 2.0 ** -theta if n >= 2 else self._zetan
        self._alpha = 1.0 / (1.0 - theta)
        # _eta only serves ranks >= 2; with n <= 2 it is never read (and
        # n == 2 makes zeta2 == zetan, a zero denominator).
        self._eta = (1.0 - (2.0 / n) ** (1.0 - theta)) / (1.0 - self._zeta2 / self._zetan) \
            if n > 2 else 1.0

    def next(self) -> int:
        """Sample one rank."""
        u = self.rng.random()
        uz = u * self._zetan
        if uz < 1.0:
            return 0
        if uz < 1.0 + 0.5 ** self.theta:
            return 1 if self.n >= 2 else 0
        rank = int(self.n * (self._eta * u - self._eta + 1.0) ** self._alpha)
        return min(rank, self.n - 1)

    def sample(self, count: int) -> np.ndarray:
        """Sample ``count`` ranks as an array."""
        return np.fromiter((self.next() for _ in range(count)), dtype=np.int64, count=count)


class ScrambledZipfian:
    """Zipfian sampler whose popular items are scattered over the space.

    Ranks from :class:`ZipfianGenerator` are pushed through FNV-1a and
    reduced modulo ``n``, so item popularity still follows the Zipf law
    but hot items do not cluster at low indices.
    """

    def __init__(self, n: int, theta: float = 0.99, rng: np.random.Generator | None = None):
        self.n = n
        self._zipf = ZipfianGenerator(n, theta, rng)

    def next(self) -> int:
        """Sample one item index."""
        return fnv1a_64(self._zipf.next()) % self.n

    def sample(self, count: int) -> np.ndarray:
        """Sample ``count`` item indices as an array."""
        return np.fromiter((self.next() for _ in range(count)), dtype=np.int64, count=count)


class UniformSampler:
    """Uniform sampler over ``0 .. n-1`` with the same interface."""

    def __init__(self, n: int, rng: np.random.Generator | None = None):
        if n < 1:
            raise ConfigError(f"n must be >= 1, got {n}")
        self.n = n
        # Seeded fallback for the same DET001 reason as ZipfianGenerator.
        self.rng = rng if rng is not None else np.random.default_rng(0)

    def next(self) -> int:
        """Sample one item index."""
        return int(self.rng.integers(0, self.n))

    def sample(self, count: int) -> np.ndarray:
        """Sample ``count`` item indices as an array."""
        return self.rng.integers(0, self.n, size=count, dtype=np.int64)


# ----------------------------------------------------------------------
# Access patterns: slot-space walkers with a shared ``next()`` interface
# ----------------------------------------------------------------------

class SequentialPattern:
    """Walk slots ``0 .. n-1`` in order, wrapping around."""

    name = "seq"

    def __init__(self, n: int, rng: np.random.Generator | None = None, **_: object):
        if n < 1:
            raise ConfigError(f"n must be >= 1, got {n}")
        self.n = n
        self._cursor = 0

    def next(self) -> int:
        """Next slot in the walk."""
        slot = self._cursor
        self._cursor = (self._cursor + 1) % self.n
        return slot


class SnakePattern:
    """Boustrophedon walk: odd zones are traversed backwards.

    ``row`` is the zone width in slots; a full sweep visits every slot
    once, alternating direction per row (the classic "snake" scan used
    to expose direction-sensitive placement behaviour), then wraps.
    """

    name = "snake"

    def __init__(
        self,
        n: int,
        rng: np.random.Generator | None = None,
        row: int = 0,
        **_: object,
    ):
        if n < 1:
            raise ConfigError(f"n must be >= 1, got {n}")
        self.n = n
        self.row = row if row >= 1 else n
        self._cursor = 0

    def next(self) -> int:
        """Next slot in the sweep."""
        i = self._cursor
        self._cursor = (self._cursor + 1) % self.n
        row, within = divmod(i, self.row)
        if row % 2 == 0:
            return i
        # Reversed row; the last (possibly short) row clamps to its end.
        end = min((row + 1) * self.row, self.n)
        return end - 1 - within


class StridePattern:
    """Visit every ``stride``-th slot, shifting one lane per wrap.

    After ``ceil(n / stride)`` steps the walk returns to the start and
    moves to the next lane, so all slots are eventually covered — the
    access shape of striped/RAID-style clients.
    """

    name = "stride"

    def __init__(
        self,
        n: int,
        rng: np.random.Generator | None = None,
        stride: int = 8,
        **_: object,
    ):
        if n < 1:
            raise ConfigError(f"n must be >= 1, got {n}")
        if stride < 1:
            raise ConfigError(f"stride must be >= 1, got {stride}")
        self.n = n
        self.stride = stride
        self._pos = 0
        self._lane = 0

    def next(self) -> int:
        """Next slot in the strided walk."""
        slot = self._pos
        self._pos += self.stride
        if self._pos >= self.n:
            self._lane = (self._lane + 1) % min(self.stride, self.n)
            self._pos = self._lane
        return slot


class RandomPattern:
    """Uniform random slots (thin wrapper keeping the pattern interface)."""

    name = "rand"

    def __init__(self, n: int, rng: np.random.Generator | None = None, **_: object):
        self._sampler = UniformSampler(n, rng)

    def next(self) -> int:
        """Next uniform slot."""
        return self._sampler.next()


class ZipfPattern:
    """Zipf-popular slots, scattered (the temperature-population shape)."""

    name = "zipf"

    def __init__(
        self,
        n: int,
        rng: np.random.Generator | None = None,
        theta: float = 0.9,
        **_: object,
    ):
        self._sampler = ScrambledZipfian(n, theta, rng)

    def next(self) -> int:
        """Next Zipf-distributed slot."""
        return self._sampler.next()


#: pattern registry: spelling -> class (aliases included).
PATTERNS: dict[str, type] = {
    "seq": SequentialPattern,
    "sequential": SequentialPattern,
    "rand": RandomPattern,
    "random": RandomPattern,
    "stride": StridePattern,
    "snake": SnakePattern,
    "zipf": ZipfPattern,
}


def make_pattern(
    name: str,
    n: int,
    rng: np.random.Generator | None = None,
    *,
    stride: int = 8,
    theta: float = 0.9,
    row: int = 0,
):
    """Instantiate a registered pattern over ``n`` slots."""
    try:
        cls = PATTERNS[name]
    except KeyError:
        raise ConfigError(
            f"unknown access pattern {name!r}; choose from {sorted(set(PATTERNS))}"
        ) from None
    return cls(n, rng, stride=stride, theta=theta, row=row)


# ----------------------------------------------------------------------
# Phase grammar: "op:pattern[@lo-hi][*weight]" lists
# ----------------------------------------------------------------------

#: op spellings -> canonical op name.
_PHASE_OPS = {
    "write": "write", "w": "write",
    "read": "read", "r": "read",
    "trim": "trim", "t": "trim", "discard": "trim",
    "mixed": "mixed", "mix": "mixed", "rw": "mixed",
}


@dataclass(frozen=True)
class PatternPhase:
    """One parsed phase of a pattern-suite program."""

    #: "write", "read", "trim" or "mixed" (mixed draws the op per
    #: request from the suite's read/trim fractions).
    op: str
    #: registered pattern name (see :data:`PATTERNS`).
    pattern: str
    #: inclusive zone-index range this phase touches (None = all zones).
    zones: tuple[int, int] | None = None
    #: share of the request budget this phase receives.
    weight: float = 1.0


def parse_phases(text: str) -> tuple[PatternPhase, ...]:
    """Parse a phase program: phases separated by ``|`` or ``,``, each
    ``op:pattern`` with an optional ``@lo-hi`` zone subset and ``*w``
    weight — e.g. ``"write:seq | read:snake@0-3 | mixed:zipf*2"``."""
    tokens = [t.strip() for t in text.replace(",", "|").split("|") if t.strip()]
    if not tokens:
        raise ConfigError(f"empty phase program {text!r}")
    phases = []
    for token in tokens:
        phases.append(_parse_phase(token))
    return tuple(phases)


def _parse_phase(token: str) -> PatternPhase:
    body = token
    weight = 1.0
    if "*" in body:
        body, _, tail = body.partition("*")
        try:
            weight = float(tail)
        except ValueError:
            raise ConfigError(f"phase {token!r}: bad weight {tail!r}") from None
        if not weight > 0:
            raise ConfigError(f"phase {token!r}: weight must be > 0, got {weight:g}")
    zones: tuple[int, int] | None = None
    if "@" in body:
        body, _, tail = body.partition("@")
        lo, dash, hi = tail.partition("-")
        try:
            zones = (int(lo), int(hi) if dash else int(lo))
        except ValueError:
            raise ConfigError(
                f"phase {token!r}: bad zone range {tail!r} (want lo-hi)"
            ) from None
        if zones[0] < 0 or zones[1] < zones[0]:
            raise ConfigError(f"phase {token!r}: bad zone range {tail!r}")
    op_text, sep, pattern = body.partition(":")
    if not sep:
        raise ConfigError(f"phase {token!r} must be op:pattern (e.g. write:seq)")
    op = _PHASE_OPS.get(op_text.strip().lower())
    if op is None:
        raise ConfigError(
            f"phase {token!r}: unknown op {op_text!r}; "
            f"choose from {sorted(set(_PHASE_OPS.values()))}"
        )
    pattern = pattern.strip().lower()
    if pattern not in PATTERNS:
        raise ConfigError(
            f"phase {token!r}: unknown pattern {pattern!r}; "
            f"choose from {sorted(set(PATTERNS))}"
        )
    return PatternPhase(op=op, pattern=pattern, zones=zones, weight=weight)


def choose_weighted(rng: np.random.Generator, weights: dict[str, float]) -> str:
    """Pick a key with probability proportional to its weight."""
    if not weights:
        raise ConfigError("weights must be non-empty")
    keys = list(weights)
    values = np.array([weights[k] for k in keys], dtype=np.float64)
    if np.any(values < 0) or values.sum() <= 0:
        raise ConfigError(f"weights must be non-negative and sum > 0, got {weights}")
    values = values / values.sum()
    return keys[int(rng.choice(len(keys), p=values))]
