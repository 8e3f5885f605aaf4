"""Metrics: counters, gauges, fixed-bucket histograms.

The registry is the numeric half of the observability layer
(:mod:`repro.obs`).  Three design rules make it fit the scheduling
pipeline:

* **Deterministic values.**  Histograms use *fixed* bucket boundaries
  declared at first registration, counters are plain integer/float sums,
  and gauges carry an explicit mode (``last``/``max``),
  so a seeded run records the same numbers every time (see
  ``tests/obs``).

* **Determinism flags.**  Some families are deterministic for a seeded
  batch (Ψ evaluation counts, deliveries, residencies); others -- cache
  hit/miss splits -- legitimately depend on cache temperature.  Families
  register with ``deterministic=False``, and the snapshot carries the flag
  so run-to-run equality checks can leave them out.

* **Null by default.**  :class:`NullRegistry` answers every call with a
  shared no-op instrument, so instrumented call sites cost one method
  call when observability is off and the Ψ_C hot path is never touched
  at all (the cost model keeps plain ``int`` counters; see
  ``tests/obs/test_null_overhead.py``).
"""

from __future__ import annotations

import math
from typing import Any, Iterator

from repro.errors import ReproError


class MetricsError(ReproError):
    """Invalid metric registration or observation."""


#: Fixed bucket boundary presets (upper bounds; ``+Inf`` is implicit).
COUNT_BUCKETS: tuple[float, ...] = (1, 2, 5, 10, 20, 50, 100, 200, 500, 1000)
DOLLAR_BUCKETS: tuple[float, ...] = (0, 1, 10, 100, 1e3, 1e4, 1e5, 1e6)
GIGABYTE = 1e9
BYTES_BUCKETS: tuple[float, ...] = (
    1e6, 1e7, 1e8, 1e9, 5e9, 1e10, 5e10, 1e11,
)
SECONDS_BUCKETS: tuple[float, ...] = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 60.0,
)

_GAUGE_MODES = ("last", "max")

LabelKey = tuple[tuple[str, str], ...]


def _label_key(labels: dict[str, Any]) -> LabelKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class Counter:
    """Monotonically increasing count (exact for integer increments)."""

    __slots__ = ("_value",)

    def __init__(self) -> None:
        self._value: float = 0

    def inc(self, amount: float = 1) -> None:
        if amount < 0:
            raise MetricsError(f"counter increments must be >= 0, got {amount}")
        self._value += amount

    @property
    def value(self) -> float:
        return self._value


class Gauge:
    """Point-in-time value with an explicit mode.

    ``max`` gauges keep the peak on :meth:`set`, so peak trackers can be
    set repeatedly; ``last`` overwrites.
    """

    __slots__ = ("_value", "_mode", "_touched")

    def __init__(self, mode: str = "last") -> None:
        self._mode = mode
        self._value: float = 0.0
        self._touched = False

    def set(self, value: float) -> None:
        if self._touched and self._mode == "max":
            value = max(self._value, value)
        self._value = value
        self._touched = True

    @property
    def value(self) -> float:
        return self._value


class Histogram:
    """Fixed-boundary histogram.

    ``boundaries`` are inclusive upper bounds; an implicit ``+Inf``
    bucket catches the tail.  Bucket counts are integers; ``sum`` is a
    float and is exact whenever the observed values are integers.
    """

    __slots__ = ("boundaries", "_counts", "_sum", "_count")

    def __init__(self, boundaries: tuple[float, ...]) -> None:
        if not boundaries:
            raise MetricsError("histogram needs at least one bucket boundary")
        ordered = tuple(float(b) for b in boundaries)
        if list(ordered) != sorted(set(ordered)):
            raise MetricsError(
                f"bucket boundaries must be strictly increasing: {boundaries}"
            )
        if any(math.isnan(b) for b in ordered):
            raise MetricsError("bucket boundaries must not be NaN")
        self.boundaries = ordered
        self._counts = [0] * (len(ordered) + 1)  # last slot = +Inf
        self._sum: float = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        for i, bound in enumerate(self.boundaries):
            if value <= bound:
                self._counts[i] += 1
                break
        else:
            self._counts[-1] += 1
        self._sum += value
        self._count += 1

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    def bucket_counts(self) -> dict[str, int]:
        """Non-cumulative per-bucket counts keyed by upper bound."""
        out = {_fmt_bound(b): c for b, c in zip(self.boundaries, self._counts)}
        out["+Inf"] = self._counts[-1]
        return out

    def cumulative_counts(self) -> list[tuple[str, int]]:
        """Prometheus-style cumulative ``le`` buckets (ends at +Inf)."""
        out: list[tuple[str, int]] = []
        running = 0
        for b, c in zip(self.boundaries, self._counts):
            running += c
            out.append((_fmt_bound(b), running))
        out.append(("+Inf", running + self._counts[-1]))
        return out


def _fmt_bound(bound: float) -> str:
    if bound == math.inf:
        return "+Inf"
    if bound == int(bound) and abs(bound) < 1e15:
        return str(int(bound))
    return repr(bound)


class _Family:
    """One named metric with its labelled children."""

    __slots__ = ("name", "kind", "help", "deterministic", "mode", "boundaries",
                 "children")

    def __init__(
        self,
        name: str,
        kind: str,
        help: str,
        deterministic: bool,
        mode: str | None = None,
        boundaries: tuple[float, ...] | None = None,
    ) -> None:
        self.name = name
        self.kind = kind
        self.help = help
        self.deterministic = deterministic
        self.mode = mode
        self.boundaries = boundaries
        self.children: dict[LabelKey, Counter | Gauge | Histogram] = {}

    def signature(self) -> tuple:
        return (self.name, self.kind, self.mode, self.boundaries)

    def child(self, key: LabelKey) -> Counter | Gauge | Histogram:
        inst = self.children.get(key)
        if inst is None:
            if self.kind == "counter":
                inst = Counter()
            elif self.kind == "gauge":
                inst = Gauge(self.mode or "last")
            else:
                inst = Histogram(self.boundaries or COUNT_BUCKETS)
            self.children[key] = inst
        return inst


class MetricsRegistry:
    """A collection of named, labelled metric families.

    Instruments are created lazily on first access::

        reg = MetricsRegistry()
        reg.counter("vor_deliveries_total").inc()
        reg.gauge("vor_storage_peak_reserved_bytes", mode="max",
                  location="IS3").set(4.2e9)
        reg.histogram("vor_requests_per_video",
                      boundaries=COUNT_BUCKETS).observe(12)

    Re-registering a name with a conflicting kind, gauge mode, or bucket
    layout raises :class:`MetricsError`; re-registering compatibly
    returns the existing child, so call sites need no setup phase.
    """

    enabled = True

    def __init__(self) -> None:
        self._families: dict[str, _Family] = {}

    # -- instrument accessors ------------------------------------------------

    def counter(
        self,
        name: str,
        *,
        help: str = "",
        deterministic: bool = True,
        **labels: Any,
    ) -> Counter:
        fam = self._family(name, "counter", help, deterministic)
        return fam.child(_label_key(labels))  # type: ignore[return-value]

    def gauge(
        self,
        name: str,
        *,
        mode: str = "last",
        help: str = "",
        deterministic: bool = True,
        **labels: Any,
    ) -> Gauge:
        if mode not in _GAUGE_MODES:
            raise MetricsError(
                f"gauge mode must be one of {_GAUGE_MODES}, got {mode!r}"
            )
        fam = self._family(name, "gauge", help, deterministic, mode=mode)
        return fam.child(_label_key(labels))  # type: ignore[return-value]

    def histogram(
        self,
        name: str,
        *,
        boundaries: tuple[float, ...] = COUNT_BUCKETS,
        help: str = "",
        deterministic: bool = True,
        **labels: Any,
    ) -> Histogram:
        fam = self._family(
            name, "histogram", help, deterministic,
            boundaries=tuple(float(b) for b in boundaries),
        )
        return fam.child(_label_key(labels))  # type: ignore[return-value]

    def _family(
        self,
        name: str,
        kind: str,
        help: str,
        deterministic: bool,
        mode: str | None = None,
        boundaries: tuple[float, ...] | None = None,
    ) -> _Family:
        fam = self._families.get(name)
        if fam is None:
            fam = _Family(name, kind, help, deterministic, mode, boundaries)
            self._families[name] = fam
            return fam
        candidate = (name, kind, mode if kind == "gauge" else None,
                     boundaries if kind == "histogram" else None)
        if fam.signature() != candidate:
            raise MetricsError(
                f"metric {name!r} re-registered incompatibly: "
                f"{fam.signature()} vs {candidate}"
            )
        if help and not fam.help:
            fam.help = help
        return fam

    # -- reading -------------------------------------------------------------

    def families(self) -> Iterator[_Family]:
        """Families in registration-independent (sorted-name) order."""
        for name in sorted(self._families):
            yield self._families[name]

    def snapshot(self) -> dict:
        """JSON-serializable dump of every family."""
        out: dict[str, dict] = {}
        for fam in self.families():
            values = []
            for key in sorted(fam.children):
                child = fam.children[key]
                entry: dict[str, Any] = {"labels": dict(key)}
                if isinstance(child, Histogram):
                    entry["buckets"] = child.bucket_counts()
                    entry["sum"] = child.sum
                    entry["count"] = child.count
                else:
                    entry["value"] = child.value
                values.append(entry)
            out[fam.name] = {
                "kind": fam.kind,
                "help": fam.help,
                "deterministic": fam.deterministic,
                "values": values,
            }
        return out


# -- the disabled-by-default null implementation ------------------------------


class _NullCounter:
    __slots__ = ()

    def inc(self, amount: float = 1) -> None:
        pass

    value = 0


class _NullGauge:
    __slots__ = ()

    def set(self, value: float) -> None:
        pass

    value = 0.0


class _NullHistogram:
    __slots__ = ()

    def observe(self, value: float) -> None:
        pass

    count = 0
    sum = 0.0


_NULL_COUNTER = _NullCounter()
_NULL_GAUGE = _NullGauge()
_NULL_HISTOGRAM = _NullHistogram()


class NullRegistry:
    """No-op registry: every accessor returns a shared inert instrument.

    Instrumented call sites pay one attribute lookup and one call; no
    allocation, no bookkeeping.  ``snapshot()`` is empty.
    """

    enabled = False

    def counter(self, name: str, **kw: Any) -> _NullCounter:
        return _NULL_COUNTER

    def gauge(self, name: str, **kw: Any) -> _NullGauge:
        return _NULL_GAUGE

    def histogram(self, name: str, **kw: Any) -> _NullHistogram:
        return _NULL_HISTOGRAM

    def families(self) -> Iterator[_Family]:
        return iter(())

    def snapshot(self) -> dict:
        return {}


NULL_REGISTRY = NullRegistry()


# -- the recording stand-in for a deferred registry ---------------------------


class _TapedInstrument:
    """An instrument whose every observation is appended to a tape."""

    __slots__ = ("_ops", "_access")

    def __init__(self, ops: list, access: tuple) -> None:
        self._ops = ops
        self._access = access

    def _record(self, value: float = 1) -> None:
        self._ops.append((self._access, value))

    inc = set = observe = _record


class MetricsTape:
    """A live registry stand-in that records operations instead of values.

    Every instrument access and every observation is appended, in call
    order, to :attr:`ops`; :meth:`replay` performs them on a real
    registry.  A computation that records into a tape and is replayed
    later leaves the registry bit-identical to having recorded into it
    directly at the replay point: float sums accumulate in the same order,
    gauge modes apply to the same sequence of values, and families
    registered without an observation still appear.  The rolling scheduler
    records its what-if solves this way (see
    :meth:`repro.extensions.rolling.RollingScheduler.what_if`).
    """

    enabled = True

    def __init__(self) -> None:
        self.ops: list[tuple[tuple, float | None]] = []

    def _access(self, kind: str, name: str, kw: dict) -> _TapedInstrument:
        access = (kind, name, kw)
        self.ops.append((access, None))
        return _TapedInstrument(self.ops, access)

    def counter(self, name: str, **kw: Any) -> _TapedInstrument:
        return self._access("counter", name, kw)

    def gauge(self, name: str, **kw: Any) -> _TapedInstrument:
        return self._access("gauge", name, kw)

    def histogram(self, name: str, **kw: Any) -> _TapedInstrument:
        return self._access("histogram", name, kw)

    def replay(self, registry: MetricsRegistry | NullRegistry) -> None:
        """Perform every recorded operation on ``registry``, in order."""
        for (kind, name, kw), value in self.ops:
            instrument = getattr(registry, kind)(name, **kw)
            if value is not None:
                getattr(instrument, _OBSERVE[kind])(value)


#: The observation method of each instrument kind.
_OBSERVE = {"counter": "inc", "gauge": "set", "histogram": "observe"}
