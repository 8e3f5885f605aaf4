"""Per-layer numbers for the traced run, taken from outside the program.

:meth:`Recorder.install` wraps public functions of each layer in place
and :meth:`Recorder.uninstall` puts the originals back.  A function is
replaced at every ``repro`` module that binds it, so callers that
imported it by name (``resolve_overflows`` lives in ``core.sorp`` and is
bound again in ``core.scheduler``, ``extensions.rolling`` and
``faults.contingency``) reach the wrapper too.

Layer boundaries record a span into the recorder's own
:class:`repro.obs.Tracer`; self time comes from the
:mod:`repro.obs.critpath` reducer.  Hot leaf functions (``fits_under``,
``residency_profile``, ``UsageTimeline`` construction) only count calls
and add up their time.  Wrappers record only while :attr:`Recorder.active`
is set, i.e. around the timed call, never during setup or output checks.
The program's own observability stays at ``NULL_OBS`` throughout.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from collections import Counter, defaultdict

from repro.core.costmodel import CostModel
from repro.obs import Tracer
from repro.obs.critpath import critical_paths

#: Layer boundaries: (span name, defining module, attribute path).
SPANS = (
    ("close_cycle", "repro.service", "VORService.close_cycle"),
    ("rolling", "repro.extensions.rolling", "RollingScheduler.schedule_cycle"),
    ("rolling", "repro.extensions.rolling", "RollingScheduler.amend_cycle"),
    ("ivsp", "repro.core.parallel", "ParallelIndividualScheduler.run"),
    ("sorp", "repro.core.sorp", "resolve_overflows"),
    ("rejective", "repro.core.rejective", "RejectiveGreedyScheduler.reschedule"),
    ("overflow", "repro.core.overflow", "detect_overflows"),
    ("validate", "repro.sim.validate", "validate_schedule"),
    ("billing", "repro.billing", "allocate_costs"),
    ("seal", "repro.gateway.gateway", "ReservationGateway.seal"),
    ("contingency", "repro.faults.contingency", "ContingencyScheduler.recover"),
    ("online", "repro.online.loop", "OnlineAmendmentLoop.run"),
    ("migration", "repro.horizon.migration", "MigrationPlanner.plan"),
    ("carryover", "repro.horizon.carryover", "build_resume_ledger"),
)

#: Hot leaves: a call count and summed time, no span per call.  The
#: ``SAMPLED`` ones also keep each call's time for a median.
LEAVES = (
    ("fits", "repro.core.rejective", "fits_under"),
    ("timeline", "repro.core.spacefunc", "UsageTimeline.__init__"),
    ("profile", "repro.core.spacefunc", "residency_profile"),
    ("trial_solve", "repro.core.scheduler", "VideoScheduler.solve"),
    ("quote", "repro.gateway.quote", "QuoteEngine.quote"),
    ("policy", "repro.gateway.policies", "PolicyChain.decide"),
)
SAMPLED = {"quote", "policy"}


def _count_ivsp(recorder, result):
    recorder.counts["ivsp.files"] += len(result.schedule)


def _count_sorp(recorder, result):
    stats = result[1]
    recorder.counts["sorp.rounds"] += stats.iterations
    recorder.counts["sorp.victims"] += len(stats.victims)


def _count_overflow(recorder, result):
    recorder.counts["overflow.situations"] += len(result)


def _count_contingency(recorder, result):
    recorder.counts["contingency.videos_resolved"] += result.videos_resolved


def _count_online(recorder, result):
    records = result.records
    recorder.counts["online.batches"] += result.batches_total
    recorder.counts["online.attempts"] += sum(r.attempts for r in records)
    recorder.counts["online.failed"] += sum(
        r.outcome in ("failed", "degraded_failed") for r in records
    )
    recorder.amend_s += [r.duration_s for r in records if r.duration_s > 0]


def _count_migration(recorder, result):
    recorder.counts["migration.accepted"] += len(result.accepted)
    recorder.counts["migration.rejected"] += len(result.rejected)


#: What each layer's return value adds to the recorder.
ON_RESULT = {
    "ivsp": _count_ivsp,
    "sorp": _count_sorp,
    "overflow": _count_overflow,
    "contingency": _count_contingency,
    "online": _count_online,
    "migration": _count_migration,
}


def _resolve(module_name: str, path: str):
    owner = sys.modules[module_name]
    *outer, attr = path.split(".")
    for name in outer:
        owner = getattr(owner, name)
    return owner, attr


class Recorder:
    """Spans, counts and times of one traced run."""

    def __init__(self):
        self.tracer = Tracer()
        self.counts: Counter = Counter()
        self.seconds: defaultdict = defaultdict(float)
        self.samples: defaultdict = defaultdict(list)
        #: Amendment latencies the online loop reported (``duration_s``).
        self.amend_s: list[float] = []
        #: Every cost model built while installed; lookups are read from
        #: their ``cache_stats_detail``.
        self.models: list[CostModel] = []
        self.active = False
        self._open: set[str] = set()
        self._undo: list[tuple[object, str, object]] = []

    # -- installing -------------------------------------------------------

    def install(self) -> None:
        for layer, module, path in SPANS:
            self._replace(module, path, lambda fn, layer=layer: self._span(layer, fn))
        for leaf, module, path in LEAVES:
            self._replace(module, path, lambda fn, leaf=leaf: self._leaf(leaf, fn))
        self._replace("repro.core.costmodel", "CostModel.__init__", self._registering_init)
        self._replace(
            "repro.core.costmodel", "CostModel.with_replicas", self._registering_clone
        )

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _replace(self, module: str, path: str, make) -> None:
        owner, attr = _resolve(module, path)
        original = getattr(owner, attr)
        wrapper = functools.wraps(original)(make(original))
        if isinstance(owner, type):
            self._undo.append((owner, attr, original))
            setattr(owner, attr, wrapper)
            return
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").startswith("repro") and (
                vars(mod).get(attr) is original
            ):
                self._undo.append((mod, attr, original))
                setattr(mod, attr, wrapper)

    def _span(self, layer: str, fn):
        on_result = ON_RESULT.get(layer)

        def wrapper(*args, **kwargs):
            # Nested calls of one layer stay inside its outermost span.
            if not self.active or layer in self._open:
                return fn(*args, **kwargs)
            self._open.add(layer)
            try:
                with self.tracer.span(layer):
                    result = fn(*args, **kwargs)
            finally:
                self._open.discard(layer)
            self.counts[layer] += 1
            if on_result is not None:
                on_result(self, result)
            return result

        return wrapper

    def _leaf(self, leaf: str, fn):
        samples = self.samples[leaf] if leaf in SAMPLED else None

        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t0
                self.counts[leaf] += 1
                self.seconds[leaf] += elapsed
                if samples is not None:
                    samples.append(elapsed)

        return wrapper

    def _registering_init(self, init):
        def wrapper(model, *args, **kwargs):
            init(model, *args, **kwargs)
            self.models.append(model)

        return wrapper

    def _registering_clone(self, with_replicas):
        def wrapper(model, *args, **kwargs):
            clone = with_replicas(model, *args, **kwargs)
            self.models.append(clone)
            return clone

        return wrapper

    # -- reading ----------------------------------------------------------

    def work_counts(self) -> Counter:
        """Every deterministic count so far, cost-model lookups included."""
        counts = Counter(self.counts)
        for model in self.models:
            stats = model.cache_stats_detail.combined
            counts["costmodel.lookups"] += stats.lookups
            counts["costmodel.hits"] += stats.hits
        return counts

    def forget_models(self) -> None:
        """Fold the registered models' counts in and stop following them."""
        for key, value in self.work_counts().items():
            if key.startswith("costmodel."):
                self.counts[key] = value
        self.models.clear()

    def busy_seconds(self) -> dict[str, float]:
        out: defaultdict = defaultdict(float)
        for record in self.tracer.records:
            out[record.name] += record.duration
        return out

    def self_seconds(self) -> dict[str, float]:
        """Span duration minus its direct children, per span name.

        Each span is reduced together with its children alone, so it is
        the only root and :func:`critical_paths` reports its self time.
        """
        records = self.tracer.records
        children = defaultdict(list)
        for record in records:
            children[record.parent_id].append(record)
        out: defaultdict = defaultdict(float)
        for record in records:
            (path,) = critical_paths([record, *children[record.span_id]])
            out[record.name] += path.root.self_time
        return out


def unit_of(name: str) -> str:
    """A per-layer metric's unit, read off its name's suffix."""
    stem = name.removesuffix("_p50").removesuffix("_p99")
    for suffix, unit in (("_us", "us"), ("_s", "s"), ("_ratio", "ratio")):
        if stem.endswith(suffix):
            return unit
    return "count"


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _p99(values) -> float:
    return statistics.quantiles(values, n=100)[98] if len(values) > 1 else _median(values)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(recorder: Recorder, traced, plain) -> dict[str, float]:
    """Per-layer metrics, per instance, from a traced pass.

    ``traced`` and ``plain`` are the outcomes of the traced pass and of
    the untraced pass over the same instances.  Latencies the benchmark
    times itself (intake, seal) come from the untraced pass.
    """
    counts = recorder.work_counts()
    busy = recorder.busy_seconds()
    own = recorder.self_seconds()

    def per(value):
        return value / len(traced) if traced else 0.0

    def layer_mean(key):
        return per(sum(o.layer.get(key, 0.0) for o in traced))

    intake = [t for o in plain for t in o.intake_s]
    seals = [t for o in plain if o.intake_s for t in o.solve_s]
    return {
        "ivsp.busy_s": per(busy["ivsp"]),
        "ivsp.files": per(counts["ivsp.files"]),
        "sorp.busy_s": per(busy["sorp"]),
        "sorp.self_s": per(own["sorp"]),
        "sorp.rounds": per(counts["sorp.rounds"]),
        "sorp.victims": per(counts["sorp.victims"]),
        "rejective.trials": per(counts["rejective"]),
        "rejective.busy_s": per(busy["rejective"]),
        "rejective.useful_ratio": _ratio(counts["sorp.victims"], counts["rejective"]),
        "rejective.fits_checks": per(counts["fits"]),
        "rejective.fits_s": per(recorder.seconds["fits"]),
        "overflow.sweeps": per(counts["overflow"]),
        "overflow.busy_s": per(busy["overflow"]),
        "overflow.situations": per(counts["overflow.situations"]),
        "spacefunc.timeline_builds": per(counts["timeline"]),
        "spacefunc.timeline_s": per(recorder.seconds["timeline"]),
        "spacefunc.profiles": per(counts["profile"]),
        "costmodel.lookups": per(counts["costmodel.lookups"]),
        "costmodel.hit_ratio": _ratio(counts["costmodel.hits"], counts["costmodel.lookups"]),
        "sim.validate_calls": per(counts["validate"]),
        "sim.validate_s": per(busy["validate"]),
        "sim.infeasible_ratio": layer_mean("sim.infeasible_ratio"),
        "billing.busy_s": per(busy["billing"]),
        "rolling.self_s": per(own["rolling"]),
        "service.close_cycle_s": per(busy["close_cycle"]),
        "gateway.intake_us_p50": _median(intake) * 1e6,
        "gateway.intake_us_p99": _p99(intake) * 1e6,
        "gateway.seal_s_p50": _median(seals),
        "gateway.quote_us_p50": _median(recorder.samples["quote"]) * 1e6,
        "gateway.policy_us_p50": _median(recorder.samples["policy"]) * 1e6,
        "gateway.seal_self_s": per(own["seal"]),
        "gateway.queue_depth_max": max(
            (o.layer.get("gateway.queue_depth_max", 0.0) for o in traced), default=0.0
        ),
        "gateway.shed": layer_mean("gateway.shed"),
        "gateway.refused_ratio": layer_mean("gateway.refused_ratio"),
        "contingency.recovers": per(counts["contingency"]),
        "contingency.busy_s": per(busy["contingency"]),
        "contingency.videos_resolved": per(counts["contingency.videos_resolved"]),
        "contingency.lost_ratio": layer_mean("contingency.lost_ratio"),
        "online.batches": per(counts["online.batches"]),
        "online.attempts": per(counts["online.attempts"]),
        "online.failed": per(counts["online.failed"]),
        "online.failed_ratio": _ratio(counts["online.failed"], counts["online.batches"]),
        "online.amend_s_p50": _median(recorder.amend_s),
        "migration.plan_s": per(busy["migration"]),
        "migration.trial_solves": per(counts["trial_solve"]),
        "migration.accepted": per(counts["migration.accepted"]),
        "migration.rejected": per(counts["migration.rejected"]),
        "carryover.ledger_s": per(busy["carryover"]),
    }
