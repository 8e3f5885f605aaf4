"""Command-line interface: reproduce any paper figure/table from a shell.

Usage::

    vor-repro worked-example
    vor-repro fig5 [--quick] [--seed N]
    vor-repro fig6 | fig7 | fig8 | fig9
    vor-repro table5 [--quick]
    vor-repro gap
    vor-repro ablations | contention
    vor-repro all [--quick]
    vor-repro report [--quick] [--out DIR]
    vor-repro run-env ENV.json     # schedule an environment file from disk
    vor-repro simulate ENV.json    # schedule + replay + feasibility verdict
    vor-repro run-faults ENV.json --scenario f.json   # fault drill + recovery
    vor-repro run-online ENV.json --feed f.jsonl      # online amendment loop
    vor-repro run-horizon ENV.json --cycles 3         # multi-cycle horizon
    vor-repro run-gateway ENV.json --request-feed r.jsonl  # admission gateway

``--quick`` swaps the Table 4 configuration for the scaled-down variant
(same shapes, ~20x faster).  Every command prints the reproduced table and
an ASCII rendition of the figure.

``run-env`` and ``simulate`` validate the solved schedule end-to-end; any
:class:`~repro.sim.validate.Violation` is printed and the process exits
non-zero.  ``run-faults`` injects a fault scenario (``--scenario`` JSON, or
seeded generation via ``--seed``/``--scenario-out``), prints the
degraded-mode damage and the contingency recovery, optionally writes the
machine-readable report (``--report-out``), and exits non-zero when the
patched schedule fails validation on the fault-masked topology.
``--kinds warehouse_loss`` drills a full warehouse outage; with
``--replicas full`` (or ``heat:K``, or a replica-map JSON path) on a
multi-warehouse environment the recovery re-solves every impacted request
from the surviving homes.

``run-online`` replays a fault feed (``--feed`` JSONL, or seeded
generation via ``--seed``/``--feed-events``/``--feed-out``) through the
:class:`~repro.online.OnlineAmendmentLoop`: debounced batches amend the
closed cycle incrementally (``--masking windowed`` by default), transient
failures retry with seeded backoff (``--max-retries``, ``--deadline``),
and repeated failures open a circuit breaker (``--breaker-threshold``,
``--breaker-cooldown``) that degrades to conservative whole-cycle masking
and sheds pending reservations (``--shed``, ``--cycle-fraction``).
``--inject-failures 0:2,3:1`` injects deterministic transient failures for
drills; ``--online-report-out`` writes the machine-readable run report.
The process exits non-zero when the loop ends without a valid schedule.

``run-horizon`` chains several day-cycles through the
:class:`~repro.horizon.HorizonOrchestrator`: each cycle draws a seeded
workload whose Zipf heat drifts by ``--churn`` between cycles, the
between-cycle :class:`~repro.horizon.MigrationPlanner` re-homes replicas
when the projected Ψ saving beats the priced staging transfer (disable
with ``--no-migrate``), and an optional ``--feed`` is split across cycle
boundaries so a fault window straddling two cycles is amended into both.
``--horizon-report-out`` writes the replay-invariant horizon report
(byte-identical across reruns); the process exits non-zero
when any cycle ends infeasible.

``run-gateway`` replays a booking feed (``--request-feed`` JSONL, or
seeded generation via ``--seed``/``--request-feed-out``) through the
:class:`~repro.gateway.ReservationGateway`: every arriving reservation
is pre-screened, quoted an incremental price (cheapest-copy Ψ_D vs.
residency-extension Ψ_C), and run through the ``--policy`` admission
chain (``accept-all``, ``headroom[:F]``, ``price-ceiling:X``,
``rate-limit:RATE:BURST``, comma-chained).  ``--max-batch`` and
``--queue-depth`` bound the solver-bound batch and the carryover queue;
overload sheds the lowest-priority bookings.  ``--seals`` splits the
feed into that many sealed cycles; ``--gateway-report-out`` writes the
replay-invariant gateway report (byte-identical across reruns).  The
process exits non-zero when a sealed cycle is infeasible.

Observability: ``run-env --metrics-out metrics.json --trace-out trace.jsonl``
schedules an environment with a live :class:`repro.obs.Observability` handle
and writes the metric snapshot (JSON, or Prometheus text for a ``.prom``
path) and the span log.  ``--journal-out journal.jsonl`` additionally
records the request-lifecycle audit journal (deterministic wide events;
see :mod:`repro.obs.events`) and ``--explain REQUEST_ID`` prints one
request's timeline.  ``--profile {cprofile,tracemalloc}`` wraps any
command and writes a top-N hotspot artifact to ``--profile-out``.
``--log-level`` tunes the stderr logging of every ``repro.*`` module
(default ``info``).

SLOs: ``run-online`` and ``run-gateway`` evaluate the run against an SLO
policy (``--slo policy.json``, or the command's built-in default), print
the per-SLO burn rates, and embed the indicators and the policy in
``--online-report-out``/``--gateway-report-out``;
``vor-repro slo-check report.json`` re-gates that report -- against
``--slo`` when given, else against the policy the report embeds -- and
exits non-zero on any breach.  ``vor-repro report --telemetry metrics.json
[--journal journal.jsonl]`` renders a terminal dashboard (phase wall
time, critical path, metric series, journal event mix) from previously
written artifacts.
"""

from __future__ import annotations

import argparse
import logging
import sys
import time

from repro.obs import configure_logging

from repro.experiments import (
    ExperimentRunner,
    ablation_bandwidth,
    ablation_deposit_scope,
    ablation_heat_metrics,
    contention_sweep,
    fig5,
    fig6,
    fig7,
    fig8,
    fig9,
    optimality_gap,
    paper_config,
    quick_config,
    table5,
    worked_example,
)

_FIGURES = {
    "fig5": fig5,
    "fig6": fig6,
    "fig7": fig7,
    "fig8": fig8,
    "fig9": fig9,
}
_ABLATIONS = (ablation_deposit_scope, ablation_heat_metrics, ablation_bandwidth)

_log = logging.getLogger(__name__)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vor-repro",
        description=(
            "Reproduce the evaluation of Won & Srivastava, 'Distributed "
            "Service Paradigm for Remote Video Retrieval Request' (HPDC'97)."
        ),
    )
    parser.add_argument(
        "experiment",
        choices=sorted(_FIGURES)
        + [
            "table5",
            "gap",
            "ablations",
            "contention",
            "worked-example",
            "all",
            "report",
            *_FILE_COMMANDS,
        ],
        help="which paper artifact to reproduce ('report' writes all of "
        "them to --out, or renders a terminal dashboard with --telemetry; "
        "'run-env'/'simulate'/'run-faults'/'run-online'/'run-horizon'/"
        "'run-gateway' schedule an environment JSON; 'slo-check' gates an "
        "online report JSON)",
    )
    parser.add_argument(
        "env_file",
        nargs="?",
        default=None,
        help="environment JSON for the 'run-env'/'simulate'/'run-faults'/"
        "'run-online'/'run-horizon'/'run-gateway' commands, or the online "
        "report JSON for 'slo-check'",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="use the scaled-down configuration (fast, same shapes)",
    )
    parser.add_argument(
        "--seed", type=int, default=1, help="workload seed (default 1)"
    )
    parser.add_argument(
        "--out",
        default="repro-report",
        help="output directory for the 'report' command (default ./repro-report)",
    )
    parser.add_argument(
        "--log-level",
        choices=["debug", "info", "warning", "error", "critical"],
        default="info",
        help="stderr logging verbosity for repro.* modules (default info)",
    )
    parser.add_argument(
        "--metrics-out",
        default=None,
        metavar="PATH",
        help="write the run's metric snapshot for 'run-env' "
        "(.json for a JSON telemetry bundle, .prom/.txt for Prometheus "
        "text exposition)",
    )
    parser.add_argument(
        "--trace-out",
        default=None,
        metavar="PATH",
        help="write the run's span records as JSON Lines for 'run-env'",
    )
    parser.add_argument(
        "--scenario",
        default=None,
        metavar="PATH",
        help="fault-plan JSON for 'run-faults' (omit to generate a seeded "
        "scenario from --seed)",
    )
    parser.add_argument(
        "--scenario-out",
        default=None,
        metavar="PATH",
        help="write the (possibly generated) fault plan as JSON",
    )
    parser.add_argument(
        "--report-out",
        default=None,
        metavar="PATH",
        help="write the degraded-mode + recovery report as JSON for "
        "'run-faults'",
    )
    parser.add_argument(
        "--n-faults",
        type=int,
        default=3,
        metavar="N",
        help="faults to draw when generating a scenario (default 3)",
    )
    parser.add_argument(
        "--kinds",
        default=None,
        metavar="KIND[,KIND...]",
        help="restrict generated fault kinds for 'run-faults' (comma-"
        "separated FaultKind values, e.g. 'warehouse_loss,link_down'; "
        "default: every kind except warehouse_loss)",
    )
    parser.add_argument(
        "--feed",
        default=None,
        metavar="PATH",
        help="fault-feed JSONL for 'run-online' (omit to generate a "
        "seeded feed from --seed)",
    )
    parser.add_argument(
        "--feed-events",
        type=int,
        default=4,
        metavar="N",
        help="events to draw when generating a feed (default 4)",
    )
    parser.add_argument(
        "--feed-out",
        default=None,
        metavar="PATH",
        help="write the (possibly generated) fault feed as JSONL",
    )
    parser.add_argument(
        "--debounce",
        type=float,
        default=0.0,
        metavar="SECONDS",
        help="batch feed events arriving within this many virtual seconds "
        "of each other (default 0: one batch per arrival instant)",
    )
    parser.add_argument(
        "--deadline",
        type=float,
        default=None,
        metavar="SECONDS",
        help="wall-clock budget per amendment attempt; overruns are "
        "retried as transient failures (default: no deadline)",
    )
    parser.add_argument(
        "--max-retries",
        type=int,
        default=3,
        metavar="N",
        help="retry attempts per amendment batch (default 3)",
    )
    parser.add_argument(
        "--breaker-threshold",
        type=int,
        default=3,
        metavar="N",
        help="consecutive failed batches that open the circuit breaker "
        "(default 3)",
    )
    parser.add_argument(
        "--breaker-cooldown",
        type=float,
        default=0.0,
        metavar="SECONDS",
        help="virtual seconds the breaker stays open before a half-open "
        "probe (default 0)",
    )
    parser.add_argument(
        "--shed",
        type=int,
        default=1,
        metavar="N",
        help="pending reservations shed per degraded batch (default 1)",
    )
    parser.add_argument(
        "--masking",
        choices=["cycle", "windowed"],
        default="windowed",
        help="recovery stance for normal online operation (default "
        "windowed; degraded batches always fall back to cycle)",
    )
    parser.add_argument(
        "--cycle-fraction",
        type=float,
        default=1.0,
        metavar="F",
        help="close the cycle at start + F * span of the workload; "
        "later reservations stay pending and are sheddable in degraded "
        "mode (default 1.0: schedule everything)",
    )
    parser.add_argument(
        "--inject-failures",
        default=None,
        metavar="SPEC",
        help="deterministic transient-failure injection for 'run-online', "
        "e.g. '0:2,3:1' fails batch 0 twice and batch 3 once",
    )
    parser.add_argument(
        "--online-report-out",
        default=None,
        metavar="PATH",
        help="write the online run report as JSON for 'run-online'",
    )
    parser.add_argument(
        "--replicas",
        default=None,
        metavar="SPEC",
        help="replica placement for the environment commands: 'full' "
        "(every video at every warehouse), 'heat' or 'heat:K' (heat-driven "
        "placement with degree K), or a replica-map JSON path",
    )
    parser.add_argument(
        "--journal-out",
        default=None,
        metavar="PATH",
        help="record the request-lifecycle audit journal during an "
        "environment command and write it as JSON Lines (deterministic: "
        "identical runs produce byte-identical files)",
    )
    parser.add_argument(
        "--explain",
        default=None,
        metavar="REQUEST_ID",
        help="print the journal timeline of one request after an "
        "environment command (implies journal recording), e.g. "
        "'user01/video0003@5400->IS2'",
    )
    parser.add_argument(
        "--slo",
        default=None,
        metavar="PATH",
        help="SLO policy JSON for 'run-online'/'run-gateway'/'slo-check' "
        "(default: the command's built-in policy; 'slo-check' re-gates "
        "against the policy the report embeds)",
    )
    parser.add_argument(
        "--profile",
        choices=["cprofile", "tracemalloc"],
        default=None,
        help="profile the command and write a top-N hotspot artifact "
        "(--profile-out)",
    )
    parser.add_argument(
        "--profile-out",
        default="profile.json",
        metavar="PATH",
        help="hotspot artifact path for --profile (default profile.json)",
    )
    parser.add_argument(
        "--telemetry",
        default=None,
        metavar="PATH",
        help="for 'report': render a terminal dashboard from a "
        "--metrics-out JSON telemetry bundle instead of regenerating the "
        "paper artifacts",
    )
    parser.add_argument(
        "--journal",
        default=None,
        metavar="PATH",
        help="for 'report': include a --journal-out JSONL in the dashboard "
        "(event mix; timelines via --explain)",
    )
    parser.add_argument(
        "--cycles",
        type=int,
        default=3,
        metavar="N",
        help="cycles in the 'run-horizon' horizon (default 3)",
    )
    parser.add_argument(
        "--cycle-length",
        type=float,
        default=86400.0,
        metavar="SECONDS",
        help="virtual length of each horizon cycle (default 86400: one day)",
    )
    parser.add_argument(
        "--churn",
        type=float,
        default=0.5,
        metavar="F",
        help="fraction of popularity ranks reassigned between horizon "
        "cycles (default 0.5)",
    )
    parser.add_argument(
        "--users",
        type=int,
        default=4,
        metavar="N",
        help="users per neighborhood in each generated horizon cycle "
        "(default 4)",
    )
    parser.add_argument(
        "--no-migrate",
        action="store_true",
        help="freeze the initial replica map for the whole horizon "
        "(skip the between-cycle migration planner)",
    )
    parser.add_argument(
        "--degree",
        type=int,
        default=1,
        metavar="K",
        help="replica degree for the migration planner's candidate "
        "placement, and for the default heat placement when --replicas "
        "is omitted (default 1)",
    )
    parser.add_argument(
        "--staging-window",
        type=float,
        default=3600.0,
        metavar="SECONDS",
        help="tape-drive budget window for accepted migrations; 0 "
        "disables the budget (default 3600)",
    )
    parser.add_argument(
        "--horizon-report-out",
        default=None,
        metavar="PATH",
        help="write the horizon report as JSON for 'run-horizon' "
        "(replay-invariant: identical runs produce byte-identical files)",
    )
    parser.add_argument(
        "--horizon-report",
        default=None,
        metavar="PATH",
        help="for 'report': include a --horizon-report-out JSON in the "
        "dashboard (per-cycle Ψ trajectory, migrations, resumes)",
    )
    parser.add_argument(
        "--request-feed",
        default=None,
        metavar="PATH",
        help="booking-feed JSONL for 'run-gateway' (omit to generate a "
        "seeded feed from --seed)",
    )
    parser.add_argument(
        "--request-feed-out",
        default=None,
        metavar="PATH",
        help="write the (possibly generated) booking feed as JSONL",
    )
    parser.add_argument(
        "--policy",
        default="accept-all",
        metavar="SPEC",
        help="admission policy chain for 'run-gateway': comma-chained "
        "'accept-all', 'headroom[:FRACTION]', 'price-ceiling:DOLLARS', "
        "'rate-limit:RATE:BURST' (default accept-all)",
    )
    parser.add_argument(
        "--max-batch",
        type=int,
        default=0,
        metavar="N",
        help="solver-bound batch depth per gateway cycle; 0 = unbounded "
        "(default 0)",
    )
    parser.add_argument(
        "--queue-depth",
        type=int,
        default=0,
        metavar="N",
        help="bounded pending queue behind a full gateway batch; 0 "
        "disables queueing, overflow sheds (default 0)",
    )
    parser.add_argument(
        "--seals",
        type=int,
        default=1,
        metavar="N",
        help="sealed cycles for 'run-gateway': the booking span is split "
        "into N cycles, the last boundary covers every showing (default 1)",
    )
    parser.add_argument(
        "--gateway-report-out",
        default=None,
        metavar="PATH",
        help="write the gateway run report as JSON for 'run-gateway' "
        "(replay-invariant: identical runs produce byte-identical files)",
    )
    parser.add_argument(
        "--gateway-report",
        default=None,
        metavar="PATH",
        help="for 'report': include a --gateway-report-out JSON in the "
        "dashboard (per-cycle intake counters, quote reconciliation)",
    )
    return parser


def _runner(args: argparse.Namespace) -> ExperimentRunner:
    cfg = quick_config() if args.quick else paper_config()
    cfg = cfg.but(workload_seed=args.seed)
    return ExperimentRunner(cfg)


def _run_one(name: str, args: argparse.Namespace) -> None:
    t0 = time.perf_counter()
    if name == "worked-example":
        print(worked_example().as_table())
    elif name in _FIGURES:
        runner = _runner(args)
        print(_FIGURES[name](runner).render())
    elif name == "table5":
        runner = _runner(args)
        print(table5(runner).as_table())
    elif name == "gap":
        print(optimality_gap().as_table())
    elif name == "contention":
        cfg = quick_config(n_files=150) if args.quick else paper_config()
        users = (4, 10, 24) if args.quick else (5, 10, 20, 40)
        print(contention_sweep(cfg, users_axis=users).as_table())
    elif name == "ablations":
        runner = _runner(args)
        for ablation in _ABLATIONS:
            print(ablation(runner).as_table())
            print()
    else:  # pragma: no cover - argparse restricts choices
        raise SystemExit(f"unknown experiment {name!r}")
    _log.info("%s completed in %.1fs", name, time.perf_counter() - t0)


def _write_report(args: argparse.Namespace) -> None:
    """Regenerate every artifact and write it under ``--out``."""
    import pathlib

    out = pathlib.Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    runner = _runner(args)
    artifacts: dict[str, str] = {
        "worked_example": worked_example().as_table(),
    }
    for name, fn in _FIGURES.items():
        artifacts[name] = fn(runner).render()
    artifacts["table5"] = table5(runner).as_table()
    artifacts["optimality_gap"] = optimality_gap().as_table()
    for ablation in _ABLATIONS:
        artifacts[ablation.__name__] = ablation(runner).as_table()
    for name, text in artifacts.items():
        path = out / f"{name}.txt"
        path.write_text(text + "\n")
        _log.info("wrote %s", path)
    index = out / "INDEX.txt"
    index.write_text(
        "\n".join(f"{k}.txt" for k in artifacts) + "\n"
    )
    _log.info("wrote %s", index)


def _parse_replicas(spec, topology, catalog, batch, *, seed: int):
    """Build the :class:`~repro.replication.ReplicaMap` a --replicas asks for."""
    from repro.errors import ReplicationError
    from repro.replication import ReplicaMap

    if spec is None:
        return None
    try:
        if spec == "full":
            return ReplicaMap.full_copy(topology, catalog)
        if spec == "heat" or spec.startswith("heat:"):
            degree = 1
            if spec.startswith("heat:"):
                try:
                    degree = int(spec.split(":", 1)[1])
                except ValueError:
                    raise SystemExit(
                        f"invalid --replicas degree in {spec!r}"
                    ) from None
            return ReplicaMap.heat_placement(
                topology, catalog, batch, degree=degree, seed=seed
            )
        return ReplicaMap.load(spec)
    except ReplicationError as exc:
        raise SystemExit(f"invalid --replicas {spec!r}: {exc}") from exc


def _parse_kinds(spec):
    """Comma-separated FaultKind values -> tuple, or None for the default."""
    from repro.faults.plan import FaultKind

    if spec is None:
        return None
    kinds = []
    for token in spec.split(","):
        token = token.strip()
        if not token:
            continue
        try:
            kinds.append(FaultKind(token))
        except ValueError:
            valid = ", ".join(k.value for k in FaultKind)
            raise SystemExit(
                f"unknown fault kind {token!r} (valid: {valid})"
            ) from None
    if not kinds:
        raise SystemExit("--kinds names no fault kind")
    return tuple(kinds)


class _EnvRun:
    """What every environment command shares.

    Opening one requires and loads the environment file and builds the
    observability handle that ``--metrics-out``/``--trace-out``/
    ``--journal-out``/``--explain`` ask for; its methods place replicas,
    load or generate a feed, gate an SLO policy and write the telemetry,
    so each command body keeps only its own logic.
    """

    def __init__(self, args: argparse.Namespace, *, needs_batch=True) -> None:
        from repro.io import load_environment
        from repro.obs import NULL_OBS, Observability

        if not args.env_file:
            raise SystemExit(
                f"{args.experiment} requires an environment JSON path"
            )
        self.args = args
        self.topology, self.catalog, self.batch = load_environment(
            args.env_file
        )
        if needs_batch and self.batch is None:
            raise SystemExit(
                f"{args.env_file} contains no 'requests' section to schedule"
            )
        want_journal = bool(args.journal_out or args.explain)
        self.telemetry = bool(
            args.metrics_out or args.trace_out or want_journal
        )
        self.obs = (
            Observability.on(journal=want_journal)
            if self.telemetry
            else NULL_OBS
        )

    @property
    def horizon(self) -> tuple[float, float]:
        """The window seeded faults are drawn in: the batch's showings
        plus the longest playback."""
        t0, t1 = self.batch.span
        return (t0, t1 + max(v.playback for v in self.catalog))

    def replicas(self, batch, default=None):
        """The replica map ``--replicas`` (else the ``default`` spec) asks
        for; heat placements follow ``batch``."""
        return _parse_replicas(
            self.args.replicas or default, self.topology, self.catalog,
            batch, seed=self.args.seed,
        )

    def solve(self):
        """Solve the environment's batch: ``(scheduler, result)``."""
        from repro.core.scheduler import VideoScheduler

        scheduler = VideoScheduler(
            self.topology, self.catalog, obs=self.obs,
            replicas=self.replicas(self.batch),
        )
        return scheduler, scheduler.solve(self.batch)

    def feed(self, cls, path, out, *, flag: str, unit: str, generate=None):
        """Load a ``cls`` feed from ``path`` (the ``flag`` option), else
        ``generate()`` one; echo it to ``out``.

        Without ``generate`` a missing ``path`` yields ``None``.  Load
        failures exit with a one-line diagnostic.
        """
        if path:
            try:
                feed = cls.load(path)
            except cls.error as exc:
                raise SystemExit(f"invalid {flag}: {exc}") from exc
            _log.info("loaded %d %s(s) from %s", len(feed), unit, path)
        elif generate is None:
            if out:
                raise SystemExit(
                    f"{flag}-out needs {flag}: {self.args.experiment} "
                    f"does not generate a {cls.noun}"
                )
            return None
        else:
            feed = generate()
            _log.info(
                "generated %d %s(s) from seed %d", len(feed), unit,
                self.args.seed,
            )
        if out:
            feed.save(out)
            _log.info("wrote %s to %s", cls.noun, out)
        return feed

    def gate(self, indicators: dict, default) -> dict:
        """Evaluate the ``--slo`` policy (else ``default()``) on
        ``indicators``: record the burn gauges, print the verdict, and
        return the report's ``slo`` section."""
        policy = _slo_policy(self.args, default)
        evaluation = policy.evaluate(indicators)
        evaluation.record(self.obs.metrics)
        print(evaluation.format_report())
        return {
            "indicators": indicators,
            "policy": policy.to_dict(),
            "evaluation": evaluation.to_dict(),
        }

    def write_telemetry(self) -> None:
        from repro.obs import (
            write_journal_jsonl,
            write_metrics,
            write_trace_jsonl,
        )

        args, obs = self.args, self.obs
        if args.metrics_out:
            write_metrics(args.metrics_out, obs)
            _log.info("wrote metrics snapshot to %s", args.metrics_out)
        if args.trace_out:
            write_trace_jsonl(args.trace_out, obs.tracer.records)
            _log.info(
                "wrote %d span record(s) to %s",
                len(obs.tracer.records),
                args.trace_out,
            )
        if args.journal_out:
            write_journal_jsonl(args.journal_out, obs.journal)
            _log.info(
                "wrote %d journal event(s) to %s",
                len(obs.journal),
                args.journal_out,
            )
        if args.explain:
            print(obs.journal.format_timeline(args.explain))


def _slo_policy(args: argparse.Namespace, default):
    """The ``--slo`` policy file, else ``default()``; a bad policy exits
    with a one-line diagnostic."""
    from repro.obs.slo import SLOError, SLOPolicy

    try:
        return SLOPolicy.load(args.slo) if args.slo else default()
    except SLOError as exc:
        source = "--slo" if args.slo else "embedded slo.policy"
        raise SystemExit(f"invalid {source}: {exc}") from exc


def _read_json(path, flag: str | None = None):
    """Parse a JSON artifact; unreadable or non-JSON files exit."""
    import json
    import pathlib

    try:
        return json.loads(pathlib.Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        label = f"{flag} {path}" if flag else path
        raise SystemExit(f"cannot read {label}: {exc}") from exc


def _write_json(path, doc: dict, what: str) -> None:
    """Write ``doc`` as sorted, indented JSON to ``path`` (if given)."""
    import json
    import pathlib

    if not path:
        return
    pathlib.Path(path).write_text(
        json.dumps(doc, indent=2, sort_keys=True) + "\n"
    )
    _log.info("wrote %s to %s", what, path)


def _report_violations(violations) -> int:
    """Print ``violations`` (if any); return the exit code they imply."""
    if not violations:
        return 0
    print(f"INFEASIBLE: {len(violations)} violation(s)")
    for v in violations:
        print(f"  {v}")
    return 1


#: Per-cycle table columns: header -> key of a report's cycle dict.
_HORIZON_COLUMNS = {
    "cycle": "index",
    "requests": "requests",
    "psi net ($)": "psi_net",
    "fault events": "fault_events",
    "carried": "carried_events",
    "resumed": "resumed",
    "restarted": "restarted",
}
_GATEWAY_COLUMNS = {
    "cycle": "index",
    "offered": "offered",
    "admitted": "admitted",
    "promoted": "promoted",
    "rejected": "rejected",
    "queued": "queued",
    "shed": "shed",
    "quoted ($)": "quote_total",
    "realized ($)": "realized_total",
    "quote error": "quote_error",
}


def _cycle_table(cycles: list[dict], columns: dict, title: str) -> str:
    """One row per cycle dict of a horizon or gateway report, plus the
    feasibility verdict; a per-reason count (``rejected``) is totalled."""
    from repro.analysis import format_table

    def cell(value):
        return sum(value.values()) if isinstance(value, dict) else value

    return format_table(
        [*columns, "feasible"],
        [
            [cell(c.get(key)) for key in columns.values()]
            + ["yes" if c.get("feasible") else "NO"]
            for c in cycles
        ],
        title=title,
    )


def _run_environment(args: argparse.Namespace) -> int:
    """Schedule an environment file from disk and print the outcome.

    Returns a non-zero exit code (printing every
    :class:`~repro.sim.validate.Violation`) when the solved schedule fails
    end-to-end validation.
    """
    from repro.analysis import format_table
    from repro.baselines import network_only_cost
    from repro.core.costmodel import CostModel
    from repro.sim.engine import SimulationEngine
    from repro.sim.validate import validate_schedule

    env = _EnvRun(args)
    batch = env.batch
    scheduler, result = env.solve()
    if env.telemetry:
        # replay the schedule so the snapshot carries the simulate span
        # and the per-resource peak gauges
        SimulationEngine(scheduler.cost_model, obs=env.obs).run(
            result.schedule
        )
    cm = CostModel(env.topology, env.catalog)
    env.write_telemetry()
    print(
        format_table(
            ["quantity", "value"],
            [
                ["requests", len(batch)],
                ["deliveries", len(result.schedule.deliveries)],
                ["residencies", len(result.schedule.residencies)],
                ["network cost ($)", result.cost.network],
                ["storage cost ($)", result.cost.storage],
                ["total cost ($)", result.total_cost],
                ["network-only baseline ($)", network_only_cost(batch, cm)],
                ["overflow fixes", result.resolution.iterations],
                [
                    "cost-cache hit rate",
                    f"{100 * result.cache_hit_rate:.1f} % "
                    f"({result.cache_stats.hits}/{result.cache_stats.lookups})",
                ],
            ],
            title=f"schedule for {args.env_file}",
        )
    )
    return _report_violations(
        validate_schedule(result.schedule, batch, scheduler.cost_model)
    )


def _simulate_environment(args: argparse.Namespace) -> int:
    """Schedule, replay, and judge an environment file.

    Prints the replay's event/peak statistics and the feasibility verdict;
    exits non-zero with every violation listed when the schedule is
    infeasible.
    """
    from repro.analysis import format_table
    from repro.sim.engine import SimulationEngine
    from repro.sim.validate import validate_schedule

    env = _EnvRun(args)
    scheduler, result = env.solve()
    report = SimulationEngine(scheduler.cost_model, obs=env.obs).run(
        result.schedule
    )
    env.write_telemetry()
    t0, t1 = report.makespan
    peak_storage = max(
        (load.reserved_peak for load in report.storages.values()), default=0.0
    )
    peak_link = max((load.peak for load in report.links.values()), default=0.0)
    print(
        format_table(
            ["quantity", "value"],
            [
                ["requests", len(env.batch)],
                ["events replayed", len(report.trace)],
                ["streams", report.n_streams],
                ["residencies", report.n_residencies],
                ["makespan (s)", t1 - t0],
                ["peak reserved storage (bytes)", peak_storage],
                ["peak link bandwidth (B/s)", peak_link],
                ["total cost ($)", result.total_cost],
            ],
            title=f"simulation of {args.env_file}",
        )
    )
    if _report_violations(
        validate_schedule(result.schedule, env.batch, scheduler.cost_model)
    ):
        return 1
    print("feasible: no violations")
    return 0


def _run_faults(args: argparse.Namespace) -> int:
    """Fault drill: inject a scenario, report damage, recover, re-validate.

    Returns non-zero when the patched schedule fails validation on the
    fault-masked topology (the recovery contract), printing the violations.
    """
    from repro.analysis import format_table
    from repro.errors import FaultError
    from repro.faults.contingency import ContingencyScheduler
    from repro.faults.inject import masked_cost_model, masked_topology
    from repro.faults.plan import FaultPlan
    from repro.faults.report import build_degraded_report
    from repro.sim.validate import validate_schedule
    from repro.workload.requests import RequestBatch

    env = _EnvRun(args)
    topology, batch = env.topology, env.batch
    scheduler, result = env.solve()
    if args.scenario:
        plan = FaultPlan.load(args.scenario)
        _log.info("loaded %d fault(s) from %s", len(plan), args.scenario)
    else:
        plan = FaultPlan.generate(
            topology,
            seed=args.seed,
            horizon=env.horizon,
            n_faults=args.n_faults,
            kinds=_parse_kinds(args.kinds),
        )
        _log.info("generated %d fault(s) from seed %d", len(plan), args.seed)
    if args.scenario_out:
        plan.save(args.scenario_out)
        _log.info("wrote fault scenario to %s", args.scenario_out)

    degraded = build_degraded_report(
        result.schedule, scheduler.cost_model, plan, obs=env.obs
    )
    recovery = ContingencyScheduler(scheduler.cost_model, obs=env.obs).recover(
        result.schedule, plan, batch=batch
    )
    env.write_telemetry()

    print(
        format_table(
            ["quantity", "value"],
            [
                ["faults injected", len(plan)],
                ["requests", len(batch)],
                ["requests dropped (degraded)", degraded.requests_dropped],
                ["requests late (degraded)", degraded.requests_late],
                ["stranded residencies", len(degraded.stranded)],
                ["impacted videos", recovery.videos_resolved],
                ["requests saved", recovery.requests_saved],
                ["requests lost", recovery.requests_lost],
                ["psi before ($)", recovery.cost_before.total],
                ["psi after ($)", recovery.cost_after.total],
                ["psi delta ($)", recovery.cost_delta],
                [
                    "recovery overflow fixes",
                    0
                    if recovery.resolution is None
                    else recovery.resolution.iterations,
                ],
            ],
            title=f"fault drill for {args.env_file} [{plan.name or 'scenario'}]",
        )
    )

    try:
        masked_cm = masked_cost_model(
            scheduler.cost_model, masked_topology(topology, plan)
        )
    except FaultError:
        # total warehouse loss: the patched schedule holds only unimpacted
        # files, which the healthy model can judge
        masked_cm = scheduler.cost_model
    lost = set(recovery.lost)
    surviving = RequestBatch(r for r in batch if r not in lost)
    violations = validate_schedule(recovery.schedule, surviving, masked_cm)
    _write_json(
        args.report_out,
        {
            "environment": str(args.env_file),
            "degraded": degraded.to_json_dict(),
            "recovery": recovery.to_json_dict(),
            "patched_violations": [
                {"kind": v.kind, "message": v.message} for v in violations
            ],
        },
        "fault report",
    )
    if _report_violations(violations):
        return 1
    print("recovery feasible: patched schedule valid on masked topology")
    return 0


def _run_online(args: argparse.Namespace) -> int:
    """Online drill: replay a fault feed through the amendment loop.

    Loads the environment into a :class:`~repro.service.VORService`,
    closes the cycle, then drives
    :class:`~repro.online.OnlineAmendmentLoop` with the feed (loaded from
    ``--feed`` JSONL or generated from ``--seed``).  Exits non-zero when
    the loop ends without a valid schedule.  Malformed or unreadable
    feeds exit non-zero with a one-line diagnostic.
    """
    from repro.analysis import format_table
    from repro.errors import ReproError, ScheduleError
    from repro.faults.feed import FaultFeed
    from repro.obs.slo import SLOPolicy, online_indicators
    from repro.online import (
        OnlineAmendmentLoop,
        OnlineLoopConfig,
        OnlineError,
        TransientFailureInjector,
    )
    from repro.service import VORService

    env = _EnvRun(args)
    if not 0.0 < args.cycle_fraction <= 1.0:
        raise SystemExit(
            f"--cycle-fraction must be in (0, 1], got {args.cycle_fraction}"
        )
    batch = env.batch
    replicas = env.replicas(batch)
    feed = env.feed(
        FaultFeed, args.feed, args.feed_out, flag="--feed", unit="event",
        generate=lambda: FaultFeed.generate(
            env.topology,
            seed=args.seed,
            horizon=env.horizon,
            n_events=args.feed_events,
            kinds=_parse_kinds(args.kinds),
        ),
    )
    try:
        config = OnlineLoopConfig(
            debounce=args.debounce,
            deadline=args.deadline,
            max_retries=args.max_retries,
            seed=args.seed,
            breaker_threshold=args.breaker_threshold,
            breaker_cooldown=args.breaker_cooldown,
            shed_per_degraded_batch=args.shed,
            masking=args.masking,
        )
        injector = (
            TransientFailureInjector.parse(args.inject_failures)
            if args.inject_failures
            else None
        )
    except (OnlineError, ScheduleError) as exc:
        raise SystemExit(f"invalid online options: {exc}") from exc

    service = VORService(
        env.topology,
        env.catalog,
        lead_time=0.0,
        obs=env.obs,
        replicas=replicas,
    )
    for r in batch:
        service.reserve(
            r.user_id, r.video_id, r.start_time,
            local_storage=r.local_storage, now=0.0,
        )
    t0, t1 = batch.span
    report = service.close_cycle(
        cycle_end=t0 + args.cycle_fraction * (t1 - t0)
    )
    if not report.feasible:
        return _report_violations(report.violations)

    loop = OnlineAmendmentLoop(
        service, config, obs=env.obs, failure_injector=injector
    )
    try:
        run = loop.run(feed, report)
    except ReproError as exc:
        raise SystemExit(f"online run failed: {exc}") from exc

    print(
        format_table(
            ["quantity", "value"],
            [
                ["feed events", run.events_total],
                ["amendment batches", run.batches_total],
                ["batches amended", run.amended],
                ["degraded batches", run.degraded_batches],
                ["retries", run.retries_total],
                ["deadline misses", run.deadline_misses],
                ["failures injected", run.failures_injected],
                ["reservations shed", run.shed_total],
                ["breaker state", loop.breaker.state],
                ["masking", config.masking],
            ],
            title=f"online drill for {args.env_file} [{feed.name or 'feed'}]",
        )
    )
    print(run.summary())
    slo = env.gate(
        online_indicators(run, reservations=len(batch)), SLOPolicy.default
    )
    env.write_telemetry()
    _write_json(
        args.online_report_out,
        {
            "environment": str(args.env_file),
            "feed": feed.name,
            "seed": feed.seed,
            "alive": run.alive,
            "final_feasible": (
                run.final.feasible if run.final is not None else False
            ),
            "deadline_misses": run.deadline_misses,
            "deterministic": run.deterministic_dict(),
            "slo": slo,
        },
        "online report",
    )
    if run.final is None or not run.final.feasible:
        print("online run ended without a valid schedule")
        return 1
    print("online run alive: final schedule valid")
    return 0


def _run_horizon(args: argparse.Namespace) -> int:
    """Multi-cycle drill: chained cycles, migration, boundary fault feeds.

    Loads the environment's topology and catalog (any ``requests``
    section is ignored -- the horizon generates one drifting batch per
    cycle from ``--seed``), runs the
    :class:`~repro.horizon.HorizonOrchestrator`, prints the per-cycle
    table and summary, and exits non-zero when any cycle ends
    infeasible.
    """
    from repro.errors import ReproError
    from repro.faults.feed import FaultFeed
    from repro.horizon import (
        HorizonConfig,
        HorizonOrchestrator,
        MigrationConfig,
        generate_drifting_cycles,
    )
    from repro.online import OnlineLoopConfig

    env = _EnvRun(args, needs_batch=False)
    if env.batch is not None:
        _log.info(
            "ignoring the environment's %d-request batch: run-horizon "
            "generates one drifting batch per cycle from --seed",
            len(env.batch),
        )
    if args.cycles < 1:
        raise SystemExit(f"--cycles must be >= 1, got {args.cycles}")
    if args.cycle_length <= 0:
        raise SystemExit(
            f"--cycle-length must be positive, got {args.cycle_length}"
        )
    feed = env.feed(
        FaultFeed, args.feed, args.feed_out, flag="--feed", unit="event"
    )
    cycles = generate_drifting_cycles(
        env.topology,
        env.catalog,
        cycles=args.cycles,
        cycle_length=args.cycle_length,
        seed=args.seed,
        churn=args.churn,
        users_per_neighborhood=args.users,
    )
    # migration needs explicit homes to move; default to the same heat
    # placement --replicas heat:K would build
    replicas = env.replicas(
        cycles[0][0], default=None if args.no_migrate else f"heat:{args.degree}"
    )
    migration = (
        None
        if args.no_migrate
        else MigrationConfig(
            degree=args.degree,
            seed=args.seed,
            staging_window=args.staging_window or None,
        )
    )
    config = HorizonConfig(
        migration=migration,
        online=OnlineLoopConfig(
            debounce=args.debounce, masking=args.masking, seed=args.seed
        ),
    )
    try:
        orchestrator = HorizonOrchestrator(
            env.topology,
            env.catalog,
            replicas=replicas,
            obs=env.obs,
            config=config,
        )
        report = orchestrator.run(cycles, feed=feed)
    except ReproError as exc:
        raise SystemExit(f"horizon run failed: {exc}") from exc

    doc = {
        "environment": str(args.env_file),
        "seed": args.seed,
        "cycles_requested": args.cycles,
        "cycle_length": args.cycle_length,
        "churn": args.churn,
        "migration": not args.no_migrate,
        "feed": feed.name if feed is not None else None,
        "deterministic": report.to_json_dict(),
    }
    print(
        _cycle_table(
            doc["deterministic"]["cycles"],
            _HORIZON_COLUMNS,
            title=f"horizon for {args.env_file} "
            f"[{args.cycles} cycle(s), seed {args.seed}, "
            f"{'frozen' if args.no_migrate else 'migrating'}]",
        )
    )
    print(report.summary())
    env.write_telemetry()
    _write_json(args.horizon_report_out, doc, "horizon report")
    if not report.feasible:
        print("horizon ended with an infeasible cycle")
        return 1
    print("horizon feasible: every cycle valid")
    return 0


def _run_gateway(args: argparse.Namespace) -> int:
    """Admission drill: replay a booking feed through the gateway.

    Loads the environment's topology and catalog (any ``requests``
    section is ignored -- the bookings come from the feed), builds the
    ``--policy`` admission chain and the backpressure envelope, and seals
    ``--seals`` cycles into a :class:`~repro.service.VORService`.  Exits
    non-zero when a sealed cycle is infeasible.  Malformed feeds and
    policy specs exit non-zero with a one-line diagnostic.
    """
    from repro.errors import GatewayError, ReproError
    from repro.gateway import (
        GatewayConfig,
        RequestFeed,
        ReservationGateway,
        build_policy,
    )
    from repro.obs.slo import SLOPolicy, gateway_indicators
    from repro.service import VORService

    env = _EnvRun(args, needs_batch=False)
    if args.seals < 1:
        raise SystemExit(f"--seals must be >= 1, got {args.seals}")
    feed = env.feed(
        RequestFeed, args.request_feed, args.request_feed_out,
        flag="--request-feed", unit="booking",
        generate=lambda: RequestFeed.generate(
            env.topology,
            env.catalog,
            seed=args.seed,
            users_per_neighborhood=args.users,
        ),
    )
    if not feed:
        raise SystemExit("request feed is empty: nothing to gate")
    replicas = env.replicas(feed.batch())
    try:
        policy = build_policy(
            args.policy, topology=env.topology, catalog=env.catalog
        )
        config = GatewayConfig(
            max_batch=args.max_batch, queue_depth=args.queue_depth
        )
    except GatewayError as exc:
        raise SystemExit(f"invalid gateway options: {exc}") from exc

    service = VORService(
        env.topology, env.catalog, obs=env.obs, replicas=replicas
    )
    gateway = ReservationGateway(service, policy=policy, config=config)

    # Intermediate boundaries split the booking span; the last one covers
    # every showing so the final seal leaves nothing due.
    a0, a1 = feed.span
    last = max(a1, feed.showing_span[1])
    boundaries = [
        a0 + (i + 1) / args.seals * (a1 - a0) for i in range(args.seals - 1)
    ]
    boundaries.append(last)

    try:
        run = gateway.run(feed, boundaries)
    except ReproError as exc:
        raise SystemExit(f"gateway run failed: {exc}") from exc

    doc = {
        "environment": str(args.env_file),
        "seed": feed.seed,
        "policy": args.policy,
        "max_batch": args.max_batch,
        "queue_depth": args.queue_depth,
        "seals": args.seals,
        **run.to_json_dict(),
    }
    print(
        _cycle_table(
            doc["deterministic"]["cycles"],
            _GATEWAY_COLUMNS,
            title=f"gateway for {args.env_file} "
            f"[{feed.name or 'feed'}, policy {args.policy}]",
        )
    )
    print(run.summary())
    doc["slo"] = env.gate(gateway_indicators(run), SLOPolicy.gateway_default)
    env.write_telemetry()
    _write_json(args.gateway_report_out, doc, "gateway report")
    if not run.feasible:
        print("gateway run ended with an infeasible cycle")
        return 1
    print("gateway run feasible: every sealed cycle valid")
    return 0


def _slo_check(args: argparse.Namespace) -> int:
    """Gate a run report JSON against an SLO policy (non-zero on breach).

    Reads the ``slo`` section that ``run-online --online-report-out`` and
    ``run-gateway --gateway-report-out`` embed and re-evaluates its
    indicators against ``--slo``, or, without it, against the policy the
    report embeds (``slo.policy``, the one the run was gated with).
    Prints the verdict and exits 1 when any SLO is breached.
    """
    from repro.obs.slo import SLOPolicy

    if not args.env_file:
        raise SystemExit("slo-check requires an online report JSON path")
    slo = _read_json(args.env_file).get("slo") or {}
    indicators = slo.get("indicators")
    if not isinstance(indicators, dict):
        raise SystemExit(
            f"{args.env_file} has no 'slo.indicators' section (write one "
            "with 'run-online --online-report-out' or 'run-gateway "
            "--gateway-report-out')"
        )
    if not args.slo and "policy" not in slo:
        raise SystemExit(
            f"{args.env_file} embeds no 'slo.policy' to re-gate against "
            "(pass --slo POLICY.json)"
        )
    policy = _slo_policy(args, lambda: SLOPolicy.from_dict(slo["policy"]))
    report = policy.evaluate(indicators)
    print(report.format_report())
    if not report.ok:
        for r in report.breaches:
            _log.error(
                "SLO %s breached: %s %s %g, measured %g",
                r.spec.name, r.spec.indicator, r.spec.op, r.spec.objective,
                r.value,
            )
        return 1
    return 0


def _report_dashboard(args: argparse.Namespace) -> int:
    """Terminal dashboard over run artifacts (``report --telemetry ...``).

    Renders phase wall-time totals, the stitched critical path, the
    deterministic metric families, and (with ``--journal``) the event mix
    and per-request timelines from a journal JSONL.
    """
    from repro.analysis import ascii_chart, format_table
    from repro.analysis.series import Series
    from repro.obs import (
        JournalError,
        SpanRecord,
        format_critical_paths,
        load_journal_jsonl,
    )

    doc = _read_json(args.telemetry, "--telemetry") if args.telemetry else {}

    phases = doc.get("phases") or {}
    if phases:
        rows = [
            [name, agg["count"], agg["total_seconds"], agg["max_seconds"]]
            for name, agg in phases.items()
        ]
        print(
            format_table(
                ["phase", "spans", "total s", "max s"],
                rows,
                title=f"phase wall time [{args.telemetry}]",
                float_fmt="{:.4f}",
            )
        )
        busiest = sorted(
            phases.items(), key=lambda kv: -kv[1]["total_seconds"]
        )[:8]
        if len(busiest) > 1:
            print()
            print(
                ascii_chart(
                    [
                        Series(
                            "total seconds",
                            x=tuple(float(i) for i in range(len(busiest))),
                            y=tuple(v["total_seconds"] for _, v in busiest),
                        )
                    ],
                    title="wall time by phase (ranked): "
                    + ", ".join(f"{i}={k}" for i, (k, _) in enumerate(busiest)),
                )
            )

    spans = doc.get("spans") or []
    if spans:
        records = [
            SpanRecord(
                name=s["name"],
                start=s["start"],
                duration=s["duration"],
                parent=s.get("parent"),
                attrs=tuple(sorted((s.get("attrs") or {}).items())),
                span_id=s.get("span_id", 0),
                parent_id=s.get("parent_id", 0),
            )
            for s in spans
        ]
        print()
        print(format_critical_paths(records, limit=3))

    metrics = doc.get("metrics") or {}
    if metrics:
        rows = []
        for name in sorted(metrics):
            fam = metrics[name]
            for child in fam.get("values", []):
                labels = child.get("labels") or {}
                label_txt = ",".join(f"{k}={v}" for k, v in labels.items())
                value = child.get("value")
                if value is None:
                    value = child.get("count", "")
                rows.append([name, label_txt, value])
        print()
        print(
            format_table(
                ["metric", "labels", "value"],
                rows[:40],
                title=f"metrics ({len(metrics)} families, "
                f"top {min(40, len(rows))} series)",
            )
        )

    if args.horizon_report:
        det = (
            _read_json(args.horizon_report, "--horizon-report").get(
                "deterministic"
            )
            or {}
        )
        cycles = det.get("cycles") or []
        if cycles:
            print()
            print(
                _cycle_table(
                    cycles,
                    _HORIZON_COLUMNS,
                    title=f"horizon cycles [{args.horizon_report}]",
                )
            )
        print()
        print(
            format_table(
                ["quantity", "value"],
                [
                    ["cycles run", len(cycles)],
                    ["migrations accepted", det.get("migrations_accepted")],
                    ["migrations rejected", det.get("migrations_rejected")],
                    ["staging cost ($)", det.get("staging_cost")],
                    ["streams resumed", det.get("resumed")],
                    ["streams restarted", det.get("restarted")],
                    ["resume credit ($)", det.get("resume_credit")],
                    ["horizon total psi ($)", det.get("total_psi")],
                ],
                title="horizon summary",
            )
        )
        trajectory = det.get("psi_trajectory") or []
        if len(trajectory) > 1:
            print()
            print(
                ascii_chart(
                    [
                        Series(
                            "psi net ($)",
                            x=tuple(float(i) for i in range(len(trajectory))),
                            y=tuple(float(p) for p in trajectory),
                        )
                    ],
                    title="per-cycle net psi trajectory",
                )
            )

    if args.gateway_report:
        det = (
            _read_json(args.gateway_report, "--gateway-report").get(
                "deterministic"
            )
            or {}
        )
        gcycles = det.get("cycles") or []
        if gcycles:
            print()
            print(
                _cycle_table(
                    gcycles,
                    _GATEWAY_COLUMNS,
                    title=f"gateway cycles [{args.gateway_report}]",
                )
            )
        rejected = det.get("rejected") or {}
        print()
        print(
            format_table(
                ["quantity", "value"],
                [
                    ["cycles sealed", len(gcycles)],
                    ["bookings offered", det.get("offered")],
                    ["bookings admitted", det.get("admitted")],
                    ["bookings shed", det.get("shed")],
                    ["admission ratio", det.get("admission_ratio")],
                    ["shed rate", det.get("shed_rate")],
                    ["worst quote error", det.get("quote_error")],
                    ["unconsumed bookings", det.get("unconsumed")],
                    *[
                        [f"rejected[{reason}]", n]
                        for reason, n in sorted(rejected.items())
                    ],
                ],
                title="gateway summary",
            )
        )

    if args.journal:
        try:
            journal = load_journal_jsonl(args.journal)
        except JournalError as exc:
            raise SystemExit(f"cannot load --journal: {exc}") from exc
        print()
        print(
            format_table(
                ["event", "count"],
                [[k, v] for k, v in journal.counts().items()],
                title=f"journal event mix [{args.journal}] "
                f"({len(journal)} events, "
                f"{len(journal.request_ids())} requests)",
            )
        )
        if args.explain:
            print()
            print(journal.format_timeline(args.explain))
    return 0


def _start_profile(args: argparse.Namespace):
    """Arm --profile; returns opaque state for :func:`_finish_profile`."""
    if not args.profile:
        return None
    if args.profile == "cprofile":
        import cProfile

        profiler = cProfile.Profile()
        profiler.enable()
        return ("cprofile", profiler)
    import tracemalloc

    tracemalloc.start()
    return ("tracemalloc", None)


def _finish_profile(args: argparse.Namespace, state) -> None:
    """Write the top-N hotspot artifact (stable schema, sorted output)."""
    if state is None:
        return
    kind, profiler = state
    if kind == "cprofile":
        import pstats

        profiler.disable()
        stats = pstats.Stats(profiler)
        rows = [
            {
                "function": f"{filename}:{line}({name})",
                "ncalls": ncalls,
                "tottime": tottime,
                "cumtime": cumtime,
            }
            for (filename, line, name), (
                _cc, ncalls, tottime, cumtime, _callers,
            ) in stats.stats.items()
        ]
        rows.sort(key=lambda r: (-r["cumtime"], -r["tottime"], r["function"]))
        doc = {"profiler": "cprofile", "top": rows[:25]}
    else:
        import tracemalloc

        snapshot = tracemalloc.take_snapshot()
        tracemalloc.stop()
        rows = [
            {
                "location": f"{stat.traceback[0].filename}:"
                f"{stat.traceback[0].lineno}",
                "size_bytes": stat.size,
                "count": stat.count,
            }
            for stat in snapshot.statistics("lineno")[:25]
        ]
        doc = {"profiler": "tracemalloc", "top": rows}
    _write_json(args.profile_out, doc, f"{kind} hotspot profile")


#: The commands that take a positional file (an environment JSON, or a
#: run report for 'slo-check').
_FILE_COMMANDS = {
    "run-env": _run_environment,
    "simulate": _simulate_environment,
    "run-faults": _run_faults,
    "run-online": _run_online,
    "run-horizon": _run_horizon,
    "run-gateway": _run_gateway,
    "slo-check": _slo_check,
}


def _dispatch(args: argparse.Namespace) -> int:
    if args.experiment in _FILE_COMMANDS:
        return _FILE_COMMANDS[args.experiment](args)
    if args.experiment == "all":
        for name in ["worked-example", *sorted(_FIGURES), "table5", "gap", "ablations"]:
            print("=" * 78)
            _run_one(name, args)
            print()
    elif args.experiment == "report":
        if args.telemetry or args.horizon_report or args.gateway_report or args.journal:
            return _report_dashboard(args)
        _write_report(args)
    else:
        _run_one(args.experiment, args)
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    configure_logging(args.log_level)
    profile_state = _start_profile(args)
    try:
        return _dispatch(args)
    finally:
        _finish_profile(args, profile_state)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
