"""Run one benchmark workload and print its metrics.

    python3 vorbench/run.py --workload sorp_overflow --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout: the program is imported from
``./src``, and the run stops with an error when that is missing.

A run draws a pool of instance seeds from ``--seed`` (enough instances
for one pass to last about ``--seconds``), solves the first instance once
as a warm-up, then passes over the pool, each instance with a fresh
setup.  Every output is checked (see :mod:`workloads`) and every instance
solved twice must give the same deterministic results.

``--trace 0`` passes over the pool until ``--seconds`` is spent and
reports the end-to-end metrics.  ``--trace 1`` makes one untraced pass,
then installs the layer wrappers (:mod:`layers`), makes one traced pass
and reports the per-layer metrics; it solves the first instance traced
once more and checks that every work count repeats exactly.

End-to-end times are calibrated: a fixed pure-Python loop is timed
around every setup and every timed call, and each time is scaled by
``REFERENCE_S`` over the loop's time next to it.  Shared hosts swing
between fast phases and phases nearly twice as slow that last from
seconds to minutes; calibrated times read as on a quiet host.  The table
also prints the raw wall-clock values.

The last line of output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines above it are a
readable table of the same metrics.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import random
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent

#: What :func:`reference_seconds` takes on a quiet 2-vCPU x86 VM.
REFERENCE_S = 0.010

#: name -> unit, in the order ``BENCHMARK.json`` lists them.
END_TO_END = {
    "setup_s": "s",
    "solve_s": "s",
    "requests_per_s": "1/s",
    "psi_per_request": "USD",
    "served_ratio": "ratio",
    "peak_rss_mb": "MB",
}


def import_program() -> None:
    """Put ``./src`` first on the path and make sure ``repro`` comes from it."""
    src = Path.cwd() / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(
            f"vorbench: no program sources at {src / 'repro'}; "
            "run from the root of a checkout"
        )
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        raise SystemExit(f"vorbench: repro was imported from {repro.__file__}")
    logging.getLogger("repro").setLevel(logging.ERROR)


def reference_seconds() -> float:
    """Time a fixed pure-Python loop: how fast the host runs right now."""
    t0 = time.perf_counter()
    rng = random.Random(0)
    totals: dict[int, float] = {}
    for x, i in sorted((rng.random(), i) for i in range(12_000)):
        totals[i % 997] = totals.get(i % 997, 0.0) + x
    return time.perf_counter() - t0


@dataclass
class Sample:
    """One setup and run of one instance seed."""

    seed: int
    setup_s: float
    #: Calibration factors for the setup and for the run.
    setup_scale: float = 1.0
    run_scale: float = 1.0
    outcome: object = None  # workloads.Outcome; None when the run raised
    error: str = ""
    counts: dict | None = None  # work counts of a traced run


def measure(workload, seed: int, recorder=None) -> Sample:
    """Set up, run and check one instance; ``recorder`` traces the run."""
    if recorder is not None:
        recorder.forget_models()
    before_setup = reference_seconds()
    t0 = time.perf_counter()
    instance = workload.setup(seed)
    sample = Sample(seed, time.perf_counter() - t0)
    before_run = reference_seconds()
    sample.setup_scale = 2 * REFERENCE_S / (before_setup + before_run)
    if recorder is not None:
        before = recorder.work_counts()
        recorder.active = True
    try:
        t0 = time.perf_counter()
        result = workload.run(instance)
        elapsed = time.perf_counter() - t0
    except Exception:  # a failed operation: counted, reported, not fatal
        sample.error = f"seed {seed}: {traceback.format_exc()}"
        return sample
    finally:
        if recorder is not None:
            recorder.active = False
    sample.run_scale = 2 * REFERENCE_S / (before_run + reference_seconds())
    if recorder is not None:
        sample.counts = dict(recorder.work_counts() - before)
    sample.outcome = workload.check(instance, result, elapsed)
    return sample


def problems_of(samples: list[Sample]) -> list[str]:
    """Failed runs, failed checks, and fingerprints that differ per seed."""
    problems = [s.error for s in samples if s.error]
    first: dict[int, tuple] = {}
    for s in samples:
        if s.outcome is None:
            continue
        problems += [f"seed {s.seed}: {p}" for p in s.outcome.problems]
        fingerprint = s.outcome.fingerprint
        if first.setdefault(s.seed, fingerprint) != fingerprint:
            problems.append(
                f"seed {s.seed}: results differ between two runs: "
                f"{first[s.seed]} != {fingerprint}"
            )
    return problems


def end_to_end(
    samples: list[Sample], pool: list[Sample], *, calibrated: bool = True
) -> dict[str, float]:
    """The end-to-end metrics; times calibrated unless ``calibrated`` is false."""
    done = [s for s in samples if s.outcome is not None]
    once = [s.outcome for s in pool if s.outcome is not None]
    if not done or not once:
        return {name: 0.0 for name in END_TO_END}

    def scale(factor):
        return factor if calibrated else 1.0

    return {
        "setup_s": statistics.median(s.setup_s * scale(s.setup_scale) for s in samples),
        "solve_s": statistics.fmean(
            t * scale(s.run_scale) for s in done for t in s.outcome.solve_s
        ),
        "requests_per_s": sum(s.outcome.offered for s in done)
        / math.fsum(s.outcome.busy_s * scale(s.run_scale) for s in done),
        "psi_per_request": math.fsum(o.psi for o in once)
        / sum(o.served for o in once),
        "served_ratio": sum(o.served for o in once) / sum(o.offered for o in once),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def untraced(workload, seeds, seconds):
    """Whole passes over the pool while the next one still fits in ``seconds``."""
    samples: list[Sample] = []
    start = time.perf_counter()
    passes = 0
    while True:
        samples += [measure(workload, seed) for seed in seeds]
        passes += 1
        spent = time.perf_counter() - start
        if spent + spent / passes > seconds:
            return samples


def _busy(samples: list[Sample]) -> float:
    """Calibrated seconds the caller waited, summed over ``samples``."""
    return math.fsum(
        s.outcome.busy_s * s.run_scale for s in samples if s.outcome is not None
    )


def traced(workload, seeds):
    """An untraced pass, a traced pass, and one traced repeat of the first seed."""
    from layers import Recorder, layer_metrics

    plain = [measure(workload, seed) for seed in seeds]
    recorder = Recorder()
    recorder.install()
    try:
        with_trace = [measure(workload, seed, recorder) for seed in seeds]
        metrics = layer_metrics(
            recorder,
            [s.outcome for s in with_trace if s.outcome is not None],
            [s.outcome for s in plain if s.outcome is not None],
        )
        again = measure(workload, seeds[0], recorder)
    finally:
        recorder.uninstall()
    metrics["trace.overhead_s"] = (
        _busy(with_trace) - _busy(plain)
    ) / len(seeds)
    samples = plain + with_trace + [again]
    first, second = with_trace[0].counts or {}, again.counts or {}
    changed = sorted(k for k in first.keys() | second.keys() if first.get(k) != second.get(k))
    problems = [
        f"seed {seeds[0]}: work counts differ between two traced runs: "
        f"{', '.join(changed)}"
    ] if changed else []
    return samples, metrics, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_program()
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(
            f"unknown workload {args.workload!r} (one of {', '.join(WORKLOADS)})"
        )
    workload = WORKLOADS[args.workload]
    seeds = [
        args.seed * 1000 + j for j in range(workload.pool_size(args.seconds))
    ]
    warmup = measure(workload, seeds[0])
    if args.trace:
        from layers import unit_of

        samples, metrics, problems = traced(workload, seeds)
        units = {name: unit_of(name) for name in metrics}
    else:
        samples = untraced(workload, seeds, args.seconds)
        metrics = end_to_end(samples, samples[: len(seeds)])
        raw = end_to_end(samples, samples[: len(seeds)], calibrated=False)
        units = END_TO_END
        problems = []
    samples = [warmup] + samples
    problems = problems_of(samples) + problems

    for problem in problems[:20]:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    width = max(map(len, metrics))
    for name, value in metrics.items():
        print(f"{args.workload:16s} {name:{width}s} {value:16.6f} {units[name]}")
    if not args.trace:
        for name in ("setup_s", "solve_s", "requests_per_s"):
            print(f"{'  wall clock':16s} {name:{width}s} {raw[name]:16.6f} {units[name]}")
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": len(samples),
                "failed": sum(1 for s in samples if s.error),
                "metrics": {
                    name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
