"""One benchmark run of one workload, in a fresh interpreter.

Started by run.py with ``MDSD_THREADS`` pinned and the program's ``src`` on
``PYTHONPATH``; the single argument is the run's JSON spec. The run is a
closed loop: one caller, one `run_experiment` at a time, each report
checked. Prints one JSON object of raw measurements on stdout.

Untraced (``trace`` 0): one warm-up run, then runs until ``seconds`` have
passed, each timed on its own; only `run_experiment` is inside the timer. Traced (``trace`` 1): one untraced reference
run at the pinned worker count, then alternating untraced and traced runs
at one worker, so the traced calls happen in this process and the
difference between the two is the tracing overhead.

Either way, workloads with an ``oracle_sample`` then run the exact
cross-checks outside the timed region.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import statistics
import sys
from collections import Counter
from time import perf_counter

import mdsd.cli as cli
import mdsd.mc as mc
import mdsd.oracle as oracle

from checks import check_rows, cross_check, per_position
from tracer import Tracer
from workloads import expected_rows, variants

PROGRAM_SPANS = (
    "cli.run_experiment",
    "cli.load_logits",
    "dists.softmax_temp",
    "drafts.sample_tuples",
    "alpha.alpha_scan.with-replacement",
    "alpha.alpha_scan.without-replacement",
    "alpha.alpha_scan.greedy",
    "alpha.alpha_greedy_closed",
    "alpha.alpha_single_draft",
    "verify.rrs_w_rate_exact",
    "verify.kseq_solve",
    "mc.estimate_alpha",
)
CHECK_SPAN = "oracle.alpha_subset_exact"


class Runs:
    """Runs one config repeatedly, checking every report it writes."""

    def __init__(self, cfg: cli.ExperimentConfig, positions: int):
        self.cfg = cfg
        self.expected = expected_rows(cfg, positions)
        self.pairs = positions * len(variants(cfg))
        self.attempted = 0
        self.failed = 0
        self.faults: Counter = Counter()
        self.notes: Counter = Counter()
        self.warnings: set[str] = set()
        self.digest: str | None = None
        self.report_bytes = 0
        self.rows: list[dict] = []

    def once(self) -> float | None:
        """One run; its wall seconds, or None when it aborted."""
        expected = len(self.expected)
        self.attempted += expected
        err = io.StringIO()
        t0 = perf_counter()
        try:
            with contextlib.redirect_stderr(err):
                rows = cli.run_experiment(self.cfg)
        except Exception as exc:  # an aborted run fails every row, and the loop goes on
            self.failed += expected
            self.faults[f"run aborted: {type(exc).__name__}: {exc}"] += expected
            return None
        finally:
            self.warnings.update(err.getvalue().splitlines())
        seconds = perf_counter() - t0
        with open(self.cfg.output, "rb") as fh:
            report = fh.read()
        digest = hashlib.sha256(report).hexdigest()
        self.digest = self.digest or digest
        if digest != self.digest:
            faults = Counter({"report bytes differ between runs": expected})
        else:
            faults = check_rows(rows, self.expected, self.cfg.trials, self.notes)
        self.failed += min(sum(faults.values()), expected)
        self.faults.update(faults)
        self.report_bytes = len(report)
        self.rows = rows
        return seconds


def install(tracer: Tracer) -> None:
    def scan_name(p, scheme):
        return f"alpha.alpha_scan.{scheme.kind.value}"

    def count_scan(counts, p, scheme):
        counts[("scan", scheme.kind.value, scheme.n)] += 1

    def count_bytes(counts, path):
        counts["load_bytes"] += os.path.getsize(path)

    def count_trials(counts, p, scheme, method, trials, seed):
        counts["trials"] += trials

    def count_tuples(counts, scheme, count, rng):
        counts["tuples"] += count

    tracer.wrap(cli, "run_experiment", "cli.run_experiment")
    tracer.wrap_generator(cli, "load_logits", "cli.load_logits", count_bytes)
    tracer.wrap(cli, "softmax_temp", "dists.softmax_temp")
    tracer.wrap(cli, "alpha_scan", scan_name, count_scan)
    tracer.wrap(cli, "alpha_greedy_closed", "alpha.alpha_greedy_closed")
    tracer.wrap(cli, "alpha_single_draft", "alpha.alpha_single_draft")
    tracer.wrap(cli, "rrs_w_rate_exact", "verify.rrs_w_rate_exact")
    tracer.wrap(cli, "kseq_solve", "verify.kseq_solve")
    tracer.wrap(cli, "estimate_alpha", "mc.estimate_alpha", count_trials)
    tracer.wrap(mc, "sample_tuples", "drafts.sample_tuples", count_tuples)


def unused_scan_share(tracer: Tracer, runs: Runs) -> float:
    """Scans whose (scheme, n) produced no report row, over all scans."""
    n_of = {value: n for value, n, _ in variants(runs.cfg)}
    used = {(k[2], n_of[k[0]]) for k in per_position(runs.rows)}
    scans = {k[1:]: c for k, c in tracer.counts.items() if isinstance(k, tuple)}
    total = sum(scans.values())
    return sum(c for k, c in scans.items() if k not in used) / total if total else 0.0


def traced_loop(runs: Runs, seconds: float, sample: int) -> dict:
    runs.once()  # reference at the pinned worker count; later reports must match it
    os.environ["MDSD_THREADS"] = "1"
    tracer = Tracer()
    untraced, traced = [], []
    start = perf_counter()
    while perf_counter() - start < seconds or not traced:
        untraced.append(runs.once())
        install(tracer)
        try:
            traced.append(runs.once())
        finally:
            tracer.restore()
    per = len(traced)
    wall = sum(tracer.durations["cli.run_experiment"])
    layers = {}
    for name in PROGRAM_SPANS:
        layers.update(tracer.summary(name, per, wall))
    check_wall = 0.0
    cross = None
    if sample:
        tracer.wrap(oracle, "alpha_subset_exact", CHECK_SPAN)
        try:
            t0 = perf_counter()
            cross = cross_check(runs.cfg, runs.rows, sample, oracle.alpha_subset_exact)
            check_wall = perf_counter() - t0
        finally:
            tracer.restore()
    # The oracle runs only in the check phase, so its share is of that phase.
    layers.update(tracer.summary(CHECK_SPAN, 1, check_wall))
    mc_time = sum(tracer.durations["mc.estimate_alpha"])
    ok_untraced = [t for t in untraced if t is not None]
    ok_traced = [t for t in traced if t is not None]
    layers.update(
        {
            "mc.trials_per_s": tracer.counts["trials"] / mc_time if mc_time else 0.0,
            "drafts.sample_tuples.tuples": tracer.counts["tuples"] / per,
            "alpha.alpha_scan.unused_share": unused_scan_share(tracer, runs),
            "cli.load_logits.bytes": tracer.counts["load_bytes"] / per,
            "cli.report_bytes": runs.report_bytes,
            "trace.overhead_frac": (
                statistics.median(ok_traced) / statistics.median(ok_untraced) - 1.0
                if ok_traced and ok_untraced else 0.0
            ),
            "trace.runs": per,
        }
    )
    accounted = sum(layers[f"{n}.self_share"] for n in PROGRAM_SPANS)
    return dict(layers=layers, cross=cross, accounted_share=accounted, missing=sorted(tracer.missing))


def timed_loop(runs: Runs, seconds: float, sample: int) -> dict:
    runs.once()  # warm-up: imports, page cache and allocator settle
    times = []
    start = perf_counter()
    while perf_counter() - start < seconds or not times:
        t = runs.once()
        if t is not None:
            times.append(t)
        elif perf_counter() - start >= seconds:
            break
    peak_kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    cross = cross_check(runs.cfg, runs.rows, sample, oracle.alpha_subset_exact) if sample else None
    return dict(seconds=times, pairs=runs.pairs, peak_rss_mb=peak_kib / 1024.0, cross=cross)


def main() -> int:
    spec = json.loads(sys.argv[1])
    fields = {k: tuple(v) if isinstance(v, list) else v for k, v in spec["config"].items()}
    runs = Runs(cli.ExperimentConfig(**fields), spec["positions"])
    loop = traced_loop if spec["trace"] else timed_loop
    out = loop(runs, spec["seconds"], spec["oracle_sample"])
    cross = out.get("cross")
    if cross:
        runs.attempted += cross["z_checks"]
        runs.failed += cross["z_failed"]
        if cross["z_failed"]:
            runs.faults["rrs-wo estimate off the exact rate by > 5 sigma"] += cross["z_failed"]
    stderrs = [
        r["stderr"] for r in per_position(runs.rows).values() if r["method"] == "rrs-wo"
    ]
    out.update(
        attempted=runs.attempted,
        failed=runs.failed,
        faults=dict(runs.faults),
        notes=dict(runs.notes),
        warnings=sorted(runs.warnings),
        digest=runs.digest,
        rrs_wo_stderr=statistics.fmean(stderrs) if stderrs else None,
    )
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
