"""mdsd benchmark: one workload, measured end to end or traced by layer.

    python3 bench/run.py --workload ref-zipf1k --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the program is imported from
``src``, nothing is installed. Inputs come from ``--seed`` alone: the
synthetic workloads pass it to the program as its seed, and the dump
workload's logits file is generated from it before anything is timed.
Scratch files (dump, reports, report digests) go to ``.bench_out/``.

With ``--trace 0`` the end-to-end metrics are measured with tracing off:

  positions_per_s  (position, sweep-variant) pairs reported per wall second
                   of the timed `run_experiment` calls, all of them pooled.
                   Pooled, not a median of per-call rates: on a shared
                   2-core machine the speed of interpreter-bound code
                   swings between a slow and a fast mode for seconds at a
                   time; a median jumps between the modes, while a pooled
                   rate moves in step with the share of time in each
  setup_s          fresh interpreter to `import mdsd` done and one warm-up
                   position through `run_experiment` returned; the median
                   of SETUP_SAMPLES interpreters
  peak_rss_mb      the larger of the runner's peak RSS and its largest
                   worker's

With ``--trace 1`` the per-layer metrics come from a traced run at one
worker (see runner.py). Either way every report is checked, and the last
line of stdout is one JSON object: correct, attempted, failed, metrics.
The lines before it give the environment, every metric by name and unit,
including failed_frac, rrs_wo_stderr and lp_mismatch_frac, and any
failures.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic

import numpy

from workloads import WORKLOADS, write_dump

HERE = Path(__file__).resolve().parent
# Set-up is sampled half before and half after the timed run, so that one
# quiet or busy spell of the machine does not set the whole median.
SETUP_SAMPLES = 10
TIME_LIMIT_S = 170.0
# glibc sysconf names (_SC_LEVEL1_DCACHE_SIZE, _SC_LEVEL2_CACHE_SIZE,
# _SC_LEVEL3_CACHE_SIZE); os.sysconf_names does not list them.
CACHE_SYSCONF = {"l1d": 188, "l2": 191, "l3": 194}

SETUP_CODE = """\
import json, sys, time
import mdsd, mdsd.cli as cli
kw = json.loads(sys.argv[1])
cli.run_experiment(cli.ExperimentConfig(**{k: tuple(v) if isinstance(v, list) else v for k, v in kw.items()}))
print(time.monotonic())
"""


def environment(threads: int) -> dict:
    caches = {}
    for name, key in CACHE_SYSCONF.items():
        try:
            caches[name] = os.sysconf(key)
        except (OSError, ValueError):
            caches[name] = None
    return dict(
        nproc=len(os.sched_getaffinity(0)),
        mdsd_threads=threads,
        caches_bytes=caches,
        python=platform.python_version(),
        numpy=numpy.__version__,
    )


def source_digest(src: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(path.relative_to(src).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def child_env(src: Path, threads: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    env["MDSD_THREADS"] = str(threads)
    return env


def setup_seconds(config: dict, env: dict, out: Path, count: int, warm: bool) -> list[float]:
    """Wall seconds from starting an interpreter until its warm-up position
    has returned, once per sample. With ``warm``, one untimed start first
    writes the bytecode caches, which users do not pay for on every run."""
    arg = json.dumps(dict(config, output=str(out / "setup-report.csv")))
    samples = []
    for i in range(count + warm):
        t0 = monotonic()
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, arg],
            env=env, capture_output=True, text=True, timeout=60,
        )
        if done.returncode != 0:
            raise RuntimeError(f"set-up run failed:\n{done.stderr}")
        if i >= warm:
            samples.append(float(done.stdout.split()[-1]) - t0)
    return samples


def run_runner(spec: dict, env: dict, timeout: float) -> str:
    """Run runner.py in its own process group and return its stdout. On a
    timeout the whole group, pool workers included, is killed and reaped."""
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "runner.py"), json.dumps(spec)],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError("the run did not finish in time") from None
    if proc.returncode != 0:
        raise RuntimeError(f"runner exited with {proc.returncode}:\n{stderr}")
    return stdout


def check_digest(store: Path, key: str, digest: str) -> bool:
    """True when no other run of this source and seed wrote different report
    bytes; records the digest for later runs."""
    known = json.loads(store.read_text()) if store.exists() else {}
    if known.setdefault(key, digest) != digest:
        return False
    store.write_text(json.dumps(known, indent=1, sort_keys=True))
    return True


def run_workload(args) -> tuple[dict, list[float], int]:
    """Generate the inputs, sample set-up, and run the runner. Returns the
    runner's measurements, the set-up samples and the worker count."""
    root = Path.cwd()
    src = root / "src"
    out = root / ".bench_out"
    out.mkdir(exist_ok=True)
    started = monotonic()

    wl = WORKLOADS[args.workload]
    threads = min(wl.threads, len(os.sched_getaffinity(0)))
    env = child_env(src, threads)
    config = dict(wl.config, seed=args.seed, output=str(out / f"report-{args.workload}.csv"))
    positions = config.get("positions")
    warmup = dict(config, positions=1)
    if wl.dump is not None:
        dump = out / f"{args.workload}.jsonl"
        first = out / f"{args.workload}-first.jsonl"
        write_dump(wl.dump, args.seed, str(dump), str(first))
        config["input_path"], warmup["input_path"] = str(dump), str(first)
        positions = wl.dump.records

    samples = 0 if args.trace else SETUP_SAMPLES
    setup = setup_seconds(warmup, env, out, samples // 2, warm=samples > 0)
    spec = dict(
        config=config, positions=positions, seconds=args.seconds,
        trace=args.trace, oracle_sample=wl.oracle_sample,
    )
    stdout = run_runner(spec, env, TIME_LIMIT_S - (monotonic() - started))
    setup += setup_seconds(warmup, env, out, samples - samples // 2, warm=False)
    res = json.loads(stdout.strip().splitlines()[-1])

    key = f"{args.workload}:{args.seed}:{source_digest(src / 'mdsd')}"
    if res["digest"] and not check_digest(out / "digests.json", key, res["digest"]):
        res["faults"]["report bytes differ from an earlier run of this source"] = res["attempted"]
        res["failed"] = res["attempted"]
    return res, setup, threads


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (Path.cwd() / "src" / "mdsd" / "__init__.py").is_file():
        print("error: no src/mdsd here; run from the root of a source checkout", file=sys.stderr)
        return 2
    try:
        res, setup, threads = run_workload(args)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if not args.trace and not res["seconds"]:
        print("error: every run aborted", file=sys.stderr)
        return 1
    for line in res["warnings"]:
        print(f"program: {line}", file=sys.stderr)

    attempted, failed, cross = res["attempted"], res["failed"], res["cross"]
    lp_mismatch = cross["lp_mismatches"] / cross["lp_checks"] if cross and cross["lp_checks"] else None
    table = [
        ("failed_frac", failed / attempted, "ratio"),
        ("rrs_wo_stderr", res["rrs_wo_stderr"], "probability"),
        ("lp_mismatch_frac", lp_mismatch, "ratio"),
    ]
    if args.trace:
        metrics = dict(res["layers"])
        metrics["mc.rrs_wo_stderr"] = res["rrs_wo_stderr"] or 0.0
        metrics["oracle.lp_mismatch_frac"] = lp_mismatch or 0.0
        units = _units("per_layer")
    else:
        metrics = {
            "positions_per_s": res["pairs"] * len(res["seconds"]) / sum(res["seconds"]),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": res["peak_rss_mb"],
        }
        units = _units("end_to_end")
        table = [(n, v, units[n]) for n, v in metrics.items()] + table

    print("env: " + json.dumps(environment(threads)))
    print(f"workload: {args.workload} seed={args.seed} trace={args.trace} attempted={attempted} failed={failed}")
    if not args.trace:
        print(f"runs: {len(res['seconds'])}  setup samples: {[round(s, 4) for s in setup]}")
    for name, value, unit in table:
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {name:<44} {shown:>14} {unit}")
    if args.trace:
        print(f"  self shares of the program spans sum to {res['accounted_share']:.6f}")
        for name, value in sorted(metrics.items()):
            print(f"  {name:<44} {value:>14.6g} {units.get(name, '')}")
        for name in res["missing"]:
            print(f"  not traced (attribute missing): {name}")
    if cross:
        print(
            f"cross-check: alpha_star vs subset oracle mismatches {cross['lp_by_scheme']}; "
            f"rrs-wo vs exact rate over {cross['z_checks']}: rms z {cross['z_rms']:.3f}, "
            f"max |z| {cross['z_max']:.3f}, failed {cross['z_failed']}"
        )
    for fault, count in sorted(res["faults"].items()):
        print(f"FAILED {count}: {fault}")
    for note, count in sorted(res["notes"].items()):
        print(f"NOTE {count}: {note}")
    result = dict(
        correct=failed == 0,
        attempted=attempted,
        failed=failed,
        metrics={n: {"value": metrics[n], "unit": units[n]} for n in units},
    )
    print(json.dumps(result))
    return 0


def _units(section: str) -> dict[str, str]:
    """Metric name -> unit for one section of BENCHMARK.json."""
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


if __name__ == "__main__":
    sys.exit(main())
