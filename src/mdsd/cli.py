"""Experiment runner.

Ingests line-delimited logits records (or synthesizes positions), applies a
generation temperature, and reports per-position acceptance rates: the
optimal rate per draft scheme, each verification method's rate, and the gap
between them. Methods with exact formulas (rejection sampling with
replacement, the thresholded scheme, the greedy verifier, and rejection
sampling without replacement at one or two drafts, or where its tree of
rejected draft prefixes is no larger than the estimate's work) are
evaluated exactly; rrs-wo is otherwise estimated by seeded Monte Carlo.

Positions are streamed: the main process scans the input for its line
ends, through one reused buffer, and sends the worker pool chunks of
consecutive positions, a bounded number in flight, as (line number,
offset, length) spans. Each position reads its own record from the file
and parses it where it runs, so no record's bytes pass between processes
and the input held at once does not grow with its length. The input must
be a regular file, which each position can seek in. The report is the same
whatever the worker count (``MDSD_THREADS``).

The pool lives from the first pooled run until a run asks for another
worker count or finds a worker dead, a pooled run fails or is stopped, or
the process exits, so a process that runs many experiments forks its
workers once; a forked child starts without it. `main` shuts it down before
it returns, and a SIGTERM ends `main`'s process at once, with exit code 143.
Workers are forked whatever the platform's default start method, and a
worker exits by itself once the process that forked it is gone.

A record is parsed by orjson from its bytes. orjson refuses ``NaN`` and
``-Infinity``, which Python's json module writes for a masked logit, so a
line orjson refuses is parsed again by the json module, whose result or
error decides it: the records accepted and the errors reported are the
json module's.

Logits provenance is the caller's responsibility: records are treated as
"the two models' logits at one decoding position" and nothing more.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import itertools
import json
import math
import multiprocessing.util
import os
import re
import signal
import stat
import sys
import threading
import time
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass

import numpy as np
import orjson

from .alpha import alpha_greedy_closed, alpha_scan, alpha_single_draft
from .dists import Dist, _check_logits, softmax_temp
from .drafts import DraftKind, DraftScheme
from .mc import BLOCK_TRIALS, estimate_alpha
from .verify import METHODS, kseq_solve, rrs_w_rate_exact, rrs_wo_rate_exact, supports

__all__ = [
    "ExperimentConfig",
    "MalformedInputError",
    "load_logits",
    "parse_record",
    "synth_positions",
    "run_experiment",
    "main",
]

SCHEME_NAMES = tuple(k.value for k in DraftKind)
SWEEPS = ("temperature", "drafts")
FORMATS = ("csv", "jsonl")
BASE_COLUMNS = (
    "position",
    "scheme",
    "method",
    "alpha",
    "alpha_star",
    "gap",
    "stderr",
    "seed",
    "config_hash",
)
# A pool task is a run of consecutive positions. It closes once it holds
# _CHUNK_BYTES of input, a record line's length or the logit arrays' size
# (one position at V=32000 either way), or _CHUNK_POSITIONS positions, for a
# file and a synthetic input alike, so a small-V run is split into tasks
# that a stop can cancel. One task per position would cost ref-zipf1k
# (V=1000, 2 workers) about 9% in per-task overhead.
_CHUNK_BYTES = 1 << 18
_CHUNK_POSITIONS = 16
# `_lines` reads the input in blocks of this size; a line may span blocks.
_SCAN_BYTES = 1 << 20
_NOT_SPACE = re.compile(rb"[^ \t\n\r\x0b\x0c]")  # bytes.isspace's complement
# How often an idle worker checks that the process that forked it lives.
_OWNER_POLL_S = 0.25


class MalformedInputError(ValueError):
    """Raised for unusable logits records; carries the offending line."""


@dataclass(frozen=True)
class ExperimentConfig:
    input_path: str | None = None
    synth: str | None = None  # "dirichlet:<conc>" or "zipf:<s>"
    vocab: int = 1000
    positions: int = 64
    temperature: float = 0.7
    num_drafts: int = 3
    schemes: tuple[str, ...] = SCHEME_NAMES
    methods: tuple[str, ...] = ("rrs-w", "kseq", "rrs-wo", "greedy")
    trials: int = 1024
    seed: int = 0
    sweep: str | None = None  # "temperature" | "drafts"
    sweep_values: tuple[float, ...] = ()
    output: str | None = None
    fmt: str = "csv"

    def config_hash(self) -> str:
        # Identifies the experiment for replay; where and how the report is
        # serialized does not change the numbers, so output/fmt stay out.
        fields = {
            k: list(v) if isinstance(v, tuple) else v
            for k, v in vars(self).items()
            if k not in ("output", "fmt")
        }
        return hashlib.sha256(json.dumps(fields, sort_keys=True).encode()).hexdigest()[:12]


def _lines(path: str):
    """Yield (line number, offset, length) for each line of ``path`` that is
    not blank, that is, not made only of ASCII whitespace (the rule of
    `bytes.isspace`). A line's span holds its newline, if it has one.
    ``path`` must be a regular file: each position reads its own record from
    it (`_read_record`), and a pipe would block the reader."""
    if not stat.S_ISREG(os.stat(path).st_mode):
        raise ValueError(f"input {path!r} is not a regular file")
    # One buffer serves the whole scan and no line is copied out of it: a
    # dump line is one position's logits, 657 KB at V=32000.
    buf = bytearray(_SCAN_BYTES)
    lineno, start, base, blank = 1, 0, 0, True  # base: buf[0]'s file offset
    with open(path, "rb", buffering=0) as fh:
        while size := fh.readinto(buf):
            i = 0
            while i < size:
                end = buf.find(b"\n", i, size)
                if blank and _NOT_SPACE.search(buf, i, size if end < 0 else end):
                    blank = False
                if end < 0:
                    break
                if not blank:
                    yield lineno, start, base + end + 1 - start
                i = end + 1
                lineno, start, blank = lineno + 1, base + i, True
            base += size
    if not blank:
        yield lineno, start, base - start


def _read_record(path: str, lineno: int, offset: int, length: int):
    """`parse_record` of the line that `_lines` spanned as ``lineno``,
    ``offset`` and ``length``, read from ``path``."""
    with open(path, "rb") as fh:
        fh.seek(offset)
        line = fh.read(length)
    if len(line) != length:
        raise MalformedInputError(
            f"line {lineno}: the file ends {length - len(line)} bytes before the line does"
        )
    return parse_record(lineno, line)


def _loads(lineno: int, line: str | bytes):
    # The json module decides every line orjson refuses (NaN, -Infinity):
    # its result or its error is the one reported.
    try:
        return orjson.loads(line)
    except orjson.JSONDecodeError:
        pass
    if isinstance(line, bytes):
        try:
            line = line.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise MalformedInputError(f"line {lineno}: {exc}")
    try:
        return json.loads(line)
    except json.JSONDecodeError as exc:
        raise MalformedInputError(f"line {lineno}: invalid JSON ({exc.msg})")
    except RecursionError:
        raise MalformedInputError(f"line {lineno}: invalid JSON (nested too deeply)") from None


def parse_record(lineno: int, line: str | bytes) -> tuple[np.ndarray, np.ndarray]:
    """Parse one line, a JSON object with "p_logits" and "q_logits" array
    fields, given as text or as UTF-8 bytes, into (p_logits, q_logits):
    non-empty 1-d vectors of one length, finite or -inf. A malformed line
    raises `MalformedInputError` naming ``lineno``."""
    obj = _loads(lineno, line)
    if not isinstance(obj, dict):
        raise MalformedInputError(f"line {lineno}: record is not an object")
    for key in ("p_logits", "q_logits"):
        if key not in obj:
            raise MalformedInputError(f"line {lineno}: missing field {key!r}")
    try:
        p = np.asarray(obj["p_logits"], dtype=np.float64)
        q = np.asarray(obj["q_logits"], dtype=np.float64)
        if p.ndim != 1 or q.ndim != 1 or p.size == 0:
            raise ValueError("logits must be non-empty 1-d vectors")
        if p.size != q.size:
            raise ValueError(f"logits length mismatch: {p.size} vs {q.size}")
        _check_logits(p)
        _check_logits(q)
    except (OverflowError, TypeError, ValueError) as exc:
        raise MalformedInputError(f"line {lineno}: {exc}")
    return p, q


def load_logits(path: str):
    """Stream each record of a line-delimited file as (p_logits, q_logits),
    `parse_record` over its lines."""
    for span in _lines(path):
        yield _read_record(path, *span)


def synth_positions(kind: str, param: float, vocab: int, count: int, seed: int):
    """Yield ``count`` independent (p, q) pairs.

    dirichlet: both drawn from a symmetric Dirichlet with the given
    concentration. zipf: power-law masses 1/rank^s dealt to tokens in an
    independent random order for p and for q.
    """
    if vocab < 2:
        raise ValueError("vocab must be >= 2")
    rng = np.random.default_rng(seed)
    if kind == "dirichlet":
        conc = np.full(vocab, float(param))
        for _ in range(count):
            yield Dist(rng.dirichlet(conc)), Dist(rng.dirichlet(conc))
    elif kind == "zipf":
        try:
            with np.errstate(over="raise", divide="raise", invalid="raise"):
                base = 1.0 / np.arange(1, vocab + 1) ** float(param)
                base /= base.sum()
        except FloatingPointError:
            raise ValueError(
                f"zipf exponent {param} puts 1/rank^s out of float range at vocab {vocab}"
            ) from None
        for _ in range(count):
            yield Dist(rng.permutation(base)), Dist(rng.permutation(base))
    else:
        raise ValueError(f"unknown synthetic generator {kind!r}")


def _parse_synth(spec: str) -> tuple[str, float]:
    """(generator, parameter) of a synthetic spec, checked."""
    kind, _, param = spec.partition(":")
    try:
        value = float(param)
    except ValueError:
        value = math.nan
    known = kind in ("dirichlet", "zipf") and math.isfinite(value)
    if not known or (kind == "dirichlet" and value <= 0.0):
        raise ValueError(f"synth must be dirichlet:<c> or zipf:<s>, finite, c > 0 (got {spec!r})")
    return kind, value


def _position_seed(seed: int, position: int) -> int:
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(position,))
    return int(ss.generate_state(1, np.uint64)[0])


def _rrs_wo_exact(q: Dist, n: int, trials: int) -> bool:
    """Whether rrs-wo is reported by its exact tree walk: at one or two
    drafts, or where the walk's last level, perm(s, n - 1) rows for the s
    tokens of positive q mass, is no larger than the n stages of the
    estimate's trials. Trials count up to one block (`mc.BLOCK_TRIALS`):
    the estimate holds one block at a time, and the walk all its rows."""
    if n <= 2:
        return True
    return math.perm(int(np.count_nonzero(q.mass)), n - 1) <= n * min(trials, BLOCK_TRIALS)


def _rrs_wo_rate(p: Dist, scheme: DraftScheme, alpha_star, cfg: ExperimentConfig, position: int):
    """rrs-wo's (alpha, stderr): its exact tree walk where `_rrs_wo_exact`
    allows it, else the estimate from the position's seed."""
    if _rrs_wo_exact(scheme.q, scheme.n, cfg.trials):
        return rrs_wo_rate_exact(p, scheme.q, scheme.n), 0.0
    rep = estimate_alpha(p, scheme, "rrs-wo", cfg.trials, _position_seed(cfg.seed, position))
    return rep.acceptance_mean, rep.acceptance_stderr


# Each method's (alpha, stderr) at a position, from (p, scheme, alpha_star,
# cfg, position); one entry per `verify.METHODS` row. An entry looks this
# module's functions up when it runs, so a wrapper set on them later (the
# benchmark's tracer) sees every call.
_RATES = {
    "ot-single": lambda p, s, *_: (alpha_single_draft(p, s.q), 0.0),
    "rrs-w": lambda p, s, *_: (rrs_w_rate_exact(p, s.q, s.n), 0.0),
    "kseq": lambda p, s, *_: (kseq_solve(p, s.q, s.n).alpha_closed, 0.0),
    # The greedy verifier attains the optimum of its scheme.
    "greedy": lambda p, s, alpha_star, *_: (alpha_star, 0.0),
    "rrs-wo": _rrs_wo_rate,
}


def _run_position(cfg: ExperimentConfig, position: int, source) -> list[list[dict]]:
    """One position's rows for every sweep variant, in `_variants` order.
    ``source`` is the span of a file's line, (line number, offset, length),
    whose record is read and parsed here, or the position's
    (p_logits, q_logits). The Monte Carlo seed is the position's, and each
    distinct temperature's softmax is taken once."""
    logits = source if cfg.input_path is None else _read_record(cfg.input_path, *source)
    pq_at: dict[float, tuple[Dist, Dist]] = {}
    out = []
    for extra, temperature, n, schemes in _variants(cfg):
        if temperature not in pq_at:
            pq_at[temperature] = tuple(softmax_temp(lg, temperature) for lg in logits)
        p, q = pq_at[temperature]
        rows = []
        for name, kind, methods in schemes:
            scheme = DraftScheme(kind, q, n)
            if scheme.q_form is None:
                alpha_star = alpha_greedy_closed(p, q, n)
            else:
                alpha_star = alpha_scan(p, scheme).alpha_star
            for method in methods:
                alpha, stderr = _RATES[method](p, scheme, alpha_star, cfg, position)
                rows.append(
                    dict(
                        position=position,
                        scheme=name,
                        method=method,
                        alpha=alpha,
                        alpha_star=alpha_star,
                        gap=alpha - alpha_star,
                        stderr=stderr,
                        **extra,
                    )
                )
        out.append(rows)
    return out


def _thread_cap() -> int:
    """Worker processes allowed: the CPU count, capped by MDSD_THREADS."""
    cap = os.cpu_count() or 1
    env = os.environ.get("MDSD_THREADS")
    if env:
        try:
            cap = min(cap, max(1, int(env)))
        except ValueError:
            raise ValueError(f"MDSD_THREADS must be an integer (got {env!r})") from None
    return cap


def _positions(cfg: ExperimentConfig):
    """Yield each position's source for `_run_position`, found or drawn
    lazily: the span of a file's line, (line number, offset, length), or
    (p_logits, q_logits)."""
    if cfg.input_path is not None:
        yield from _lines(cfg.input_path)
    else:
        kind, param = _parse_synth(cfg.synth)
        for p, q in synth_positions(kind, param, cfg.vocab, cfg.positions, cfg.seed):
            with np.errstate(divide="ignore"):
                logits = np.log(p.mass), np.log(q.mass)
            yield logits


def _chunks(positions):
    """Group consecutive (position, source) pairs into lists; a list closes
    at _CHUNK_POSITIONS pairs or once it holds _CHUNK_BYTES of input."""
    chunk, size = [], 0
    for item in positions:
        chunk.append(item)
        last = item[1][-1]  # a file line's length, or the q logits
        size += last if isinstance(last, int) else 2 * last.nbytes
        if len(chunk) == _CHUNK_POSITIONS or size >= _CHUNK_BYTES:
            yield chunk
            chunk, size = [], 0
    if chunk:
        yield chunk


def _run_chunk(cfg: ExperimentConfig, chunk) -> list[list[list[dict]]]:
    return [_run_position(cfg, position, source) for position, source in chunk]


# The pool that pooled runs share, (worker count, executor, exit finalizer),
# or None. _pool_lock guards it and serialises the pooled runs of threads.
_pool = None
_pool_lock = threading.RLock()
# In a forked child, the pools its parent kept, never collected: collecting
# an executor takes its shutdown lock, which a thread of the parent may have
# held at the fork.
_inherited_pools = []


def _forget_pool() -> None:
    """Start a forked child with no pool and a free lock: the parent's
    workers are not its own, and a thread of the parent may have held the
    lock at the fork."""
    global _pool, _pool_lock
    if _pool is not None:
        _inherited_pools.append(_pool)
    _pool, _pool_lock = None, threading.RLock()


os.register_at_fork(after_in_child=_forget_pool)


def _worker_init(owner: int) -> None:
    """Set a pool worker up. SIGTERM ends it at once, whatever handler it
    forked with: one that raises would, depending on when it came, ship the
    exit back as its chunk's result or break the pool; a worker that dies
    always breaks it. A daemon thread ends the worker within
    `_OWNER_POLL_S` once ``owner``, the process that forked it, is gone, as
    after `main`'s SIGTERM: an idle worker waits on its task queue, whose
    write end it holds itself, so the owner's death closes nothing it
    reads."""
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    threading.Thread(target=_exit_when_orphaned, args=(owner,), daemon=True).start()


def _exit_when_orphaned(owner: int) -> None:
    while os.getppid() == owner:
        time.sleep(_OWNER_POLL_S)
    os._exit(1)


def _pool_for(cap: int) -> ProcessPoolExecutor:
    """The kept pool of ``cap`` workers, or a new one in place of a pool of
    another worker count or with a dead worker. The caller holds
    `_pool_lock`; the new pool forks its workers at its first submit."""
    global _pool
    # The executor marks itself broken once its manager thread sees a worker
    # die, and then refuses every submit.
    if _pool is None or _pool[0] != cap or _pool[1]._broken:
        _drop_pool()
        # Workers are forked whatever the default start method, so that each
        # is this process's child and sees it die. Under forkserver a
        # worker's parent would be the fork server, which outlives this
        # process as long as a worker lives.
        pool = ProcessPoolExecutor(
            max_workers=cap,
            mp_context=multiprocessing.get_context("fork"),
            initializer=_worker_init,
            initargs=(os.getpid(),),
        )
        # The exit of a multiprocessing child joins its own children before
        # the executor's exit hook stops them, so it would wait for the
        # workers for ever. This finalizer shuts the pool down first. Its
        # priority, 11, runs it before the task queue's own finalizer (10),
        # which stops the thread that sends the workers their stop signals.
        finalizer = multiprocessing.util.Finalize(None, _drop_pool, exitpriority=11)
        _pool = (cap, pool, finalizer)
    return _pool[1]


def _drop_pool() -> None:
    """Shut the kept pool down and forget it: chunks not yet started are
    cancelled and running ones awaited."""
    global _pool
    with _pool_lock:
        kept, _pool = _pool, None
        if kept is not None:
            kept[2].cancel()
            kept[1].shutdown(cancel_futures=True)


def _run_positions(cfg: ExperimentConfig, cap: int) -> list[list[list[dict]]]:
    """Every position's `_run_position` result, in position order.

    Positions stream from the input in chunks (see _CHUNK_BYTES). Once a
    second chunk is read and ``cap`` allows it, chunks run on the kept pool
    of ``cap`` workers (`_pool_for`) with at most two per worker in flight,
    so at most 2 * workers + 2 chunks are held at once; otherwise positions
    run serially as they are read. If a chunk fails or the run is stopped,
    the pool is dropped: the chunks not yet started are cancelled."""
    positions = enumerate(_positions(cfg))
    if cap > 1:
        chunks = _chunks(positions)
        head = list(itertools.islice(chunks, 2))
        chunks = itertools.chain(head, chunks)
        if len(head) > 1:
            out, window = [], deque()
            with _pool_lock:
                try:
                    pool = _pool_for(cap)
                    for chunk in chunks:
                        if len(window) == 2 * cap:
                            out.extend(window.popleft().result())
                        window.append(pool.submit(_run_chunk, cfg, chunk))
                    for future in window:
                        out.extend(future.result())
                except BaseException:
                    _drop_pool()
                    raise
            return out
        positions = itertools.chain.from_iterable(chunks)
    return [_run_position(cfg, position, source) for position, source in positions]


@functools.lru_cache(maxsize=1)
def _variants(cfg: ExperimentConfig) -> tuple:
    """The run's plan, worked out once per config: (extra report columns,
    temperature, draft count, schemes) of every sweep variant, where schemes
    lists (name, kind, methods) for each requested scheme that some
    requested method verifies at that draft count."""
    kinds = [DraftKind(name) for name in cfg.schemes]
    plan = []
    for v in cfg.sweep_values or (None,):
        temperature, n = cfg.temperature, cfg.num_drafts
        if cfg.sweep == "temperature":
            temperature = v = float(v)
        elif cfg.sweep == "drafts":
            n = v = int(v)
        extra = {"sweep_param": cfg.sweep, "sweep_value": v} if cfg.sweep else {}
        methods = [tuple(m for m in cfg.methods if supports(m, kind, n)) for kind in kinds]
        schemes = tuple(row for row in zip(cfg.schemes, kinds, methods) if row[2])
        plan.append((extra, temperature, n, schemes))
    return tuple(plan)


def _aggregate(rows: list[dict]) -> list[dict]:
    groups: dict[tuple, list[dict]] = {}
    for row in rows:
        key = (
            row.get("sweep_param", ""),
            row.get("sweep_value", ""),
            row["scheme"],
            row["method"],
        )
        groups.setdefault(key, []).append(row)
    out = []
    for key in sorted(groups, key=str):
        grp = groups[key]
        alphas = np.array([r["alpha"] for r in grp])
        stars = np.array([r["alpha_star"] for r in grp])
        gaps = np.array([r["gap"] for r in grp])
        agg = dict(
            position="mean",
            scheme=key[2],
            method=key[3],
            alpha=float(alphas.mean()),
            alpha_star=float(stars.mean()),
            gap=float(gaps.mean()),
            stderr=float(alphas.std(ddof=1) / np.sqrt(alphas.size)) if alphas.size > 1 else 0.0,
        )
        if key[0]:
            agg["sweep_param"], agg["sweep_value"] = key[0], key[1]
        out.append(agg)
    return out


def _check_config(cfg: ExperimentConfig) -> None:
    """Reject a config that no run can use, naming the field at fault."""
    if (cfg.input_path is None) == (cfg.synth is None):
        raise ValueError("exactly one of input_path / synth must be set")
    if cfg.synth is not None:
        _parse_synth(cfg.synth)
    for field, known in (("schemes", SCHEME_NAMES), ("methods", METHODS)):
        names = getattr(cfg, field)
        if not names:
            raise ValueError(f"{field} must name at least one {field[:-1]}")
        for name in names:
            if name not in known:
                raise ValueError(f"unknown {field[:-1]} {name!r}")
    if cfg.sweep not in (None, *SWEEPS):
        raise ValueError(f"unknown sweep {cfg.sweep!r}")
    if (cfg.sweep is None) != (not cfg.sweep_values):
        raise ValueError(
            f"sweep and sweep_values must be set together (got {cfg.sweep!r}, {cfg.sweep_values})"
        )
    if cfg.fmt not in FORMATS:
        raise ValueError(f"unknown format {cfg.fmt!r}")
    if cfg.positions < 0:
        raise ValueError(f"positions must be >= 0 (got {cfg.positions})")
    if cfg.num_drafts < 1:
        raise ValueError(f"num_drafts must be >= 1 (got {cfg.num_drafts})")
    if cfg.trials < 1:
        raise ValueError(f"trials must be >= 1 (got {cfg.trials})")
    if cfg.seed < 0:
        raise ValueError(f"seed must be >= 0 (got {cfg.seed})")
    if not (math.isfinite(cfg.temperature) and cfg.temperature >= 0.0):
        raise ValueError(f"temperature must be finite and >= 0 (got {cfg.temperature})")
    for i, v in enumerate(cfg.sweep_values):
        if v in cfg.sweep_values[:i]:
            raise ValueError(f"sweep_values must be distinct ({v} repeats)")
        if cfg.sweep == "drafts" and not (float(v).is_integer() and v >= 1):
            raise ValueError(
                f"sweep_values of a drafts sweep must be positive integers (got {v})"
            )
        if cfg.sweep == "temperature" and not (math.isfinite(v) and v >= 0.0):
            raise ValueError(
                f"sweep_values of a temperature sweep must be finite and >= 0 (got {v})"
            )


def run_experiment(cfg: ExperimentConfig) -> list[dict]:
    """Check the config, run all positions, write the report, and return the
    rows."""
    _check_config(cfg)
    cap = _thread_cap()
    planned = {m for *_, schemes in _variants(cfg) for *_, methods in schemes for m in methods}
    unused = [m for m in cfg.methods if m not in planned]
    if unused:
        print(
            "warning: skipping methods that apply to no requested scheme: "
            + ", ".join(unused),
            file=sys.stderr,
        )

    per_position = _run_positions(cfg, cap)
    if not per_position:
        print("warning: no positions in input", file=sys.stderr)
    # Variant-major: every position of the first variant, then the next.
    rows = [row for variant in zip(*per_position) for batch in variant for row in batch]
    rows.extend(_aggregate(rows))

    hash_ = cfg.config_hash()
    for row in rows:
        row["seed"] = cfg.seed
        row["config_hash"] = hash_
    _write_report(cfg, rows)
    return rows


def _write_report(cfg: ExperimentConfig, rows: list[dict]) -> None:
    columns = list(BASE_COLUMNS)
    if any("sweep_param" in r for r in rows):
        columns += ["sweep_param", "sweep_value"]
    if cfg.fmt == "csv":
        lines = [",".join(columns), *_csv_lines(rows, columns)]
    else:
        encode = json.JSONEncoder(sort_keys=True).encode
        lines = [encode({c: row[c] for c in columns if c in row}) for row in rows]
    text = "\n".join(lines) + "\n"
    if cfg.output:
        with open(cfg.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _csv_lines(rows: list[dict], columns: list[str]):
    """Each row's CSV line: a float cell as ``%.9g``, any other by `str`, a
    missing one empty. Rows whose cells have the same types share one
    format string, built once."""
    blanks = [""] * len(columns)
    templates: dict[tuple, str] = {}
    for row in rows:
        cells = tuple(map(row.get, columns, blanks))
        kinds = tuple(map(type, cells))
        template = templates.get(kinds)
        if template is None:
            template = templates[kinds] = ",".join(
                "%.9g" if issubclass(kind, float) else "%s" for kind in kinds
            )
        yield template % cells


def _names(text: str) -> tuple[str, ...]:
    """A comma-separated list, its blank items dropped."""
    return tuple(item.strip() for item in text.split(",") if item.strip())


def _numbers(text: str) -> tuple[float, ...]:
    return tuple(float(item) for item in _names(text))


def _build_parser() -> argparse.ArgumentParser:
    """Options named after `ExperimentConfig` fields, as its ``dest``; an
    option not given is left out, so the config's default applies."""
    ap = argparse.ArgumentParser(
        prog="mdsd-bench",
        description="Acceptance-rate report for multi-draft speculative decoding.",
        argument_default=argparse.SUPPRESS,
    )
    src = ap.add_mutually_exclusive_group(required=True)
    src.add_argument("--input", dest="input_path", help="line-delimited logits records, JSON")
    src.add_argument("--synth", help="synthetic generator, e.g. dirichlet:5.0 or zipf:1.0")
    ap.add_argument("--vocab", type=int, help="synthetic vocabulary size")
    ap.add_argument("--positions", type=int, help="synthetic position count")
    ap.add_argument("--temperature", type=float)
    ap.add_argument("--num-drafts", type=int)
    ap.add_argument("--schemes", type=_names, help="comma-separated draft schemes")
    ap.add_argument("--methods", type=_names, help="comma-separated verification methods")
    ap.add_argument("--trials", type=int, help="Monte Carlo trials per position")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--sweep", choices=SWEEPS)
    ap.add_argument("--sweep-values", type=_numbers, help="comma-separated sweep values")
    ap.add_argument("--output", help="report path (default: stdout)")
    ap.add_argument("--format", dest="fmt", choices=FORMATS)
    return ap


def _stop(signum, frame):
    os._exit(128 + signum)


def main(argv=None) -> int:
    cfg = ExperimentConfig(**vars(_build_parser().parse_args(argv)))
    # A SIGTERM ends the process at once, with no report; the pool's
    # workers see it gone and exit by themselves (`_worker_init`).
    previous = signal.signal(signal.SIGTERM, _stop)
    try:
        run_experiment(cfg)
    except BrokenProcessPool as exc:  # a worker was killed
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (MalformedInputError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        # The run leaves no worker behind.
        _drop_pool()
        signal.signal(signal.SIGTERM, previous)
    return 0


if __name__ == "__main__":
    sys.exit(main())
