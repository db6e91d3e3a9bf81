"""Correctness checks on the rows `mdsd.cli.run_experiment` returns.

`check_rows` runs on every report of every timed iteration. `cross_check`
runs once, after timing, on a seeded sample of positions small enough for
the exact oracles: it compares each `alpha_star` with the exact subset
optimum and each rrs-wo estimate with the rate enumerated over the whole
draft support.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction

import numpy as np
from mdsd.cli import synth_positions
from mdsd.dists import softmax_temp
from mdsd.drafts import DraftKind, DraftScheme, iter_support, tuple_prob
from mdsd.oracle import RationalScheme
from mdsd.verify import RrsWoKernel

from workloads import variants

EXACT_TOL = 1e-9
# Floating-point rounding can put a closed form a few ulps outside [0, 1]
# (alpha_greedy_closed returns 1 + 4e-16 when the drafts cover all of p);
# such values are noted, not failed.
RANGE_TOL = 1e-12
RRS_WO_Z = 5.0
EXACT_METHODS = ("rrs-w", "kseq", "greedy", "ot-single")


def z_scale(stderr: float, reference: float, trials: int) -> float:
    """The error scale an rrs-wo estimate is judged by: the largest of its
    reported stderr, the binomial standard deviation of ``trials`` trials
    at the ``reference`` rate, and 1/trials. The reported stderr alone
    collapses when the estimate sits at 0 or 1, so near-certain acceptance
    would raise false alarms."""
    sd = math.sqrt(max(reference * (1.0 - reference), 0.0) / trials)
    return max(stderr, sd, 1.0 / trials)


def row_key(row: dict) -> tuple:
    return (row.get("sweep_value"), row["position"], row["scheme"], row["method"])


def per_position(rows: list[dict]) -> dict[tuple, dict]:
    """Per-position rows by key; aggregate rows (position "mean") dropped."""
    return {row_key(r): r for r in rows if r["position"] != "mean"}


def _row_fault(row: dict, trials: int, notes: Counter) -> str | None:
    values = [row[k] for k in ("alpha", "alpha_star", "gap", "stderr")]
    if not all(isinstance(v, float) and math.isfinite(v) for v in values):
        return "non-finite value"
    alpha, star, stderr = row["alpha"], row["alpha_star"], row["stderr"]
    for name, v in (("alpha", alpha), ("alpha_star", star)):
        if not -RANGE_TOL <= v <= 1.0 + RANGE_TOL:
            return f"{name} outside [0, 1]"
        if not 0.0 <= v <= 1.0:
            notes[f"{row['method']} {name} outside [0, 1] by less than {RANGE_TOL:g}"] += 1
    if abs(row["gap"] - (alpha - star)) > 1e-12:
        return "gap != alpha - alpha_star"
    method = row["method"]
    if method in EXACT_METHODS and stderr != 0.0:
        return "exact method with nonzero stderr"
    if method in ("rrs-w", "kseq") and alpha > star + EXACT_TOL:
        return f"{method} above the with-replacement optimum"
    if method in ("greedy", "ot-single") and abs(alpha - star) > EXACT_TOL:
        return f"{method} differs from its optimum"
    if method == "rrs-wo":
        if stderr < 0.0:
            return "negative stderr"
        if alpha > star + RRS_WO_Z * z_scale(stderr, star, trials):
            return "rrs-wo above the without-replacement optimum"
    return None


def check_rows(rows: list[dict], expected: set[tuple], trials: int, notes: Counter) -> Counter:
    """Failure reasons, one count per failed expected row. Missing,
    duplicated and unexpected rows count as failures too. Rounding
    excursions are counted in ``notes``."""
    faults: Counter = Counter()
    seen = Counter(row_key(r) for r in rows if r["position"] != "mean")
    by_key = per_position(rows)
    for key in expected:
        if key not in by_key:
            faults["missing row"] += 1
        elif seen[key] > 1:
            faults["duplicate row"] += 1
        else:
            fault = _row_fault(by_key[key], trials, notes)
            if fault:
                faults[fault] += 1
    unexpected = len(set(by_key) - expected)
    if unexpected:
        faults["unexpected row"] += unexpected
    return faults


def _rational(dist) -> tuple[Fraction, ...]:
    """The float masses as exact rationals, renormalised to sum to 1."""
    exact = [Fraction(float(x)) for x in dist.mass]
    total = sum(exact)
    return tuple(x / total for x in exact)


def _rrs_wo_rate_exact(p, q, n: int) -> float:
    """rrs-wo acceptance rate: the probability that the verifier's output is
    one of the drafts, summed over the whole without-replacement support."""
    scheme = DraftScheme.without_replacement(q, n)
    kernel = RrsWoKernel(p, q, n)
    rate = 0.0
    for t in iter_support(scheme):
        cond = kernel.conditional(t)
        rate += tuple_prob(scheme, t) * float(sum(cond[x] for x in set(t)))
    return rate


def cross_check(cfg, rows: list[dict], sample: int, subset_exact) -> dict:
    """Exact checks on ``sample`` positions drawn with a generator seeded from
    ``cfg.seed``. ``subset_exact`` is `mdsd.oracle.alpha_subset_exact`, passed
    in so that a traced run can time it."""
    kind, _, param = cfg.synth.partition(":")
    positions = list(synth_positions(kind, float(param), cfg.vocab, cfg.positions, cfg.seed))
    rng = np.random.default_rng([cfg.seed, 7])
    picked = sorted(int(i) for i in rng.choice(len(positions), size=sample, replace=False))
    by_key = per_position(rows)
    stars = {k[:3]: r["alpha_star"] for k, r in by_key.items()}
    lp = Counter()
    lp_checks = Counter()
    z_values = []
    for value, n, temperature in variants(cfg):
        for idx in picked:
            with np.errstate(divide="ignore"):
                p_logits, q_logits = (np.log(d.mass) for d in positions[idx])
            p = softmax_temp(p_logits, temperature)
            q = softmax_temp(q_logits, temperature)
            p_rat, q_rat = _rational(p), _rational(q)
            for scheme in cfg.schemes:
                reported = stars.get((value, idx, scheme))
                if reported is None:  # already counted by check_rows
                    continue
                exact = subset_exact(p_rat, RationalScheme(DraftKind(scheme), q_rat, n))
                lp_checks[scheme] += 1
                if abs(float(exact) - reported) > EXACT_TOL:
                    lp[scheme] += 1
            row = by_key.get((value, idx, "without-replacement", "rrs-wo"))
            if row is not None:
                exact = _rrs_wo_rate_exact(p, q, n)
                scale = z_scale(row["stderr"], exact, cfg.trials)
                z_values.append((row["alpha"] - exact) / scale)
    z = np.asarray(z_values)
    return dict(
        lp_checks=sum(lp_checks.values()),
        lp_mismatches=sum(lp.values()),
        lp_by_scheme={s: f"{lp[s]}/{lp_checks[s]}" for s in cfg.schemes},
        z_checks=int(z.size),
        z_failed=int((np.abs(z) > RRS_WO_Z).sum()),
        z_rms=float(np.sqrt(np.mean(z ** 2))) if z.size else 0.0,
        z_max=float(np.abs(z).max()) if z.size else 0.0,
    )
