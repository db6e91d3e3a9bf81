"""Workload table and input generation for the mdsd benchmark.

Each workload is one `mdsd.cli.ExperimentConfig` (minus the seed and the
report path, which the harness fills in), the worker count it runs at, and,
for dump workloads, the parameters of the logits dump generated from the
benchmark seed before anything is timed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

@dataclass(frozen=True)
class DumpSpec:
    """A JSONL logits dump: target logits are Gumbel draws times
    ``gumbel_scale`` (exponential upper tail, so a few tokens hold most of
    the mass, as in a language model), and draft logits are the target
    logits plus Gaussian noise of standard deviation ``noise``, so p and q
    are correlated and acceptance is high. Values are written rounded to
    ``decimals`` places; every logit is finite."""

    records: int
    vocab: int
    gumbel_scale: float
    noise: float
    decimals: int


@dataclass(frozen=True)
class Workload:
    threads: int
    config: dict
    dump: DumpSpec | None = None
    # Positions of the check phase's exact cross-checks (0: no check phase).
    oracle_sample: int = 0


WORKLOADS = {
    # The ROADMAP reference run. p and q are independent permutations of
    # the same power law, so acceptance is low; the rrs-wo Monte Carlo
    # (mc.estimate_alpha + drafts.sample_tuples) dominates.
    "ref-zipf1k": Workload(
        threads=2,
        config=dict(
            synth="zipf:1.0", vocab=1000, positions=128,
            num_drafts=3, temperature=0.7, trials=256,
        ),
    ),
    # The Monte Carlo bypass: no rrs-wo, so mc does no work. The 32000-token
    # scan per scheme and the JSON parsing of the dump dominate. Gumbel scale
    # 1 keeps thousands of draft tokens above the 1e-12 support threshold; at
    # scale 2 about one record in 3000 keeps fewer than 8, and the unused
    # without-replacement scan then aborts the whole run (ROADMAP item 5).
    "dump32k-exact": Workload(
        threads=2,
        config=dict(
            num_drafts=8, temperature=0.7,
            methods=("rrs-w", "kseq", "greedy"),
        ),
        dump=DumpSpec(records=32, vocab=32000, gumbel_scale=1.0, noise=1.0, decimals=6),
    ),
    # Fixed per-call cost dominates; the only workload on the sweep path and
    # ot-single, and the only size the exact oracles can check.
    "tiny-sweep": Workload(
        threads=1,
        config=dict(
            synth="dirichlet:1.0", vocab=8, positions=500,
            sweep="drafts", sweep_values=(1.0, 2.0, 3.0),
            methods=("rrs-w", "kseq", "rrs-wo", "greedy", "ot-single"),
            trials=256, temperature=0.7,
        ),
        oracle_sample=48,
    ),
}


def write_dump(spec: DumpSpec, seed: int, path: str, first_path: str) -> None:
    """Write the dump for ``seed`` to ``path`` and its first record alone to
    ``first_path``."""
    rng = np.random.default_rng([seed, 32000])
    with open(path, "w", encoding="utf-8") as fh:
        for i in range(spec.records):
            p = spec.gumbel_scale * rng.gumbel(size=spec.vocab)
            q = p + spec.noise * rng.standard_normal(spec.vocab)
            line = json.dumps(
                {
                    "p_logits": p.round(spec.decimals).tolist(),
                    "q_logits": q.round(spec.decimals).tolist(),
                }
            ) + "\n"
            fh.write(line)
            if i == 0:
                with open(first_path, "w", encoding="utf-8") as first:
                    first.write(line)


def variants(cfg) -> list[tuple[object, int, float]]:
    """(sweep value or None, draft count, temperature) for every variant of
    an `ExperimentConfig`."""
    if cfg.sweep is None:
        return [(None, cfg.num_drafts, cfg.temperature)]
    if cfg.sweep == "drafts":
        return [(int(v), int(v), cfg.temperature) for v in cfg.sweep_values]
    return [(float(v), cfg.num_drafts, float(v)) for v in cfg.sweep_values]


def methods_for(scheme: str, n: int, methods) -> list[str]:
    """Methods the report must contain for a scheme at draft count n. This is
    the benchmark's own statement of the method/scheme table, kept apart
    from the program's so that a missing or extra row shows."""
    table = {
        "with-replacement": ("rrs-w", "kseq"),
        "without-replacement": ("rrs-wo",),
        "greedy": ("greedy",),
    }
    out = [m for m in methods if m in table[scheme]]
    if n == 1 and scheme != "greedy" and "ot-single" in methods:
        out.append("ot-single")
    return out


def expected_rows(cfg, positions: int) -> set[tuple]:
    """Keys (sweep value, position, scheme, method) of every per-position
    row the report of ``cfg`` must hold."""
    return {
        (value, pos, scheme, m)
        for value, n, _ in variants(cfg)
        for pos in range(positions)
        for scheme in cfg.schemes
        for m in methods_for(scheme, n, cfg.methods)
    }
