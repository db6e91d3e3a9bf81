"""Experiment runner: logits ingestion, synthetic generators, report
structure and the command-line entry point."""

import dataclasses
import json
import math
import multiprocessing
import os
import pickle
import signal
import subprocess
import sys
import threading
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mdsd import cli
from mdsd.alpha import alpha_greedy_closed, alpha_scan, alpha_single_draft, ratio_order, residual_table
from mdsd.cli import (
    ExperimentConfig,
    MalformedInputError,
    load_logits,
    main,
    parse_record,
    run_experiment,
    synth_positions,
)
from mdsd.dists import Dist, _check_logits, softmax_temp, tv_distance
from mdsd.drafts import DraftKind, DraftScheme
from mdsd.mc import estimate_alpha
from mdsd.verify import METHODS, kseq_solve, rrs_w_rate_exact, rrs_wo_rate_exact


def write_jsonl(path, records):
    with open(path, "w") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")


def record(p_logits, q_logits):
    return {"p_logits": list(p_logits), "q_logits": list(q_logits)}


class TestLoadLogits:
    def test_two_records(self, tmp_path):
        path = tmp_path / "logits.jsonl"
        write_jsonl(path, [record([0, 1, 2, 3], [3, 2, 1, 0])] * 2)
        recs = list(load_logits(str(path)))
        assert len(recs) == 2
        p, q = recs[0]
        assert p.tolist() == [0, 1, 2, 3] and q.tolist() == [3, 2, 1, 0]

    def test_ragged_lengths_name_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        write_jsonl(path, [record([0, 1], [1, 0, 2])])
        with pytest.raises(MalformedInputError, match="line 1"):
            list(load_logits(str(path)))

    def test_missing_field(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        write_jsonl(path, [record([0, 1], [1, 0]), {"p_logits": [0, 1]}])
        with pytest.raises(MalformedInputError, match="line 2.*q_logits"):
            list(load_logits(str(path)))

    def test_non_finite(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        write_jsonl(path, [record([0, None], [1, 0])])
        with pytest.raises(MalformedInputError, match="line 1"):
            list(load_logits(str(path)))

    def test_nan_and_inf_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        for rec in (record([0, math.nan], [1, 0]), record([0, 1], [math.inf, 0])):
            write_jsonl(path, [rec])
            with pytest.raises(MalformedInputError, match="line 1.*finite or -inf"):
                list(load_logits(str(path)))

    def test_partly_masked_accepted(self, tmp_path):
        # -inf masks a token out; the other tokens keep the record usable.
        path = tmp_path / "masked.jsonl"
        write_jsonl(path, [record([0, -math.inf], [-math.inf, 1])])
        (p, q), = load_logits(str(path))
        assert p.tolist() == [0, -math.inf] and q.tolist() == [-math.inf, 1]

    def test_all_masked_line_named(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        inf = float("inf")
        write_jsonl(path, [record([0, -inf], [1, 0]), record([-inf, -inf], [1, 0])])
        with pytest.raises(MalformedInputError, match="line 2.*every token"):
            list(load_logits(str(path)))

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("not json\n")
        with pytest.raises(MalformedInputError, match="line 1"):
            list(load_logits(str(path)))

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert list(load_logits(str(path))) == []


def reference_lines(data: bytes):
    """`cli._lines` by splitting: the pieces of ``data.split(b"\\n")``, each
    with its newline and numbered from 1, that are not empty or blank by
    `bytes.isspace`, as (line number, offset, length)."""
    out, offset = [], 0
    pieces = data.split(b"\n")
    for lineno, piece in enumerate(pieces, start=1):
        line = piece if lineno == len(pieces) else piece + b"\n"
        if line and not line.isspace():
            out.append((lineno, offset, len(line)))
        offset += len(line)
    return out


WHITESPACE = (b" ", b"\t", b"\n", b"\r", b"\x0b", b"\x0c")  # bytes.isspace's six


class TestLines:
    """`_lines` scans through one buffer of `_SCAN_BYTES`; a line or a blank
    run may cross any number of buffer edges."""

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(
        st.lists(st.sampled_from([*WHITESPACE, b"\r\n", b"{}", b"x\xff"]), max_size=40).map(b"".join),
        st.sampled_from([1, 2, 3, 5, 8, 1 << 20]),
    )
    @example(b"", 1 << 20)
    @example(b'{"a": 1}\r\n\r\n{"b": 2}\r\n', 1 << 20)  # CRLF endings
    @example(b"{}\n{}", 1 << 20)  # no final newline
    @example(b"{}\n \t\r\x0b\x0c\n\n" + b" " * 20 + b"\n{}", 3)  # blank runs across edges
    @example(b"{" + b" " * 50 + b"}\n \n" + b"x" * 30, 7)  # lines longer than the buffer
    def test_matches_split_reference(self, tmp_path_factory, data, scan_bytes):
        path = tmp_path_factory.getbasetemp() / "lines.jsonl"
        path.write_bytes(data)
        with mock.patch.object(cli, "_SCAN_BYTES", scan_bytes):
            assert list(cli._lines(str(path))) == reference_lines(data)

    @pytest.mark.parametrize("space", WHITESPACE)
    def test_line_of_one_whitespace_byte_is_blank(self, tmp_path, space):
        path = tmp_path / "in.jsonl"
        data = b"{}\n" + space * 3 + b"\n{}\n"
        path.write_bytes(data)
        spans = list(cli._lines(str(path)))
        assert len(spans) == 2 and spans == reference_lines(data)

    def test_records_longer_than_the_buffer(self, tmp_path, monkeypatch):
        # CRLF endings, a blank line and no final newline; read back through
        # a buffer far shorter than a record, each record is the same.
        path = tmp_path / "in.jsonl"
        logits_file(path, 3, 40)
        want = list(load_logits(str(path)))
        lines = path.read_bytes().splitlines()
        path.write_bytes(lines[0] + b"\r\n\r\n" + b"\r\n".join(lines[1:]))
        monkeypatch.setattr(cli, "_SCAN_BYTES", 64)
        assert [lineno for lineno, *_ in cli._lines(str(path))] == [1, 3, 4]
        np.testing.assert_array_equal(list(load_logits(str(path))), want)

    def test_file_cut_short_names_the_line(self, tmp_path):
        # A record is read after the scan found its line: a file truncated
        # in between is a malformed line, named.
        path = tmp_path / "in.jsonl"
        logits_file(path, 2, 40)
        spans = list(cli._lines(str(path)))
        with open(path, "r+b") as fh:
            fh.truncate(spans[1][1] + 10)
        cfg = ExperimentConfig(input_path=str(path))
        with pytest.raises(MalformedInputError, match="line 2: the file ends"):
            cli._run_position(cfg, 1, spans[1])


def reference_parse(lineno, line):
    """`parse_record` by the json module alone: json.loads of the line's
    text, then one np.asarray per field."""
    try:
        obj = json.loads(line.decode("utf-8") if isinstance(line, bytes) else line)
    except json.JSONDecodeError as exc:
        raise MalformedInputError(f"line {lineno}: invalid JSON ({exc.msg})")
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
    except (TypeError, ValueError) as exc:
        raise MalformedInputError(f"line {lineno}: {exc}")
    return p, q


def reference_report(rows, fmt):
    """The report of ``rows`` cell by cell: in CSV a float as %.9g, any
    other value by str and a missing one empty; in JSONL each row's
    json.dumps with sorted keys."""

    def cell(value):
        return f"{value:.9g}" if isinstance(value, float) else str(value)

    columns = list(cli.BASE_COLUMNS)
    if any("sweep_param" in r for r in rows):
        columns += ["sweep_param", "sweep_value"]
    if fmt == "csv":
        lines = [",".join(columns)]
        lines += [",".join(cell(r.get(c, "")) for c in columns) for r in rows]
    else:
        lines = [json.dumps({c: r[c] for c in columns if c in r}, sort_keys=True) for r in rows]
    return "\n".join(lines) + "\n"


def _seventeen_digits(count, seed=11):
    rng = np.random.default_rng(seed)
    values = rng.standard_normal(count) * 10.0 ** rng.integers(-300, 301, count)
    return "[" + ", ".join(f"{v:.17g}" for v in values) + "]"


_P = "[0.5, -1.25, 3.0]"
_Q = "[1.0, 2.0, -0.75]"
PARSE_CORPUS = {
    "str": f'{{"p_logits": {_P}, "q_logits": {_Q}}}\n',
    "bytes": f'{{"p_logits": {_P}, "q_logits": {_Q}}}\n'.encode(),
    "crlf-str": f'{{"p_logits": {_P}, "q_logits": {_Q}}}\r\n',
    "crlf-bytes": f'{{"p_logits": {_P}, "q_logits": {_Q}}}\r\n'.encode(),
    "keys-reversed": f'{{"q_logits": {_Q}, "p_logits": {_P}}}'.encode(),
    "extra-nested-fields": (
        f'{{"meta": {{"model": ["a", {{"b": null, "c": [true, 1e5]}}]}}, '
        f'"p_logits": {_P}, "tag": "x", "q_logits": {_Q}}}'
    ).encode(),
    "integers": b'{"p_logits": [0, 1, -3, 7], "q_logits": [2, -0, 5, 1]}',
    "big-integers": (
        b'{"p_logits": [123456789012345678901234567890, 9223372036854775808, '
        b'18446744073709551616, -9223372036854775809, 9007199254740993], '
        b'"q_logits": [1, 2, 3, 4, 5]}'
    ),
    "negative-zero": b'{"p_logits": [-0.0, 0.0, -0, -0e3], "q_logits": [0, -0.0, 1, 2]}',
    "exponents": (
        b'{"p_logits": [1e-300, 2.5E+10, -4e-7, 1.7976931348623157e308, 1e23], '
        b'"q_logits": [5e-324, 2.2250738585072014e-308, 4.9e-324, 1E0, -1e-5]}'
    ),
    "seventeen-digits": (
        f'{{"p_logits": {_seventeen_digits(400)}, "q_logits": {_seventeen_digits(400, 12)}}}'
    ).encode(),
    "booleans": b'{"p_logits": [true, false], "q_logits": [1, 0]}',
    "masked": b'{"p_logits": [0.5, -Infinity, 1.0], "q_logits": [-Infinity, 2.0, 0.25]}',
    "masked-str": '{"p_logits": [0.5, -Infinity, 1.0], "q_logits": [-Infinity, 2.0, 0.25]}',
    "nan": b'{"p_logits": [0.5, NaN], "q_logits": [1.0, 2.0]}',
    "infinity": b'{"p_logits": [0.5, 1.0], "q_logits": [Infinity, 2.0]}',
    "overflow-to-inf": b'{"p_logits": [0.5, 1e400], "q_logits": [1.0, 2.0]}',
    "all-masked": b'{"p_logits": [-Infinity, -Infinity], "q_logits": [1.0, 2.0]}',
    "null-logit": b'{"p_logits": [0.5, null], "q_logits": [1.0, 2.0]}',
    "string-logit": b'{"p_logits": [0.5, "a"], "q_logits": [1.0, 2.0]}',
    "invalid-json": b"not json",
    "truncated": b'{"p_logits": [0.5, 1.0',
    "trailing-comma": b'{"p_logits": [0.5, 1.0,], "q_logits": [1.0, 2.0]}',
    "leading-zero": b'{"p_logits": [01, 1.0], "q_logits": [1.0, 2.0]}',
    "extra-data": b'{"p_logits": [1.0], "q_logits": [2.0]} {}',
    "non-object": b"[0.5, 1.0]",
    "missing-field": b'{"p_logits": [0.5, 1.0]}',
    "length-mismatch": b'{"p_logits": [0.5, 1.0], "q_logits": [1.0, 2.0, 3.0]}',
    "empty-logits": b'{"p_logits": [], "q_logits": []}',
    "nested-logits": b'{"p_logits": [[0.5], [1.0]], "q_logits": [[1.0], [2.0]]}',
    "bom-bytes": b"\xef\xbb\xbf" + f'{{"p_logits": {_P}, "q_logits": {_Q}}}'.encode(),
    "bom-str": "\ufeff" + f'{{"p_logits": {_P}, "q_logits": {_Q}}}',
    "lone-surrogate-escaped": f'{{"p_logits": {_P}, "q_logits": {_Q}, "n": "\\ud800"}}'.encode(),
    "lone-surrogate-str": f'{{"p_logits": {_P}, "q_logits": {_Q}, "n": "\ud800"}}',
}


class TestParseRecord:
    """`parse_record` reads each corpus line as the json module reads its
    text: the same arrays, bit for bit, or the same error message. A line
    that is not UTF-8 has no text, and is named by its line number."""

    @pytest.mark.parametrize("line", PARSE_CORPUS.values(), ids=PARSE_CORPUS.keys())
    def test_matches_json_module(self, line):
        try:
            expected = reference_parse(7, line)
        except MalformedInputError as exc:
            with pytest.raises(MalformedInputError) as got:
                parse_record(7, line)
            assert str(got.value) == str(exc)
            return
        for got, ref in zip(parse_record(7, line), expected):
            assert got.dtype == ref.dtype and got.shape == ref.shape
            assert got.tobytes() == ref.tobytes()

    def test_integer_beyond_float_range_named(self):
        # np.asarray raises OverflowError for an int that no float holds.
        line = f'{{"p_logits": [{"1" * 400}, 0.5], "q_logits": [1.0, 2.0]}}'
        for text in (line, line.encode()):
            with pytest.raises(MalformedInputError, match="^line 4: int too large to convert to float"):
                parse_record(4, text)

    def test_deep_nesting_named(self):
        # orjson refuses the NaN, and the json module then runs out of
        # recursion depth on the nesting.
        line = '{"p_logits": ' + "[" * 1000 + "]" * 1000 + ', "q_logits": [NaN]}'
        for text in (line, line.encode()):
            with pytest.raises(MalformedInputError, match=r"^line 5: invalid JSON \(nested too deeply\)"):
                parse_record(5, text)

    def test_line_not_utf8_named(self):
        # A byte 0xff, and a lone surrogate encoded as UTF-8 bytes.
        lines = (b'{"p_logits": [0.5, \xff1.0], "q_logits": [1.0, 2.0]}', b'{"n": "\xed\xa0\x80"}')
        for line in lines:
            with pytest.raises(MalformedInputError, match="^line 3: 'utf-8' codec can't decode"):
                parse_record(3, line)


class TestSynthPositions:
    def test_zipf_valid_dists(self):
        p, q = next(synth_positions("zipf", 1.0, 1000, 1, seed=0))
        assert p.vocab_size == 1000
        assert abs(p.mass.sum() - 1.0) <= 1e-9
        assert not np.array_equal(p.mass, q.mass)

    def test_same_seed_identical(self):
        a = list(synth_positions("zipf", 1.0, 100, 5, seed=3))
        b = list(synth_positions("zipf", 1.0, 100, 5, seed=3))
        for (pa, qa), (pb, qb) in zip(a, b):
            assert np.array_equal(pa.mass, pb.mass)
            assert np.array_equal(qa.mass, qb.mass)

    def test_dirichlet_concentration_approaches_uniform(self):
        uniform = Dist.uniform(10)
        for seed in range(20):
            p, q = next(synth_positions("dirichlet", 1e4, 10, 1, seed=seed))
            assert tv_distance(p, uniform) < 0.05
            assert tv_distance(q, uniform) < 0.05

    def test_unknown_generator(self):
        with pytest.raises(ValueError):
            list(synth_positions("cauchy", 1.0, 10, 1, seed=0))


class TestRunExperiment:
    def config(self, tmp_path, **kw):
        defaults = dict(
            synth="zipf:1.0",
            vocab=50,
            positions=3,
            trials=256,
            seed=5,
            output=str(tmp_path / "report.csv"),
        )
        defaults.update(kw)
        return ExperimentConfig(**defaults)

    def test_degenerate_equal_models(self, tmp_path):
        logits = [record([0.3, 1.0, -2.0, 0.5], [0.3, 1.0, -2.0, 0.5])] * 2
        path = tmp_path / "equal.jsonl"
        write_jsonl(path, logits)
        cfg = self.config(
            tmp_path, synth=None, input_path=str(path), num_drafts=2, trials=128
        )
        rows = run_experiment(cfg)
        for row in rows:
            assert row["alpha"] == pytest.approx(1.0, abs=1e-12)
            assert row["alpha_star"] == pytest.approx(1.0, abs=1e-12)

    def test_hand_built_position(self, tmp_path):
        logits = [
            record(
                [math.log(0.05), math.log(0.05), math.log(0.9)],
                [math.log(0.5), math.log(0.3), math.log(0.2)],
            )
        ]
        path = tmp_path / "hand.jsonl"
        write_jsonl(path, logits)
        cfg = self.config(
            tmp_path,
            synth=None,
            input_path=str(path),
            num_drafts=2,
            temperature=1.0,
            trials=512,
        )
        rows = run_experiment(cfg)
        by_key = {
            (r["scheme"], r["method"]): r for r in rows if r["position"] == 0
        }
        wr = by_key[("with-replacement", "rrs-w")]
        assert wr["alpha_star"] == pytest.approx(0.46, abs=1e-9)
        assert wr["alpha"] == pytest.approx(0.44, abs=1e-9)
        wo = by_key[("without-replacement", "rrs-wo")]
        assert wo["alpha_star"] == pytest.approx(1.0 + 0.1 - 0.15 / 0.31, abs=1e-9)

    def test_csv_shape_and_hash(self, tmp_path):
        cfg = self.config(tmp_path)
        rows = run_experiment(cfg)
        text = open(cfg.output).read()
        lines = text.strip().split("\n")
        assert lines[0] == (
            "position,scheme,method,alpha,alpha_star,gap,stderr,seed,config_hash"
        )
        assert len(lines) == 1 + len(rows)
        assert all(r["config_hash"] == cfg.config_hash() for r in rows)
        assert all(r["seed"] == 5 for r in rows)

    def test_greedy_gap_is_structurally_zero(self, tmp_path, monkeypatch):
        # The greedy verifier attains its scheme's optimum, so its row reuses
        # the one closed-form optimum computed per position.
        calls = []
        closed = cli.alpha_greedy_closed

        def counted(*args):
            calls.append(args)
            return closed(*args)

        monkeypatch.setattr(cli, "alpha_greedy_closed", counted)
        monkeypatch.setenv("MDSD_THREADS", "1")
        cfg = self.config(tmp_path, schemes=("greedy",), methods=("greedy",))
        rows = run_experiment(cfg)
        assert len(calls) == cfg.positions
        assert len(rows) == cfg.positions + 1
        for row in rows:
            assert row["gap"] == 0.0
            assert row["alpha"] == row["alpha_star"]

    def test_masked_logits_dump(self, tmp_path):
        inf = float("inf")
        path = tmp_path / "masked.jsonl"
        write_jsonl(
            path,
            [
                record([0.5, -inf, 1.0, 0.2, -1.0, 0.0], [0.1, 0.3, -inf, 1.2, 0.4, -0.5]),
                record([-inf, 0.3, 0.3, 2.0, -inf, 1.0], [0.0, -inf, 0.7, 1.0, -inf, 0.2]),
            ],
        )
        cfg = self.config(tmp_path, synth=None, input_path=str(path))
        rows = run_experiment(cfg)
        assert len([r for r in rows if r["position"] != "mean"]) == 2 * 4
        for row in rows:
            assert math.isfinite(row["alpha"]) and math.isfinite(row["alpha_star"])
            assert 0.0 <= row["alpha"] <= 1.0 and 0.0 <= row["alpha_star"] <= 1.0
        assert open(cfg.output).read().startswith("position,scheme,method")

    def test_sweep_drafts_monotone(self, tmp_path):
        cfg = self.config(
            tmp_path,
            positions=2,
            schemes=("with-replacement",),
            methods=("rrs-w",),
            sweep="drafts",
            sweep_values=tuple(float(n) for n in range(1, 11)),
        )
        rows = run_experiment(cfg)
        for pos in range(2):
            stars = [
                r["alpha_star"]
                for r in rows
                if r["position"] == pos and r["sweep_param"] == "drafts"
            ]
            assert len(stars) == 10
            assert all(b >= a - 1e-12 for a, b in zip(stars, stars[1:]))

    def test_sweep_temperature_axis(self, tmp_path):
        cfg = self.config(
            tmp_path,
            positions=2,
            schemes=("with-replacement",),
            methods=("kseq",),
            sweep="temperature",
            sweep_values=(0.5, 0.7, 1.0),
        )
        rows = run_experiment(cfg)
        temps = {r["sweep_value"] for r in rows if r["position"] != "mean"}
        assert temps == {0.5, 0.7, 1.0}
        # A config equal to this one but for a value's type shares its plan;
        # either way the report's temperatures are floats.
        rows = run_experiment(dataclasses.replace(cfg, sweep_values=(0.5, 0.7, 1)))
        assert {type(r["sweep_value"]) for r in rows} == {float}

    def test_byte_identical_reruns(self, tmp_path):
        cfg_a = self.config(tmp_path, output=str(tmp_path / "a.csv"))
        cfg_b = self.config(tmp_path, output=str(tmp_path / "b.csv"))
        run_experiment(cfg_a)
        run_experiment(cfg_b)
        assert open(cfg_a.output, "rb").read() == open(cfg_b.output, "rb").read()

    def test_jsonl_format(self, tmp_path):
        cfg = self.config(tmp_path, fmt="jsonl", output=str(tmp_path / "r.jsonl"))
        rows = run_experiment(cfg)
        lines = open(cfg.output).read().strip().split("\n")
        assert len(lines) == len(rows)
        parsed = json.loads(lines[0])
        assert {"position", "scheme", "method", "alpha", "alpha_star"} <= set(parsed)

    @pytest.mark.parametrize(
        "sweep",
        [
            {},
            dict(sweep="drafts", sweep_values=(1.0, 2.0, 3.0)),
            dict(sweep="temperature", sweep_values=(0.35, 0.7, 1.0)),
        ],
        ids=["no-sweep", "drafts", "temperature"],
    )
    def test_report_matches_cell_by_cell_reference(self, tmp_path, sweep):
        for fmt in cli.FORMATS:
            cfg = self.config(tmp_path, positions=2, fmt=fmt, **sweep)
            rows = run_experiment(cfg)
            assert any(r["position"] == "mean" for r in rows)
            assert open(cfg.output).read() == reference_report(rows, fmt)

    def test_report_cells_of_any_type(self, tmp_path):
        # NumPy floats, an int or a non-finite value in a float column, and
        # rows without the sweep cells that another row has.
        rows = [
            dict(position=0, scheme="s", method="m", alpha=np.float64(0.1), alpha_star=1,
                 gap=-0.0, stderr=1e-300, seed=3, config_hash="abc"),
            dict(position="mean", scheme="s", method="m", alpha=1 / 3,
                 alpha_star=np.float64(2 / 3), gap=math.inf, stderr=math.nan, seed=3,
                 config_hash="abc", sweep_param="temperature", sweep_value=0.35),
            dict(position=1, scheme="s", method="m", alpha=0.5, alpha_star=0.5, gap=0.0,
                 stderr=0.0, seed=3, config_hash="abc", sweep_param="drafts", sweep_value=2),
        ]
        for fmt in cli.FORMATS:
            cfg = self.config(tmp_path, fmt=fmt)
            cli._write_report(cfg, rows)
            assert open(cfg.output).read() == reference_report(rows, fmt)

    def test_unknown_format_rejected_before_positions(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "_run_position", lambda *a: pytest.fail("a position ran"))
        with pytest.raises(ValueError, match="unknown format 'xml'"):
            run_experiment(self.config(tmp_path, fmt="xml"))
        assert not (tmp_path / "report.csv").exists()

    @pytest.mark.parametrize(
        "kw, field",
        [
            (dict(synth=None), "input_path"),
            (dict(input_path="in.jsonl"), "input_path"),
            (dict(schemes=()), "schemes"),
            (dict(methods=()), "methods"),
            (dict(sweep="vocab", sweep_values=(8.0,)), "unknown sweep"),
            (dict(sweep="drafts", sweep_values=()), "sweep_values"),
            (dict(sweep_values=(1.0, 2.0)), "sweep_values"),
            (dict(sweep="drafts", sweep_values=(2.0, 1.0, 2.0)), r"sweep_values .*\(2.0 repeats"),
            (dict(sweep="temperature", sweep_values=(0.5, 0.5)), r"sweep_values .*\(0.5 repeats"),
            (dict(seed=-1), "seed"),
            (dict(synth="dirichlet:-1"), "synth"),
            (dict(synth="dirichlet:0"), "synth"),
            (dict(synth="zipf:nan"), "synth"),
            (dict(synth="dirichlet:inf"), "synth"),
            (dict(synth="cauchy:1.0"), "synth"),
            (dict(synth="zipf"), "synth"),
            (dict(synth="zipf:x"), "synth"),
        ],
    )
    def test_bad_config_rejected_before_positions(self, tmp_path, monkeypatch, kw, field):
        monkeypatch.setattr(cli, "_run_position", lambda *a: pytest.fail("a position ran"))
        with pytest.raises(ValueError, match=field):
            run_experiment(self.config(tmp_path, **kw))
        assert not (tmp_path / "report.csv").exists()

    def test_thread_cap_env_var(self, tmp_path, monkeypatch):
        # The pool returns each position's rows for every variant; the report
        # is variant-major whatever the worker count.
        for sweep in ({}, dict(sweep="drafts", sweep_values=(1.0, 2.0, 3.0))):
            reports = []
            for threads in ("1", "2"):
                monkeypatch.setenv("MDSD_THREADS", threads)
                cfg = self.config(tmp_path, output=str(tmp_path / f"t{threads}.csv"), **sweep)
                run_experiment(cfg)
                reports.append(open(cfg.output, "rb").read())
            assert reports[0] == reports[1]

    def test_softmax_once_per_temperature(self, tmp_path, monkeypatch):
        calls = []
        softmax = cli.softmax_temp

        def counted(*args):
            calls.append(args)
            return softmax(*args)

        monkeypatch.setattr(cli, "softmax_temp", counted)
        monkeypatch.setenv("MDSD_THREADS", "1")
        cfg = self.config(tmp_path, sweep="drafts", sweep_values=(1.0, 2.0, 3.0))
        rows = run_experiment(cfg)
        assert len(calls) == 2 * cfg.positions
        swept = [r["sweep_value"] for r in rows if r["position"] != "mean"]
        assert swept == sorted(swept)

    def test_ratio_order_sorted_once_per_position(self, tmp_path, monkeypatch):
        # The scans, kseq and the verifiers' rates of every draft count read
        # one memoised residual table of the position's (p, q), and only
        # the table sorts: each position sorts and builds its table once,
        # whether or not the previous position's is still held.
        monkeypatch.setenv("MDSD_THREADS", "1")
        sorts = []
        monkeypatch.setattr("mdsd.alpha.ratio_order", lambda p, q: sorts.append(p) or ratio_order(p, q))
        cfg = self.config(tmp_path, sweep="drafts", sweep_values=(1.0, 2.0, 3.0), methods=tuple(METHODS))
        misses = residual_table.cache_info().misses
        rows = run_experiment(cfg)
        assert len(sorts) == cfg.positions
        assert residual_table.cache_info().misses == misses + cfg.positions
        assert {row["method"] for row in rows} == set(METHODS)

    def test_rows_are_their_library_calls(self, tmp_path):
        # Each row's optimum is its scheme's solver and its rate its
        # method's, called directly on the position's (p, q); all are exact.
        cfg = self.config(
            tmp_path, synth="dirichlet:1.0", vocab=8, temperature=0.7, methods=tuple(METHODS),
            sweep="drafts", sweep_values=(1.0, 2.0, 3.0),
        )
        rows = [r for r in run_experiment(cfg) if r["position"] != "mean"]
        assert len(rows) == (6 + 4 + 4) * cfg.positions
        logits = list(cli._positions(cfg))
        for row in rows:
            p, q = (softmax_temp(lg, cfg.temperature) for lg in logits[row["position"]])
            n = row["sweep_value"]
            scheme = DraftScheme(DraftKind(row["scheme"]), q, n)
            if scheme.kind is DraftKind.GREEDY:
                star = alpha_greedy_closed(p, q, n)
            else:
                star = alpha_scan(p, scheme).alpha_star
            rate = {
                "rrs-w": lambda: rrs_w_rate_exact(p, q, n),
                "kseq": lambda: kseq_solve(p, q, n).alpha_closed,
                "ot-single": lambda: alpha_single_draft(p, q),
                "rrs-wo": lambda: rrs_wo_rate_exact(p, q, n),
                "greedy": lambda: star,
            }[row["method"]]()
            assert (row["alpha_star"], row["alpha"], row["stderr"]) == (star, rate, 0.0), row
            assert row["gap"] == rate - star

    def test_plan_not_rebuilt_per_position(self, tmp_path, monkeypatch):
        # Which methods verify which scheme at which draft count depends
        # only on the config: the `supports` calls do not grow with the run.
        calls = []
        supports = cli.supports

        def counted(*args):
            calls.append(args)
            return supports(*args)

        monkeypatch.setattr(cli, "supports", counted)
        monkeypatch.setenv("MDSD_THREADS", "1")
        counts = []
        for positions in (4, 40):
            calls.clear()
            cfg = self.config(
                tmp_path, positions=positions, methods=tuple(METHODS),
                sweep="drafts", sweep_values=(1.0, 2.0, 3.0),
            )
            run_experiment(cfg)
            counts.append(len(calls))
        assert counts[0] == counts[1] > 0

    def test_rrs_wo_exact_where_its_tree_is_small(self, tmp_path):
        # At V = 8 the tree of rejected prefixes of three drafts has 56
        # rows at its last level, fewer than the estimate's 3 * 256
        # row-stages: every rrs-wo row is exact, with stderr 0.
        cfg = self.config(
            tmp_path, synth="dirichlet:1.0", vocab=8, sweep="drafts", sweep_values=(1.0, 2.0, 3.0),
            methods=("rrs-wo",),
        )
        rows = [r for r in run_experiment(cfg) if r["position"] != "mean"]
        assert len(rows) == 3 * cfg.positions
        by_key = {(r["sweep_value"], r["position"]): r for r in rows}
        for position, logits in enumerate(cli._positions(cfg)):
            p, q = (softmax_temp(lg, cfg.temperature) for lg in logits)
            for n in (1, 2, 3):
                row = by_key[(n, position)]
                assert row["stderr"] == 0.0
                assert row["alpha"] == rrs_wo_rate_exact(p, q, n)

    def test_rrs_wo_exact_rule(self):
        # Exact at one or two drafts, or where perm(s, n - 1) <= n * trials,
        # trials counted up to one Monte Carlo block.
        q8, q50, q500 = (Dist(np.ones(v)) for v in (8, 50, 500))
        assert cli._rrs_wo_exact(q500, 2, 1)
        assert cli._rrs_wo_exact(q8, 3, 256)  # 56 <= 768
        assert not cli._rrs_wo_exact(q50, 3, 256)  # 2450 > 768
        assert cli._rrs_wo_exact(q50, 3, 1000)  # 2450 <= 3000
        assert not cli._rrs_wo_exact(q500, 3, 10**6)  # 249500 > 3 * 65536
        # Only the tokens of positive mass count: 8 * 7 <= 3 * 20 < 16 * 15.
        assert cli._rrs_wo_exact(Dist(np.array([1.0] * 8 + [0.0] * 8)), 3, 20)
        assert not cli._rrs_wo_exact(Dist(np.ones(16)), 3, 20)

    def test_rrs_wo_exact_below_three_drafts(self, tmp_path):
        # rrs-wo is reported exactly at one and two drafts, where at one it
        # is ot-single's rule, and estimated from the position's seed at
        # three, where V = 50 gives the tree 50 * 49 rows at its last
        # level, more than the estimate's 3 * 256 row-stages.
        cfg = self.config(
            tmp_path, sweep="drafts", sweep_values=(1.0, 2.0, 3.0), methods=("rrs-wo", "ot-single")
        )
        rows = run_experiment(cfg)
        by_key = {
            (r["sweep_value"], r["position"], r["scheme"], r["method"]): r
            for r in rows
            if r["position"] != "mean"
        }
        for position, logits in enumerate(cli._positions(cfg)):
            p, q = (softmax_temp(lg, cfg.temperature) for lg in logits)
            seed = cli._position_seed(cfg.seed, position)
            for n in (1, 2, 3):
                row = by_key[(n, position, "without-replacement", "rrs-wo")]
                if n <= 2:
                    assert row["stderr"] == 0.0
                    assert row["alpha"] == rrs_wo_rate_exact(p, q, n)
                else:
                    scheme = DraftScheme.without_replacement(q, n)
                    rep = estimate_alpha(p, scheme, "rrs-wo", cfg.trials, seed)
                    assert (row["alpha"], row["stderr"]) == (rep.acceptance_mean, rep.acceptance_stderr)
            single = by_key[(1, position, "without-replacement", "ot-single")]
            assert by_key[(1, position, "without-replacement", "rrs-wo")]["alpha"] == single["alpha"]

    def test_aggregate_rows_present(self, tmp_path):
        cfg = self.config(tmp_path)
        rows = run_experiment(cfg)
        means = [r for r in rows if r["position"] == "mean"]
        assert {(r["scheme"], r["method"]) for r in means} == {
            ("with-replacement", "rrs-w"),
            ("with-replacement", "kseq"),
            ("without-replacement", "rrs-wo"),
            ("greedy", "greedy"),
        }

    def test_temperature_zero_without_rrs_wo(self, tmp_path):
        # q is one-hot at T=0, so no without-replacement scheme of 3 drafts
        # exists; no requested method uses one, so the run must not build it.
        cfg = self.config(tmp_path, temperature=0.0, methods=("rrs-w", "kseq", "greedy"))
        rows = run_experiment(cfg)
        assert {r["scheme"] for r in rows} == {"with-replacement", "greedy"}
        assert all(0.0 <= r["alpha"] <= 1.0 for r in rows)

    def test_default_run_does_not_warn(self, tmp_path, capsys):
        run_experiment(self.config(tmp_path))
        assert "warning" not in capsys.readouterr().err

    def test_swept_single_draft_not_warned(self, tmp_path, capsys):
        cfg = self.config(
            tmp_path,
            methods=("rrs-w", "ot-single"),
            sweep="drafts",
            sweep_values=(1.0, 2.0),
        )
        rows = run_experiment(cfg)
        assert "warning" not in capsys.readouterr().err
        ot = [r for r in rows if r["method"] == "ot-single" and r["position"] != "mean"]
        assert {r["sweep_value"] for r in ot} == {1}
        assert len(ot) == 2 * 3  # two single-draft schemes, three positions

    def test_method_without_rows_warned(self, tmp_path, capsys):
        cfg = self.config(tmp_path, methods=("rrs-w", "ot-single", "greedy"))
        rows = run_experiment(cfg)
        err = capsys.readouterr().err
        assert "warning" in err and "ot-single" in err
        assert "rrs-w" not in err and "greedy" not in err
        assert not any(r["method"] == "ot-single" for r in rows)


def logits_file(path, positions, vocab, seed=0):
    rng = np.random.default_rng(seed)
    write_jsonl(
        path,
        [record(rng.normal(size=vocab), rng.normal(size=vocab)) for _ in range(positions)],
    )


@pytest.fixture
def pool_log(monkeypatch):
    """Swap in a pool that logs the worker count it is made with and each
    submitted chunk, and check at every submit that at most two chunks per
    worker are in flight, counting a chunk as done once its result has been
    taken."""
    log = dict(chunks=[], taken=0, peak=0, workers=[], done=[], task_bytes=[])

    class CountingPool(cli.ProcessPoolExecutor):
        def __init__(self, max_workers, **kwargs):
            super().__init__(max_workers=max_workers, **kwargs)
            self.workers = max_workers
            log["workers"].append(max_workers)

        def submit(self, fn, *args, **kwargs):
            log["chunks"].append([pos for pos, _ in args[-1]])
            log["task_bytes"].append(len(pickle.dumps((fn, args, kwargs))))
            in_flight = len(log["chunks"]) - log["taken"]
            assert in_flight <= 2 * self.workers
            log["peak"] = max(log["peak"], in_flight)
            future = super().submit(fn, *args, **kwargs)
            result, chunk = future.result, log["chunks"][-1]

            def counted(*a, **kw):
                log["taken"] += 1
                out = result(*a, **kw)
                log["done"].append(chunk)
                return out

            future.result = counted
            return future

    monkeypatch.setattr(cli, "ProcessPoolExecutor", CountingPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    return log


class TestStreaming:
    """Positions stream from the input into the pool, one chunk per task."""

    def config(self, tmp_path, path, name, **kw):
        return ExperimentConfig(
            input_path=str(path), trials=64, seed=3, output=str(tmp_path / name), **kw
        )

    def test_window_reports_match_serial(self, tmp_path, monkeypatch, pool_log):
        # Every position is its own chunk, so 12 chunks pass through a window
        # of at most 2 * 2 pool tasks.
        monkeypatch.setattr(cli, "_CHUNK_BYTES", 1)
        path = tmp_path / "in.jsonl"
        logits_file(path, 12, 60)
        for sweep in ({}, dict(sweep="drafts", sweep_values=(1.0, 2.0, 3.0))):
            reports = []
            for threads in ("1", "2"):
                monkeypatch.setenv("MDSD_THREADS", threads)
                pool_log.update(chunks=[], taken=0, peak=0)
                cfg = self.config(tmp_path, path, f"t{threads}.csv", **sweep)
                run_experiment(cfg)
                reports.append(open(cfg.output, "rb").read())
            assert pool_log["chunks"] == [[pos] for pos in range(12)]
            assert pool_log["peak"] == 4 and pool_log["taken"] == 12
            assert reports[0] == reports[1]

    def test_small_vocab_input_is_split(self, tmp_path, monkeypatch, pool_log):
        # V=8 holds far fewer than _CHUNK_BYTES of input per position, so the
        # position limit must split the input across the workers, by the
        # same rule for a file and a synthetic input.
        monkeypatch.setenv("MDSD_THREADS", "2")
        path = tmp_path / "in.jsonl"
        logits_file(path, 40, 8)
        run_experiment(self.config(tmp_path, path, "file.csv"))
        assert [len(c) for c in pool_log["chunks"]] == [16, 16, 8]
        pool_log.update(chunks=[], taken=0)
        synth = ExperimentConfig(
            synth="dirichlet:1.0", vocab=8, positions=40, trials=64, seed=3,
            output=str(tmp_path / "synth.csv"),
        )
        run_experiment(synth)
        assert [len(c) for c in pool_log["chunks"]] == [16, 16, 8]
        assert pool_log["workers"] == [2]  # the two runs share one pool

    def test_pool_task_does_not_grow_with_the_record(self, tmp_path, monkeypatch, pool_log):
        # A task carries each line's span, not its bytes: records of 60 and
        # of 6000 tokens make tasks of the same size, far below the record's.
        monkeypatch.setattr(cli, "_CHUNK_BYTES", 1)
        monkeypatch.setenv("MDSD_THREADS", "2")
        sizes = {}
        for vocab in (60, 6000):
            path = tmp_path / f"v{vocab:04d}.jsonl"
            logits_file(path, 3, vocab)
            pool_log["task_bytes"].clear()
            run_experiment(self.config(tmp_path, path, "r.csv", methods=("rrs-w",)))
            sizes[vocab] = max(pool_log["task_bytes"])
            record_bytes = path.stat().st_size // 3
        assert sizes[6000] - sizes[60] <= 16
        assert sizes[6000] < record_bytes // 100

    def test_first_position_runs_before_later_records_are_read(self, tmp_path, monkeypatch):
        events = []
        lines, run = cli._lines, cli._run_position

        def logged_lines(path):
            for i, line in enumerate(lines(path)):
                events.append(("read", i))
                yield line

        def logged_run(cfg, position, source):
            events.append(("run", position))
            return run(cfg, position, source)

        monkeypatch.setattr(cli, "_lines", logged_lines)
        monkeypatch.setattr(cli, "_run_position", logged_run)
        monkeypatch.setenv("MDSD_THREADS", "1")
        path = tmp_path / "in.jsonl"
        logits_file(path, 4, 20)
        run_experiment(self.config(tmp_path, path, "r.csv"))
        assert events.index(("run", 0)) < events.index(("read", 2))
        assert events.count(("read", 3)) == events.count(("run", 3)) == 1

    def test_malformed_line_mid_stream(self, tmp_path, monkeypatch, capsys, pool_log):
        monkeypatch.setattr(cli, "_CHUNK_BYTES", 1)
        monkeypatch.setenv("MDSD_THREADS", "2")
        path = tmp_path / "bad.jsonl"
        logits_file(path, 5, 20)
        lines = path.read_text().splitlines()
        lines[3] = json.dumps(record([0, 1], [1, 0, 2]))
        path.write_text("\n".join(lines) + "\n")
        out = tmp_path / "r.csv"
        code = main(["--input", str(path), "--trials", "64", "--output", str(out)])
        assert code == 2
        assert "line 4" in capsys.readouterr().err
        assert not out.exists()
        # Line 4 is parsed in a worker: positions 0-2 ran, and the run
        # stopped at the result of position 3.
        assert pool_log["chunks"] == [[0], [1], [2], [3], [4]]
        assert pool_log["done"] == [[0], [1], [2]]
        assert pool_log["taken"] == 4
        # A failed run drops the pool, and the next run forks a new one.
        pool_log.update(chunks=[], taken=0)
        with pytest.raises(MalformedInputError, match="line 4"):
            run_experiment(self.config(tmp_path, path, "r.csv"))
        assert cli._pool is None
        logits_file(path, 5, 20)
        pool_log.update(chunks=[], taken=0)
        rows = run_experiment(self.config(tmp_path, path, "r.csv"))
        assert {r["position"] for r in rows} == {0, 1, 2, 3, 4, "mean"}
        assert pool_log["workers"] == [2, 2, 2]

    def test_single_position_starts_no_pool(self, tmp_path, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a pool was started for one position")

        monkeypatch.setattr(cli, "ProcessPoolExecutor", no_pool)
        monkeypatch.setattr(cli, "_CHUNK_BYTES", 1)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setenv("MDSD_THREADS", "2")
        path = tmp_path / "one.jsonl"
        logits_file(path, 1, 20)
        rows = run_experiment(self.config(tmp_path, path, "r.csv"))
        assert {r["position"] for r in rows} == {0, "mean"}


def main_env() -> dict:
    """The environment for a subprocess that imports this checkout's mdsd,
    at two workers."""
    env = dict(os.environ, MDSD_THREADS="2")
    package_root = os.path.dirname(os.path.dirname(cli.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    return env


def run_main(args, timeout, code="import sys; from mdsd.cli import main; sys.exit(main(sys.argv[1:]))"):
    """`main(args)` in a subprocess, stopped after ``timeout`` seconds."""
    return subprocess.run(
        [sys.executable, "-c", code, *args],
        env=main_env(), capture_output=True, text=True, timeout=timeout,
    )


class TestMainEntryPoint:
    def test_success_exit_zero(self, tmp_path, capsys):
        out = tmp_path / "r.csv"
        code = main(
            [
                "--synth",
                "zipf:1.0",
                "--vocab",
                "30",
                "--positions",
                "2",
                "--trials",
                "64",
                "--output",
                str(out),
            ]
        )
        assert code == 0
        assert out.exists()

    def test_tiny_positive_temperature(self, tmp_path):
        # logits / 1e-310 overflow; the run reports what temperature 0
        # reports instead of aborting, alone and in a temperature sweep.
        base = ["--synth", "zipf:1.0", "--vocab", "50", "--positions", "2", "--num-drafts", "1"]
        rows = {}
        for name, extra in (
            ("tiny", ["--temperature", "1e-310"]),
            ("zero", ["--temperature", "0"]),
            ("sweep", ["--sweep", "temperature", "--sweep-values", "0.7,1e-310"]),
        ):
            out = tmp_path / f"{name}.csv"
            assert main([*base, *extra, "--output", str(out)]) == 0
            rows[name] = [line.split(",") for line in out.read_text().splitlines()[1:]]
        # The columns from position to stderr; the hash names the config.
        tiny = [r[:7] for r in rows["tiny"]]
        assert tiny == [r[:7] for r in rows["zero"]]
        assert tiny == [r[:7] for r in rows["sweep"] if r[-1] == "1e-310"]

    def test_malformed_input_exit_two(self, tmp_path, capsys):
        path = tmp_path / "bad.jsonl"
        write_jsonl(path, [record([0, 1], [1, 0, 2])])
        code = main(["--input", str(path), "--output", str(tmp_path / "r.csv")])
        assert code == 2
        assert "line 1" in capsys.readouterr().err

    def test_line_not_utf8_exit_two(self, tmp_path, capsys):
        path = tmp_path / "bad.jsonl"
        write_jsonl(path, [record([0, 1, 2, 3], [3, 2, 1, 0])])
        with open(path, "ab") as fh:
            fh.write(b'{"p_logits": [0, 1, 2, 3], "q_logits": [3, 2, 1, \xff0]}\n')
        out = tmp_path / "r.csv"
        code = main(["--input", str(path), "--output", str(out)])
        assert code == 2
        assert "error: line 2: 'utf-8' codec can't decode byte 0xff" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("spec", ["zipf:400", "zipf:-400"])
    def test_zipf_out_of_range_exit_two(self, tmp_path, capsys, spec):
        # 1/rank^s overflows, or divides by an underflowed rank^s, at V=50:
        # exit code 2 with one message naming the exponent and the vocab,
        # and no RuntimeWarning (which pyproject makes a test error).
        out = tmp_path / "r.csv"
        code = main(["--synth", spec, "--vocab", "50", "--trials", "16", "--output", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err == f"error: zipf exponent {float(spec[5:])} puts 1/rank^s out of float range at vocab 50\n"
        assert not out.exists()

    def test_overflow_and_deep_nesting_exit_two(self, tmp_path, capsys):
        # Each fault of its line ends the run with exit code 2 and its line
        # number, not a traceback.
        faults = (
            f'{{"p_logits": [{"1" * 400}, 0.5], "q_logits": [1.0, 2.0]}}',
            '{"p_logits": ' + "[" * 1000 + "]" * 1000 + ', "q_logits": [NaN]}',
        )
        for fault in faults:
            path = tmp_path / "bad.jsonl"
            write_jsonl(path, [record([0, 1, 2, 3], [3, 2, 1, 0])])
            with open(path, "a", encoding="utf-8") as fh:
                fh.write(fault + "\n")
            code = main(["--input", str(path), "--output", str(tmp_path / "r.csv")])
            assert code == 2
            assert "error: line 2: " in capsys.readouterr().err

    def test_empty_input_warns_exit_zero(self, tmp_path, capsys):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        out = tmp_path / "r.csv"
        code = main(["--input", str(path), "--output", str(out)])
        assert code == 0
        assert "no positions" in capsys.readouterr().err
        assert out.read_text().startswith("position,scheme,method")

    def test_missing_file_exit_two(self, tmp_path, capsys):
        code = main(["--input", str(tmp_path / "nope.jsonl")])
        assert code == 2

    def test_sweep_requires_values(self, capsys):
        code = main(["--synth", "zipf:1.0", "--sweep", "drafts"])
        assert code == 2

    def test_options_not_given_take_config_defaults(self, tmp_path):
        out = tmp_path / "r.csv"
        assert main(["--synth", "zipf:1.0", "--output", str(out)]) == 0
        want = ExperimentConfig(synth="zipf:1.0", output=str(out)).config_hash()
        assert out.read_text().splitlines()[1].endswith("," + want)

    def test_tiny_draft_masses_get_rows(self, tmp_path):
        # All 50 tokens have positive draft mass, but 49 of them only
        # e^-138.6 each, so the scan's W_8 underflows unless rescaled.
        path = tmp_path / "tiny.jsonl"
        write_jsonl(path, [record([0.0] * 50, [0.0] + [-97.0] * 49)])
        out = tmp_path / "r.csv"
        assert main(["--input", str(path), "--num-drafts", "8", "--output", str(out)]) == 0
        rows = out.read_text().splitlines()[1:]
        assert len(rows) == 2 * 4
        assert any(row.startswith("0,without-replacement,rrs-wo,") for row in rows)

    @pytest.mark.parametrize(
        "rec, seeds",
        [
            # At temperature 1, exp(-740) is a subnormal mass, which is no
            # mass: q has two tokens of support, and no scan, verifier or
            # sampler may divide by or draw the others.
            (record([1, 0, 2, 0.5, 0], [0, 0, -740, -740, -740]), [0]),
            # Seeds at which a sampler that drew subnormal tokens would draw
            # a duplicate.
            (record([0] * 29, [0, 0] + [-740] * 27), [8, 11, 22, 24, 41]),
        ],
    )
    def test_subnormal_draft_masses_are_no_mass(self, tmp_path, capsys, rec, seeds):
        path = tmp_path / "sub.jsonl"
        write_jsonl(path, [rec])
        out = tmp_path / "r.csv"
        for seed in seeds:
            args = ["--input", str(path), "--temperature", "1", "--trials", "256", "--seed", str(seed)]
            assert main([*args, "--output", str(out)]) == 2
            assert capsys.readouterr().err.splitlines() == [
                "error: without-replacement draft count exceeds support size"
            ]
            assert not out.exists()
            assert main([*args, "--num-drafts", "2", "--output", str(out)]) == 0
            rows = out.read_text().splitlines()[1:]
            out.unlink()
            assert len(rows) == 2 * 4
            for row in rows:
                assert all(math.isfinite(float(cell)) for cell in row.split(",")[3:7]), row

    @pytest.mark.parametrize(
        "args, field",
        [
            (["--num-drafts", "0"], "num_drafts"),
            (["--trials", "0", "--methods", "rrs-w"], "trials"),
            (["--temperature", "-0.5"], "temperature"),
            (["--temperature", "nan"], "temperature"),
            (["--sweep", "drafts", "--sweep-values", "1.5"], "sweep_values"),
            (["--sweep", "drafts", "--sweep-values", "2,0"], "sweep_values"),
            (["--sweep", "temperature", "--sweep-values", "0.5,-1"], "sweep_values"),
            (["--sweep", "temperature", "--sweep-values", "inf"], "sweep_values"),
            (["--positions", "-3"], "positions"),
            (["--sweep-values", "1,2"], "sweep_values"),
            (["--schemes", ","], "schemes"),
            (["--methods", " , "], "methods"),
            (["--sweep", "drafts", "--sweep-values", "1,x"], "--sweep-values"),
            (["--sweep", "drafts", "--sweep-values", "2,2"], "sweep_values"),
            (["--sweep", "temperature", "--sweep-values", "0.5,0.5"], "sweep_values"),
            (["--seed", "-1"], "seed"),
        ],
    )
    def test_bad_config_rejected_before_input(self, tmp_path, capsys, args, field):
        # An option that does not parse is argparse's error, which exits;
        # a parsed config that no run can use is main's, which returns.
        out = tmp_path / "r.csv"
        try:
            code = main(["--input", str(tmp_path / "nope.jsonl"), "--output", str(out), *args])
        except SystemExit as exc:
            code = exc.code
        assert code == 2
        err = capsys.readouterr().err
        assert field in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("spec", ["dirichlet:-1", "dirichlet:0", "zipf:nan", "dirichlet:inf", "x:1"])
    def test_bad_synth_rejected_before_positions(self, tmp_path, monkeypatch, capsys, spec):
        monkeypatch.setattr(cli, "synth_positions", lambda *a: pytest.fail("a position was drawn"))
        out = tmp_path / "r.csv"
        assert main(["--synth", spec, "--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert "synth must be" in err and spec in err and "Traceback" not in err
        assert not out.exists()

    def test_input_not_a_regular_file_exit_two(self, tmp_path):
        # Each position opens the input again to read its record, so a FIFO
        # would block a reader: it is refused, by name, before any position.
        fifo = tmp_path / "in.fifo"
        os.mkfifo(fifo)
        out = tmp_path / "r.csv"
        proc = run_main(["--input", str(fifo), "--output", str(out)], timeout=20)
        assert proc.returncode == 2
        assert f"error: input {str(fifo)!r} is not a regular file" in proc.stderr
        assert not out.exists()

    def test_sigterm_while_workers_fork_exit_143(self, tmp_path):
        # A SIGTERM sent from an at-fork hook of the pool's first fork is not
        # lost in the hook: the run still exits 143 and writes no report.
        code = (
            "import os, signal, sys\n"
            "from mdsd.cli import main\n"
            "os.cpu_count = lambda: 2\n"
            "sent = []\n"
            "def stop():\n"
            "    if not sent:\n"
            "        sent.append(True)\n"
            "        os.kill(os.getpid(), signal.SIGTERM)\n"
            "os.register_at_fork(after_in_parent=stop)\n"
            "sys.exit(main(sys.argv[1:]))\n"
        )
        out = tmp_path / "r.csv"
        args = ["--synth", "zipf:1.0", "--vocab", "50", "--positions", "40", "--trials", "16"]
        proc = run_main([*args, "--output", str(out)], timeout=60, code=code)
        assert proc.returncode == 128 + signal.SIGTERM, proc.stderr
        assert "Exception ignored" not in proc.stderr
        assert not out.exists()

    def test_sigterm_in_a_serial_run_exit_143(self, tmp_path):
        # One worker runs the positions in the main process; a SIGTERM at its
        # first position ends the run there.
        code = (
            "import os, signal, sys\n"
            "from mdsd import cli\n"
            "os.environ['MDSD_THREADS'] = '1'\n"
            "run = cli._run_position\n"
            "def stop(*args):\n"
            "    os.kill(os.getpid(), signal.SIGTERM)\n"
            "    return run(*args)\n"
            "cli._run_position = stop\n"
            "sys.exit(cli.main(sys.argv[1:]))\n"
        )
        out = tmp_path / "r.csv"
        args = ["--synth", "zipf:1.0", "--vocab", "50", "--positions", "40", "--trials", "16"]
        proc = run_main([*args, "--output", str(out)], timeout=60, code=code)
        assert proc.returncode == 128 + signal.SIGTERM, proc.stderr
        assert proc.stderr == ""
        assert not out.exists()

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc")
    def test_sigterm_leaves_no_worker(self, tmp_path):
        def group_size(pgid):
            count = 0
            for pid in filter(str.isdigit, os.listdir("/proc")):
                try:
                    with open(f"/proc/{pid}/stat") as fh:
                        fields = fh.read().rsplit(")", 1)[1].split()
                except OSError:
                    continue
                count += int(fields[2]) == pgid
            return count

        # V=20000 puts one position in each chunk, so a run of 1000 positions
        # keeps both workers busy for many seconds.
        code = (
            "import sys; from mdsd.cli import main; sys.exit(main(['--synth', 'zipf:1.0', "
            "'--vocab', '20000', '--positions', '1000', '--trials', '64', '--output', sys.argv[1]]))"
        )
        proc = subprocess.Popen(
            [sys.executable, "-c", code, str(tmp_path / "r.csv")],
            env=main_env(), start_new_session=True, stderr=subprocess.DEVNULL,
        )
        pgid = proc.pid
        try:
            deadline = time.monotonic() + 30
            while group_size(pgid) < 3:  # the runner and its two workers
                assert proc.poll() is None and time.monotonic() < deadline
                time.sleep(0.05)
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=10) == 128 + signal.SIGTERM
            deadline = time.monotonic() + 5
            while True:
                try:
                    os.killpg(pgid, 0)
                except ProcessLookupError:
                    break
                assert time.monotonic() < deadline, "a worker outlived the run"
                time.sleep(0.05)
        finally:
            try:
                os.killpg(pgid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()
        assert not (tmp_path / "r.csv").exists()

    def test_bad_thread_cap_rejected_before_input(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("MDSD_THREADS", "abc")
        out = tmp_path / "r.csv"
        code = main(["--input", str(tmp_path / "nope.jsonl"), "--output", str(out)])
        assert code == 2
        assert "MDSD_THREADS" in capsys.readouterr().err
        assert not out.exists()


def synth_config(output, seed=3):
    """A 40-position run at V=50: three chunks, so two workers pool it."""
    return ExperimentConfig(
        synth="zipf:1.0", vocab=50, positions=40, trials=16, seed=seed, output=str(output)
    )


def report(cfg) -> bytes:
    with open(cfg.output, "rb") as fh:
        return fh.read()


def proc_alive(pid) -> bool:
    """Whether ``pid`` runs: it exists and is not a zombie."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


def wait_until(done, timeout) -> bool:
    deadline = time.monotonic() + timeout
    while not done():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.02)
    return True


# A subprocess's pooled runs, its pool started by the start method named
# by its first argument: ``run(threads, output)`` runs `synth_config` at
# MDSD_THREADS=threads, and ``workers()`` prints the pids of its live
# workers on one line.
POOL_SCRIPT = """\
import multiprocessing, os, sys, time
from mdsd.cli import ExperimentConfig, run_experiment
os.cpu_count = lambda: 2
multiprocessing.set_start_method(sys.argv[1])

def run(threads, output):
    os.environ["MDSD_THREADS"] = threads
    run_experiment(ExperimentConfig(
        synth="zipf:1.0", vocab=50, positions=40, trials=16, seed=3, output=output))

def workers():
    print(*sorted(p.pid for p in multiprocessing.active_children()), flush=True)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc")
class TestPool:
    """One pool per process: pooled runs fork their workers once, and the
    workers end with the pool, a failure or the process."""

    @pytest.mark.parametrize("method", ["fork", "forkserver"])
    def test_runs_share_one_pair_of_workers(self, tmp_path, method):
        # Three runs at two workers and one serial run fork two workers,
        # which the process's normal exit ends, also where the default start
        # method does not fork.
        code = POOL_SCRIPT + (
            "forks = []\n"
            "os.register_at_fork(after_in_parent=lambda: forks.append(1))\n"
            "for i, threads in enumerate('2221'):\n"
            "    run(threads, os.path.join(sys.argv[2], f'r{i}.csv'))\n"
            "print(len(forks))\n"
            "workers()\n"
        )
        proc = run_main([method, str(tmp_path)], timeout=120, code=code)
        assert proc.returncode == 0, proc.stderr
        forks, pids = proc.stdout.splitlines()
        assert forks == "2" and len(pids.split()) == 2
        assert not any(proc_alive(int(pid)) for pid in pids.split())
        reports = {(tmp_path / f"r{i}.csv").read_bytes() for i in range(4)}
        assert len(reports) == 1

    @pytest.mark.parametrize("method", ["fork", "forkserver"])
    def test_idle_workers_end_with_a_killed_owner(self, tmp_path, method):
        code = POOL_SCRIPT + "run('2', sys.argv[2]); workers(); time.sleep(120)\n"
        proc = subprocess.Popen(
            [sys.executable, "-c", code, method, str(tmp_path / "r.csv")],
            env=main_env(), stdout=subprocess.PIPE, text=True,
        )
        pids = []
        try:
            pids = [int(pid) for pid in proc.stdout.readline().split()]
            assert len(pids) == 2
            proc.kill()
            proc.wait(timeout=10)
            assert wait_until(lambda: not any(map(proc_alive, pids)), 2.0)
        finally:
            proc.kill()
            proc.wait()
            proc.stdout.close()
            for pid in filter(proc_alive, pids):
                os.kill(pid, signal.SIGKILL)

    def test_main_leaves_no_worker(self, tmp_path, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setenv("MDSD_THREADS", "2")
        args = ["--synth", "zipf:1.0", "--vocab", "50", "--positions", "40", "--trials", "16"]
        assert main([*args, "--output", str(tmp_path / "r.csv")]) == 0
        assert cli._pool is None and not multiprocessing.active_children()

    def test_worker_killed_mid_run_exits_one(self, tmp_path):
        def workers(pid):
            found = []
            for child in filter(str.isdigit, os.listdir("/proc")):
                try:
                    with open(f"/proc/{child}/stat") as fh:
                        fields = fh.read().rsplit(")", 1)[1].split()
                except OSError:
                    continue
                if int(fields[1]) == pid:
                    found.append(int(child))
            return found

        # V=20000 puts one position in each chunk, so the workers are busy
        # for many seconds.
        code = (
            "import sys; from mdsd.cli import main; sys.exit(main(['--synth', 'zipf:1.0', "
            "'--vocab', '20000', '--positions', '1500', '--trials', '64', '--output', sys.argv[1]]))"
        )
        out = tmp_path / "r.csv"
        proc = subprocess.Popen(
            [sys.executable, "-c", code, str(out)],
            env=main_env(), start_new_session=True, stderr=subprocess.PIPE, text=True,
        )
        pgid = proc.pid
        try:
            assert wait_until(lambda: len(workers(proc.pid)) == 2, 30)
            time.sleep(0.5)
            os.kill(workers(proc.pid)[0], signal.SIGTERM)
            _, err = proc.communicate(timeout=30)
            assert proc.returncode == 1, err
            lines = err.splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: ") and "abruptly" in lines[0]
            assert not out.exists()

            def group_gone():
                try:
                    os.killpg(pgid, 0)
                except ProcessLookupError:
                    return True
                return False

            assert wait_until(group_gone, 5), "a worker outlived the run"
        finally:
            try:
                os.killpg(pgid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.communicate()

    def test_worker_killed_between_runs(self, tmp_path, monkeypatch, pool_log):
        monkeypatch.setenv("MDSD_THREADS", "2")
        first = synth_config(tmp_path / "first.csv")
        run_experiment(first)
        pids = [p.pid for p in multiprocessing.active_children()]
        assert len(pids) == 2
        os.kill(pids[0], signal.SIGTERM)
        # The pool marks itself broken before it reaps its workers.
        assert wait_until(lambda: not any(os.path.exists(f"/proc/{pid}") for pid in pids), 10)
        second = dataclasses.replace(first, output=str(tmp_path / "second.csv"))
        run_experiment(second)
        assert pool_log["workers"] == [2, 2]
        assert report(second) == report(first)

    def test_another_worker_count_replaces_the_pool(self, tmp_path, monkeypatch, pool_log):
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        reports = []
        for threads in ("2", "3"):
            monkeypatch.setenv("MDSD_THREADS", threads)
            cfg = synth_config(tmp_path / f"t{threads}.csv")
            before = [p.pid for p in multiprocessing.active_children()]
            run_experiment(cfg)
            reports.append(report(cfg))
        assert pool_log["workers"] == [2, 3]
        assert len(before) == 2 and not any(map(proc_alive, before))
        assert cli._pool[0] == 3
        assert reports[0] == reports[1]

    def test_fork_of_a_pool_holder_makes_its_own_pool(self, tmp_path, monkeypatch):
        # The child inherits its parent's idle pool, whose workers and
        # manager thread are not its own: it must fork its own.
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setenv("MDSD_THREADS", "2")
        cfg = synth_config(tmp_path / "parent.csv")
        run_experiment(cfg)
        child_cfg = dataclasses.replace(cfg, output=str(tmp_path / "child.csv"))
        child = multiprocessing.get_context("fork").Process(target=run_experiment, args=(child_cfg,))
        child.start()
        child.join(timeout=60)
        if child.is_alive():
            child.kill()
            child.join()
        assert child.exitcode == 0
        assert report(child_cfg) == report(cfg)

    def test_fork_during_another_threads_run(self, tmp_path, monkeypatch):
        # A thread's pooled run holds the pool's lock when the main thread
        # forks. The child, which lacks that thread, must not wait for the
        # lock, and makes its own pool.
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setenv("MDSD_THREADS", "2")
        long_run = ExperimentConfig(
            synth="zipf:1.0", vocab=20000, positions=200, trials=64, output=str(tmp_path / "long.csv")
        )
        thread = threading.Thread(target=run_experiment, args=(long_run,))
        thread.start()
        try:
            assert wait_until(lambda: cli._pool is not None, 30)
            child_cfg = synth_config(tmp_path / "child.csv")
            child = multiprocessing.get_context("fork").Process(target=run_experiment, args=(child_cfg,))
            child.start()
            assert thread.is_alive(), "the run ended before the fork"
            child.join(timeout=60)
            if child.is_alive():
                child.kill()
                child.join()
        finally:
            thread.join(timeout=120)
        assert child.exitcode == 0
        serial = synth_config(tmp_path / "serial.csv")
        monkeypatch.setenv("MDSD_THREADS", "1")
        run_experiment(serial)
        assert report(child_cfg) == report(serial)

    def test_threads_take_turns_at_the_pool(self, tmp_path, monkeypatch):
        # Two good runs and one that fails mid-stream, at once: the failure
        # drops the pool, which must not cut the other runs short.
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setattr(cli, "_CHUNK_BYTES", 1)
        monkeypatch.setenv("MDSD_THREADS", "1")
        good = [synth_config(tmp_path / f"serial{seed}.csv", seed=seed) for seed in (1, 2)]
        for cfg in good:
            run_experiment(cfg)
        bad = tmp_path / "bad.jsonl"
        logits_file(bad, 5, 20)
        lines = bad.read_text().splitlines()
        lines[3] = json.dumps(record([0, 1], [1, 0, 2]))
        bad.write_text("\n".join(lines) + "\n")
        monkeypatch.setenv("MDSD_THREADS", "2")
        runs = [dataclasses.replace(cfg, output=str(tmp_path / f"pooled{cfg.seed}.csv")) for cfg in good]
        runs.append(ExperimentConfig(input_path=str(bad), trials=16, output=str(tmp_path / "bad.csv")))
        errors = {}

        def run(cfg):
            try:
                run_experiment(cfg)
            except Exception as exc:
                errors[cfg.output] = exc

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=run, args=(cfg,)) for cfg in runs]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert list(errors) == [runs[2].output]
        assert isinstance(errors[runs[2].output], MalformedInputError)
        for cfg, pooled in zip(good, runs):
            assert report(pooled) == report(cfg)
