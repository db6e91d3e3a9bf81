"""The README's library example runs and prints what its comments say."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_prints_its_comments(capsys):
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library example", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    expected = re.findall(r"# ([0-9.]+)$", code, flags=re.M)
    assert expected == ["0.46", "0.44", "0.5514"]
    exec(compile(code, str(README), "exec"), {})
    printed = capsys.readouterr().out.split()
    assert len(printed) == len(expected)
    # Each value, rounded to its comment's digits, is the comment.
    for value, comment in zip(printed, expected):
        assert round(float(value), len(comment.split(".")[1])) == float(comment), (value, comment)
