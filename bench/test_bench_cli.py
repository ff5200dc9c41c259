"""pytest-benchmark cases for one in-process ``verify`` op and its parts.

    PYTHONPATH=src python -m pytest bench/test_bench_cli.py \
        --benchmark-json=bench-cli.json

``testpaths`` in pyproject.toml is ``tests``, so the plain test run does
not collect these cases.  The op is ``verify --kinds survival --t 0.5
--n 30 --lambda 0.5,1,2 --out FILE`` through ``cli.main``; the parts are
its argument parsing, the rendering of its three-row JSON document, and the
write of that text to the file.  The last case imports ``expunbias.cli`` in
a fresh interpreter, the cold start every command pays.  Every case calls
names that ``cli`` has had since the parser was built once per process, so
the same file measures any later commit.  The checks after each timed call
keep a wrong answer from passing as a fast one.
"""

import json
import os
import subprocess
import sys

import pytest

from expunbias import cli

ARGV = ["verify", "--kinds", "survival", "--t", "0.5", "--n", "30", "--lambda", "0.5,1,2"]


@pytest.fixture
def document(tmp_path, monkeypatch):
    # the (manifest, rows) the op renders
    seen = []
    render = cli._render

    def spy(manifest, rows):
        seen.append((manifest, rows))
        return render(manifest, rows)

    monkeypatch.setattr(cli, "_render", spy)
    assert cli.main([*ARGV, "--out", str(tmp_path / "out.json")]) == 0
    monkeypatch.undo()
    (manifest, rows), = seen
    assert len(rows) == 3
    return manifest, rows


def test_verify_op(benchmark, tmp_path):
    out = tmp_path / "out.json"
    assert benchmark(cli.main, [*ARGV, "--out", str(out)]) == 0
    rows = json.loads(out.read_text())["results"]
    assert [row["lambda"] for row in rows] == [0.5, 1.0, 2.0]
    assert all(row["rel_bias"] < 1e-9 for row in rows)


def test_parse(benchmark, tmp_path):
    parser = cli._parser()
    args = benchmark(parser.parse_args, [*ARGV, "--out", str(tmp_path / "out.json")])
    assert args.kinds == "survival" and args.n == "30"


def test_render(benchmark, document):
    manifest, rows = document
    text = benchmark(cli._render, manifest, rows)
    doc = {"manifest": manifest, "results": rows}
    assert text == json.dumps(doc, sort_keys=True, indent=2) + "\n"


def test_write(benchmark, document, tmp_path):
    text = cli._render(*document)
    out = tmp_path / "out.json"
    benchmark(cli._emit, text, str(out))
    assert out.read_bytes() == text.encode("utf-8")


def test_cli_import(benchmark):
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    benchmark.pedantic(subprocess.run, args=([sys.executable, "-c", "import expunbias.cli"],),
                       kwargs={"env": env, "check": True}, rounds=7, warmup_rounds=1)
