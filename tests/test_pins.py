"""Every behaviour pin of ``pins.json`` holds bit for bit, and the re-pin step
rewrites only what moved (``pins.py`` holds the recipes and the step)."""

import json
import os
import re
import subprocess
import sys

import pytest

import pins

TABLE = pins.load()
BENCHMARK_PINS = [name for name in pins.RECIPES if name.startswith("benchmark-")]


# a name pinned without a recipe, or a recipe left unpinned, fails here too
@pytest.mark.parametrize("name", list(dict.fromkeys([*TABLE["pins"], *pins.RECIPES])))
def test_pin_holds(name):
    assert name in pins.RECIPES, f"{name} is pinned but has no recipe in pins.py"
    recorded = TABLE["pins"].get(name)
    digest = pins.RECIPES[name]()
    assert digest == recorded, pins.mismatch(name, recorded, digest, TABLE["recorded_with"])


def test_perfbench_readme_quotes_each_benchmark_pin_once():
    text = pins.README.read_text()
    counts = {name: text.count(TABLE["pins"][name]) for name in BENCHMARK_PINS}
    assert BENCHMARK_PINS and set(counts.values()) == {1}, counts


def test_mismatch_names_both_builds():
    recorded_with = dict(pins.provenance(), blas="another BLAS 1.0")
    message = pins.mismatch("run-dogfight", "a" * 64, "b" * 64, recorded_with)
    assert "another BLAS 1.0" in message and pins.provenance()["blas"] in message
    assert "BLAS build alone" in message and "kernel differs" not in message
    same = pins.mismatch("run-dogfight", "a" * 64, "b" * 64, pins.provenance())
    assert "BLAS build alone" not in same and "match" in same


def test_mismatch_names_both_cores():
    running = pins.provenance()["blas_core"]
    message = pins.mismatch("run-dogfight", "a" * 64, "b" * 64,
                            dict(pins.provenance(), blas_core="AnotherCore"))
    assert f"recorded AnotherCore, running {running}" in message
    assert "BLAS build alone" not in message


def test_provenance_reads_the_runtime_blas_core(monkeypatch):
    """The core OPENBLAS_CORETYPE forces is the one recorded, and a library
    without the query records ``unknown``."""
    if pins.blas_core() != "unknown":
        env = dict(os.environ, OPENBLAS_CORETYPE="Haswell",
                   PYTHONPATH=os.pathsep.join([str(pins.ROOT / "src"), str(pins.ROOT / "tests")]))
        read = subprocess.run([sys.executable, "-c", "import pins; print(pins.blas_core())"],
                              env=env, capture_output=True, text=True, check=True)
        assert read.stdout == "Haswell\n"
    monkeypatch.setattr(pins.ctypes, "CDLL", lambda path: object())
    assert pins.provenance()["blas_core"] == "unknown"


def _copies(tmp_path, text=None):
    readme = tmp_path / "README.md"
    readme.write_text(pins.README.read_text() if text is None else text)
    return readme, tmp_path / "pins.json"


def test_repin_rewrites_only_the_moved_cell(tmp_path):
    readme, pins_path = _copies(tmp_path)
    recorded = TABLE["pins"]
    digests = dict(recorded, **{"benchmark-dogfight-pdo": "0" * 64, "run-toy": "1" * 64})
    pins.write(digests, recorded, pins_path=pins_path, readme=readme)
    before = pins.README.read_text().splitlines()
    after = readme.read_text().splitlines()
    changed = [(old, new) for old, new in zip(before, after) if old != new]
    assert len(before) == len(after) and len(changed) == 1
    (old, new), = changed
    assert old.replace(recorded["benchmark-dogfight-pdo"], "0" * 64) == new
    assert json.loads(pins_path.read_text()) == {"recorded_with": pins.provenance(),
                                                 "pins": digests}


@pytest.mark.parametrize("quotes", [0, 2])
def test_repin_refuses_a_cell_not_quoted_once(tmp_path, quotes):
    old = TABLE["pins"]["benchmark-ascent"]
    text = pins.README.read_text().replace(old, " ".join([old] * quotes))
    readme, pins_path = _copies(tmp_path, text)
    digests = dict(TABLE["pins"], **{"benchmark-ascent": "0" * 64})
    with pytest.raises(ValueError, match=f"quoted {quotes} times"):
        pins.write(digests, TABLE["pins"], pins_path=pins_path, readme=readme)
    assert not pins_path.exists() and readme.read_text() == text


def test_out_writes_the_table_there_and_nothing_else(tmp_path, monkeypatch):
    # the flag's contract holds for any recipe set; one cheap recipe stands for all
    monkeypatch.setattr(pins, "RECIPES", {"trajectory-toy": pins.RECIPES["trajectory-toy"]})
    readme, pins_path = _copies(tmp_path)
    pins_path.write_bytes(pins.PINS.read_bytes())
    monkeypatch.setattr(pins, "README", readme)
    monkeypatch.setattr(pins, "PINS", pins_path)
    before = readme.read_bytes(), pins_path.read_bytes()
    out = tmp_path / "kernel" / "table.json"
    out.parent.mkdir()
    assert pins.main(["--out", str(out)]) == 0
    assert (readme.read_bytes(), pins_path.read_bytes()) == before
    assert json.loads(out.read_text()) == {
        "recorded_with": pins.provenance(),
        "pins": {"trajectory-toy": TABLE["pins"]["trajectory-toy"]}}


def test_repin_errors_on_the_warnings_tier_1_errors_on():
    # pyproject.toml read as text: tomllib needs Python 3.11
    text = (pins.ROOT / "pyproject.toml").read_text()
    assert {c.__name__ for c in pins.ERROR_WARNINGS} == set(re.findall(r"error::(\w+)", text))
