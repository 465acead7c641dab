"""``tools/same_outputs.py``: its comparison on seeded files, and one command run twice on this tree."""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "same_outputs.py"


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("same_outputs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _field(path: Path, values: np.ndarray) -> None:
    head = json.dumps({"dim": 1, "m": values.size}).encode() + b"\n"
    path.write_bytes(head + values.astype("<c16").tobytes())


@pytest.fixture()
def pair(tmp_path):
    old, new = tmp_path / "old", tmp_path / "new"
    old.mkdir()
    new.mkdir()
    rows = "x,re,im\n" + "".join(f"{x!r},{np.sin(x)!r},0\n" for x in np.linspace(-1.0, 1.0, 5))
    for d in (old, new):
        (d / "same.csv").write_text(rows)
        _field(d / "u.field", np.linspace(1.0, 2.0, 8) + 0.5j)
    return old, new


def test_identical_files_read_identical(tool, pair):
    assert tool.compare_dirs(*pair) == [("same.csv", "identical"), ("u.field", "identical")]


def test_one_ulp_is_reported_with_its_size(tool, pair):
    old, new = pair
    value = float(np.sin(0.5))
    (old / "moved.csv").write_text(f"x,re\n0.5,{value!r}\n")
    (new / "moved.csv").write_text(f"x,re\n0.5,{float(np.nextafter(value, 1.0))!r}\n")
    vals = np.linspace(1.0, 2.0, 8) + 0.5j
    vals[3] = complex(np.nextafter(vals[3].real, 3.0), 0.5)
    _field(new / "u.field", vals)
    verdicts = dict(tool.compare_dirs(old, new))
    ulp = np.spacing(value)
    assert verdicts["moved.csv"] == f"moved: max abs {ulp:.3e}, max rel {ulp / value:.3e} (1 of 2 numbers)"
    ulp = np.spacing(vals[3].real)
    assert verdicts["u.field"] == f"moved: max abs {ulp:.3e}, max rel {ulp / abs(vals[3] - ulp):.3e} (1 of 8 numbers)"


def test_changed_text_and_missing_files_are_named(tool, pair):
    old, new = pair
    (new / "same.csv").write_text((old / "same.csv").read_text().replace("x,re,im", "x,re"))
    (old / "gone.json").write_text("{}")
    (new / "extra.json").write_text("{}")
    verdicts = dict(tool.compare_dirs(old, new))
    assert verdicts["same.csv"] == "text between the numbers differs"
    assert verdicts["gone.json"] == "only in the revision"
    assert verdicts["extra.json"] == "only in the working tree"
    lines, ok = tool.report(sorted(verdicts.items()), {"same.csv", "gone.json", "extra.json"})
    assert ok and lines[0] == "extra.json: only in the working tree (allowed)"
    assert not tool.report(sorted(verdicts.items()), {"same.csv"})[1]


def test_a_command_run_twice_on_this_tree_reads_identical(tool, tmp_path):
    commands = [c for c in tool.COMMANDS if c[0] == "differint-at-gaussian.out"]
    root = TOOL.parents[1]
    tool.run_tree(root, tmp_path / "a", commands)
    tool.run_tree(root, tmp_path / "b", commands)
    assert (tmp_path / "a" / "differint-at-gaussian.out").read_text().startswith("exit 0\n")
    assert tool.compare_dirs(tmp_path / "a", tmp_path / "b") == [("differint-at-gaussian.out", "identical")]
