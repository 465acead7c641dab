"""``tools/kind_medians.py`` on a synthetic run record."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "kind_medians.py"


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("kind_medians", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _cmd(kind, latency, func=None):
    argv = ["differint", "--nu", "0.5", "--grid"] if kind.startswith("differint") else ["verify"]
    if func is not None:
        argv[1:1] = ["--func", func]
    return {"kind": kind, "latency_ms": latency, "argv": argv, "ok": True, "tol_used": {}}


RECORD = {"workload": "curves", "commands": [
    _cmd("differint-quadrature", 40.0, '{"kind": "exponential", "a": 1.2}'),
    _cmd("differint-quadrature", 30.0, '{"kind": "exponential", "a": 0.7}'),
    _cmd("differint-quadrature", 10.0, "gaussian"),
    _cmd("differint-quadrature", 60.0, '{"kind": "gaussian", "center": 0, "width": 1}'),
    _cmd("verify", 60.0),
]}


def test_func_kind_reads_json_objects_and_catalog_names(tool):
    assert tool.func_kind(["differint", "--func", '{"kind": "bump"}', "--grid"]) == "bump"
    assert tool.func_kind(["differint", "--func", "exp"]) == "exp"
    assert tool.func_kind(["verify", "--only", "exp_eigen"]) == "-"


def test_rows_give_counts_medians_and_shares(tool):
    rows = {(kind, func): [count, median, pytest.approx(share)]
            for kind, func, count, median, share in tool.table(RECORD["commands"])}
    assert list(rows) == [("differint-quadrature", "*"), ("differint-quadrature", "exponential"),
                          ("differint-quadrature", "gaussian"), ("verify", "*"), ("all", "*")]
    assert rows["differint-quadrature", "*"] == [4, 35.0, 0.7]
    assert rows["differint-quadrature", "exponential"] == [2, 35.0, 0.35]
    assert rows["differint-quadrature", "gaussian"] == [2, 35.0, 0.35]
    assert rows["verify", "*"] == [1, 60.0, 0.3]
    assert rows["all", "*"] == [5, 40.0, 1.0]


def test_main_pools_records_and_writes_nothing(tool, tmp_path, capsys):
    paths = []
    for k in range(2):
        paths.append(tmp_path / f"record-curves-seed{k}-trace0.json")
        paths[-1].write_text(json.dumps(RECORD))
    assert tool.main(["kind_medians.py", *map(str, paths)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "10 commands from 2 record(s)"
    assert out[3].split() == ["differint-quadrature", "exponential", "4", "35.00", "0.350"]
    # The table's last row, then one tail line per record.
    assert out[-3].split() == ["all", "*", "10", "40.00", "1.000"]
    assert out[-2:] == [f"op_tail_ms 60.00 at p100.0 of 5 in {p.name}: differint-quadrature 1, verify 1"
                        for p in paths]
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(p.name for p in paths)


def test_no_record_is_a_usage_error(tool, capsys):
    assert tool.main(["kind_medians.py"]) == 2
    assert "RECORD" in capsys.readouterr().err


def test_tail_names_the_kinds_at_or_above_perfbenchs_rank(tool):
    # 20 commands: the rank is n - 10 = 10, the caputo command at 19.5 ms.
    commands = ([_cmd("differint-quadrature", 5.0, "gaussian") for _ in range(9)]
                + [_cmd("differint-caputo", 19.5, "gaussian")]
                + [_cmd("differint-fourier", 20.0 + k, "gaussian") for k in range(10)])
    value, percentile, count, kinds = tool.tail_kinds(commands)
    assert (value, percentile, count) == (19.5, 50.0, 20)
    assert kinds == [("differint-fourier", 10), ("differint-caputo", 1)]
