import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BYTES = ROOT / "statbench" / "bytes.py"


def load_bytes_tool():
    spec = importlib.util.spec_from_file_location("statbench_bytes", BYTES)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_byte_check_holds_every_file_of_the_tree_against_itself():
    # both sides in fresh processes from the same checkout: every output of
    # default.cfg, the simulate triple and fig2, is held
    r = subprocess.run(
        [sys.executable, str(BYTES), "--against", str(ROOT), "--scenario",
         "default", "--duration", "0.05"],
        capture_output=True, text=True, timeout=120)
    assert r.returncode == 0, r.stdout + r.stderr
    lines = [line.split() for line in r.stdout.splitlines()[:-1]]
    # one row per pairmem command: its max RSS in MiB on both trees
    rss = [row for row in lines if row[0] == "rss"]
    assert [row[3] for row in rss] == ["simulate/default", "figure/fig2"]
    assert all(float(mib) > 10 for row in rss for mib in row[1:3])
    rows = [row for row in lines if row[0] != "rss"]
    assert [row[:2] for row in rows] == [
        ["held", "figure/fig2/fig2.csv"],
        ["held", "simulate/default/events.bin"],
        ["held", "simulate/default/histogram.csv"],
        ["held", "simulate/default/report.json"]]
    assert r.stdout.splitlines()[-1] == "4 files: 4 held, 0 moved or missing"


def test_byte_check_names_moved_and_missing_files(tmp_path):
    tool = load_bytes_tool()
    this, other = tmp_path / "this", tmp_path / "against"
    for side, files in ((this, {"a/x": b"1", "a/y": b"2", "b/z": b"3"}),
                        (other, {"a/x": b"1", "a/y": b"two", "c/w": b"4",
                                 "scenarios/s.cfg": b"ignored"})):
        for name, data in files.items():
            (side / name).parent.mkdir(parents=True, exist_ok=True)
            (side / name).write_bytes(data)
    rows = tool.compare(this, other)
    assert [(status, name) for status, name, _, _ in rows] == [
        ("held", "a/x"), ("moved", "a/y"), ("missing", "b/z"), ("missing", "c/w")]
    held, moved = rows[0], rows[1]
    assert held[3] is None and moved[2] != moved[3]


def test_byte_check_names_the_fields_and_columns_that_moved(tmp_path):
    tool = load_bytes_tool()
    files = {
        "this": {"r.json": '{"g2": 7.061, "n": 1, "new": true}',
                 "f.csv": "pump,g2,limit\n0.5,15.3,1.03\n1.0,6.89,1.03\n",
                 "short.csv": "a,b\n1,2\n"},
        "against": {"r.json": '{"g2": 7.057, "n": 1}',
                    "f.csv": "pump,g2,limit\n0.5,15.2,1.03\n1.0,6.88,1.03\n",
                    "short.csv": "a,b\n1,3\n4,5\n"}}
    for side, docs in files.items():
        (tmp_path / side).mkdir()
        for name, text in docs.items():
            (tmp_path / side / name).write_text(text)
    here, there = tmp_path / "this", tmp_path / "against"
    assert [r[0] for r in tool.compare(here, there)] == ["moved"] * 3
    parts = {name: tool.moved_parts(here / name, there / name)
             for name in files["this"]}
    assert [line.split() for line in parts["r.json"]] == [
        ["field", "g2", "7.061", "(against:", "7.057)"],
        ["field", "new", "true", "(against:", "null)"]]
    assert [line.split() for line in parts["f.csv"]] == [
        ["column", "g2", "2", "of", "2", "rows", "differ"]]
    assert parts["short.csv"] == []   # the row count moved: no column rows
