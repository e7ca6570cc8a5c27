"""Byte check: write the CLI outputs of two trees and compare them file by file.

    python3 statbench/bytes.py --against /path/to/parent
    python3 statbench/bytes.py --against . --scenario default --duration 0.05

This tree is the checkout holding this script.  Each tree runs its own
``src/`` and its own ``scenarios/``, every command in a fresh interpreter
(``python -m pairmem.cli``), with RuntimeWarning and DeprecationWarning
raised as errors.  The outputs:

- ``simulate`` on default, calibration_1mw and halfpower_0p5mw (events,
  histogram and report of each);
- ``figure`` fig1b and fig4a on calibration_1mw, fig2 on default, fig4b on
  sweep_afc_modes and fig4c on sweep_pump_power;
- the single-mode reference of calibration_1mw, simulated from the
  scenario ``single_mode_reference`` writes (its seed too), and ``analyze
  --reference-events`` of the calibration events with it.

First one line per ``pairmem`` command: ``rss``, its maximum resident
set size in MiB on this tree and on the other (``os.wait4``), and its
output set, so that a change that holds every byte but moves memory shows
it.  Then one line per file: ``held`` or ``moved`` (or ``missing`` on one
side), the file, and its sha256 on this tree, then on the other tree when
it differs.  After a moved ``.json`` file, one ``field`` line per top-level
key whose value differs: the key, its value here and there.  After a moved
``.csv`` file with the same header and row count on both trees, one
``column`` line per column that differs, with the number of rows that
differ in it.  After a moved ``.bin`` event file, one ``stream`` line:
``held`` or ``moved``, and the sha256 of the stream the file holds (seed,
duration, model digest and both channels), each tree decoding its own
file with its own ``pairmem.read_events``, so that a change of the file
format alone reads ``stream held``.  ``--scenario`` keeps the outputs of the named scenarios only;
``--duration`` shortens every run.  Exit 0 when every file is held, 1
when a file moved or is missing, 2 when a command fails.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (output set, scenario, pairmem arguments); "{cfg}" is the scenario file
CASES = [
    *((f"simulate/{name}", name, ["simulate", "--scenario", "{cfg}"])
      for name in ("default", "calibration_1mw", "halfpower_0p5mw")),
    *((f"figure/{fig}", name, ["figure", "--figure", fig, "--scenario", "{cfg}",
                               "--jobs", "1"])
      for fig, name in (("fig1b", "calibration_1mw"), ("fig4a", "calibration_1mw"),
                        ("fig2", "default"), ("fig4b", "sweep_afc_modes"),
                        ("fig4c", "sweep_pump_power"))),
]
# the analyze replay reads the calibration events and those of its reference
REPLAYED = "calibration_1mw"

# writes the single-mode reference of scenario argv[1], seed included, to argv[2]
_REFERENCE = """\
import sys
import pairmem as pm
from pairmem.scenario import single_mode_reference
s = pm.load_scenario(open(sys.argv[1]).read())
open(sys.argv[2], "w").write(pm.save_scenario(single_mode_reference(s)))
"""

# prints the sha256 of the stream that event file argv[1] holds, as the
# pairmem on PYTHONPATH reads it
_STREAM = """\
import hashlib, sys
import pairmem as pm
ev = pm.read_events(sys.argv[1])
h = hashlib.sha256(f"{ev.seed} {ev.duration_ps} {ev.model_digest}".encode())
h.update(ev.signal_ps.astype("<u8").tobytes())
h.update(ev.idler_ps.astype("<u8").tobytes())
print(h.hexdigest())
"""


class CommandFailed(RuntimeError):
    pass


def _run(tree: Path, args: list[str], cwd: Path) -> tuple[str, float]:
    """The command's stdout and its maximum resident set size in MiB."""
    # the warnings pytest takes as errors (pyproject.toml) fail a command too
    env = {**os.environ, "PYTHONPATH": str(tree / "src"),
           "PYTHONWARNINGS": "error::RuntimeWarning,error::DeprecationWarning"}
    env.pop("PAIRMEM_OUT", None)
    with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
        p = subprocess.Popen([sys.executable, *args], cwd=cwd, env=env,
                             stdout=out, stderr=err)
        _, status, usage = os.wait4(p.pid, 0)   # this child's rusage alone
        p.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        stdout, stderr = out.read().decode(), err.read().decode()
    if p.returncode:
        raise CommandFailed(f"{tree}: {' '.join(args)} exited {p.returncode}\n"
                            f"{stderr.strip()}")
    return stdout, usage.ru_maxrss / 1024   # KiB on Linux


def _scenario(tree: Path, name: str, duration: float | None, work: Path) -> Path:
    """The tree's scenario ``name``, as shipped or with its run shortened."""
    path = tree / "scenarios" / f"{name}.cfg"
    if duration is None:
        return path
    cp = configparser.ConfigParser(interpolation=None)
    cp.read_string(path.read_text())
    if not cp.has_section("run"):
        cp.add_section("run")
    cp["run"]["duration_s"] = repr(float(duration))
    short = work / "scenarios" / f"{name}.cfg"
    short.parent.mkdir(parents=True, exist_ok=True)
    with open(short, "w") as f:
        cp.write(f)
    return short


def write_outputs(tree: Path, out: Path, scenarios: set[str],
                  duration: float | None) -> dict[str, float]:
    """Write the outputs of every case on ``scenarios`` under ``out``, one
    directory per output set; return each ``pairmem`` command's maximum
    resident set size in MiB, by output set."""
    cli = ["-m", "pairmem.cli"]
    rss = {}
    for case, name, args in CASES:
        if name in scenarios:
            cfg = _scenario(tree, name, duration, out)
            case_dir = out / case
            case_dir.mkdir(parents=True)
            _, rss[case] = _run(tree, [*cli, *(a.format(cfg=cfg) for a in args),
                                       "--out", str(case_dir)], out)
    if REPLAYED in scenarios:
        cfg = _scenario(tree, REPLAYED, duration, out)
        ref_cfg = out / "scenarios" / f"{REPLAYED}_reference.cfg"
        ref_cfg.parent.mkdir(parents=True, exist_ok=True)
        _run(tree, ["-c", _REFERENCE, str(cfg), str(ref_cfg)], out)
        ref_dir, replay_dir = out / f"reference/{REPLAYED}", out / f"analyze/{REPLAYED}"
        ref_dir.mkdir(parents=True)
        replay_dir.mkdir(parents=True)
        _, rss[f"reference/{REPLAYED}"] = _run(
            tree, [*cli, "simulate", "--scenario", str(ref_cfg),
                   "--out", str(ref_dir)], out)
        _, rss[f"analyze/{REPLAYED}"] = _run(
            tree, [*cli, "analyze", "--scenario", str(cfg),
                   "--events", str(out / f"simulate/{REPLAYED}/events.bin"),
                   "--reference-events", str(ref_dir / "events.bin"),
                   "--out", str(replay_dir)], out)
    return rss


def _digests(out: Path) -> dict[str, str]:
    return {str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.rglob("*"))
            if p.is_file() and p.parts[len(out.parts)] != "scenarios"}


def compare(this: Path, other: Path) -> list[tuple[str, str, str, str | None]]:
    """(status, file, sha256 here, sha256 there or None) for every output
    file of either tree, sorted by file."""
    a, b = _digests(this), _digests(other)
    rows = []
    for name in sorted(a.keys() | b.keys()):
        ha, hb = a.get(name, "-"), b.get(name, "-")
        status = "held" if ha == hb else "missing" if "-" in (ha, hb) else "moved"
        rows.append((status, name, ha, None if ha == hb else hb))
    return rows


def moved_parts(here: Path, there: Path) -> list[str]:
    """The ``field`` lines of a moved JSON object, or the ``column`` lines
    of a moved CSV table that keeps its header and row count."""
    if here.suffix == ".json":
        a, b = (json.loads(p.read_text()) for p in (here, there))
        if not (isinstance(a, dict) and isinstance(b, dict)):
            return []
        return [f"{'field':7} {k}  {json.dumps(a.get(k))}  "
                f"(against: {json.dumps(b.get(k))})"
                for k in sorted(a.keys() | b.keys())
                if k not in a or k not in b or a[k] != b[k]]
    if here.suffix == ".csv":
        a, b = (list(csv.reader(p.read_text().splitlines())) for p in (here, there))
        if not a or a[0] != b[0] or len(a) != len(b):
            return []
        lines = []
        for j, col in enumerate(a[0]):
            n = sum(ra[j:j + 1] != rb[j:j + 1] for ra, rb in zip(a[1:], b[1:]))
            if n:
                lines.append(f"{'column':7} {col}  {n} of {len(a) - 1} rows differ")
        return lines
    return []


def stream_parts(here: Path, there: Path, trees: tuple[Path, Path]) -> list[str]:
    """The ``stream`` line of a moved event file: each tree of ``trees``
    decodes its own file, ``here`` on the first and ``there`` on the other."""
    a, b = (_run(tree, ["-c", _STREAM, str(path)], path.parent)[0].strip()
            for tree, path in zip(trees, (here, there)))
    return [f"{'stream':7} {'held' if a == b else 'moved'}  {a}"
            + ("" if a == b else f"  (against: {b})")]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--against", required=True, type=Path,
                   help="the other tree (a checkout with src/ and scenarios/)")
    p.add_argument("--scenario", action="append",
                   help="keep the outputs of this scenario only (repeatable)")
    p.add_argument("--duration", type=float,
                   help="run every scenario for this many seconds")
    args = p.parse_args(argv)
    shipped = {name for _, name, _ in CASES}
    scenarios = set(args.scenario or shipped)
    if not scenarios <= shipped:
        p.error(f"unknown scenario(s) {sorted(scenarios - shipped)}")
    for tree in (ROOT, args.against):
        if not (tree / "src" / "pairmem").is_dir() or not (tree / "scenarios").is_dir():
            p.error(f"{tree} holds no src/pairmem and scenarios/")
    with tempfile.TemporaryDirectory(prefix="statbench-bytes-") as out:
        sides = Path(out) / "this", Path(out) / "against"
        trees = ROOT, args.against.resolve()
        try:
            rss = []
            for tree, side in zip(trees, sides):
                side.mkdir()
                rss.append(write_outputs(tree, side, scenarios, args.duration))
            rows = compare(*sides)
            parts = {name: stream_parts(sides[0] / name, sides[1] / name, trees)
                     if name.endswith(".bin") else
                     moved_parts(sides[0] / name, sides[1] / name)
                     for status, name, _, _ in rows if status == "moved"}
        except CommandFailed as exc:
            print(f"command failed: {exc}", file=sys.stderr)
            return 2
    for case in rss[0]:
        print(f"rss     {rss[0][case]:8.1f} {rss[1][case]:8.1f}  {case}")
    for status, name, here, there in rows:
        print(f"{status:7} {name}  {here}" + (f"  (against: {there})" if there else ""))
        for line in parts.get(name, ()):
            print(line)
    held = sum(r[0] == "held" for r in rows)
    print(f"{len(rows)} files: {held} held, {len(rows) - held} moved or missing")
    return 0 if held == len(rows) else 1


if __name__ == "__main__":
    sys.exit(main())
