"""Batch command-line interface.

Subcommands: ``validate`` checks a scenario document, ``simulate`` runs the
full pipeline and writes events + histogram + report, ``analyze`` rebuilds
the report from an existing event file, ``figure`` reproduces a figure's
data set (running the sweep block when the figure needs one).

Exit codes: 0 success, 2 scenario/config error, 3 simulation error,
4 analysis error, 5 file-format error.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import eventio, figures
from .errors import (EstimationError, EventFormatError, ParameterError,
                     ScenarioError, SimulationError)
from .scenario import (analyze_events, load_scenario, reference_rate,
                       run_scenario, run_sweep, scenario_digest)

EXIT_SCENARIO = 2
EXIT_SIMULATION = 3
EXIT_ANALYSIS = 4
EXIT_FORMAT = 5


def _read_scenario(path, seed_override=None):
    text = ""
    if path is not None:
        with open(path) as f:
            text = f.read()
    s = load_scenario(text)
    if seed_override is not None:
        from dataclasses import replace
        s = replace(s, seed=seed_override)
    return s


def _out_dir(args) -> str:
    out = args.out or os.environ.get("PAIRMEM_OUT", ".")
    os.makedirs(out, exist_ok=True)
    return out


def _write_text(path, text):
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w") as f:
        f.write(text)
    os.replace(tmp, path)


def cmd_validate(args) -> int:
    s = _read_scenario(args.scenario)
    print(f"ok digest={scenario_digest(s)}")
    return 0


def cmd_simulate(args) -> int:
    s = _read_scenario(args.scenario, args.seed)
    bundle = run_scenario(s)
    out = _out_dir(args)
    events_path = args.events or os.path.join(out, "events.bin")
    eventio.write_events(bundle.events, events_path)
    _write_text(os.path.join(out, "histogram.csv"),
                figures._histogram_csv(bundle.histogram))
    _write_text(os.path.join(out, "report.json"), bundle.report.to_json())
    print(f"report g2={bundle.report.g2:.3f}+-{bundle.report.g2_err:.3f} "
          f"n_eff={bundle.report.n_effective:.2f} "
          f"nonclassical={bundle.report.nonclassical}")
    return 0


def cmd_analyze(args) -> int:
    s = _read_scenario(args.scenario)
    events = eventio.read_events(args.events)
    rate_single = None
    if args.reference_events:
        rate_single = reference_rate(
            s, eventio.read_events(args.reference_events))
    hist, report = analyze_events(s, events, rate_single=rate_single)
    out = _out_dir(args)
    _write_text(os.path.join(out, "histogram.csv"), figures._histogram_csv(hist))
    _write_text(os.path.join(out, "report.json"), report.to_json())
    print(f"report g2={report.g2:.3f}+-{report.g2_err:.3f}")
    return 0


def cmd_figure(args) -> int:
    if args.jobs < 1:
        raise ScenarioError(f"--jobs must be >= 1, not {args.jobs}")
    s = _read_scenario(args.scenario, args.seed)
    reads, _ = figures.FIGURES[args.figure]
    if reads == "scenario":
        data = s
    elif reads == "run":
        data = run_scenario(s)
    elif s.sweep_kind != reads:
        raise ScenarioError(f"{args.figure} needs a {reads} sweep block, "
                            f"not {s.sweep_kind or 'none'}")
    else:
        data = run_sweep(s, jobs=args.jobs)
    docs = figures.emit_figure_data(data, args.figure)
    out = _out_dir(args)
    for name, text in docs.items():
        _write_text(os.path.join(out, name), text)
        print(os.path.join(out, name))
    return 0


def make_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="pairmem", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--scenario", help="scenario config path (default: all defaults)")
        sp.add_argument("--seed", type=int, default=None, help="override run seed")
        sp.add_argument("--out", help="output directory (default $PAIRMEM_OUT or .)")

    sp = sub.add_parser("validate", help="parse and validate a scenario")
    sp.add_argument("--scenario")
    sp.set_defaults(func=cmd_validate)

    sp = sub.add_parser("simulate", help="run the full pipeline")
    common(sp)
    sp.add_argument("--events", help="event output path (default <out>/events.bin)")
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("analyze", help="analyze an existing event file")
    common(sp)
    sp.add_argument("--events", required=True, help="event input path")
    sp.add_argument("--reference-events",
                    help="single-mode reference events for effective-mode counting")
    sp.set_defaults(func=cmd_analyze)

    sp = sub.add_parser("figure", help="emit one figure's data as CSV")
    common(sp)
    sp.add_argument("--figure", required=True, choices=figures.FIGURES)
    sp.add_argument("--jobs", type=int, default=1,
                    help="worker processes for a sweep figure, at most one "
                         "per sweep point (default 1: run in this process)")
    sp.set_defaults(func=cmd_figure)
    return p


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        return args.func(args)
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return EXIT_SCENARIO
    except SimulationError as exc:
        print(f"simulation error: {exc}", file=sys.stderr)
        return EXIT_SIMULATION
    except (EstimationError, ParameterError) as exc:
        print(f"analysis error: {exc}", file=sys.stderr)
        return EXIT_ANALYSIS
    except (EventFormatError, OSError) as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_FORMAT


if __name__ == "__main__":
    sys.exit(main())
