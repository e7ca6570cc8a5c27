"""CSV emitters reproducing the figure data sets at desk scale."""

from __future__ import annotations

import io

from . import analysis as an
from .errors import ScenarioError
from .memory import od_spectrum
from .scenario import RunBundle, Scenario

FIGURES = ("fig1b", "fig2", "fig4a", "fig4b", "fig4c")
# sweep figure -> the sweep kind it plots
SWEEP_KINDS = {"fig4b": "afc_modes", "fig4c": "pump_power"}


def _histogram_csv(hist: an.CorrelationHistogram) -> str:
    # a row's bin holds the delays in [bin_start_ps, bin_start_ps + width)
    rows = zip(hist.bin_edges_ps[:-1].tolist(), hist.counts.tolist())
    return "bin_start_ps,counts\n" + "".join(f"{a},{n}\n" for a, n in rows)


def emit_figure_data(bundle, figure: str) -> dict[str, str]:
    """CSV documents for one figure.

    ``bundle`` is the Scenario for fig2 (its AFC plan needs no run), a
    RunBundle for fig1b/fig4a and a list of RunBundles (one per sweep
    point) for fig4b/fig4c.
    """
    if figure not in FIGURES:
        raise ScenarioError(f"unknown figure {figure!r}")

    if figure in ("fig1b", "fig4a"):
        if not isinstance(bundle, RunBundle):
            raise ScenarioError(f"{figure} needs a single run bundle")
        return {f"{figure}.csv": _histogram_csv(bundle.histogram)}

    if figure == "fig2":
        if not isinstance(bundle, Scenario):
            raise ScenarioError("fig2 needs a scenario")
        if bundle.afc_plan is None:
            raise ScenarioError("fig2 needs a scenario with the AFC enabled")
        buf = io.StringIO()
        buf.write("freq_hz,optical_depth\n")
        for f, od in zip(*od_spectrum(bundle.afc_plan)):
            buf.write(f"{float(f)!r},{float(od)!r}\n")
        return {"fig2.csv": buf.getvalue()}

    if not isinstance(bundle, (list, tuple)) or not bundle:
        raise ScenarioError(
            f"{figure} needs a sweep bundle set; run the scenario's sweep block")
    bundles = list(bundle)

    buf = io.StringIO()
    if figure == "fig4b":
        buf.write("afc_modes,n_eff,n_eff_err\n")
        for b in bundles:
            if b.scenario.afc_plan is None:
                raise ScenarioError("fig4b sweep point has no AFC")
            buf.write(f"{b.scenario.afc_plan.mode_count},"
                      f"{float(b.report.n_effective)!r},"
                      f"{float(b.report.n_effective_err)!r}\n")
        return {"fig4b.csv": buf.getvalue()}

    # fig4c: classical limit column is constant across pump powers
    climit = bundles[0].report.classical_limit
    buf.write("pump_mw,g2,g2_err,classical_limit\n")
    for b in bundles:
        buf.write(f"{float(b.scenario.pump_mw)!r},{float(b.report.g2)!r},"
                  f"{float(b.report.g2_err)!r},{float(climit)!r}\n")
    return {"fig4c.csv": buf.getvalue()}
