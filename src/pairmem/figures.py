"""CSV emitters reproducing the figure data sets at desk scale."""

from __future__ import annotations

import numpy as np

from . import analysis as an
from .errors import ScenarioError
from .memory import od_spectrum


def _histogram_csv(hist: an.CorrelationHistogram) -> str:
    # a row's bin holds the delays in [bin_start_ps, bin_start_ps + width)
    rows = np.column_stack((hist.bin_edges_ps[:-1], hist.counts)).ravel()
    return ("bin_start_ps,counts\n"
            + "%d,%d\n" * len(hist.counts) % tuple(rows.tolist()))


def _afc_csv(s) -> str:
    if s.afc_plan is None:
        raise ScenarioError("fig2 needs a scenario with the AFC enabled")
    rows = zip(*od_spectrum(s.afc_plan))
    return "freq_hz,optical_depth\n" + "".join(
        f"{float(f)!r},{float(od)!r}\n" for f, od in rows)


def _n_eff_csv(bundles) -> str:
    return "afc_modes,n_eff,n_eff_err\n" + "".join(
        f"{b.scenario.afc_plan.mode_count},{float(b.report.n_effective)!r},"
        f"{float(b.report.n_effective_err)!r}\n" for b in bundles)


def _g2_csv(bundles) -> str:
    return "pump_mw,g2,g2_err,classical_limit\n" + "".join(
        f"{float(b.scenario.pump_mw)!r},{float(b.report.g2)!r},"
        f"{float(b.report.g2_err)!r},{float(b.report.classical_limit)!r}\n"
        for b in bundles)


# figure -> (what it reads, its CSV writer).  It reads the "scenario" alone
# (fig2: the AFC plan is a model), one "run" bundle, or the bundles of a
# sweep of the named kind, one per point, in order.
FIGURES = {
    "fig1b": ("run", lambda bundle: _histogram_csv(bundle.histogram)),
    "fig2": ("scenario", _afc_csv),
    "fig4a": ("run", lambda bundle: _histogram_csv(bundle.histogram)),
    "fig4b": ("afc_modes", _n_eff_csv),
    "fig4c": ("pump_power", _g2_csv),
}


def emit_figure_data(data, figure: str) -> dict[str, str]:
    """CSV documents for one figure, from the data ``FIGURES`` says it
    reads."""
    if figure not in FIGURES:
        raise ScenarioError(f"unknown figure {figure!r}")
    return {f"{figure}.csv": FIGURES[figure][1](data)}
