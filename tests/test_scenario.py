import hashlib
import json
import math
import os
import time
import tracemalloc
import warnings
import weakref
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import pairmem as pm
from pairmem.errors import ParameterError, ScenarioError, SimulationError
from pairmem.scenario import (analyze_events, build_spectrum, reference_rate,
                              single_mode_reference, sweep_scenarios)

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


def fast(s, duration=0.05):
    return replace(s, duration_s=duration, reference_run=False)


# ---------------------------------------------------------------------------
# config parsing

def test_empty_document_is_default():
    s = pm.load_scenario("")
    assert s.cavity.fsr_signal == 123.0e6
    assert s.afc_plan.mode_count == 83
    assert s.afc_plan.tooth_spacing == 920e3
    assert s.analysis.bin_width_s == 0.2e-9
    assert s.analysis.window_s == 400e-9
    assert s.gating.cycle == 100e-6
    assert s.filters["signal"].kind == "etalon"
    assert s.filters["idler"].kind == "vbg"


def test_partial_document_overrides():
    s = pm.load_scenario("[run]\nseed = 99\npump_mw = 0.5\n")
    assert s.seed == 99 and s.pump_mw == 0.5
    assert s.pair_rate == pytest.approx(0.5 * s.brightness_pairs_per_s_per_mw)
    assert s.cavity.fsr_signal == 123.0e6  # untouched defaults remain


def test_unknown_section_rejected():
    with pytest.raises(ScenarioError, match="unknown section"):
        pm.load_scenario("[laser]\npower = 1\n")


def test_unknown_key_rejected():
    with pytest.raises(ScenarioError, match="unknown key"):
        pm.load_scenario("[run]\nduration_hours = 2\n")


def test_bad_value_rejected():
    with pytest.raises(ScenarioError, match="bad value"):
        pm.load_scenario("[run]\nduration_s = soon\n")


@pytest.mark.parametrize("key", ["duration_s", "pump_mw",
                                 "brightness_pairs_per_s_per_mw"])
def test_negative_run_parameter_rejected(key):
    with pytest.raises(ScenarioError, match=key):
        pm.load_scenario(f"[run]\n{key} = -1.0\n")
    with pytest.raises(ScenarioError, match=key):
        pm.load_scenario(f"[run]\n{key} = nan\n")


def test_afc_spacing_must_match_fsr():
    with pytest.raises(ScenarioError, match="mode_spacing"):
        pm.load_scenario("[afc]\nmode_spacing_hz = 100e6\n")


def test_save_load_roundtrip():
    s = pm.load_scenario("[run]\nseed = 5\n[afc]\nmode_count = 21\n")
    text = pm.save_scenario(s)
    again = pm.load_scenario(text)
    assert pm.save_scenario(again) == text
    assert pm.scenario_digest(again) == pm.scenario_digest(s)


def test_digest_changes_with_parameters():
    a = pm.load_scenario("")
    b = pm.load_scenario("[run]\nseed = 2\n")
    assert pm.scenario_digest(a) != pm.scenario_digest(b)


def test_shipped_scenarios_load():
    for path in sorted(SCENARIO_DIR.glob("*.cfg")):
        s = pm.load_scenario(path.read_text())
        assert isinstance(s, pm.Scenario)


@pytest.mark.parametrize("text,match", [
    ("[analysis]\nbin_width_s = nan\n", "bin_width_s"),
    ("[analysis]\nbin_width_s = inf\n", "bin_width_s"),
    ("[analysis]\nbin_width_s = 0\n", "bin_width_s"),
    ("[analysis]\nbin_width_s = -2e-10\n", "bin_width_s"),
    ("[analysis]\nhist_min_s = 2.2e-6\n", "hist_min_s"),
    ("[analysis]\nhist_max_s = -1e-6\n", "hist_min_s"),
    ("[analysis]\nhist_max_s = nan\n", "hist_min_s"),
])
def test_bad_histogram_settings_rejected(text, match):
    with pytest.raises(ScenarioError, match=match):
        pm.load_scenario(text)


# SHA-256 of save_scenario (that is, the scenario digest) for the shipped
# scenarios, their single-mode references (each at the seed its run has)
# and documents that exercise the disabled blocks and every key that
# accepts "auto".  The canonical text is the provenance of every report;
# these must not move.
ALL_AUTO_KEYS_SET = (
    "[phase_matching]\nenvelope_center_hz = 494.75e12\n"
    "[afc]\nmode_spacing_hz = 123e6\ncenter_freq_hz = 494.701e12\n"
    # an override small enough for transmit + echo <= 1 in the outer blocks
    "efficiency_override = 0.05\ntaper = gaussian\ntaper_fwhm_hz = 5e9\n"
    "[filter.signal]\ncenter_hz = 494.702e12\n"
    "[filter.idler]\ncenter_hz = 193.401e12\n"
    "[analysis]\nwindow_center_s = 1.087e-6\nmin_prominence = 12.5\n"
    "classical_mode_count = 33\n"
    "[sweep]\nkind = pump_power\nvalues = 0.5, 1.0, 2.0\n")
CANONICAL_SHA256 = {
    "calibration_1mw":
        "ce60f9b3a159bc467778ffa49ece45a0cb4304dec5b4995ccbab05835d418a82",
    "calibration_1mw.reference":
        "e5cdc9d77ad1c7134f2798733e0a867f89c663ec2152dad176849ac6589ee4f8",
    "default":
        "b3c7ad14ffec87d64abc055c665cd7e68f02bcdba194ad3106dd51d8542d401a",
    "default.reference":
        "e89409c7043eb1c21b6448ee30ad3008b9c931cb00a83481d831f96b30e2d098",
    "halfpower_0p5mw":
        "e9bf888b780c079302ba6b050d47b096d9b3cc4b860f1778676880ebd3b8c8cd",
    "halfpower_0p5mw.reference":
        "75c1a22d69ef0e439b407ee9f51dd98802dc04930955ed31147f91225f7219ee",
    "sweep_afc_modes":
        "84f2ea55065c7429bf5e51ab79609e19349c177af3c6b853f0559bc1cafe0586",
    "sweep_afc_modes.reference":
        "5777d9ee100d36b4aab2d1441093e31f55f415e4418efee7769af06943ba8105",
    "sweep_pump_power":
        "510d3644915cb1b2cf122057ab6a9dd1bf34041f35f6b00b76f72a0677a001c5",
    "sweep_pump_power.reference":
        "407f7ea8009195c67bf2edbb20ecb4e5580ef927ca79435bf78a2b6564a867c2",
    "afc_disabled":
        "edb26e7f9862d0a7a869560139513e9a4f96bb8b959d69390b55a43a51a99ef8",
    "gating_disabled":
        "3363f3757030d2220d111689724f82b7dc7c830c460d4d3e0aee37ae3eef0bac",
    "all_auto_keys_set":
        "78d6522a0260668929fec974979ec50cf4cf671df932ec3e907319297312e5db",
}


def test_canonical_text_pinned():
    def sha(s):
        return hashlib.sha256(pm.save_scenario(s).encode()).hexdigest()
    got = {}
    for path in SCENARIO_DIR.glob("*.cfg"):
        s = pm.load_scenario(path.read_text())
        got[path.stem] = sha(s)
        got[f"{path.stem}.reference"] = sha(single_mode_reference(s))
    for name, text in (("afc_disabled", "[afc]\nenabled = false\n"),
                       ("gating_disabled", "[gating]\nenabled = false\n"),
                       ("all_auto_keys_set", ALL_AUTO_KEYS_SET)):
        got[name] = sha(pm.load_scenario(text))
    assert got == CANONICAL_SHA256
    assert pm.scenario_digest(pm.default_scenario()) == CANONICAL_SHA256["default"]


def test_disabled_blocks_save_table_defaults():
    no_afc = pm.load_scenario("[afc]\nenabled = false\n")
    assert no_afc.afc_plan is None
    saved = pm.save_scenario(no_afc)
    assert "enabled = false\nmode_count = 1\nmode_spacing_hz = auto\n" in saved
    assert "tooth_spacing_hz = 920000.0\n" in saved
    no_gate = pm.load_scenario("[gating]\nenabled = false\ncycle_s = 5e-5\n")
    assert no_gate.gating is None
    assert "[gating]\nenabled = false\ncycle_s = 0.0001\n" in \
        pm.save_scenario(no_gate)


def test_default_cfg_is_canonical_empty_document():
    assert (SCENARIO_DIR / "default.cfg").read_text() == \
        pm.save_scenario(pm.load_scenario(""))


def test_schema_targets_name_fields():
    # every row sets a real attribute, and every attribute has a row
    from dataclasses import fields
    from pairmem.scenario import _FROM_CAVITY, _SCHEMA, _TYPES
    owners = {"": pm.Scenario, **_TYPES}
    wanted = {(prefix, f.name) for prefix, cls in owners.items()
              for f in fields(cls)}
    wanted -= {("", prefix.partition(".")[0]) for prefix in _TYPES}
    targets = [target for rows in _SCHEMA.values()
               for _, _, target in rows.values()]
    # a switch row's target is the block it switches
    assert [t for t in targets if t in _TYPES] == ["afc_plan", "gating"]
    assert _SCHEMA["afc"]["enabled"][2] == "afc_plan"
    assert _SCHEMA["gating"]["enabled"][2] == "gating"
    got = [tuple(t.rpartition(".")[::2]) for t in targets if t not in _TYPES]
    assert len(got) == len(set(got))
    assert set(got) == wanted
    assert set(_FROM_CAVITY) <= set(targets)
    assert all(src.startswith("cavity.") and src in targets
               for src in _FROM_CAVITY.values())


# ---------------------------------------------------------------------------
# pipeline stages

def test_build_spectrum_cluster_vs_comb():
    s = pm.default_scenario()
    clustered = build_spectrum(s)
    assert clustered.N > 83  # several Vernier clusters inside the envelope
    comb = build_spectrum(replace(s, spectrum_source="comb"))
    assert comb.N == 83


def test_cluster_spacing_default_is_200ghz():
    s = pm.default_scenario()
    assert s.cavity.cluster_spacing == pytest.approx(200e9, rel=1e-9)


def test_build_profile_disabled():
    # a disabled [afc] block is no memory: with ideal components every
    # signal photon arrives, while the default comb absorbs some of them
    from pairmem.montecarlo import generate_events
    from pairmem.scenario import source_model
    s = replace(pm.default_scenario(), afc_plan=None)
    source = source_model(s)
    counts = [(len(ev.signal_ps), len(ev.idler_ps)) for ev in (
        generate_events(source, s.pair_rate, plan, None, None, None, 0.01,
                        s.seed)
        for plan in (s.afc_plan, pm.default_scenario().afc_plan))]
    (bare_sig, bare_idl), (afc_sig, afc_idl) = counts
    assert bare_sig == bare_idl == afc_idl > 0
    assert afc_sig < bare_sig


def test_single_mode_reference():
    ref = single_mode_reference(pm.default_scenario())
    assert ref.afc_plan.mode_count == 1
    assert not ref.reference_run


def test_simulate_deterministic():
    s = fast(pm.default_scenario())
    a, b = pm.simulate(s), pm.simulate(s)
    assert np.array_equal(a.signal_ps, b.signal_ps)
    assert np.array_equal(a.idler_ps, b.idler_ps)


def test_run_scenario_bundle():
    s = fast(pm.default_scenario(), duration=0.2)
    bundle = pm.run_scenario(s)
    assert bundle.report.provenance["scenario_digest"] == pm.scenario_digest(s)
    assert bundle.report.echo_delay_s == pytest.approx(1 / 920e3)
    assert bundle.histogram.counts.sum() > 0


def test_reference_run_produces_n_eff():
    s = replace(pm.default_scenario(), duration_s=0.4)
    assert s.reference_run
    bundle = pm.run_scenario(s)
    # multimode operation collects far more coincidences than single-mode
    assert bundle.report.n_effective > 3
    assert bundle.report.n_effective_err > 0


def test_sweep_scenarios_split():
    s = replace(pm.default_scenario(), sweep_kind="afc_modes",
                sweep_values=(1, 5, 11))
    points = sweep_scenarios(s)
    assert [p.afc_plan.mode_count for p in points] == [1, 5, 11]
    assert len({p.seed for p in points}) == 3
    assert all(p.sweep_kind is None for p in points)
    power = sweep_scenarios(replace(s, sweep_kind="pump_power",
                                    sweep_values=(0.5, 1.0)))
    assert [p.pump_mw for p in power] == [0.5, 1.0]
    with pytest.raises(ScenarioError):
        sweep_scenarios(pm.default_scenario())


def test_report_json_fields_serializable():
    s = fast(pm.default_scenario(), duration=0.1)
    _, report = pm.analyze_events(s, pm.simulate(s))
    text = report.to_json()
    back = pm.AnalysisReport.from_json(text)
    assert back.g2 == report.g2


def test_analyze_events_read_back_file_matches_stream(tmp_path):
    # the gating comes from the scenario, the rest from the file: a
    # written and read-back stream gives the in-memory stream's report
    s = fast(pm.default_scenario(), duration=0.1)
    simulated = pm.simulate(s)
    pm.write_events(simulated, tmp_path / "events.bin")
    events = pm.read_events(tmp_path / "events.bin")
    assert (pm.analyze_events(s, events)[1].to_json()
            == pm.analyze_events(s, simulated)[1].to_json())


# ---------------------------------------------------------------------------
# figures

def test_emit_histogram_figures():
    bundle = pm.run_scenario(fast(pm.default_scenario(), duration=0.1))
    for fig in ("fig1b", "fig4a"):
        docs = pm.emit_figure_data(bundle, fig)
        (name, text), = docs.items()
        assert name == f"{fig}.csv"
        lines = text.splitlines()
        assert lines[0] == "bin_start_ps,counts"
        assert len(lines) - 1 == len(bundle.histogram.counts)


def test_emit_afc_figure():
    bundle = pm.run_scenario(fast(pm.default_scenario(), duration=0.05))
    docs = pm.emit_figure_data(bundle.scenario, "fig2")
    lines = docs["fig2.csv"].splitlines()
    assert lines[0] == "freq_hz,optical_depth"
    assert len(lines) - 1 == 83 * 64  # 83 blocks, 64 samples per block


def test_emit_sweep_figures():
    s = replace(fast(pm.default_scenario(), duration=0.1),
                sweep_kind="afc_modes", sweep_values=(1, 5))
    bundles = pm.run_sweep(s)
    docs = pm.emit_figure_data(bundles, "fig4b")
    lines = docs["fig4b.csv"].splitlines()
    assert lines[0] == "afc_modes,n_eff,n_eff_err"
    assert len(lines) == 3

    s2 = replace(fast(pm.default_scenario(), duration=0.1),
                 sweep_kind="pump_power", sweep_values=(0.5, 1.0),
                 analysis=replace(s.analysis, classical_mode_count=33))
    docs = pm.emit_figure_data(pm.run_sweep(s2), "fig4c")
    lines = docs["fig4c.csv"].splitlines()
    assert lines[0] == "pump_mw,g2,g2_err,classical_limit"
    limit = float(lines[1].split(",")[3])
    assert limit == pytest.approx(1 + 1 / 33)


def test_fig4c_writes_each_point_s_own_classical_limit():
    # without a set classical_mode_count each report takes its limit from
    # its own N_eff, so the limits of a pump sweep differ
    s = pm.default_scenario()
    bundles = [pm.RunBundle(replace(s, pump_mw=pump), None, None,
                            SimpleNamespace(g2=1.5, g2_err=0.1,
                                            classical_limit=pm.classical_limit(n)))
               for pump, n in ((0.5, 30), (1.0, 20))]
    rows = pm.emit_figure_data(bundles, "fig4c")["fig4c.csv"].splitlines()
    assert [float(r.split(",")[3]) for r in rows[1:]] == [1 + 1 / 30, 1 + 1 / 20]


def test_figure_argument_validation():
    s = pm.default_scenario()
    with pytest.raises(ScenarioError, match="unknown figure"):
        pm.emit_figure_data(s, "fig9")
    with pytest.raises(ScenarioError, match="AFC enabled"):
        pm.emit_figure_data(replace(s, afc_plan=None), "fig2")
    # the table names what each figure reads: the scenario, one run, or
    # the bundles of its sweep kind
    assert {f: reads for f, (reads, _) in pm.figures.FIGURES.items()} == {
        "fig1b": "run", "fig2": "scenario", "fig4a": "run",
        "fig4b": "afc_modes", "fig4c": "pump_power"}


# ---------------------------------------------------------------------------
# CLI

def run_cli(args):
    from pairmem.cli import main
    return main(args)


def test_cli_validate_default(capsys):
    assert run_cli(["validate"]) == 0
    assert "digest=" in capsys.readouterr().out


def test_cli_validate_bad_scenario(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("[laser]\npower = 1\n")
    assert run_cli(["validate", "--scenario", str(cfg)]) == 2


def test_cli_simulate_and_analyze(tmp_path, capsys):
    cfg = tmp_path / "s.cfg"
    cfg.write_text("[run]\nduration_s = 0.1\nreference_run = false\n")
    out = tmp_path / "out"
    assert run_cli(["simulate", "--scenario", str(cfg),
                    "--out", str(out)]) == 0
    assert (out / "events.bin").exists()
    assert (out / "histogram.csv").exists()
    assert (out / "report.json").exists()
    report1 = (out / "report.json").read_text()

    out2 = tmp_path / "out2"
    assert run_cli(["analyze", "--scenario", str(cfg),
                    "--events", str(out / "events.bin"),
                    "--out", str(out2)]) == 0
    assert (out2 / "report.json").exists()
    # the analyze pass reproduces the g2 of the simulate pass
    import json
    r1 = json.loads(report1)
    r2 = json.loads((out2 / "report.json").read_text())
    assert r1["g2"] == r2["g2"]


def test_cli_analyze_missing_events(tmp_path):
    assert run_cli(["analyze", "--events", str(tmp_path / "nope.bin")]) == 5


# scenario that loads but whose envelope misses every Vernier cluster
MISSED_ENVELOPE = ("[phase_matching]\nenvelope_center_hz = 494800000000000.0\n"
                   "envelope_fwhm_hz = 1000000000.0\n")


def test_simulate_failure_is_simulation_error():
    s = pm.load_scenario(MISSED_ENVELOPE)
    with pytest.raises(SimulationError, match="envelope"):
        pm.simulate(s)


def test_cli_exit_2_scenario_error(tmp_path, capsys):
    cfg = tmp_path / "s.cfg"
    cfg.write_text("[run]\nduration_s = soon\n")
    assert run_cli(["simulate", "--scenario", str(cfg),
                    "--out", str(tmp_path)]) == 2
    assert "scenario error" in capsys.readouterr().err


def test_cli_validate_rejects_negative_duration(tmp_path, capsys):
    cfg = tmp_path / "s.cfg"
    cfg.write_text("[run]\nduration_s = -1.0\n")
    assert run_cli(["validate", "--scenario", str(cfg)]) == 2
    assert "duration_s" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["validate", "simulate"])
@pytest.mark.parametrize("width", ["nan", "inf", "0", "2.5e-13"])
def test_cli_rejects_bad_bin_width(tmp_path, capsys, command, width):
    cfg = tmp_path / "s.cfg"
    cfg.write_text(f"[analysis]\nbin_width_s = {width}\n"
                   "[run]\nduration_s = 0.01\nreference_run = false\n")
    args = [command, "--scenario", str(cfg)]
    if command == "simulate":
        args += ["--out", str(tmp_path)]
    assert run_cli(args) == 2
    assert "bin_width_s" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["validate", "simulate"])
@pytest.mark.parametrize("key, value", [
    ("window_s", "0"), ("window_s", "-1"), ("window_s", "nan"),
    ("comb_fit_halfspan_s", "0"), ("comb_fit_halfspan_s", "nan"),
    ("fsr_peak_count", "0"), ("classical_mode_count", "0"),
    ("min_prominence", "nan"), ("min_prominence", "inf"),
    ("window_center_s", "nan"), ("window_center_s", "-inf"),
    ("floor_min_s", "nan"), ("floor_max_s", "inf"),
    ("floor_min_s", "1.8e-6"), ("floor_max_s", "1.5e-6")])
def test_cli_rejects_bad_analysis_settings(tmp_path, capsys, command, key,
                                           value):
    cfg = tmp_path / "s.cfg"
    cfg.write_text(f"[analysis]\n{key} = {value}\n"
                   "[run]\nduration_s = 0.01\nreference_run = false\n")
    args = [command, "--scenario", str(cfg)]
    if command == "simulate":
        args += ["--out", str(tmp_path)]
    assert run_cli(args) == 2
    assert key in capsys.readouterr().err


# models built at load reject a bad value as a scenario error: validate and
# simulate both exit with ``code``
@pytest.mark.parametrize("section, setting, code, match", [
    ("detector.signal", "dark_rate_hz = nan", 2, "dark_rate"),
    ("detector.idler", "jitter_sigma_s = nan", 2, "jitter_sigma"),
    ("detector.signal", "dead_time_s = nan", 2, "dead_time"),
    # the generator counts whole picoseconds too
    ("detector.signal", "dead_time_s = 2.45e-13", 2, "whole number of ps"),
    ("filter.signal", "center_hz = nan", 2, "center"),
    ("filter.idler", "center_hz = inf", 2, "center"),
    ("filter.idler", "bandwidth_hz = nan", 2, "bandwidth"),
    ("filter.signal", "fsr_hz = inf", 2, "fsr"),
    ("filter.idler", "fsr_hz = nan", 2, "fsr"),
    ("filter.idler", "stopband_transmittance = nan", 2, "stopband"),
    ("filter.idler", "stopband_transmittance = 1.5", 2, "stopband"),
    ("filter.signal", "stopband_transmittance = -0.1", 2, "stopband"),
    ("afc", "finesse = nan", 2, "finesse"),
    ("afc", "peak_optical_depth = nan", 2, "peak_optical_depth"),
    ("afc", "center_freq_hz = nan", 2, "center_freq"),
    ("afc", "background_od = nan", 2, "background_od"),
    ("afc", "efficiency_override = nan", 2, "efficiency_override"),
    ("afc", "efficiency_override = 0.9", 2, "transmit + echo"),
    ("afc", "taper = gaussian\ntaper_fwhm_hz = nan", 2, "taper_fwhm"),
    ("afc", "echo_orders = -1", 2, "echo_orders"),
    # the estimators find gating phases in whole picoseconds
    ("gating", "cycle_s = 100.0000005e-6", 2, "whole number of ps"),
    ("gating", "break_time_s = 10.0000005e-6", 2, "whole number of ps"),
    ("gating", "measure_fraction = 0.4500000001", 2, "whole number of ps"),
    ("gating", "conditional_gate_on_s = 7.0000005e-7", 2, "whole number of ps"),
    ("gating", "conditional_gate_off_s = inf", 2, "whole number of ps"),
    ("spectrum", "source = comb\ncomb_modes = 0", 2, "comb_modes"),
    ("run", "duration_s = inf", 2, "duration_s"),
    ("run", "duration_s = 1e8", 2, "2**63 ps"),   # past int64 ps
    ("run", "pump_mw = inf", 2, "pump_mw"),
    ("run", "brightness_pairs_per_s_per_mw = inf", 2, "brightness"),
    # the analysis geometry, checked against the histogram by the
    # estimators' own bin selections: a floor region outside it, a window
    # that does not fit in it, and a comb view narrower than a bin
    ("analysis", "floor_min_s = 3e-6\nfloor_max_s = 3.2e-6", 2, "floor region"),
    ("analysis", "window_center_s = 2.1e-6", 2, "coincidence window"),
    ("analysis", "window_center_s = 5e-6", 2, "coincidence window"),
    ("afc", "tooth_spacing_hz = 1e5", 2, "coincidence window"),   # 10 us echo
    ("analysis", "comb_fit_halfspan_s = 1e-10", 2, "comb view"),
    ("analysis", "window_s = 1e-10", 2, "no whole bin"),   # inside one bin
    # 1e17 bins: past any address space, so the allocation fails at once
    ("analysis", "bin_width_s = 1e-12\nhist_max_s = 1e5", 2, "fit in memory"),
    # a key without a value: the document does not parse
    ("analysis", "bin_width_s", 2, "cannot parse"),
    ("spectrum", "source = foo", 2, "spectrum source"),
    ("sweep", "kind = foo", 2, "sweep kind"),
    ("run", "reference_run = maybe", 2, "reference_run"),
    ("gating", "measure_fraction = 1", 2, "measure_fraction"),
    ("gating", "off_gate_attenuation = 2", 2, "off_gate_attenuation"),
    ("detector.signal", "efficiency = 1.5", 2, "efficiency"),
    ("phase_matching", "envelope_fwhm_hz = 0", 2, "envelope_fwhm")])
def test_cli_rejects_bad_model_values(tmp_path, capsys, section, setting,
                                      code, match):
    text, run = f"[{section}]\n{setting}\n", {"duration_s": "0.01",
                                               "reference_run": "false"}
    if section == "run":   # the setting replaces the short run's own line
        key, value = setting.split(" = ")
        text, run[key] = "", value
    cfg = tmp_path / "s.cfg"
    cfg.write_text(text + "[run]\n"
                   + "".join(f"{k} = {v}\n" for k, v in run.items()))
    assert run_cli(["validate", "--scenario", str(cfg)]) == code
    assert run_cli(["simulate", "--scenario", str(cfg),
                    "--out", str(tmp_path)]) == code
    err = capsys.readouterr().err
    assert match in err
    # a record's error names its section, once per command; the checks
    # across records (the analysis geometry, the run) name their own
    if (section.split(".")[0] in ("detector", "filter", "afc", "gating",
                                  "phase_matching")
            and match != "coincidence window"):
        assert err.count(f"[{section}]") == 2


# settings the generator cannot hold in int64 ps, or cannot draw: exit 2
# at load, not a traceback, an overflow in the run or a NaN in the report
@pytest.mark.parametrize("section, setting, match", [
    ("gating", "cycle_s = 1e30", "< 2**62"),
    ("analysis", "bin_width_s = 1e30", "< 2**62"),
    ("detector.idler", "jitter_sigma_s = 1e30", "jitter_sigma"),
    ("cavity", "linewidth_signal_hz = 1e-13", "cannot be drawn in int64 ps"),
    ("cavity", "fsr_signal_hz = 1e30", "cannot be drawn in int64 ps")])
def test_cli_rejects_times_past_int64_ps(tmp_path, capsys, section, setting,
                                         match):
    cfg = tmp_path / "s.cfg"
    cfg.write_text(f"[{section}]\n{setting}\n[run]\nduration_s = 0.02\n")
    assert run_cli(["validate", "--scenario", str(cfg)]) == 2
    assert run_cli(["simulate", "--scenario", str(cfg),
                    "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.count(match) == 2


def test_analyze_events_detects_peaks_once(monkeypatch):
    s = fast(pm.default_scenario(), duration=0.2)
    events = pm.simulate(s)
    detect = pm.analysis.detect_peaks
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return detect(*args, **kwargs)

    monkeypatch.setattr(pm.analysis, "detect_peaks", counted)
    hist, report = pm.analyze_events(s, events)
    assert len(calls) == 1
    # the shared peak list gives the linewidths of the public fit
    comb_hist, prom = calls[0]
    floor = report.noise_floor_counts
    for side, lw in (("positive", report.linewidth_signal_hz),
                     ("negative", report.linewidth_idler_hz)):
        assert lw is not None
        assert pm.fit_envelope(comb_hist, side, floor=floor,
                               min_prominence=prom)[0] == lw
    assert prom == pm.analysis.prominence(None, floor)


def test_linewidth_sides_fit_on_their_own(monkeypatch):
    # a signal side that cannot be fitted leaves the idler side's fit
    s = fast(pm.default_scenario(), duration=0.2)
    events = pm.simulate(s)
    _, expect = pm.analyze_events(s, events)
    assert expect.linewidth_idler_hz is not None
    fit = pm.analysis.fit_peak_envelope

    def signal_fails(peaks, side, **kwargs):
        if side == "positive":
            raise pm.analysis.FitError("no signal side")
        return fit(peaks, side, **kwargs)

    monkeypatch.setattr(pm.analysis, "fit_peak_envelope", signal_fails)
    _, report = pm.analyze_events(s, events)
    assert (report.linewidth_signal_hz, report.linewidth_signal_err_hz) == (None, None)
    assert ((report.linewidth_idler_hz, report.linewidth_idler_err_hz)
            == (expect.linewidth_idler_hz, expect.linewidth_idler_err_hz))


def test_fsr_fails_on_its_own(monkeypatch):
    # a comb interval that cannot be estimated leaves both linewidths
    s = fast(pm.default_scenario(), duration=0.2)
    events = pm.simulate(s)
    _, expect = pm.analyze_events(s, events)
    assert expect.fsr_hz is not None

    def fails(peaks, k_max):
        raise pm.analysis.EstimationError("no comb")

    monkeypatch.setattr(pm.analysis, "estimate_fsr", fails)
    _, report = pm.analyze_events(s, events)
    assert (report.fsr_hz, report.fsr_err_hz, report.interval_s,
            report.interval_err_s) == (None, None, None, None)
    for name in ("linewidth_signal_hz", "linewidth_signal_err_hz",
                 "linewidth_idler_hz", "linewidth_idler_err_hz"):
        assert getattr(report, name) == getattr(expect, name)


def test_unusable_reference_leaves_the_mode_count_at_zero():
    # a single-mode reference with no net coincidences gives N_eff 0 +- 0,
    # and the classical bound of one mode
    s = fast(pm.default_scenario(), duration=0.2)
    assert s.analysis.classical_mode_count is None
    _, report = pm.analyze_events(s, pm.simulate(s), rate_single=(0.0, 3.0))
    assert (report.n_effective, report.n_effective_err) == (0.0, 0.0)
    assert report.classical_limit == 2.0


def test_numpy_scalars_save_and_run_as_floats():
    # numpy 2 reprs a numpy float as np.float64(...)
    s = replace(fast(pm.default_scenario(), duration=0.01),
                sweep_kind="pump_power", sweep_values=(np.float64(0.5), 1.0))
    numpy_s = replace(s, pump_mw=np.float64(0.5))
    text = pm.save_scenario(numpy_s)
    assert "pump_mw = 0.5\n" in text and "values = 0.5, 1.0\n" in text
    assert text == pm.save_scenario(replace(s, pump_mw=0.5,
                                            sweep_values=(0.5, 1.0)))
    assert pm.load_scenario(text).pump_mw == 0.5
    point = replace(numpy_s, sweep_kind=None, sweep_values=())
    assert (pm.run_scenario(point).report.to_json()
            == pm.run_scenario(replace(point, pump_mw=0.5)).report.to_json())


def test_cli_simulate_rejects_negative_pump(tmp_path, capsys):
    cfg = tmp_path / "s.cfg"
    cfg.write_text("[run]\npump_mw = -0.5\nduration_s = 0.01\n")
    assert run_cli(["simulate", "--scenario", str(cfg),
                    "--out", str(tmp_path)]) == 2
    assert "pump_mw" in capsys.readouterr().err


def test_import_loads_no_scipy():
    # scipy is only a test oracle; importing it would add over a second
    # to every command's start-up
    import json
    import subprocess
    import sys
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    code = ("import json, sys\n"
            "import pairmem, pairmem.cli\n"
            "pairmem.load_scenario(open(sys.argv[1]).read())\n"
            "print(json.dumps(sorted(m for m in sys.modules"
            " if m.startswith('scipy'))))\n")
    out = subprocess.run(
        [sys.executable, "-c", code, str(SCENARIO_DIR / "calibration_1mw.cfg")],
        env=env, capture_output=True, text=True, timeout=120, check=True)
    assert json.loads(out.stdout) == []


def test_cli_exit_3_simulation_error(tmp_path, capsys):
    cfg = tmp_path / "s.cfg"
    cfg.write_text(MISSED_ENVELOPE)
    assert run_cli(["simulate", "--scenario", str(cfg),
                    "--out", str(tmp_path)]) == 3
    assert "simulation error" in capsys.readouterr().err


def test_cli_envelope_past_the_scan_limit_is_simulation_error(tmp_path, capsys):
    # a 20 THz sinc^2 envelope spans 3.7 M signal modes
    cfg = tmp_path / "s.cfg"
    cfg.write_text("[phase_matching]\nenvelope_fwhm_hz = 2e13\n"
                   "[run]\nduration_s = 0.01\nreference_run = false\n")
    assert run_cli(["simulate", "--scenario", str(cfg),
                    "--out", str(tmp_path)]) == 3
    assert "signal modes" in capsys.readouterr().err


def test_cli_envelope_off_the_signal_comb_is_simulation_error(tmp_path, capsys):
    # the document is valid, but its envelope centre lies past the reach
    # of any comb index
    cfg = tmp_path / "s.cfg"
    cfg.write_text("[phase_matching]\nenvelope_center_hz = 1e30\n"
                   "[run]\nduration_s = 0.01\nreference_run = false\n")
    assert run_cli(["validate", "--scenario", str(cfg)]) == 0
    assert run_cli(["simulate", "--scenario", str(cfg),
                    "--out", str(tmp_path)]) == 3
    assert "off the signal comb" in capsys.readouterr().err


@pytest.mark.parametrize("setting, name", [
    ("[run]\npump_mw = 1e15\n", "pair"),
    ("[detector.signal]\ndark_rate_hz = 1e300\n", "signal dark")])
def test_cli_too_long_run_is_simulation_error(tmp_path, capsys, setting, name):
    # an expected count past what one array holds is rejected before any
    # draw, not left to a traceback
    cfg = tmp_path / "s.cfg"
    cfg.write_text(setting)
    assert run_cli(["simulate", "--scenario", str(cfg),
                    "--out", str(tmp_path)]) == 3
    assert f"expected {name} count" in capsys.readouterr().err


def test_cli_arrays_past_memory_are_simulation_error(tmp_path, capsys,
                                                    monkeypatch):
    # counts numpy can draw, but whose arrays cannot be held: the generator
    # names the pair and dark counts it was drawing
    class NoMemory:
        def poisson(self, mean):
            raise MemoryError

    monkeypatch.setattr(pm.montecarlo, "make_rng", lambda seed: NoMemory())
    cfg = tmp_path / "s.cfg"
    cfg.write_text("[run]\nduration_s = 1e6\nreference_run = false\n")
    assert run_cli(["simulate", "--scenario", str(cfg),
                    "--out", str(tmp_path)]) == 3
    # 2.5e5 pairs/s over 0.45 of 1e6 s, of which the 80 % that leave a
    # photon are drawn, and 300 dark counts/s over both detectors
    assert ("9.05e+10 expected pairs and 3e+08 expected dark counts do not "
            "fit in memory") in capsys.readouterr().err


def test_cli_nothing_detectable_draws_no_pairs(tmp_path, capsys):
    # with both detectors blind no pair leaves a photon, so a pump whose
    # raw pair count could not be drawn runs on dark counts alone
    cfg = tmp_path / "s.cfg"
    cfg.write_text("[detector.signal]\nefficiency = 0.0\n"
                   "[detector.idler]\nefficiency = 0.0\n[run]\npump_mw = 1e15\n")
    assert run_cli(["simulate", "--scenario", str(cfg),
                    "--out", str(tmp_path)]) == 0


def test_cli_exit_4_analysis_error(tmp_path, capsys):
    # no pump: the run is valid but yields no events to estimate g2 from
    cfg = tmp_path / "s.cfg"
    cfg.write_text("[run]\npump_mw = 0.0\nduration_s = 0.01\n"
                   "reference_run = false\n")
    assert run_cli(["simulate", "--scenario", str(cfg),
                    "--out", str(tmp_path)]) == 4
    assert "analysis error" in capsys.readouterr().err


def test_cli_exit_5_format_error(tmp_path, capsys):
    cfg = tmp_path / "s.cfg"
    cfg.write_text("[run]\nduration_s = 0.02\nreference_run = false\n")
    events = tmp_path / "events.bin"
    assert run_cli(["simulate", "--scenario", str(cfg), "--out", str(tmp_path),
                    "--events", str(events)]) == 0
    raw = bytearray(events.read_bytes())
    raw[-9] = 2  # last record's channel byte
    events.write_bytes(bytes(raw))
    assert run_cli(["analyze", "--scenario", str(cfg), "--events", str(events),
                    "--out", str(tmp_path)]) == 5
    assert "unknown channel" in capsys.readouterr().err


def test_cli_rejects_events_past_duration(tmp_path, capsys):
    # the calibration run's file with its header duration cut a hundredfold
    cfg = str(SCENARIO_DIR / "calibration_1mw.cfg")
    events = tmp_path / "events.bin"
    assert run_cli(["simulate", "--scenario", cfg, "--out", str(tmp_path)]) == 0
    raw = bytearray(events.read_bytes())
    duration_ps = int.from_bytes(raw[14:22], "little")
    raw[14:22] = (duration_ps // 100).to_bytes(8, "little")
    events.write_bytes(bytes(raw))
    capsys.readouterr()
    assert run_cli(["analyze", "--scenario", cfg, "--events", str(events),
                    "--out", str(tmp_path)]) == 5
    assert "exceeds the duration" in capsys.readouterr().err


# SHA-256 of `pairmem simulate --scenario scenarios/default.cfg` outputs.
# Any change to how the event chain consumes random numbers moves these;
# update them only on purpose, and say so in CHANGES.md.
GOLDEN_DEFAULT = {
    "events.bin":
        "44d8bd70b989152477fe3e8866bd4a04f2fc48400df6f1520631a4de4df11126",
    "histogram.csv":
        "57b39442ed2d2b9c4adc8897682679ab198a82e19386affa885eb8105502f6e2",
    "report.json":
        "be4b62aa93d2f6c39aeaad566e724b604f3830aa5b94740822ba11c3f53e6d0e",
}


def test_default_scenario_outputs_golden(tmp_path, capsys):
    assert run_cli(["simulate", "--scenario", str(SCENARIO_DIR / "default.cfg"),
                    "--out", str(tmp_path)]) == 0
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
           for name in GOLDEN_DEFAULT}
    assert got == GOLDEN_DEFAULT


# SHA-256 of `pairmem figure` outputs: fig2 on default.cfg, and the sweep
# figures on the shipped sweeps shortened to 0.5 s runs.  Same rule as
# GOLDEN_DEFAULT.
GOLDEN_FIGURES = {
    "fig2": ("default", None,
             "10bf20b5bda718207eb0a9d2393576e5ad498c75bd4c40dec3c29a9331b0176c"),
    "fig4b": ("sweep_afc_modes", 0.5,
              "f625abf3e6517eae4604fe9d0e9b97ae20f52f66318a34a4e75ee35a93b38414"),
    "fig4c": ("sweep_pump_power", 0.5,
              "8699ff059a34b0424eea481a349c06e22ad9acf8d9962034882a78e9b62cfc2c"),
}


@pytest.mark.parametrize("figure", sorted(GOLDEN_FIGURES))
def test_figure_outputs_golden(tmp_path, capsys, figure):
    name, duration, golden = GOLDEN_FIGURES[figure]
    cfg = SCENARIO_DIR / f"{name}.cfg"
    if duration is not None:
        s = pm.load_scenario(cfg.read_text())
        cfg = tmp_path / "s.cfg"
        cfg.write_text(pm.save_scenario(replace(s, duration_s=duration)))
    assert run_cli(["figure", "--scenario", str(cfg), "--figure", figure,
                    "--out", str(tmp_path)]) == 0
    path = tmp_path / f"{figure}.csv"
    assert hashlib.sha256(path.read_bytes()).hexdigest() == golden


# Short scenarios for the routing branches the default scenario never takes:
# echoes of order 0, 2 and 3, background OD, a gaussian taper, a comb
# spectrum, an efficiency override, no gating, no memory and an ideal signal
# detector.  SHA-256 of their simulate outputs,
# under the same rule as GOLDEN_DEFAULT.
GOLDEN_ROUTING = {
    "orders3_taper_comb": (
        "[spectrum]\nsource = comb\ncomb_modes = 41\n"
        "[afc]\nfinesse = 3.0\npeak_optical_depth = 6.0\necho_orders = 3\n"
        "background_od = 0.2\ntaper = gaussian\ntaper_fwhm_hz = 3e9\n"
        "[run]\nduration_s = 0.3\nreference_run = false\n",
        {"events.bin":
            "8e3a0d2bd7d7a1965f7055a29005726a1e52ee513bf8edfe64f869d54aedefa7",
         "report.json":
            "a9ff709da71f7977f820eee739a13a1cd4e7654dca066b1176f55af2fdf72f99"}),
    "orders2_override_ungated": (
        "[afc]\necho_orders = 2\nefficiency_override = 0.3\n"
        "[gating]\nenabled = false\n"
        "[run]\nduration_s = 0.1\nreference_run = false\n",
        {"events.bin":
            "45ea87b5c473dd9789241a13ac17fcde675ccbce8fa83dd9d1094e9ef3ffb23d",
         "report.json":
            "d410c8d9aa2356d220809ee933103edc6608c34975ffc96f5eb0bfb0e09bd3b0"}),
    # no memory and an ideal signal detector: every signal photon the
    # etalon passes is detected, and none is delayed by an echo
    "afc_off_ideal_signal": (
        "[afc]\nenabled = false\n"
        "[detector.signal]\nefficiency = 1.0\ndark_rate_hz = 0.0\n"
        "jitter_sigma_s = 0.0\ndead_time_s = 0.0\n"
        "[run]\nduration_s = 0.2\nreference_run = false\n",
        {"events.bin":
            "08b28d72d63c32e5e93a6c35a70becf24bd741644af17f7d26340479e379c5df",
         "report.json":
            "a98d05f2cd9595659c6ffc1e6a70905c5da6bb8cfb34250f35c1cc7c91b2765c"}),
    # a memory with no echo: stored photons are lost, and the reference
    # run keeps its single-mode AFC
    "echo_orders0": (
        "[afc]\necho_orders = 0\n[run]\nduration_s = 0.2\n",
        {"events.bin":
            "f313cfe37feab47818ffac5f8c9f2bd767db0be7680f8607bb28a8112e625cad",
         "report.json":
            "526d071a7e87a0db605e0d1344f2a3af8ec224b5a72dbb5762fddb2d720a209c"}),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_ROUTING))
def test_routing_branches_golden(tmp_path, capsys, name):
    text, golden = GOLDEN_ROUTING[name]
    cfg = tmp_path / "s.cfg"
    cfg.write_text(text)
    assert run_cli(["simulate", "--scenario", str(cfg),
                    "--out", str(tmp_path)]) == 0
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
           for name in golden}
    assert got == golden


def test_models_are_evaluated_per_mode_and_built_once(monkeypatch):
    # photons carry only a mode index: memory and filter responses are
    # tables over the spectrum's modes, and only simulate reads the memory
    s = replace(pm.load_scenario(
        (SCENARIO_DIR / "calibration_1mw.cfg").read_text()), duration_s=0.05)
    sizes, responses = [], []
    response, chain = pm.AfcPlan.response_arrays, pm.montecarlo.chain_transmission

    def sized_response(self, freq):
        responses.append(self.mode_count)
        sizes.append(np.size(freq))
        return response(self, freq)

    def sized_chain(filters, freq):
        sizes.append(np.size(freq))
        return chain(filters, freq)

    monkeypatch.setattr(pm.AfcPlan, "response_arrays", sized_response)
    monkeypatch.setattr(pm.montecarlo, "chain_transmission", sized_chain)
    bundle = pm.run_scenario(s)
    assert responses == [1, 83]   # single-mode reference, then main run
    assert sizes and set(sizes) == {build_spectrum(s).N}
    del responses[:]
    pm.analyze_events(s, bundle.events)
    assert responses == []


def _count_builds(monkeypatch):
    """Count simulate calls, spectrum builds and DelaySampler builds."""
    calls = {"simulate": 0, "spectrum": 0, "sampler": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(pm.scenario, "simulate",
                        counted("simulate", pm.scenario.simulate))
    monkeypatch.setattr(pm.scenario, "build_spectrum",
                        counted("spectrum", pm.scenario.build_spectrum))
    monkeypatch.setattr(pm.montecarlo.DelaySampler, "__init__",
                        counted("sampler", pm.montecarlo.DelaySampler.__init__))
    return calls


def test_run_scenario_builds_one_delay_sampler(monkeypatch):
    # the main run and its single-mode reference share the source and its
    # sampler; nothing is kept from one run_scenario to the next
    s = replace(pm.load_scenario(
        (SCENARIO_DIR / "calibration_1mw.cfg").read_text()), duration_s=0.05)
    calls = _count_builds(monkeypatch)
    pm.run_scenario(s)
    assert calls == {"simulate": 2, "spectrum": 1, "sampler": 1}
    pm.run_scenario(s)
    assert calls == {"simulate": 4, "spectrum": 2, "sampler": 2}


def _shipped_sweep(name, **changes):
    s = pm.load_scenario((SCENARIO_DIR / f"{name}.cfg").read_text())
    return replace(s, **changes)


def test_run_sweep_shares_reference_and_source(monkeypatch):
    # the five multi-mode points of fig4b's sweep share one single-mode
    # reference, the sweep's own single-mode point, and all six points one
    # source; a pump sweep keeps one reference per pump and one source.
    # Nothing is kept between sweeps.
    afc = _shipped_sweep("sweep_afc_modes", duration_s=0.02)
    pump = _shipped_sweep("sweep_pump_power", duration_s=0.02,
                          sweep_values=(0.5, 1.0), reference_run=True)
    calls = _count_builds(monkeypatch)
    pm.run_sweep(afc)
    assert calls == {"simulate": 6, "spectrum": 1, "sampler": 1}
    pm.run_sweep(afc)
    assert calls == {"simulate": 12, "spectrum": 2, "sampler": 2}
    calls.update(dict.fromkeys(calls, 0))
    pm.run_sweep(pump)
    assert calls == {"simulate": 4, "spectrum": 1, "sampler": 1}


@pytest.mark.parametrize("name", ["sweep_afc_modes", "sweep_pump_power"])
def test_serial_sweep_builds_one_source(monkeypatch, name):
    # neither the AFC mode count nor the pump changes the spectrum, so a
    # whole serial sweep of either kind runs from one spectrum and sampler
    s = _shipped_sweep(name, duration_s=0.02)
    calls = _count_builds(monkeypatch)
    bundles = pm.run_sweep(s)
    assert len(bundles) == len(s.sweep_values) > 1
    assert (calls["spectrum"], calls["sampler"]) == (1, 1)


def test_run_sweep_points_match_run_scenario(monkeypatch):
    # a pump sweep's references keep the pump, so every point runs as
    # run_scenario runs it.  In an afc_modes sweep the single-mode point
    # runs as run_scenario runs it, and its run is the reference: every
    # multi-mode point divides by the rate of its events.
    pump = _shipped_sweep("sweep_pump_power", duration_s=0.1,
                          sweep_values=(0.5, 1.0), reference_run=True)
    for bundle, p in zip(pm.run_sweep(pump), sweep_scenarios(pump),
                         strict=True):
        assert bundle.report.to_json() == pm.run_scenario(p).report.to_json()

    afc = _shipped_sweep("sweep_afc_modes", duration_s=0.5,
                         sweep_values=(1, 5, 11, 21))
    points = sweep_scenarios(afc)
    shared = reference_rate(points[1], pm.simulate(points[0]))
    passed, effective_modes = [], pm.analysis.effective_modes
    monkeypatch.setattr(pm.analysis, "effective_modes", lambda rate, single:
                        passed.append((rate, single))
                        or effective_modes(rate, single))
    bundles = pm.run_sweep(afc)
    # the shared (rate, error) reaches the N_eff of every multi-mode point,
    # whatever the sign of this one reference's net count
    assert passed == [((b.report.coincidence_rate_cps,
                        b.report.coincidence_rate_err), shared)
                      for b in bundles[1:]]
    r = bundles[0].report
    assert (r.n_effective, r.n_effective_err) == (1.0, 0.0)
    assert (r.coincidence_rate_cps, r.coincidence_rate_err) == shared
    assert (bundles[0].report.to_json()
            == pm.run_scenario(points[0]).report.to_json())
    for bundle, p, rate in zip(bundles, points, [None] + [shared] * 3,
                               strict=True):
        events = pm.simulate(p)
        assert (bundle.report.to_json() == analyze_events(
            p, events, rate_single=rate)[1].to_json())
        assert np.array_equal(bundle.events.signal_ps, events.signal_ps)
        assert np.array_equal(bundle.events.idler_ps, events.idler_ps)


def test_single_mode_point_is_the_sweep_reference(monkeypatch):
    # an afc_modes sweep with a 1-mode point runs no reference of its own:
    # the reference it replaces runs the same model over the same time,
    # analyzed alike, and every multi-mode point divides by the 1-mode
    # point's rate.  Without a 1-mode point the sweep runs its reference.
    afc = _shipped_sweep("sweep_afc_modes", duration_s=0.2,
                         sweep_values=(1, 5, 11))
    points = sweep_scenarios(afc)
    calls = _count_builds(monkeypatch)
    bundles = pm.run_sweep(afc)
    assert calls["simulate"] == 3
    ref, single = pm.scenario._reference(points[1]), bundles[0]
    assert pm.simulate(ref).model_digest == single.events.model_digest
    assert ref.duration_s == single.scenario.duration_s
    assert ref.analysis == single.scenario.analysis
    rate = (single.report.coincidence_rate_cps,
            single.report.coincidence_rate_err)
    for bundle, p in zip(bundles[1:], points[1:], strict=True):
        assert bundle.report.to_json() == analyze_events(
            p, pm.simulate(p), rate_single=rate)[1].to_json()

    calls.update(dict.fromkeys(calls, 0))
    pm.run_sweep(replace(afc, sweep_values=(5, 11, 21)))
    assert calls["simulate"] == 4


def test_pool_tasks_receive_a_built_sampler():
    # a pool pickles each task's source: built before the tasks, one
    # sampler serves every process
    s = _shipped_sweep("sweep_afc_modes", duration_s=0.02, sweep_values=(1, 5))
    built = []

    def mapper(fn, points, sources, *rest):
        built.extend("sampler" in vars(source) for source in sources)
        return map(fn, points, sources, *rest)

    pm.scenario._run_points(sweep_scenarios(s), mapper)
    assert len(built) == 2 and all(built)


def test_run_points_maps_every_point_in_one_pass():
    # runs are independent: one mapper call simulates every run, the
    # references that no point holds first; a 1-mode point leaves no
    # reference to run
    s = _shipped_sweep("sweep_afc_modes", duration_s=0.02)
    calls, runs = [], []

    def mapper(fn, *iterables):
        calls.append((fn, [len(x) for x in iterables]))
        runs.append(iterables[0])
        return map(fn, *iterables)

    bundles = pm.scenario._run_points(sweep_scenarios(s), mapper)
    assert calls == [(pm.scenario.simulate, [6, 6])]
    assert [b.scenario.afc_plan.mode_count for b in bundles] == [
        1, 5, 11, 21, 45, 83]

    calls.clear()
    points = sweep_scenarios(replace(s, sweep_values=(5, 11, 21)))
    pm.scenario._run_points(points, mapper)
    assert calls == [(pm.scenario.simulate, [4, 4])]
    assert runs[-1] == [single_mode_reference(points[0]), *points]


def test_reference_stream_is_dropped_before_the_next_run(monkeypatch):
    # under map a reference's stream is counted as it returns, and no name
    # holds it while the point's run generates
    s = replace(pm.default_scenario(), duration_s=0.02)
    simulate, refs, starts = pm.scenario.simulate, [], []

    def traced(x, source):
        starts.append([r() is None for r in refs])
        events = simulate(x, source)
        if x.afc_plan.mode_count == 1:
            refs.append(weakref.ref(events))
        return events

    monkeypatch.setattr(pm.scenario, "simulate", traced)
    pm.run_scenario(s)
    assert starts == [[], [True]]


def test_cli_analyze_replays_simulate_with_reference_events(tmp_path):
    # simulate's report, rebuilt from its event file and those of its
    # single-mode reference run on their own
    cfg = SCENARIO_DIR / "default.cfg"
    s = pm.load_scenario(cfg.read_text())
    ref_cfg = tmp_path / "ref.cfg"
    ref_cfg.write_text(pm.save_scenario(single_mode_reference(s)))
    run, ref, replay, bare = (tmp_path / d for d in ("run", "ref", "replay", "bare"))
    assert run_cli(["simulate", "--scenario", str(cfg), "--out", str(run)]) == 0
    assert run_cli(["simulate", "--scenario", str(ref_cfg), "--out", str(ref)]) == 0
    events = ["--scenario", str(cfg), "--events", str(run / "events.bin")]
    assert run_cli(["analyze", *events, "--out", str(replay),
                    "--reference-events", str(ref / "events.bin")]) == 0
    assert run_cli(["analyze", *events, "--out", str(bare)]) == 0
    report = (run / "report.json").read_bytes()
    assert (replay / "report.json").read_bytes() == report
    assert (bare / "report.json").read_bytes() != report


def test_analyze_memory_does_not_grow_with_the_run(tmp_path):
    # analyze streams each file once in chunks through one counter: its
    # traced peak is the same at 1 s (90 k records) and 4 s (360 k), and
    # under a bound that holding every record would break at 4 s
    peaks = []
    for duration in (1, 4):
        cfg = tmp_path / f"{duration}.cfg"
        cfg.write_text(f"[run]\nduration_s = {duration}\nreference_run = false\n")
        run = tmp_path / f"run{duration}"
        assert run_cli(["simulate", "--scenario", str(cfg), "--out", str(run)]) == 0
        argv = ["analyze", "--scenario", str(cfg), "--events",
                str(run / "events.bin"), "--out", str(tmp_path / "replay")]
        assert run_cli(argv) == 0   # warm-up: imports and first-call caches
        tracemalloc.start()
        try:
            assert run_cli(argv) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert max(peaks) < 3 * 2**20, peaks


def test_report_count_memory_stays_in_blocks():
    # simulate's report counts its in-memory stream in the blocks a file
    # read would give: the traced peak of analyze_events on a gated 4 s
    # run (348 k idlers) stays under a bound that one whole-stream pass
    # breaks (the shutter test alone takes 8 bytes per idler, 2.7 MiB)
    s = replace(pm.default_scenario(), duration_s=4.0)
    events = pm.simulate(s)
    warm = replace(s, duration_s=0.01)
    analyze_events(warm, pm.simulate(warm))   # first-call caches
    tracemalloc.start()
    try:
        analyze_events(s, events)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert s.gating is not None and len(events.idler_ps) > 300_000
    assert peak < 2 * 2**20, peak


def test_cli_analyze_takes_the_seed_simulate_took(tmp_path):
    # the seed is part of the scenario, and so of the report's provenance
    cfg = tmp_path / "s.cfg"
    cfg.write_text("[run]\nduration_s = 0.05\nreference_run = false\n")
    sim, replay = tmp_path / "sim", tmp_path / "replay"
    args = ["--scenario", str(cfg), "--seed", "5"]
    assert run_cli(["simulate", *args, "--out", str(sim)]) == 0
    assert run_cli(["analyze", *args, "--events", str(sim / "events.bin"),
                    "--out", str(replay)]) == 0
    for name in ("report.json", "histogram.csv"):
        assert (replay / name).read_bytes() == (sim / name).read_bytes()


@pytest.mark.parametrize("figure", ["fig1b", "fig4a"])
def test_cli_run_figures_write_the_simulated_histogram(tmp_path, figure):
    cfg = tmp_path / "s.cfg"
    cfg.write_text("[run]\nduration_s = 0.05\n")
    args = ["--scenario", str(cfg), "--seed", "17"]
    assert run_cli(["simulate", *args, "--out", str(tmp_path / "sim")]) == 0
    assert run_cli(["figure", *args, "--figure", figure,
                    "--out", str(tmp_path / "fig")]) == 0
    assert ((tmp_path / "fig" / f"{figure}.csv").read_bytes()
            == (tmp_path / "sim" / "histogram.csv").read_bytes())


@pytest.mark.parametrize("setting, code", [
    ("", 0), ("[afc]\nenabled = false\n", 2)])
def test_cli_fig2_runs_no_simulation(tmp_path, capsys, monkeypatch, setting,
                                     code):
    # fig2 plots the AFC plan, a model: nothing is simulated for it
    cfg = tmp_path / "s.cfg"
    cfg.write_text(setting + "[run]\nduration_s = 2.0\n")
    calls = []
    monkeypatch.setattr(pm.scenario, "simulate",
                        lambda *a, **k: calls.append(a))
    assert run_cli(["figure", "--scenario", str(cfg), "--figure", "fig2",
                    "--out", str(tmp_path)]) == code
    assert calls == []
    assert (tmp_path / "fig2.csv").exists() == (code == 0)
    if code:
        assert "fig2 needs a scenario with the AFC enabled" in \
            capsys.readouterr().err


@pytest.mark.parametrize("modes", [65_537, 2_000_000])
def test_cli_fig2_past_the_row_bound_is_exit_2(tmp_path, capsys, modes):
    # 64 rows a mode: past the 2**22 rows a CSV takes, refused before any
    # sample is built
    cfg = tmp_path / "s.cfg"
    cfg.write_text(f"[afc]\nmode_count = {modes}\n")
    start = time.perf_counter()
    assert run_cli(["figure", "--scenario", str(cfg), "--figure", "fig2",
                    "--out", str(tmp_path)]) == 2
    assert time.perf_counter() - start < 1.0
    assert not (tmp_path / "fig2.csv").exists()
    assert f"fig2 of {64 * modes} rows" in capsys.readouterr().err


def test_cli_figure(tmp_path):
    cfg = tmp_path / "s.cfg"
    cfg.write_text("[run]\nduration_s = 0.05\nreference_run = false\n")
    out = tmp_path / "fig"
    assert run_cli(["figure", "--scenario", str(cfg), "--figure", "fig2",
                    "--out", str(out)]) == 0
    assert (out / "fig2.csv").exists()


SHORT_RUN = "[run]\nduration_s = 0.01\nreference_run = false\n"


# a valid 5-mode AFC base whose 83-mode point transmits and echoes more
# than all its photons in the outer blocks of the gaussian taper
SWEEP_POINT_PAST_ONE = {
    "afc": {"mode_count": "5", "efficiency_override": "0.3",
            "taper": "gaussian", "taper_fwhm_hz": "1e9"},
    "sweep": {"kind": "afc_modes", "values": "5, 83"}}


def document(rows):
    """Scenario document of ``rows`` (section -> key -> value)."""
    return "".join(f"[{section}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
                   for section, keys in rows.items())


@pytest.mark.parametrize("figure, sweep, match", [
    ("fig4b", "[afc]\nenabled = false\n[sweep]\nkind = afc_modes\n"
     "values = 1, 5\n", "needs [afc] enabled"),
    ("fig4b", "[sweep]\nkind = afc_modes\nvalues = 0, 5\n",
     "afc_modes point: mode_count must lie in [1"),
    ("fig4b", "[sweep]\nkind = afc_modes\nvalues = 2.7, 5\n", "whole numbers"),
    ("fig4b", "[sweep]\nkind = afc_modes\nvalues = 1, inf\n", "whole numbers"),
    # the load builds every point, so the base plan's checks reach each one
    ("fig4b", document(SWEEP_POINT_PAST_ONE),
     "afc_modes point: AFC transmit + echo probability exceeds 1"),
    ("fig4c", "[sweep]\nkind = pump_power\nvalues = nan, 1\n", "finite and >= 0"),
    ("fig4c", "[sweep]\nkind = pump_power\nvalues = 1, inf\n", "finite and >= 0"),
    ("fig4c", "[sweep]\nkind = pump_power\nvalues = -0.5, 1\n", "finite and >= 0")])
def test_cli_rejects_bad_sweep_block(tmp_path, capsys, figure, sweep, match):
    cfg = tmp_path / "s.cfg"
    cfg.write_text(sweep + SHORT_RUN)
    assert run_cli(["validate", "--scenario", str(cfg)]) == 2
    assert run_cli(["figure", "--scenario", str(cfg), "--figure", figure,
                    "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.count(match) == 2
    assert not (tmp_path / f"{figure}.csv").exists()


def test_cli_figure_on_a_sweep_kind_with_no_values(tmp_path, capsys):
    # the document loads, but the sweep has no point to run
    cfg = tmp_path / "s.cfg"
    cfg.write_text("[sweep]\nkind = afc_modes\n" + SHORT_RUN)
    assert run_cli(["validate", "--scenario", str(cfg)]) == 0
    assert run_cli(["figure", "--scenario", str(cfg), "--figure", "fig4b",
                    "--out", str(tmp_path)]) == 2
    assert "scenario has no sweep block" in capsys.readouterr().err
    assert not (tmp_path / "fig4b.csv").exists()


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(modes=st.integers(1, 40), taper=st.sampled_from(["flat", "gaussian"]),
       fwhm=st.floats(2e8, 2e10), eff=st.floats(0.0, 0.6),
       values=st.lists(st.integers(0, 80), min_size=1, max_size=4))
@example(modes=5, taper="gaussian", fwhm=1e9, eff=0.3, values=[5, 83])
def test_afc_modes_sweep_loads_when_every_point_plan_builds(modes, taper, fwhm,
                                                            eff, values):
    def builds(make, *args, **changes):
        try:
            make(*args, **changes)
        except (ParameterError, ScenarioError):
            return False
        return True

    base = document({"afc": {"mode_count": modes, "taper": taper,
                             "taper_fwhm_hz": repr(fwhm),
                             "efficiency_override": repr(eff)}})
    assume(builds(pm.load_scenario, base))
    plan = pm.load_scenario(base).afc_plan
    sweep = document({"sweep": {"kind": "afc_modes",
                                "values": ", ".join(map(str, values))}})
    assert builds(pm.load_scenario, base + sweep) == all(
        builds(replace, plan, mode_count=v) for v in values)


@pytest.mark.parametrize("figure, kind, values", [
    ("fig4b", "pump_power", "0.5, 1"),
    ("fig4c", "afc_modes", "1, 5")])
def test_cli_sweep_figure_needs_its_sweep_kind(tmp_path, capsys, monkeypatch,
                                               figure, kind, values):
    cfg = tmp_path / "s.cfg"
    cfg.write_text(f"[sweep]\nkind = {kind}\nvalues = {values}\n" + SHORT_RUN)
    calls = []
    monkeypatch.setattr(pm.cli, "run_sweep", lambda *a, **k: calls.append(a))
    assert run_cli(["figure", "--scenario", str(cfg), "--figure", figure,
                    "--out", str(tmp_path)]) == 2
    assert f"needs a {pm.figures.FIGURES[figure][0]} sweep block" in \
        capsys.readouterr().err
    assert calls == []   # rejected before any sweep point runs


@pytest.mark.parametrize("setting, args", [
    ("seed = -5\n", []),
    ("seed = 18446744073709551616\n", []),
    ("", ["--seed", "-1"]),
    ("", ["--seed", "18446744073709551616"])])
def test_cli_rejects_seed_out_of_range(tmp_path, capsys, setting, args):
    # event files store the seed as u64
    cfg = tmp_path / "s.cfg"
    cfg.write_text(SHORT_RUN + setting)
    if not args:
        assert run_cli(["validate", "--scenario", str(cfg)]) == 2
    assert run_cli(["simulate", "--scenario", str(cfg), "--out", str(tmp_path),
                    *args]) == 2
    assert "seed must lie in [0, 2**64)" in capsys.readouterr().err


def test_seed_range_ends_load():
    for seed in (0, 2 ** 64 - 1):
        assert pm.load_scenario(f"[run]\nseed = {seed}\n").seed == seed


def test_run_sweep_process_pool_matches_serial():
    # two worker processes; the 5- and 11-mode points share one reference,
    # the 1-mode point's run or, without it, a run of its own in the pool
    for values in ((1, 5, 11), (5, 11)):
        s = replace(pm.default_scenario(), duration_s=0.05,
                    sweep_kind="afc_modes", sweep_values=values)
        serial, pooled = pm.run_sweep(s, jobs=1), pm.run_sweep(s, jobs=2)
        assert [b.scenario for b in pooled] == [b.scenario for b in serial]
        for a, b in zip(serial, pooled, strict=True):
            assert b.report.to_json() == a.report.to_json()
            assert np.array_equal(b.events.signal_ps, a.events.signal_ps)
            assert np.array_equal(b.events.idler_ps, a.events.idler_ps)
            assert ((b.events.duration_ps, b.events.seed, b.events.model_digest)
                    == (a.events.duration_ps, a.events.seed,
                        a.events.model_digest))


@pytest.mark.parametrize("jobs, pools", [
    ("500", [3]), ("2", [2]), ("1", []), ("0", None), ("-3", None)])
def test_cli_jobs_caps_workers_at_sweep_points(tmp_path, capsys, monkeypatch,
                                               jobs, pools):
    # a pool of `--jobs` processes starts every worker at once, so it holds
    # at most one per sweep point; --jobs below 1 is exit 2 before any run.
    # The stand-in pool starts no process and maps in this one.
    import concurrent.futures

    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return [fn(*args) for args in zip(*iterables)]

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        RecordingPool)
    calls = _count_builds(monkeypatch)
    cfg = tmp_path / "s.cfg"
    cfg.write_text("[sweep]\nkind = afc_modes\nvalues = 1, 5, 11\n"
                   "[run]\nduration_s = 0.01\n")
    code = run_cli(["figure", "--scenario", str(cfg), "--figure", "fig4b",
                    "--jobs", jobs, "--out", str(tmp_path)])
    if pools is None:
        assert code == 2
        assert "--jobs must be >= 1" in capsys.readouterr().err
        assert (sizes, calls["simulate"]) == ([], 0)
    else:
        assert code == 0
        assert sizes == pools
        assert calls["simulate"] == 3   # three points: the 1-mode one is the reference


def test_cli_out_env_var(tmp_path, monkeypatch):
    cfg = tmp_path / "s.cfg"
    cfg.write_text("[run]\nduration_s = 0.02\nreference_run = false\n")
    monkeypatch.setenv("PAIRMEM_OUT", str(tmp_path / "envout"))
    assert run_cli(["simulate", "--scenario", str(cfg)]) == 0
    assert (tmp_path / "envout" / "report.json").exists()


# ---------------------------------------------------------------------------
# additional contract checks

def test_tooth_spacing_sets_storage_time():
    s = pm.load_scenario("[afc]\ntooth_spacing_hz = 2e6\n")
    assert s.afc_plan.storage_time == pytest.approx(0.5e-6)


def test_seed_variation_statistically_compatible():
    base = fast(pm.default_scenario(), duration=1.0)
    reports = []
    for seed in (1, 2):
        s = replace(base, seed=seed)
        _, rep = pm.analyze_events(s, pm.simulate(s))
        reports.append(rep)
    a, b = reports
    sigma = (a.g2_err ** 2 + b.g2_err ** 2) ** 0.5
    assert abs(a.g2 - b.g2) < 3 * sigma


def test_figure_csv_numeric_roundtrip(tmp_path):
    import io as _io
    bundle = pm.run_scenario(fast(pm.default_scenario(), duration=0.1))
    docs = pm.emit_figure_data(bundle, "fig1b")
    arr = np.genfromtxt(_io.StringIO(docs["fig1b.csv"]), delimiter=",",
                        names=True, dtype=np.int64)
    assert np.array_equal(arr["counts"], bundle.histogram.counts)
    assert np.array_equal(arr["bin_start_ps"], bundle.histogram.bin_edges_ps[:-1])


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32),
       pump=st.floats(min_value=0.1, max_value=5.0),
       modes=st.integers(min_value=1, max_value=120),
       # below 5e5 Hz the echo, and so the window about it, lies past the
       # default histogram, which the load rejects
       tooth=st.floats(min_value=5.5e5, max_value=3e6),
       binw=st.integers(100, 1000).map(lambda ps: ps * 1e-12))
def test_save_load_roundtrip_property(seed, pump, modes, tooth, binw):
    doc = (f"[run]\nseed = {seed}\npump_mw = {pump!r}\n"
           f"[afc]\nmode_count = {modes}\ntooth_spacing_hz = {tooth!r}\n"
           f"[analysis]\nbin_width_s = {binw!r}\n")
    s = pm.load_scenario(doc)
    canonical = pm.save_scenario(s)
    again = pm.load_scenario(canonical)
    assert pm.save_scenario(again) == canonical
    assert again.seed == seed and again.afc_plan.mode_count == modes


@pytest.fixture(scope="module")
def small_event_file(tmp_path_factory):
    """A 5 ms default run (about 400 records): its directory, scenario file
    and event-file bytes."""
    work = tmp_path_factory.mktemp("small_events")
    cfg = work / "s.cfg"
    cfg.write_text("[run]\nduration_s = 0.005\nreference_run = false\n")
    assert run_cli(["simulate", "--scenario", str(cfg), "--out", str(work)]) == 0
    return work, cfg, (work / "events.bin").read_bytes()


@settings(max_examples=100, deadline=None)
@given(edits=st.lists(st.tuples(st.one_of(st.integers(0, 69),   # the header
                                          st.integers(70, 2 ** 16)),
                                st.integers(0, 255)),
                      min_size=1, max_size=4))
def test_cli_analyze_of_mutated_event_bytes_is_clean_or_format_error(
        small_event_file, edits):
    # a file with bytes overwritten reads as a valid event file (exit 0)
    # or is rejected by the reader (exit 5): no other exit, no traceback
    work, cfg, raw = small_event_file
    data = bytearray(raw)
    for pos, byte in edits:
        data[pos % len(data)] = byte
    (work / "mutated.bin").write_bytes(bytes(data))
    assert run_cli(["analyze", "--scenario", str(cfg), "--events",
                    str(work / "mutated.bin"), "--out", str(work / "out")]) in (0, 5)


# ---------------------------------------------------------------------------
# scenario-document fuzz: every document maps to a documented exit code

_SCHEMA_KEYS = [(section, key) for section, rows in pm.scenario._SCHEMA.items()
                for key in rows]
_FUZZ_VALUES = ["0", "-1", "inf", "-inf", "nan", "auto", "1e300", "1e-300",
                "5e-324", "1.7976931348623157e308",
                "0.01", "0.5", "2", "true", "gaussian", "comb"]   # ordinary


def run_document(work, rows):
    """Exit codes of ``validate`` on the document of ``rows`` (section ->
    key -> value) and then, if it passes and runs at most 0.02 s, of
    ``simulate``.  Any warning is an error, and every number of the
    report is finite or null."""
    text = document(rows)
    cfg = work / "s.cfg"
    cfg.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        codes = [run_cli(["validate", "--scenario", str(cfg)])]
        if codes[0] == 0 and pm.load_scenario(text).duration_s <= 0.02:
            codes.append(run_cli(["simulate", "--scenario", str(cfg),
                                  "--out", str(work)]))
    if codes[1:] == [0]:
        report = json.loads((work / "report.json").read_text())
        assert all(math.isfinite(v) for v in report.values() if isinstance(v, float))
    return codes


@pytest.mark.parametrize("section, key, value, codes", [
    ("afc", "finesse", "1.7976931348623157e308", [2]),
    ("afc", "tooth_spacing_hz", "5e-324", [2]),
    ("phase_matching", "envelope_fwhm_hz", "1.7976931348623157e308", [0, 3]),
    ("filter.signal", "fsr_hz", "1e300", [2]),
    ("afc", "peak_optical_depth", "1e300", [2]),
    ("phase_matching", "envelope_fwhm_hz", "1e-300", [0, 0]),
    ("afc", "center_freq_hz", "1.7976931348623157e308", [0, 0]),
    ("filter.signal", "bandwidth_hz", "1e-300", [2]),
    ("run", "brightness_pairs_per_s_per_mw", "1.7976931348623157e308", [0, 3]),
    ("filter.signal", "center_hz", "1.7976931348623157e308", [0, 4]),
    ("analysis", "hist_max_s", "0.02", [2]),
    # expected counts that numpy draws but whose arrays it cannot size
    ("detector.signal", "dark_rate_hz", "2.5e20", [0, 3]),
    ("detector.idler", "dark_rate_hz", "2.5e20", [0, 3]),
    ("run", "brightness_pairs_per_s_per_mw", "5e20", [0, 3]),
    # mode counts past the 2 000 000 modes a spectrum takes: numpy refuses
    # their tables at once, but smaller ones past the bound fill memory
    ("afc", "mode_count", "1000000000000", [2]),
    ("spectrum", "comb_modes", "1000000000000", [2]),
])
def test_scenario_document_extremes_exit_cleanly(tmp_path, section, key, value,
                                                  codes):
    # each of these once ended in a traceback, or printed a warning
    rows = {"run": {"duration_s": "0.02"}}
    rows.setdefault(section, {})[key] = value
    assert run_document(tmp_path, rows) == codes


# two keys that each pass their own check and fail together: a sweep
# point the AFC plan rejects, and echo orders whose first delay fits in
# int64 ps while the 64th does not
@pytest.mark.parametrize("rows", [
    {**SWEEP_POINT_PAST_ONE, "run": {"duration_s": "0.02"}},
    {"afc": {"tooth_spacing_hz": "4.3e-7", "echo_orders": "64",
             "efficiency_override": "0.3", "peak_optical_depth": "4"},
     "analysis": {"window_center_s": "1e-6"},
     "run": {"duration_s": "0.02"}}], ids=["sweep_point", "echo_orders"])
def test_two_key_documents_exit_at_load(tmp_path, rows):
    assert run_document(tmp_path, rows) == [2]


@pytest.mark.parametrize("fwhm", ["5e-324", "1e-150"])
def test_narrow_gaussian_taper_exits_cleanly(tmp_path, fwhm):
    # the taper's offsets overflow past the float range, where OD reads 0
    rows = {"run": {"duration_s": "0.02"},
            "afc": {"taper": "gaussian", "taper_fwhm_hz": fwhm}}
    assert run_document(tmp_path, rows) == [0, 0]


@pytest.mark.parametrize("text, code", [
    ("[afc]\necho_orders = 64\n", 0),
    ("[afc]\necho_orders = 65\n", 2),
    ("[afc]\necho_orders = 1000000000000\n", 2),
    ("[sweep]\nkind = afc_modes\nvalues = 1, 2000000\n", 0),
    ("[sweep]\nkind = afc_modes\nvalues = 1, 2000001\n", 2),
    ("[sweep]\nkind = afc_modes\nvalues = 1, 1e12\n", 2)])
def test_count_keys_are_bounded_at_load(tmp_path, capsys, text, code):
    # validate only: a run or a figure past these bounds fills memory
    cfg = tmp_path / "s.cfg"
    cfg.write_text(text)
    assert run_cli(["validate", "--scenario", str(cfg)]) == code


@pytest.mark.parametrize("command", ["validate", "simulate"])
def test_scenario_that_is_not_utf8_is_exit_2(tmp_path, capsys, command):
    cfg = tmp_path / "s.cfg"
    cfg.write_bytes(b"\xff\xfe[run]\nduration_s = 0.01\n")   # a UTF-16 mark
    out = ["--out", str(tmp_path)] if command == "simulate" else []
    assert run_cli([command, "--scenario", str(cfg), *out]) == 2
    assert "cannot parse scenario" in capsys.readouterr().err


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=250, deadline=None, derandomize=True, database=None)
@given(doc=st.dictionaries(st.sampled_from(_SCHEMA_KEYS),
                           st.sampled_from(_FUZZ_VALUES), min_size=1, max_size=3))
def test_scenario_documents_map_to_exit_codes(fuzz_dir, doc):
    rows = {"run": {"duration_s": "0.02"}}
    for (section, key), value in doc.items():
        rows.setdefault(section, {})[key] = value
    assert set(run_document(fuzz_dir, rows)) <= {0, 2, 3, 4}


# extreme floats: the largest, a large and a tiny normal one, the smallest
_EXTREMES = ["1.7976931348623157e308", "1e300", "1e-300", "5e-324"]


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(key=st.sampled_from(_SCHEMA_KEYS), value=st.sampled_from(_EXTREMES))
def test_one_extreme_value_maps_to_an_exit_code(fuzz_dir, key, value):
    # one extreme value among otherwise valid keys passes the checks of
    # every other key, so it reaches the step that reads it
    section, name = key
    rows = {"run": {"duration_s": "0.02"}}
    rows.setdefault(section, {})[name] = value
    assert set(run_document(fuzz_dir, rows)) <= {0, 2, 3, 4}
