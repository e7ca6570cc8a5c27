import hashlib
import os
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import pairmem as pm
from pairmem.errors import ScenarioError, SimulationError
from pairmem.scenario import (build_spectrum, reference_rate,
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
# scenarios, their single-mode references and documents that exercise the
# disabled blocks and every key that accepts "auto".  The canonical text is
# the provenance of every report; these must not move.
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
        "2045e52b7e283d69061b19e21b178da6482955e0a2a2cf5dca82ccbb1aaa0916",
    "default":
        "b3c7ad14ffec87d64abc055c665cd7e68f02bcdba194ad3106dd51d8542d401a",
    "default.reference":
        "9618b6141a34feea09d71fe1e6e7297028fd76b6cbd5e2102252fb0bdcf62b5a",
    "halfpower_0p5mw":
        "e9bf888b780c079302ba6b050d47b096d9b3cc4b860f1778676880ebd3b8c8cd",
    "halfpower_0p5mw.reference":
        "337ce88e2be1293c8860b4bd9193d2487d0e31c477b5ed68347931dd57f43a3f",
    "sweep_afc_modes":
        "84f2ea55065c7429bf5e51ab79609e19349c177af3c6b853f0559bc1cafe0586",
    "sweep_afc_modes.reference":
        "477eb244a6a295c67bb227e99bd83fda764ec10b1b823a2ff20abf6b44c1df11",
    "sweep_pump_power":
        "8a78505161b4f5e14a1558df5ccf5e42bf7a22dccacb462ff528912408985ef5",
    "sweep_pump_power.reference":
        "dcafadcb6347e116307e9c8392e733673199c96918f454f5fb91af348b06397f",
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
    from pairmem.cavity import cluster_spectrum
    cs = cluster_spectrum(s.cavity, s.phase_matching)
    assert cs.cluster_spacing == pytest.approx(200e9, rel=1e-9)


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
    ("spectrum", "source = comb\ncomb_modes = 0", 2, "comb_modes"),
    ("run", "duration_s = inf", 2, "duration_s"),
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
    # 1e17 bins: past any address space, so the allocation fails at once
    ("analysis", "bin_width_s = 1e-12\nhist_max_s = 1e5", 2, "fit in memory")])
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
    assert match in capsys.readouterr().err


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
    assert prom == pm.analysis.default_prominence(floor)


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


@pytest.mark.parametrize("setting, name", [
    ("[run]\nduration_s = 1e15\n", "pair"),
    ("[detector.signal]\ndark_rate_hz = 1e300\n", "signal dark")])
def test_cli_too_long_run_is_simulation_error(tmp_path, capsys, setting, name):
    # an expected count past what numpy's Poisson draw takes is rejected
    # before any draw, not left to a traceback
    cfg = tmp_path / "s.cfg"
    cfg.write_text(setting)
    assert run_cli(["simulate", "--scenario", str(cfg),
                    "--out", str(tmp_path)]) == 3
    assert f"expected {name} count" in capsys.readouterr().err


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
        "72a39a899c094c5b9227b5543119c3c086685fe9fb8a85fbabad2f1d3cf2a629",
    "histogram.csv":
        "020a499a0ea062f819c4b661c32c9b60b29e583fe5b9f8fdd39971b528340fb2",
    "report.json":
        "6f437c6808a31fb63144443f1415652a32d858cf41ca397e67e25ae613a8d304",
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
              "ce99b6a1832e2042e73db50a5ecb44d2f3658bd74ab2d5545179c3be81072b81"),
    "fig4c": ("sweep_pump_power", 0.5,
              "394aa7800b4b00d4ce3eac857ef59b5ff11812586ad20e49f0c4eb0221d9329c"),
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
            "e1950e926c909476572470a3993c90d8694645c1fe042b71f998699bbc480aa5",
         "report.json":
            "c78aa2d8599ba461a8b73abb61fc6a90b179e87fa203192fa771d124fb5e420e"}),
    "orders2_override_ungated": (
        "[afc]\necho_orders = 2\nefficiency_override = 0.3\n"
        "[gating]\nenabled = false\n"
        "[run]\nduration_s = 0.1\nreference_run = false\n",
        {"events.bin":
            "841b597d2256a483d9df962f71b32cbdac2cc2454a25bd49fb6f7d19443ce0ec",
         "report.json":
            "adb0d1b7fb191ab38e0ac25ade7c4ed2985e329692dbe9ae322848ad49ae9450"}),
    # no memory and an ideal signal detector: every signal photon the
    # etalon passes is detected, and none is delayed by an echo
    "afc_off_ideal_signal": (
        "[afc]\nenabled = false\n"
        "[detector.signal]\nefficiency = 1.0\ndark_rate_hz = 0.0\n"
        "jitter_sigma_s = 0.0\ndead_time_s = 0.0\n"
        "[run]\nduration_s = 0.2\nreference_run = false\n",
        {"events.bin":
            "52d902e2026f42b43a82600c5842893c3de849fdc5922f04fb58ea0198fca7b7",
         "report.json":
            "93bf5479e07c6ee9ea7cb00a367f31d1f79c5bbc93b8942cc90f8e59164419d1"}),
    # a memory with no echo: stored photons are lost, and the reference
    # run keeps its single-mode AFC
    "echo_orders0": (
        "[afc]\necho_orders = 0\n[run]\nduration_s = 0.2\n",
        {"events.bin":
            "3b4556f5f1708672d46e379a5d0154bc8b02b0709194155488e1450b0beb7dd3",
         "report.json":
            "af6fcb48281b7c86483a0bac80f89b3aa60bd64ac3d22b31940a29e8486de2ae"}),
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
    # reference, and all six points one source; a pump sweep keeps one
    # reference per pump and one source.  Nothing is kept between sweeps.
    afc = _shipped_sweep("sweep_afc_modes", duration_s=0.02)
    pump = _shipped_sweep("sweep_pump_power", duration_s=0.02,
                          sweep_values=(0.5, 1.0))
    calls = _count_builds(monkeypatch)
    pm.run_sweep(afc)
    assert calls == {"simulate": 7, "spectrum": 1, "sampler": 1}
    pm.run_sweep(afc)
    assert calls == {"simulate": 14, "spectrum": 2, "sampler": 2}
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


def test_run_sweep_points_match_run_scenario():
    # a pump sweep's references keep the pump, so every point runs as
    # run_scenario runs it.  In an afc_modes sweep only the first
    # multi-mode point does; every later one divides by its reference rate.
    pump = _shipped_sweep("sweep_pump_power", duration_s=0.1,
                          sweep_values=(0.5, 1.0))
    for bundle, p in zip(pm.run_sweep(pump), sweep_scenarios(pump),
                         strict=True):
        assert bundle.report.to_json() == pm.run_scenario(p).report.to_json()

    afc = _shipped_sweep("sweep_afc_modes", duration_s=0.5,
                         sweep_values=(1, 5, 11, 21))
    points = sweep_scenarios(afc)
    bundles = pm.run_sweep(afc)
    r = bundles[0].report
    assert (r.n_effective, r.n_effective_err) == (1.0, 0.0)
    first = points[1]
    assert (bundles[1].report.to_json()
            == pm.run_scenario(first).report.to_json())
    ref = replace(single_mode_reference(first),
                  seed=pm.split_seed(first.seed, 0x5EF))
    shared = reference_rate(first, pm.simulate(ref))
    assert shared[0] > 0
    for bundle, p in zip(bundles[1:], points[1:]):
        r = bundle.report
        assert (r.n_effective, r.n_effective_err) == pm.effective_modes(
            (r.coincidence_rate_cps, r.coincidence_rate_err), shared)
        events = pm.simulate(p)
        assert np.array_equal(bundle.events.signal_ps, events.signal_ps)
        assert np.array_equal(bundle.events.idler_ps, events.idler_ps)


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


def test_cli_figure(tmp_path):
    cfg = tmp_path / "s.cfg"
    cfg.write_text("[run]\nduration_s = 0.05\nreference_run = false\n")
    out = tmp_path / "fig"
    assert run_cli(["figure", "--scenario", str(cfg), "--figure", "fig2",
                    "--out", str(out)]) == 0
    assert (out / "fig2.csv").exists()


SHORT_RUN = "[run]\nduration_s = 0.01\nreference_run = false\n"


@pytest.mark.parametrize("figure, sweep, match", [
    ("fig4b", "[afc]\nenabled = false\n[sweep]\nkind = afc_modes\n"
     "values = 1, 5\n", "needs [afc] enabled"),
    ("fig4b", "[sweep]\nkind = afc_modes\nvalues = 0, 5\n", "integers >= 1"),
    ("fig4b", "[sweep]\nkind = afc_modes\nvalues = 2.7, 5\n", "integers >= 1"),
    ("fig4b", "[sweep]\nkind = afc_modes\nvalues = 1, inf\n", "integers >= 1"),
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
    # two worker processes; the 5- and 11-mode points share one reference
    s = replace(pm.default_scenario(), duration_s=0.05, sweep_kind="afc_modes",
                sweep_values=(1, 5, 11))
    serial, pooled = pm.run_sweep(s, jobs=1), pm.run_sweep(s, jobs=2)
    assert [b.scenario for b in pooled] == [b.scenario for b in serial]
    for a, b in zip(serial, pooled, strict=True):
        assert b.report.to_json() == a.report.to_json()
        assert np.array_equal(b.events.signal_ps, a.events.signal_ps)
        assert np.array_equal(b.events.idler_ps, a.events.idler_ps)
        assert ((b.events.duration_ps, b.events.seed, b.events.model_digest)
                == (a.events.duration_ps, a.events.seed, a.events.model_digest))


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
        assert calls["simulate"] == 4   # three points, one shared reference


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


from hypothesis import given, settings, strategies as st


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
