"""Desk-scale simulator for a frequency-multiplexed cavity SPDC photon-pair
source coupled to an atomic-frequency-comb quantum memory."""

__version__ = "0.1.0"

from .cavity import (BiphotonSpectrum, CavityParams, ClusterSpectrum,
                     PhaseMatching, analytic_g2, cluster_spectrum,
                     comb_spectrum, g2_envelope, mode_weights)
from .memory import AfcPlan, FilterSpec, filter_transmission
from .montecarlo import (DetectorModel, EventStream, GatingSequence,
                         SourceModel, generate_events, make_rng, split_seed)
from .analysis import (AnalysisReport, CorrelationHistogram, build_histogram,
                       classical_limit, coincidence_rate, detect_peaks,
                       effective_modes, estimate_fsr, fit_envelope,
                       g2_estimate, merge_histograms, noise_floor)
from .scenario import (RunBundle, Scenario, analyze_events, default_scenario,
                       load_scenario, run_scenario, run_sweep, save_scenario,
                       scenario_digest, simulate)
from .eventio import read_events, write_events
from .figures import emit_figure_data
