"""gwxlab: matched-filter and short-window cross-correlation detection lab.

Synthetic strain data, chirp templates (ideal and bogus), band-pass and
whitening conditioning, two matched-filter block modes, normalized CCF
metrics, and a seeded Monte-Carlo scenario harness with CSV/JSON reports.
"""

from .conditioning import (
    LineBand,
    butterworth_bandpass,
    detect_lines,
    merge_bands,
    whiten_full,
    whiten_localized,
)
from .detection import (
    CcfResult,
    MfConfig,
    Peak,
    R3_THRESHOLD,
    SNR_THRESHOLD,
    RunningWindowStat,
    SnrSeries,
    ccf_decorrelation_time,
    decorrelation_time,
    matched_filter,
    normalized_ccf,
    running_window_ccf,
    sigma_norm,
)
from .errors import DegeneracyError, GwxError, ParseError, ValidationError
from .rng import derive_seed, rng_for
from .series import (
    PowerSpectrum,
    TimeSeries,
    load_psd_csv,
    load_strain,
    save_psd_csv,
    save_strain,
    slice_window,
    welch_psd,
)
from .simulation import (
    BurstSpec,
    PsdLine,
    PsdModel,
    PsdSegment,
    awgn_burst,
    colored_noise,
    default_detector_model,
    inject,
    line_interference,
    sine_burst,
)
from .scenarios import (
    SCENARIO_NAMES,
    FalseAlarmParams,
    ScenarioConfig,
    ScenarioResult,
    TrialReport,
    emit_report,
    false_alarm_rate,
    monte_carlo,
    run_scenario,
    scenario_descriptions,
)
from .templates import (
    BogusSpec,
    STOCK_TEMPLATES,
    Template,
    energy_fraction,
    extract_phase_amplitude,
    load_template,
    make_bogus,
    save_template,
    stock_template,
    synthesize_fm,
    template_error,
)

__version__ = "0.1.0"
