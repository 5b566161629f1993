"""Perceptual audio evaluation and reconstruction-objective toolkit.

Building blocks: WAV I/O and STFT analysis, BS.1770 K-weighting and IEC
A-weighting cascades, mid/side/left/right decomposition, phase-derivative
losses, multi-scale spectral distances, loudness and true-peak meters,
phase-coherence metrics, and a two-stage dataset curation pipeline with a
CLI front end.
"""

from .audio import (
    AudioBuffer,
    ComplexSpectrogram,
    StftConfig,
    istft,
    load_wav,
    resample,
    save_wav,
    stft,
)
from .coherence import (
    SI_SDR_CAP_DB,
    CoherenceConfig,
    MetricReport,
    align_pair,
    ccpc,
    ccpc_from_spectra,
    evaluate_pair,
    icpc,
    icpc_from_spectra,
    si_sdr,
)
from .loudness import (
    SILENCE_FLOOR_DBTP,
    LoudnessResult,
    TruePeakResult,
    dbtp_distance,
    integrated_lufs,
    true_peak_dbtp,
)
from .phase import (
    PhaseLossConfig,
    correlation_loss,
    group_delay,
    instantaneous_frequency,
    phase_loss,
    phase_matrix,
    wrap_phase,
)
from .pipeline import (
    DEFAULT_DBTP_MAX,
    DEFAULT_LUFS_MAX,
    DEFAULT_LUFS_MIN,
    TARGET_RATE,
    BatchSummary,
    CurateDecision,
    collect_inputs,
    curate_all,
    curate_batch,
    curate_stage1,
    curate_stage2,
    resolve_jobs,
    run_batch,
)
from .spectral import (
    DEFAULT_LAMBDAS,
    MultiScaleConfig,
    ObjectiveBreakdown,
    composite_objective,
    log_magnitude_distance,
    mel_distance,
    mel_filterbank,
)
from .stereo import MslrSignals, merge_mslr, split_mslr
from .weighting import (
    MIN_DESIGN_RATE,
    BiquadCascade,
    BiquadSection,
    FilterLabel,
    apply_cascade,
    design_a_weighting,
    design_k_weighting,
    frequency_response,
)

__version__ = "0.1.0"
