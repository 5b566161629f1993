"""Perceptual audio evaluation and reconstruction-objective toolkit.

Building blocks: WAV I/O and STFT analysis, BS.1770 K-weighting and IEC
A-weighting cascades, mid/side/left/right decomposition, phase-derivative
losses, multi-scale spectral distances, loudness and true-peak meters,
phase-coherence metrics, and a two-stage dataset curation pipeline with a
CLI front end.
"""

from .audio import *
from .coherence import *
from .loudness import *
from .phase import *
from .pipeline import *
from .spectral import *
from .stereo import *
from .weighting import *

__version__ = "0.1.0"
