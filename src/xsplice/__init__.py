"""Cross-spliced birefringent-fiber photon-pair source toolkit.

Modules
-------
materials   Sellmeier index models, fiber and compensator materials
phasematch  vector phase-matching solver and output bandwidths
phase       relative-phase model and phase maps
design      compensator optimization, birefringence calibration
states      two-qubit states, entanglement metrics
counts      count-rate model, CAR, visibility-versus-power
tomography  simulated tomography and maximum-likelihood reconstruction
config      INI configuration shared with the CLI

Each module's ``__all__`` is its list of public names; all of them are
re-exported here.
"""

from .materials import *
from .phasematch import *
from .phase import *
from .design import *
from .states import *
from .counts import *
from .tomography import *
from .config import *

__version__ = "0.1.0"
