"""Process matrices for a two-station probe and certification of the memory class."""

import os

# One OpenBLAS thread unless the caller chose a count: the SDP blocks have side
# 16 or less, and sweep workers would oversubscribe the cores.  OpenBLAS reads
# the variable when numpy loads, so this precedes the submodule imports.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from . import detect, ising, process, sdp, tensorlinalg  # noqa: E402

__all__ = ["tensorlinalg", "sdp", "process", "ising", "detect"]
__version__ = "0.1.0"
