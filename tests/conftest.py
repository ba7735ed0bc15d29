import os

# One BLAS thread for the small SDP blocks, unless the caller chose otherwise
# (the same default as perfbench/run.py).  OpenBLAS reads this once, when
# numpy is first imported, so it must come before any import of numpy.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from hypothesis import settings  # noqa: E402

settings.register_profile("ci", deadline=None, max_examples=50)
settings.load_profile("ci")
