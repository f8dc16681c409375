"""The ``pseudosurv`` program, also run as ``python -m pseudosurv.cli``: numpy's OpenBLAS starts
on one thread, so no idle BLAS pool runs beside the CLI.  Library callers keep their environment
and the runtime pin, ``util.one_blas_thread``."""

import os


def main() -> int:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"  # OpenBLAS reads it once, as numpy loads
    from .cli import main as run
    return run()
