"""sweepseg: encoder / four-direction recurrent sweep / decoder segmentation network.

Pure numpy implementation with hand-written backward passes, a reproducible
xorshift64* RNG, bit-exact checkpoints, pixel metrics and a synthetic
lesion generator. See the CLI (`sweepseg --help`) for the end-to-end
workflows; library callers import the submodules (`sweepseg.model`,
`sweepseg.data`, `sweepseg.layers`, ...), as this package re-exports
nothing.

Importing this package before numpy pins OpenBLAS, OpenMP and MKL to one
thread, so outputs are the same bytes at any BLAS thread count; a caller
that imports numpy first keeps numpy's threads and is out of scope.
"""

import os
import sys

if "numpy" not in sys.modules:
    os.environ.update(dict.fromkeys(
        ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1"))

__version__ = "0.1.0"
