"""sweepseg: encoder / four-direction recurrent sweep / decoder segmentation network.

Pure numpy implementation with hand-written backward passes, a reproducible
xorshift64* RNG, bit-exact checkpoints, pixel metrics and a synthetic
lesion generator. See the CLI (`sweepseg --help`) for the end-to-end
workflows; the names exported here are the ones behind its five commands.

Importing this package before numpy pins OpenBLAS, OpenMP and MKL to one
thread, so outputs are the same bytes at any BLAS thread count; a caller
that imports numpy first keeps numpy's threads and is out of scope.
"""

import os
import sys

if "numpy" not in sys.modules:
    os.environ.update(dict.fromkeys(
        ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1"))

from .cli import load_config, run_cli
from .data import (
    ImageRecord,
    binarize_mask,
    generate_synthetic,
    load_dataset,
    read_pnm,
    save_dataset,
    write_pnm,
)
from .gradcheck import CheckResult, run_suite
from .metrics import (
    ConfusionCounts,
    MetricsReport,
    confusion_counts,
    evaluate_dataset,
    format_report,
    format_report_kv,
    metrics_from_counts,
)
from .model import (
    ModelConfig,
    ModelParams,
    TrainTrace,
    build_model,
    forward,
    load_model,
    predict_mask,
    save_model,
    train,
)
from .tensor import Rng, load_checkpoint, save_checkpoint

__all__ = [
    "CheckResult",
    "ConfusionCounts",
    "ImageRecord",
    "MetricsReport",
    "ModelConfig",
    "ModelParams",
    "Rng",
    "TrainTrace",
    "binarize_mask",
    "build_model",
    "confusion_counts",
    "evaluate_dataset",
    "format_report",
    "format_report_kv",
    "forward",
    "generate_synthetic",
    "load_checkpoint",
    "load_config",
    "load_dataset",
    "load_model",
    "metrics_from_counts",
    "predict_mask",
    "read_pnm",
    "run_cli",
    "run_suite",
    "save_checkpoint",
    "save_dataset",
    "save_model",
    "train",
    "write_pnm",
]

__version__ = "0.1.0"
