"""Exception types shared across the package.

Every error is a ValueError. Every one but TrainingDivergedError (a failed run:
exit 4) is an InputError, a refused input, on which the CLI exits 2.
"""


class InputError(ValueError):
    """Base of every refused input: the CLI exits 2 on it."""


class ShapeError(InputError):
    """Tensor shapes or dimensions incompatible with the requested operation."""


class ConfigError(InputError):
    """Invalid model or CLI configuration."""


class DataError(InputError):
    """Dataset-level problem: empty set, unpaired files, missing masks."""


class InvalidSeedError(InputError):
    """RNG state of zero, which the generator cannot accept."""


class InvalidTargetError(InputError):
    """Loss or metric target that is not strictly binary."""


class TrainingDivergedError(ValueError):
    """Training produced a non-finite loss, gradient or parameter, or a dead network."""


class NonFiniteOutputError(InputError):
    """The network's probability map holds a NaN or an infinity, so no mask is drawn from it."""


class CheckpointError(InputError):
    """Base for checkpoint (de)serialization failures."""


class BadMagicError(CheckpointError):
    """Stream does not start with the checkpoint magic bytes."""


class VersionMismatchError(CheckpointError):
    """Checkpoint version field differs from the supported version."""


class TruncatedStreamError(CheckpointError):
    """Checkpoint stream ended before the declared payload."""


class PnmError(InputError):
    """Base for PNM image parse failures."""


class PnmMagicError(PnmError):
    """Not a binary P5/P6 file."""


class PnmMaxvalError(PnmError):
    """Maxval other than 255."""


class PnmTruncatedError(PnmError):
    """Pixel payload shorter than the header promises."""
