"""Exception types shared across the package.

Every error is a ValueError subclass so callers that don't care about the
exact failure mode can still catch broadly.
"""


class ShapeError(ValueError):
    """Tensor shapes or dimensions incompatible with the requested operation."""


class ConfigError(ValueError):
    """Invalid model or CLI configuration."""


class DataError(ValueError):
    """Dataset-level problem: empty set, unpaired files, missing masks."""


class InvalidSeedError(ValueError):
    """RNG state of zero, which the generator cannot accept."""


class InvalidTargetError(ValueError):
    """Loss or metric target that is not strictly binary."""


class TrainingDivergedError(ValueError):
    """Training produced a non-finite loss, gradient or parameter, or a dead network."""


class NonFiniteOutputError(ValueError):
    """The network's probability map holds a NaN or an infinity, so no mask is drawn from it."""


class CheckpointError(ValueError):
    """Base for checkpoint (de)serialization failures."""


class BadMagicError(CheckpointError):
    """Stream does not start with the checkpoint magic bytes."""


class VersionMismatchError(CheckpointError):
    """Checkpoint version field differs from the supported version."""


class TruncatedStreamError(CheckpointError):
    """Checkpoint stream ended before the declared payload."""


class PnmError(ValueError):
    """Base for PNM image parse failures."""


class PnmMagicError(PnmError):
    """Not a binary P5/P6 file."""


class PnmMaxvalError(PnmError):
    """Maxval other than 255."""


class PnmTruncatedError(PnmError):
    """Pixel payload shorter than the header promises."""
