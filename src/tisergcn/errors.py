"""Exception types shared across the package."""


class TisergcnError(Exception):
    """Base class for all package-specific errors."""


class InputError(TisergcnError, ValueError):
    """Invalid argument values (out-of-range coordinates, bad thresholds, ...)."""


class ShapeError(TisergcnError, ValueError):
    """Tensor or matrix dimensions do not satisfy an operation's contract."""


class DegenerateInputError(TisergcnError, ValueError):
    """Input is structurally valid but degenerate (all-equal distances, all-zero event)."""


class GraphReleasedError(TisergcnError, RuntimeError):
    """Backward reached a tape node that an earlier backward already consumed."""


class ConstructionError(TisergcnError, ValueError):
    """A model configuration produces an impossible layer chain."""


class DatasetFormatError(TisergcnError, ValueError):
    """On-disk dataset directory is malformed or unreadable."""


class DatasetVersionError(DatasetFormatError):
    """Dataset manifest declares an unsupported format version."""


class TruncatedFileError(DatasetFormatError):
    """A binary payload is shorter (or longer) than the manifest implies."""


class ConsistencyError(DatasetFormatError):
    """Cross-file metadata disagrees (e.g. manifest N vs. station file rows)."""


class CheckpointFormatError(TisergcnError, ValueError):
    """Model checkpoint bytes are not a valid checkpoint."""


class TrainingDivergedError(TisergcnError, RuntimeError):
    """Loss or gradients became non-finite during optimization."""
