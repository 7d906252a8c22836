"""Exception and warning types shared across the package."""


class OpshapeError(Exception):
    """Base class for all package errors."""


class InvalidLandmark(OpshapeError):
    """A landmark label is missing, duplicated, or out of range."""


class DegenerateFrame(OpshapeError):
    """Frame representatives are affinely dependent, a frame scalar vanishes,
    or the frame scalars or chart overflow float64."""


class DegeneratePoint(OpshapeError):
    """A point maps to (numerically) zero under the frame homography, or its
    image overflows float64."""


class EmptySample(OpshapeError):
    """Sample has fewer observations than the operation requires."""


class FocalMean(OpshapeError):
    """A block mean vector is numerically zero, so no extrinsic mean exists."""


class InvalidLevel(OpshapeError):
    """Significance level outside the open interval (0, 1)."""


class BehindCamera(OpshapeError):
    """A scene point has nonpositive depth in the camera frame."""


class GenerationFailed(OpshapeError):
    """Rejection sampling exhausted its retry budget."""


class ParseError(OpshapeError):
    """Malformed landmark CSV row; carries a 1-based line number when known."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class SchemaError(OpshapeError):
    """Structurally valid CSV whose scenes disagree on the landmark label set."""


class FocalWarning(UserWarning):
    """Top eigenvalue of the axial mean matrix is nearly tied; axis unstable."""


class MixedOrientationWarning(UserWarning):
    """Sample mixes scenes whose frame charts required a determinant sign flip."""
