"""Exception hierarchy shared by every permdom module."""


class PermdomError(Exception):
    """Base class for all errors raised by this package."""


class UnwritableOutput(PermdomError):
    """Stdout, or the file named by --out, cannot be written."""


class ParseError(PermdomError):
    """One-line notation text could not be tokenized."""


class EmptyInput(ParseError):
    """The parser received an empty permutation."""


class NotABijection(PermdomError):
    """The given image sequence is not a bijection on {1..n}."""


class OrderTooLarge(PermdomError):
    """Graph construction requested for n above the bit-vector word cap."""


class VertexOutOfRange(PermdomError):
    """A vertex argument is outside {1..n}."""


class IndexOutOfRange(PermdomError):
    """A counting-formula index is outside its valid range."""


class NotSorted(PermdomError):
    """A vertex list that must be strictly increasing is not."""


class MissingTableEntry(PermdomError):
    """A required connected-count table row is absent."""


class OrderCapExceeded(PermdomError):
    """Exhaustive enumeration requested above the configured cap."""


class OrderTooSmall(PermdomError):
    """A construction needs a larger order than was requested."""


class OddOrder(PermdomError):
    """A construction defined only for even order received an odd one."""


class DisconnectedInput(PermdomError):
    """An operation requiring a connected graph received a disconnected one."""


class InfeasibleGamma(PermdomError):
    """No connected graph of the requested order has that domination number."""


class UnsupportedOffset(PermdomError):
    """No closed form is implemented for the requested offset."""
