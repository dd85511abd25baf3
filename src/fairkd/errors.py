"""Exception hierarchy shared by all fairkd modules.

Every domain error derives from FairkdError so callers (and the CLI) can
distinguish domain failures (exit code 1) from configuration/usage errors
(ConfigError, exit code 2).
"""


class FairkdError(Exception):
    """Base class for all domain errors raised by this package."""


class ZeroVector(FairkdError, ValueError):
    """A row with no direction (core.row_norms) where one is required, or a
    non-finite raw KD term (also a ValueError: the value is out of range)."""


class DimensionMismatch(FairkdError, ValueError):
    """Two vectors/tensors that must share a dimension do not (also a
    ValueError: the argument's shape is out of range)."""


class IndexOutOfRange(FairkdError):
    """A class/label index falls outside the valid range."""


class EmptyIdentity(FairkdError):
    """An identity with zero samples was passed to an aggregation."""


class DuplicateIdentityAcrossSources(FairkdError):
    """The same identity_id appears in more than one input manifest."""


class InvalidManifest(FairkdError):
    """A manifest violates a structural invariant (soft-label sums, duplicate
    sample ids, inconsistent source per identity, ...)."""


class InvalidArgument(FairkdError, ValueError):
    """A public function was called with an argument outside its domain (an
    unknown name, a non-positive size, a missing generator)."""


class InvalidMergeRequest(FairkdError, ValueError):
    """A merge was asked for a total or a real fraction it cannot meet (also
    a ValueError: the argument's value is out of range)."""


class EmptyManifest(FairkdError):
    """Training was requested on a manifest with no entries."""


class DivergenceDetected(FairkdError):
    """A step's embeddings, prototypes or loss became non-finite or directionless."""


class FrozenViolation(FairkdError):
    """Teacher parameters changed during distillation."""


class EpochOutOfRange(FairkdError):
    """An epoch index outside [0, epochs) was queried."""


class ShapeMismatch(FairkdError):
    """Parameter/gradient shapes disagree in an optimizer step."""


class IoError(FairkdError):
    """A file could not be read or written."""


class FormatVersionMismatch(FairkdError):
    """A serialized artifact has an unknown or incompatible schema version."""


class MissingSample(FairkdError):
    """A protocol references a sample id that the store cannot resolve."""


class EmptyInput(FairkdError, ValueError):
    """An operation requiring at least one element received none (also a
    ValueError: an empty argument is outside the operation's domain)."""


class TooFewPairs(FairkdError):
    """Fewer pairs than folds were passed to k-fold accuracy."""


class NonFiniteScore(FairkdError):
    """A verification score is NaN/Inf; the scoring pipeline is broken."""


class TooFewGroups(FairkdError, ValueError):
    """Fewer than two group accuracies were passed to a fairness metric (also
    a ValueError: the argument's size is out of range)."""


class DegenerateDenominator(FairkdError):
    """SER is undefined because the best group has zero error."""


class InsufficientIdentities(FairkdError):
    """A group lacks the identities/images needed to build verification pairs."""


class OddPairCount(FairkdError):
    """pairs_per_group must be even to balance positives and negatives."""


class UnbalancedProtocol(FairkdError):
    """A group protocol's positive and negative pair counts differ."""


class ConfigError(FairkdError, ValueError):
    """A run configuration is malformed, incomplete, or inconsistent (also a
    ValueError: a config field holds a value out of range)."""


class ConfigTypeError(ConfigError, TypeError):
    """A config field holds a value of the wrong type; the message starts
    with the field's name, so a section path prefixes it as a dotted key."""


class FixtureFormatError(FairkdError):
    """The reference-metrics fixture file is malformed."""
