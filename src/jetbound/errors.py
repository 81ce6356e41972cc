"""Exception hierarchy shared by all jetbound modules."""


class JetboundError(Exception):
    """Base class for all errors raised by this package."""


class RingMismatchError(JetboundError):
    """Operands belong to different polynomial rings."""


class NonMonicRelationError(JetboundError):
    """A reduction relation is not monic in the reduction variable."""


class UnreducedClassError(JetboundError):
    """Fiber integration received a class with a tautological degree >= rank."""


class DimensionMismatchError(JetboundError):
    """An intersection product does not have the dimension of the total space."""


class InhomogeneousClassError(JetboundError):
    """A class that must be homogeneous (in weighted degree) is not."""


class ResidualVariableError(JetboundError):
    """A class carries variables that must already have been eliminated."""


class InadmissibleWeightsError(JetboundError):
    """A weight vector violates the nefness admissibility chain."""


class CacheDirectoryError(JetboundError):
    """The result cache directory cannot be created or written."""


class OversizedJobError(JetboundError):
    """A job's Morse class has more terms than the command line admits."""
