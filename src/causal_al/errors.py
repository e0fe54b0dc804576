"""Exception types shared across the pipeline."""


class CausalAlError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(CausalAlError):
    """Invalid, missing, or out-of-range configuration value."""


class SchemaError(CausalAlError):
    """Input data does not match its declared schema."""


class MissingColumn(SchemaError):
    """A declared or requested column is absent from a table."""


class DuplicateRowId(SchemaError):
    """Row identifiers are not unique within a table."""


class EmptyTable(SchemaError):
    """No rows survived loading or validation."""


class DisjointFeatures(SchemaError):
    """Two tables share no feature columns."""


class DegenerateFeature(CausalAlError):
    """A feature column has zero or non-finite variance where a finite spread is
    required, or two columns' scales are too far apart for a weight between them."""


class InsufficientData(CausalAlError):
    """Too few rows for the requested fit."""


class DegenerateComponent(CausalAlError):
    """A mixture component collapsed despite covariance regularization."""


class DegenerateTarget(CausalAlError):
    """The evaluation target is constant, so R-squared is undefined."""


class NoCausalLever(CausalAlError):
    """No interventable feature has a nonzero total effect on the target."""


class NodeMismatch(CausalAlError):
    """Graph node sets cannot be aligned, or a node is missing."""


class CyclicGraph(CausalAlError):
    """An edge set expected to be acyclic contains a cycle."""


# Failures of the numerics rather than of the input's shape (CLI exit code 4).
NUMERIC_ERRORS = (
    DegenerateFeature, DegenerateComponent, DegenerateTarget,
    NoCausalLever, NodeMismatch, CyclicGraph,
)
