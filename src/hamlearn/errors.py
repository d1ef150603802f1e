"""Exception types shared across the package."""


class DimensionMismatchError(ValueError):
    """Operands act on different numbers of qubits."""


class CapacityError(RuntimeError):
    """A dense operation was requested above the configured qubit limit."""
