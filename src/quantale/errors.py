"""Exception hierarchy shared across the package."""


class QuantaleError(Exception):
    """Base class for all errors raised by this package."""


class UnknownVariable(QuantaleError):
    """A variable name is not declared in the situation model."""


class ExplosionGuard(QuantaleError):
    """Enumeration would exceed the configured cap."""

    def __init__(self, message, count=None, cap=None):
        super().__init__(message)
        self.count = count
        self.cap = cap


class CycleDetected(QuantaleError):
    """The scope graph contains a directed cycle."""


class ValidationFailed(QuantaleError):
    """A scope graph failed validation against a model and lexicon."""

    def __init__(self, diagnostics):
        super().__init__("; ".join(diagnostics))
        self.diagnostics = list(diagnostics)


class PreciseQuantifierInFastPath(QuantaleError):
    """The generic fast path only admits vague quantifiers."""


class ShapeDomainError(QuantaleError, ValueError):
    """A quantifier shape was queried outside [0, 1]."""


class Invalid(QuantaleError, ValueError):
    """A value breaks invariants; ``faults`` lists (message, index path of the part at fault)."""

    def __init__(self, faults):
        super().__init__(faults[0][0])
        self.faults = list(faults)


class InvalidWorld(Invalid):
    """A situation model or vague predicate breaks an invariant."""


class InvalidScenario(Invalid):
    """An RSA scenario breaks an invariant."""


class AllFalse(QuantaleError):
    """An utterance is false (probability zero) in every state."""


class NoViableUtterance(QuantaleError):
    """Every candidate utterance has zero literal-listener posterior."""


class DslParseError(QuantaleError):
    """Parsing or schema validation failed; carries source diagnostics."""

    def __init__(self, diagnostics):
        super().__init__("; ".join(d.message for d in diagnostics))
        self.diagnostics = list(diagnostics)
