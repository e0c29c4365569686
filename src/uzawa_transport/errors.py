"""Shared exception types."""


class ContractViolation(ValueError):
    """An operation was called outside its documented contract."""


class NumericalAbort(RuntimeError):
    """Training produced a non-finite quantity; message names step and term."""


class IllConditionedSystem(RuntimeError):
    """A linear solve was refused; carries the condition estimate."""

    def __init__(self, message, cond):
        super().__init__(f"{message} (condition estimate {cond:.3e})")
        self.cond = cond


class ConfigError(ValueError):
    """Invalid experiment configuration; collects every violation found."""

    def __init__(self, violations):
        self.violations = [str(v) for v in violations]
        super().__init__("\n".join(self.violations))
