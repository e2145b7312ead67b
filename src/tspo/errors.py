"""Exception types shared across the toolkit."""


class TspoError(Exception):
    """Base class for all toolkit errors."""


class DimensionMismatch(TspoError):
    pass


class NonFinite(TspoError):
    pass


class Infeasible(TspoError):
    pass


class NumericalFailure(TspoError):
    """Linear algebra broke down or iterates diverged."""


class NotInterior(TspoError):
    pass


class SingularSystem(TspoError):
    pass


class NodeLimitExceeded(TspoError):
    pass


class TooLarge(TspoError):
    pass


class StaleTape(TspoError):
    pass


class EmptyTrainSet(TspoError):
    pass


class SolverFailure(TspoError):
    """A sub-solve failed during training; the instance should be skipped."""


class CorrectionInfeasible(TspoError):
    pass


class ParseError(TspoError):
    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class SchemaError(TspoError):
    pass


class ConfigError(TspoError):
    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))
