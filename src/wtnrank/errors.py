"""Exception types shared across the package."""


class WtnError(Exception):
    """Base class for all domain errors raised by wtnrank."""


class ParseError(WtnError):
    """A malformed row in a trade-record file.

    Carries the 1-based line number of the offending row.
    """

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class NoRecordsError(WtnError):
    """The input held no trade records for the requested year."""

    def __init__(self, year: int):
        super().__init__(f"no records for year {year}")
        self.year = year


class UnknownCountryError(WtnError):
    """A country code could not be resolved against the registry; ``bloc`` is the one it was merged into."""

    def __init__(self, code: str, bloc: str | None = None):
        merged = f": {code} was merged into {bloc} by the aggregation map" if bloc else ""
        super().__init__(f"unknown country code {code!r}{merged}")
        self.code = code


class EmptyNetworkError(WtnError):
    """The money matrix carries no flow at all; no network can be built."""


class ConvergenceError(WtnError):
    """A rank solve's measured residual |G P - P|_1 is not below the tolerance.

    ``report`` holds the SolverReport of that solve.
    """

    def __init__(self, message: str, report=None):
        super().__init__(message)
        self.report = report
