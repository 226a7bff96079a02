"""Exception hierarchy shared by the whole toolkit.

Every class carries a distinct ``exit_code`` so the CLI can map failures
to stable process statuses.
"""


class ToolkitError(Exception):
    exit_code = 1


class ConfigError(ToolkitError):
    exit_code = 2


class ParameterError(ToolkitError):
    exit_code = 3


class DependencyError(ToolkitError):
    """An upstream pipeline stage has not produced its artifacts yet."""

    exit_code = 4

    def __init__(self, message, required_stage=None):
        super().__init__(message)
        self.required_stage = required_stage


class StaleCacheError(ToolkitError):
    """Cached artifacts exist but were built from different inputs."""

    exit_code = 5


class FormatError(ToolkitError):
    """Malformed input byte stream; ``offset`` points at the bad byte."""

    exit_code = 6

    def __init__(self, message, offset=None):
        if offset is not None:
            message = f"{message} (at byte offset {offset})"
        super().__init__(message)
        self.offset = offset


class TruncationError(FormatError):
    exit_code = 7


class EmptyInputError(ToolkitError):
    exit_code = 9


class SizeError(ToolkitError):
    exit_code = 10


class DimensionError(ToolkitError):
    exit_code = 11


class KindMismatchError(ToolkitError):
    exit_code = 12


class AlignmentError(ToolkitError):
    exit_code = 13


class CoverageError(ToolkitError):
    exit_code = 14


class DuplicateKeyError(ToolkitError):
    exit_code = 15


class VocabularyError(ToolkitError):
    exit_code = 16


class SingularityError(ToolkitError):
    exit_code = 17


class MissingUserError(ToolkitError):
    exit_code = 18


class DivergenceError(ToolkitError):
    exit_code = 19
