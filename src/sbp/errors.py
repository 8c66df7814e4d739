class SbpError(Exception):
    """Base class for all errors raised by this package."""


class TraceFormatError(SbpError):
    """Malformed trace file (bad magic, version, or inconsistent header)."""


class TraceTruncatedError(TraceFormatError):
    """Trace file ends in the middle of a record."""

    def __init__(self, offset, message=None):
        self.offset = offset
        super().__init__(message or f"truncated record at byte offset {offset}")


class HintFormatError(SbpError):
    """Malformed hint file (bad magic, size mismatch, or invalid payload)."""


class ConfigError(SbpError, ValueError):
    """Inconsistent configuration (e.g. hint file disagrees with simulator setup)."""
