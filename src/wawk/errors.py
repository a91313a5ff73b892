"""Exception hierarchy for the whole toolchain.

Two top-level families, matching the CLI exit codes: ParseFailure covers
anything wrong with an input file (VCD, script source, generator spec) and
maps to exit code 2; RunFailure covers errors raised while a parsed script
executes and maps to exit code 1.
"""


class WawkError(Exception):
    pass


class ParseFailure(WawkError):
    pass


class RunFailure(WawkError):
    pass


# --- VCD ---


class VcdError(ParseFailure):
    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class MalformedHeaderError(VcdError):
    pass


class UnknownIdCodeError(VcdError):
    pass


class WidthMismatchError(VcdError):
    pass


class BadTimestampError(VcdError):
    pass


class UnsupportedVcdFeatureError(VcdError):
    pass


# --- script syntax ---


class WawkSyntaxError(ParseFailure):
    def __init__(self, message: str, line: int, col: int):
        self.line = line
        self.col = col
        super().__init__(f"{line}:{col}: {message}")


class UnterminatedStringError(WawkSyntaxError):
    pass


class IllegalCharacterError(WawkSyntaxError):
    pass


class UnexpectedTokenError(WawkSyntaxError):
    pass


class ReservedKeywordError(WawkSyntaxError):
    pass


# --- generator specs ---


class InvalidSpecError(ParseFailure):
    pass


# --- script runtime ---


class WawkRuntimeError(RunFailure):
    """Raised during execute(); carries where in the run it happened.

    `context` is filled in by the interpreter's statement loop (statement
    ordinal plus sweep index, or BEGIN/END) so handlers below it never need
    to know their own position.
    """

    def __init__(self, message: str):
        self.message = message
        self.context: str | None = None
        super().__init__(message)

    def __str__(self) -> str:
        if self.context is not None:
            return f"{self.context}: {self.message}"
        return self.message


class UnknownNameError(WawkRuntimeError):
    pass


class UnknownSignalError(WawkRuntimeError):
    pass


class XZConversionError(WawkRuntimeError):
    pass


class TypeMismatchError(WawkRuntimeError):
    pass


class DivisionByZeroError(WawkRuntimeError):
    pass


class EmptyListError(WawkRuntimeError):
    pass


class FormatError(WawkRuntimeError):
    pass


class FormatArityMismatchError(FormatError):
    pass


class FormatTypeMismatchError(FormatError):
    pass


class UnknownModuleError(WawkRuntimeError):
    pass


class UnknownFunctionError(WawkRuntimeError):
    pass


class RedefinedAliasError(WawkRuntimeError):
    pass
