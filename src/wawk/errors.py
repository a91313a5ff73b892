"""Exception hierarchy for the whole toolchain: one class per input.

Two top-level families, matching the CLI exit codes. ParseFailure covers
anything wrong with an input file and maps to exit code 2: VcdError for a
dump, WawkSyntaxError for script source, InvalidSpecError for a generator
spec. RunFailure covers errors raised while a parsed script executes and
maps to exit code 1. The class says which input is at fault; the message
says what is wrong with it.
"""


class WawkError(Exception):
    pass


class ParseFailure(WawkError):
    pass


class VcdError(ParseFailure):
    def __init__(self, message: str, line: int):
        self.line = line
        super().__init__(f"line {line}: {message}")


class WawkSyntaxError(ParseFailure):
    def __init__(self, message: str, line: int, col: int):
        self.line = line
        self.col = col
        super().__init__(f"{line}:{col}: {message}")


class InvalidSpecError(ParseFailure):
    pass


class RunFailure(WawkError):
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
