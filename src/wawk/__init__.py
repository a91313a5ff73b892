"""Waveform analysis toolchain: a VCD reader, a small pattern-action
script language over the resulting signal database, an RV32I decoder,
and a synthetic core-trace generator for testing measurements against
known timing."""

from .errors import ParseFailure, RunFailure, WawkError
from .interp import execute, run_source
from .parser import parse_source
from .riscv import decode
from .value import Value
from .vcd import parse_vcd, parse_vcd_file
from .waveform import Waveform

__version__ = "0.1.0"

__all__ = [
    "ParseFailure",
    "RunFailure",
    "Value",
    "Waveform",
    "WawkError",
    "decode",
    "execute",
    "generate",
    "parse_source",
    "parse_vcd",
    "parse_vcd_file",
    "run_source",
]


def __getattr__(name: str):
    # the trace generator is imported on first use, not by every `wawk run`
    if name == "generate":
        from .tracegen import generate

        return generate
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
