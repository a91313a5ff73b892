"""Waveform analysis toolchain: a VCD reader, a small pattern-action
script language over the resulting signal database, an RV32I decoder,
and a synthetic core-trace generator for testing measurements against
known timing."""

from .errors import ParseFailure, RunFailure, WawkError
from .interp import execute, run_source
from .parser import parse_source
from .riscv import decode
from .tracegen import generate
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
