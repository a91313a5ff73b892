"""RV32I instruction-word decoder.

Table-driven mnemonic lookup from opcode, funct3, and funct7 (plus the
imm12 split between ecall and ebreak). Anything outside the RV32I base
set, including compressed or malformed words, decodes to "unknown".
"""

# canonical ISA-listing order, also used for report ordering
MNEMONICS = (
    "lui", "auipc",
    "jal", "jalr",
    "beq", "bne", "blt", "bge", "bltu", "bgeu",
    "lb", "lh", "lw", "lbu", "lhu",
    "sb", "sh", "sw",
    "addi", "slti", "sltiu", "xori", "ori", "andi",
    "slli", "srli", "srai",
    "add", "sub", "sll", "slt", "sltu", "xor", "srl", "sra", "or", "and",
    "fence",
    "ecall", "ebreak",
)

# opcode -> its mnemonic, or a table keyed by funct3, or by (funct3, funct7)
_OPCODES = {
    0x37: "lui", 0x17: "auipc", 0x6F: "jal", 0x67: {0: "jalr"},
    0x63: {0: "beq", 1: "bne", 4: "blt", 5: "bge", 6: "bltu", 7: "bgeu"},
    0x03: {0: "lb", 1: "lh", 2: "lw", 4: "lbu", 5: "lhu"},
    0x23: {0: "sb", 1: "sh", 2: "sw"},
    0x13: {0: "addi", 2: "slti", 3: "sltiu", 4: "xori", 6: "ori", 7: "andi",
           (1, 0): "slli", (5, 0): "srli", (5, 0x20): "srai"},
    0x33: {(0, 0): "add", (0, 0x20): "sub", (1, 0): "sll", (2, 0): "slt", (3, 0): "sltu",
           (4, 0): "xor", (5, 0): "srl", (5, 0x20): "sra", (6, 0): "or", (7, 0): "and"},
    0x0F: {0: "fence"},
}
# the word above the opcode for ecall and ebreak: rd, funct3 and rs1 zero, imm12 0 or 1
_SYSTEM = {0: "ecall", 1 << 13: "ebreak"}


def decode(word: int) -> str:
    word &= 0xFFFFFFFF
    opcode = word & 0x7F
    if opcode == 0x73:
        return _SYSTEM.get(word >> 7, "unknown")
    table = _OPCODES.get(opcode, "unknown")
    if isinstance(table, str):
        return table
    funct3 = (word >> 12) & 0x7
    return table.get(funct3) or table.get((funct3, word >> 25), "unknown")
