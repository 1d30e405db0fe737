"""A minimal RV32I assembler.

Used to build the instruction-memory images for the RISC-V core design
(the paper evaluates on an industrial RISC-V core, Snitch, which this
smaller core stands in for).  Supports the instruction subset the core implements:

* R-type: add, sub, and, or, xor, sll, srl, slt, sltu
* I-type: addi, andi, ori, xori, slti, slli, srli, jalr, lw
* S-type: sw
* B-type: beq, bne, blt, bge, bltu
* U/J:    lui, jal

Labels are supported (``loop:`` definitions, branch/jump references).
"""

from __future__ import annotations

REG_NAMES = {f"x{i}": i for i in range(32)}
REG_NAMES.update({
    "zero": 0, "ra": 1, "sp": 2, "gp": 3, "tp": 4, "t0": 5, "t1": 6,
    "t2": 7, "s0": 8, "fp": 8, "s1": 9, "a0": 10, "a1": 11, "a2": 12,
    "a3": 13, "a4": 14, "a5": 15, "a6": 16, "a7": 17, "s2": 18,
    "s3": 19, "s4": 20, "s5": 21, "s6": 22, "s7": 23, "s8": 24,
    "s9": 25, "s10": 26, "s11": 27, "t3": 28, "t4": 29, "t5": 30,
    "t6": 31,
})

_R_FUNCT = {
    "add": (0b000, 0b0000000), "sub": (0b000, 0b0100000),
    "sll": (0b001, 0b0000000), "slt": (0b010, 0b0000000),
    "sltu": (0b011, 0b0000000), "xor": (0b100, 0b0000000),
    "srl": (0b101, 0b0000000), "or": (0b110, 0b0000000),
    "and": (0b111, 0b0000000),
}
_I_FUNCT = {
    "addi": 0b000, "slti": 0b010, "sltiu": 0b011, "xori": 0b100,
    "ori": 0b110, "andi": 0b111,
}
_B_FUNCT = {
    "beq": 0b000, "bne": 0b001, "blt": 0b100, "bge": 0b101,
    "bltu": 0b110, "bgeu": 0b111,
}


class AsmError(Exception):
    """Raised on malformed assembly input."""


def _reg(token):
    name = token.strip().lower()
    if name not in REG_NAMES:
        raise AsmError(f"unknown register {token!r}")
    return REG_NAMES[name]


def _imm(token, labels, pc):
    token = token.strip()
    if token in labels:
        return labels[token] - pc
    try:
        return int(token, 0)
    except ValueError as error:
        raise AsmError(f"bad immediate {token!r}") from error


def _encode_r(funct3, funct7, rd, rs1, rs2):
    return (funct7 << 25 | rs2 << 20 | rs1 << 15 | funct3 << 12
            | rd << 7 | 0b0110011)


def _encode_i(opcode, funct3, rd, rs1, imm):
    return ((imm & 0xFFF) << 20 | rs1 << 15 | funct3 << 12 | rd << 7
            | opcode)


def _encode_s(funct3, rs1, rs2, imm):
    return (((imm >> 5) & 0x7F) << 25 | rs2 << 20 | rs1 << 15
            | funct3 << 12 | (imm & 0x1F) << 7 | 0b0100011)


def _encode_b(funct3, rs1, rs2, imm):
    return (((imm >> 12) & 1) << 31 | ((imm >> 5) & 0x3F) << 25
            | rs2 << 20 | rs1 << 15 | funct3 << 12
            | ((imm >> 1) & 0xF) << 8 | ((imm >> 11) & 1) << 7
            | 0b1100011)


def _encode_u(opcode, rd, imm):
    return (imm & 0xFFFFF000) | rd << 7 | opcode


def _encode_j(rd, imm):
    return (((imm >> 20) & 1) << 31 | ((imm >> 1) & 0x3FF) << 21
            | ((imm >> 11) & 1) << 20 | ((imm >> 12) & 0xFF) << 12
            | rd << 7 | 0b1101111)


def assemble(text):
    """Assemble RV32I source text into a list of 32-bit words."""
    lines = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            lines.append(line)
    # Pass 1: label addresses.
    labels = {}
    pc = 0
    program = []
    for line in lines:
        while ":" in line:
            label, _, line = line.partition(":")
            labels[label.strip()] = pc
            line = line.strip()
        if line:
            program.append((pc, line))
            pc += 4
    # Pass 2: encoding.
    words = []
    for pc, line in program:
        words.append(_encode_line(line, labels, pc))
    return words


def _encode_line(line, labels, pc):
    mnemonic, _, rest = line.partition(" ")
    mnemonic = mnemonic.strip().lower()
    args = [a.strip() for a in rest.split(",")] if rest.strip() else []
    if mnemonic == "nop":
        return _encode_i(0b0010011, 0, 0, 0, 0)
    if mnemonic in _R_FUNCT:
        funct3, funct7 = _R_FUNCT[mnemonic]
        return _encode_r(funct3, funct7, _reg(args[0]), _reg(args[1]),
                         _reg(args[2]))
    if mnemonic in _I_FUNCT:
        return _encode_i(0b0010011, _I_FUNCT[mnemonic], _reg(args[0]),
                         _reg(args[1]), _imm(args[2], labels, pc))
    if mnemonic in ("slli", "srli"):
        funct3 = 0b001 if mnemonic == "slli" else 0b101
        shamt = _imm(args[2], labels, pc) & 0x1F
        return _encode_i(0b0010011, funct3, _reg(args[0]), _reg(args[1]),
                         shamt)
    if mnemonic == "lw":
        rd = _reg(args[0])
        imm, rs1 = _parse_mem(args[1], labels, pc)
        return _encode_i(0b0000011, 0b010, rd, rs1, imm)
    if mnemonic == "sw":
        rs2 = _reg(args[0])
        imm, rs1 = _parse_mem(args[1], labels, pc)
        return _encode_s(0b010, rs1, rs2, imm)
    if mnemonic in _B_FUNCT:
        return _encode_b(_B_FUNCT[mnemonic], _reg(args[0]), _reg(args[1]),
                         _imm(args[2], labels, pc))
    if mnemonic == "lui":
        return _encode_u(0b0110111, _reg(args[0]),
                         _imm(args[1], labels, pc) << 12)
    if mnemonic == "jal":
        if len(args) == 1:
            args = ["ra", args[0]]
        return _encode_j(_reg(args[0]), _imm(args[1], labels, pc))
    if mnemonic == "jalr":
        if len(args) == 1:
            args = ["ra", args[0], "0"]
        return _encode_i(0b1100111, 0b000, _reg(args[0]), _reg(args[1]),
                         _imm(args[2], labels, pc))
    if mnemonic == "li":
        # Pseudo: small immediates only.
        value = _imm(args[1], labels, pc)
        if not -2048 <= value < 2048:
            raise AsmError("li supports 12-bit immediates only")
        return _encode_i(0b0010011, 0b000, _reg(args[0]), 0, value)
    if mnemonic == "mv":
        return _encode_i(0b0010011, 0b000, _reg(args[0]), _reg(args[1]), 0)
    if mnemonic == "j":
        return _encode_j(0, _imm(args[0], labels, pc))
    raise AsmError(f"unknown mnemonic {mnemonic!r}")


def _parse_mem(token, labels, pc):
    """Parse ``imm(reg)``."""
    if "(" not in token or not token.endswith(")"):
        raise AsmError(f"bad memory operand {token!r}")
    imm_text, _, reg_text = token[:-1].partition("(")
    imm = _imm(imm_text or "0", labels, pc)
    return imm, _reg(reg_text)


def disassemble_word(word):
    """Best-effort single-instruction disassembly (for debugging)."""
    opcode = word & 0x7F
    rd = (word >> 7) & 0x1F
    funct3 = (word >> 12) & 0x7
    rs1 = (word >> 15) & 0x1F
    rs2 = (word >> 20) & 0x1F
    if opcode == 0b0110011:
        funct7 = word >> 25
        for name, (f3, f7) in _R_FUNCT.items():
            if f3 == funct3 and f7 == funct7:
                return f"{name} x{rd}, x{rs1}, x{rs2}"
    if opcode == 0b0010011:
        imm = _sign_extend(word >> 20, 12)
        for name, f3 in _I_FUNCT.items():
            if f3 == funct3:
                return f"{name} x{rd}, x{rs1}, {imm}"
        if funct3 == 0b001:
            return f"slli x{rd}, x{rs1}, {rs2}"
        if funct3 == 0b101:
            return f"srli x{rd}, x{rs1}, {rs2}"
    if opcode == 0b1101111:
        return f"jal x{rd}, ..."
    return f".word 0x{word:08x}"


def _sign_extend(value, bits):
    value &= (1 << bits) - 1
    if value & (1 << (bits - 1)):
        value -= 1 << bits
    return value
