"""Assembler for the cluster's instruction set.

One layout pass binds labels, places every directive and emits its bytes, and
records each instruction and each symbolic `.word` operand; a resolve step
then decodes each distinct statement once, resolving its label operands, and
fills the symbolic words. A statement whose last operand, after a comma, is a
literal of ASCII decimal digits, alone or as the imm of imm(reg), has a
shape: the text before its last comma and what follows the literal. String
methods split it off. A statement without a comma, or whose literal has a
sign, a prefix or an underscore, has no shape. Only the first statement of a
shape goes through decode, which takes nothing but "" or (reg) after the
literal; each further one is filled in from the first's fields and text with
one int() of its literal and a range test, and one that these refuse goes to
decode, which raises its message. Every integer of the source, an immediate,
a label offset or a .space or .word value, is read in ASCII digits only.
`.text` starts at 0x0 and `.data` at the scratchpad base, so branch targets
and data pointers are absolute addresses throughout.
"""

import re
import struct

from .cluster import TCDM_BASE as DATA_BASE, TCDM_SIZE
from .errors import DuplicateLabel, ParseError, SimError, UnresolvedLabel
from .isa import decode, literal_field, parse_int, Instruction, SYM_RE

TEXT_BASE = 0x0000_0000
DATA_END = DATA_BASE + TCDM_SIZE

_LABEL_RE = re.compile(r"^([A-Za-z_][\w.]*):(.*)$")


class AsmProgram:
    def __init__(self, instructions, data_segments, labels, entry):
        self.instructions = instructions      # {addr: Instruction}
        self.data_segments = data_segments    # [(addr, bytes)]
        self.labels = labels
        self.entry = entry

    def resolve(self, target):
        if isinstance(target, int):
            return target
        if target in self.labels:
            return self.labels[target]
        raise UnresolvedLabel(f"unknown symbol '{target}'")


def assemble(source: str) -> AsmProgram:
    # layout: bind labels, place directives and emit their bytes
    labels = {}
    in_text = True
    here = DATA_BASE  # the data cursor
    entry_sym = None
    data = {}     # addr -> bytes
    # instructions sit back to back from TEXT_BASE, so the count of those
    # seen so far gives the next one's address
    texts = []        # statement of each instruction
    first_line = {}   # each distinct statement -> the line it first appears on
    words = []        # (line, addr, symbol) of each symbolic .word
    for no, stmt in enumerate(map(str.strip, _lines(source)), start=1):
        if "#" in stmt:
            stmt = stmt.split("#", 1)[0].rstrip()
        if not stmt:
            continue
        label = None
        if ":" in stmt and (m := _LABEL_RE.match(stmt)):
            label, stmt = m.group(1), m.group(2).strip()
            if label in labels:
                raise DuplicateLabel(f"line {no}: label '{label}' redefined")
            labels[label] = TEXT_BASE + 4 * len(texts) if in_text else here
            if not stmt:
                continue
        if stmt[0] != ".":
            if not in_text:
                raise ParseError(f"line {no}: instruction outside .text")
            texts.append(stmt)
            first_line.setdefault(stmt, no)
            continue
        parts = stmt.split(None, 1)
        d = parts[0]
        arg = parts[1].strip() if len(parts) == 2 else ""
        if d == ".text":
            in_text = True
        elif d == ".data":
            in_text = False
        elif d == ".global":
            if not arg:
                raise ParseError(f"line {no}: .global needs a symbol")
            if entry_sym is None:
                entry_sym = arg
        elif d not in (".word", ".double", ".space"):
            raise ParseError(f"line {no}: unknown directive '{d}'")
        elif in_text:
            raise ParseError(f"line {no}: {d} outside .data")
        elif d == ".space":
            try:
                n = parse_int(arg)
            except ValueError:
                raise ParseError(f"line {no}: .space needs a byte count")
            if n < 0:
                raise ParseError(f"line {no}: .space count {n} is negative")
            _check_fits(no, d, here + n)
            data[here] = bytes(n)
            here += n
        elif d == ".word":
            if not arg:
                raise ParseError(f"line {no}: .word needs a value")
            addr = _aligned(here, 4)
            _check_fits(no, d, addr + 4)
            try:
                v = parse_int(arg)
            except ValueError:
                words.append((no, addr, arg))
                v = 0
            data[addr] = (v & 0xFFFFFFFF).to_bytes(4, "little")
            if label is not None:
                labels[label] = addr
            here = addr + 4
        else:  # .double
            addr = _aligned(here, 8)
            _check_fits(no, d, addr + 8)
            try:
                data[addr] = struct.pack("<d", float(arg))
            except ValueError:
                raise ParseError(f"line {no}: .double needs a number")
            if label is not None:
                labels[label] = addr
            here = addr + 8

    # resolve: decode each distinct statement once, in the order of first
    # appearance, so an error names the first line that holds it; identical
    # statements share one Instruction, and a statement of a shape already
    # decoded is filled in. Then fill symbolic words.
    decoded = {}
    # shape -> (fields, literal's position, text's position, lo, hi, text head)
    shapes = {}
    for stmt, no in first_line.items():
        head, comma, last = stmt.rpartition(",")
        lit, paren, tail = last.partition("(")
        lit = lit.lstrip()
        shape = None
        if comma and lit.isdecimal() and lit.isascii():
            tail = paren + tail
            shape = head, tail
            known = shapes.get(shape)
            if known is not None:
                v, at, t, lo, hi, text = known
                try:
                    n = int(lit, 0)
                except ValueError:
                    pass
                else:
                    if lo <= n < hi:
                        v[at] = n
                        v[t] = text + lit + tail
                        decoded[stmt] = Instruction(*v)
                        continue
        try:
            decoded[stmt] = ins = decode(stmt, labels)
        except UnresolvedLabel as e:
            raise UnresolvedLabel(f"line {no}: {e}") from None
        except SimError as e:
            raise ParseError(f"line {no}: {e}") from e
        if shape is not None:
            shapes[shape] = literal_field(ins, lit, tail)
    instructions = dict(zip(range(TEXT_BASE, TEXT_BASE + 4 * len(texts), 4),
                            map(decoded.__getitem__, texts)))
    for no, addr, tok in words:
        m = SYM_RE.match(tok)
        if not (m and m.group(1) in labels):
            raise UnresolvedLabel(f"line {no}: unknown symbol '{tok}'")
        v = labels[m.group(1)] + int(m.group(2) or 0)
        data[addr] = (v & 0xFFFFFFFF).to_bytes(4, "little")

    entry = TEXT_BASE
    if entry_sym is not None:
        if entry_sym not in labels:
            raise UnresolvedLabel(f".global symbol '{entry_sym}' is undefined")
        entry = labels[entry_sym]

    segments = [(a, data[a]) for a in sorted(data)]
    return AsmProgram(instructions, segments, labels, entry)


def _lines(source):
    r"""The lines of source, which end at \n, \r\n or \r only: str.splitlines
    would also end them at \v, \f, \x1c-\x1e, \x85, \u2028 and \u2029,
    which a statement reads as whitespace."""
    return source.replace("\r\n", "\n").replace("\r", "\n").split("\n")


def _check_fits(no, directive, end):
    if end > DATA_END:
        raise ParseError(f"line {no}: {directive} ends at {end:#x}, past the "
                         f"scratchpad end {DATA_END:#x}")


def _aligned(addr, a):
    return (addr + a - 1) & ~(a - 1)
