"""Assembly: labels, directives, data layout, error reporting."""

import struct

import pytest

from streamsim.asm import DATA_BASE, TEXT_BASE, assemble
from streamsim.cluster import TCDM_SIZE
from streamsim.errors import DuplicateLabel, ParseError, SimError, UnresolvedLabel
from streamsim.isa import decode


def test_basic_program():
    prog = assemble("""
        # comment line
        start:
            li t0, 5        # trailing comment
            addi t0, t0, -1
            bne t0, zero, start
            halt
    """)
    assert sorted(prog.instructions) == [0, 4, 8, 12]
    assert prog.labels["start"] == TEXT_BASE
    assert prog.instructions[8].imm == TEXT_BASE  # branch target resolved
    assert prog.entry == TEXT_BASE


def test_forward_reference():
    prog = assemble("""
        j end
        nop
        end: halt
    """)
    assert prog.instructions[0].imm == 8


def test_label_plus_offset():
    prog = assemble("""
        .data
        buf: .space 64
        .text
        li t0, buf+16
        halt
    """)
    assert prog.instructions[0].imm == DATA_BASE + 16


def test_global_entry():
    prog = assemble("""
        .global main
        helper: nop
        main: halt
    """)
    assert prog.entry == prog.labels["main"] == 4
    with pytest.raises(UnresolvedLabel) as ei:
        assemble(".global main\nnop")
    assert str(ei.value) == ".global symbol 'main' is undefined"


def test_data_directives():
    prog = assemble("""
        .data
        w0: .word 1
        .word -3
        v: .double 1.5
        gap: .space 16
        tail: .word 0xdeadbeef
    """)
    segs = dict(prog.data_segments)
    assert prog.labels["w0"] == DATA_BASE
    assert segs[DATA_BASE] == (1).to_bytes(4, "little")
    assert segs[DATA_BASE + 4] == (0x100000000 - 3).to_bytes(4, "little")
    # .double aligns its label to 8 bytes
    va = prog.labels["v"]
    assert va == DATA_BASE + 8 and va % 8 == 0
    assert segs[va] == struct.pack("<d", 1.5)
    assert prog.labels["gap"] == va + 8
    assert segs[prog.labels["gap"]] == bytes(16)
    assert prog.labels["tail"] == va + 24
    assert segs[prog.labels["tail"]] == struct.pack("<I", 0xDEADBEEF)


def test_same_line_label_binds_after_alignment():
    prog = assemble("""
        .data
        a: .word 7
        b: .double 1.0
    """)
    assert prog.labels["a"] == DATA_BASE
    assert prog.labels["b"] == DATA_BASE + 8  # aligned past the 4-byte word


def test_duplicate_label():
    with pytest.raises(DuplicateLabel):
        assemble("x: nop\nx: halt")


def test_unknown_label():
    with pytest.raises(UnresolvedLabel):
        assemble("j nowhere")


def test_bad_instruction_reports_line():
    with pytest.raises(ParseError) as ei:
        assemble("nop\nfrobnicate t0\nhalt")
    assert "line 2" in str(ei.value)


@pytest.mark.parametrize("ws", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e",
                                "\x85", "\u2028", "\u2029"])
def test_lines_end_only_at_newlines(ws):
    # whitespace that str.splitlines breaks at stays inside its line
    with pytest.raises(ParseError) as ei:
        assemble(f"nop{ws}\nfrobnicate")
    assert str(ei.value).startswith("line 2: ")
    ins = assemble(f"lw t0,{ws}8(t1)").instructions[0]
    want = decode("lw t0, 8(t1)")
    assert (repr(ins), ins.text) == (repr(want), "lw t0, 8(t1)")
    with pytest.raises(ParseError) as ei:
        assemble(f"nop\r\nnop{ws}\rfrobnicate")
    assert str(ei.value).startswith("line 3: ")


def test_data_directives_need_data_section():
    with pytest.raises(ParseError):
        assemble(".word 1")
    with pytest.raises(ParseError):
        assemble(".text\n.double 1.0")


def test_register_names_not_labels():
    # "t0" in operand position must stay a register even if a label exists
    prog = assemble("""
        t0val: nop
        mv t1, t0
        halt
    """)
    assert prog.instructions[4].rs1 == 5


def test_resolve():
    prog = assemble("a: nop\nb: halt")
    assert prog.resolve("b") == 4
    assert prog.resolve(0) == 0
    with pytest.raises(UnresolvedLabel):
        prog.resolve("zz")


def test_data_past_scratchpad_is_parse_error():
    end = DATA_BASE + TCDM_SIZE
    # filling the scratchpad to its last byte is fine
    prog = assemble(f".data\n.space {TCDM_SIZE - 12}\n.word 1\nlast: .double 2.0")
    assert prog.labels["last"] == end - 8
    for src, line in ((".data\nbuf: .space 200000", 2),
                      (f".data\n.space {TCDM_SIZE - 2}\n.word 1", 3),
                      (f".data\n.space {TCDM_SIZE - 4}\n\n.double 1.0", 4)):
        with pytest.raises(ParseError) as ei:
            assemble(src)
        assert str(ei.value).startswith(f"line {line}: ")
        assert f"past the scratchpad end {end:#x}" in str(ei.value)


def test_symbolic_word_is_filled_after_layout():
    prog = assemble("""
        .data
        ptr: .word tail+4
        .double 2.0
        tail: .word ptr
    """)
    segs = dict(prog.data_segments)
    tail = prog.labels["tail"]
    assert tail == DATA_BASE + 16
    assert segs[DATA_BASE] == (tail + 4).to_bytes(4, "little")
    assert segs[tail] == DATA_BASE.to_bytes(4, "little")
    with pytest.raises(UnresolvedLabel):
        assemble(".data\n.word nowhere")


@pytest.mark.parametrize("stmt, why", [
    ("add t0, t1", "'add' takes 3 operands, got 2 in 'add t0, t1'"),
    ("halt t0", "'halt' takes 0 operands, got 1 in 'halt t0'"),
    ("frobnicate t0", "unsupported mnemonic 'frobnicate' in 'frobnicate t0'"),
    ("li t0, 0x1ffffffff",
     "immediate 8589934591 out of 32-bit range in 'li t0, 0x1ffffffff'"),
    ("slli t0, t0, 32", "shift amount 32 out of range in 'slli t0, t0, 32'"),
    ("frep t0, 17", "frep body length 17 outside 1..16 in 'frep t0, 17'"),
    ("lw t0, 4[t1]", "expected imm(reg), got '4[t1]' in 'lw t0, 4[t1]'"),
    ("fld ft0, q0(t0)", "expected immediate, got 'q0' in 'fld ft0, q0(t0)'"),
    ("fadd.d ft0, ft1, t0",
     "expected FP register, got 't0' in 'fadd.d ft0, ft1, t0'"),
    ("add t0,t1,ft0",
     "expected integer register, got 'ft0' in 'add t0, t1, ft0'"),
    ("add t0, t1,", "expected integer register, got '' in 'add t0, t1, '"),
    ("j 0x", "expected immediate, got '0x' in 'j 0x'"),
    ("li t0, base+4", "expected immediate, got 'base+4' in 'li t0, base+4'"),
])
def test_parse_error_messages(stmt, why):
    with pytest.raises(ParseError) as ei:
        assemble(f"nop\n{stmt}\nhalt")
    assert str(ei.value) == f"line 2: {why}"


# The directive and data errors of the layout pass, each on line 3 of its
# source.
@pytest.mark.parametrize("source, why", [
    (".data\nx: .word 1\nnop", "instruction outside .text"),
    ("nop\nnop\n.global", ".global needs a symbol"),
    ("nop\nnop\n.align 8", "unknown directive '.align'"),
    ("nop\nnop\n.word 1", ".word outside .data"),
    (".data\n.word 1\n.space", ".space needs a byte count"),
    (".data\n.word 1\nbuf: .space -8", ".space count -8 is negative"),
    (".data\n.word 1\n.word", ".word needs a value"),
    (".data\n.word 1\n.double pi", ".double needs a number"),
])
def test_directive_error_messages(source, why):
    with pytest.raises(ParseError) as ei:
        assemble(source)
    assert str(ei.value) == f"line 3: {why}"


def test_repeated_bad_statement_reports_first_line():
    # the same malformed statement on several lines: the first one is named
    for src in ("nop\nadd t0, t1\nnop\nadd t0, t1 # again\nadd t0, t1",
                "nop\nj nowhere\nhalt\nj nowhere"):
        with pytest.raises(SimError) as ei:
            assemble(src)
        assert str(ei.value).startswith("line 2: ")


# Each case follows a statement that differs from it only in the literal of
# its last operand, and repeats on a later line.
@pytest.mark.parametrize("first, stmt, why", [
    ("fld ft0, 8(zero)", "fld ft0, 08(zero)",
     "expected immediate, got '08' in 'fld ft0, 08(zero)'"),
    ("fld ft0, 8(zero)", "fld ft0, 4294967296(zero)",
     "immediate 4294967296 out of 32-bit range in "
     "'fld ft0, 4294967296(zero)'"),
    ("lw t0, 8(t1)", "lw t0, +8(t1)",
     "expected imm(reg), got '+8(t1)' in 'lw t0, +8(t1)'"),
    ("lw t0, 8(t1)", "lw t0, --8(t1)",
     "expected imm(reg), got '--8(t1)' in 'lw t0, --8(t1)'"),
    ("slli t0, t1, 3", "slli t0, t1, 32",
     "shift amount 32 out of range in 'slli t0, t1, 32'"),
    ("frep t0, 4", "frep t0, 17",
     "frep body length 17 outside 1..16 in 'frep t0, 17'"),
    # whitespace in the literal's operand, which decode refuses and int()
    # strips from a literal's ends
    ("fld ft0, 8(zero)", "fld ft0, 8 (zero)",
     "expected imm(reg), got '8 (zero)' in 'fld ft0, 8 (zero)'"),
    ("lw t0, 8(t1)", "lw t0, 8( t1)",
     "expected imm(reg), got '8( t1)' in 'lw t0, 8( t1)'"),
    ("addi t0, t1, 5", "addi t0, t1, 5 6",
     "expected immediate, got '5 6' in 'addi t0, t1, 5 6'"),
    # an empty operand before the literal: the text before the last comma
    # is that of the comma-less statement
    ("j 9", "j , 8", "'j' takes 1 operands, got 2 in 'j , 8'"),
])
def test_rejected_literal_after_its_shape(first, stmt, why):
    with pytest.raises(ParseError) as ei:
        assemble(f"nop\n{first}\n{stmt}\nnop\n{stmt}\nhalt")
    assert str(ei.value) == f"line 3: {why}"


@pytest.mark.parametrize("first, stmt, fields", [
    ("addi t0, t1, 5", "addi t0, t1, 1_0", dict(rd=5, rs1=6, imm=10)),
    ("lw t0, 8(t1)", "lw t0, 0x8(t1)", dict(rd=5, rs1=6, imm=8)),
    ("li t0, 5", "li t0, -2147483648", dict(rd=5, rs1=0, imm=-2147483648)),
])
def test_accepted_literal_after_its_shape(first, stmt, fields):
    ins = assemble(f"{first}\n{stmt}").instructions[4]
    assert ins == decode(stmt)
    assert ins.text == stmt
    assert {f: getattr(ins, f) for f in fields} == fields
