"""Assembly: labels, directives, data layout, error reporting."""

import struct

import pytest

from streamsim.asm import DATA_BASE, TEXT_BASE, assemble
from streamsim.errors import DuplicateLabel, ParseError, UnresolvedLabel


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


def test_bad_directive_operands_are_parse_errors():
    with pytest.raises(ParseError) as ei:
        assemble(".data\nbuf: .space -5")
    assert "line 2" in str(ei.value) and "negative" in str(ei.value)
    with pytest.raises(ParseError) as ei:
        assemble(".data\n.word 1\n.word")
    assert "line 3" in str(ei.value)


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
