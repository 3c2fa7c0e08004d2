"""Assembly against decode, statement by statement, on drawn sources.

The sources repeat a few statement shapes (a statement with the integer
literal of its last operand cut out) with literals near every edge that
decode knows: spellings int() refuses, the 32-bit range, the slli and frep
limits, and labels; and with whitespace in the literal's operand, which
int() strips from a literal's ends and decode refuses: between the literal
and its "(reg)", inside the parentheses, and before a second token; and
with an empty operand before the literal, whose statement has the text
before its last comma of the one-operand statement.
Whatever the assembler gives must be what decode gives for each statement,
or the error of the first distinct statement that decode refuses, named by
its first line.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from streamsim.asm import DATA_BASE, assemble  # noqa: E402
from streamsim.errors import ParseError, SimError, UnresolvedLabel  # noqa: E402
from streamsim.isa import decode  # noqa: E402

# {g} is the gap after the mnemonic and {s} each operand separator, both
# fixed for a spelling; {w} is a gap, or none, inside the literal's operand,
# drawn for each line
SHAPES = (
    "fld{g}ft0{s}{lit}(zero)", "fsd{g}ft1{s}{lit}(t1)", "lw{g}t0{s}{lit}(t1)",
    "sw{g}t2{s}{lit}(sp)", "jalr{g}ra{s}{lit}(t0)", "addi{g}t0{s}t1{s}{lit}",
    "li{g}a0{s}{lit}", "slli{g}t0{s}t1{s}{lit}", "frep{g}t0{s}{lit}",
    "lui{g}t0{s}{lit}", "j{g}{lit}", "beq{g}t0{s}t1{s}{lit}",
    "ssr_cfg_write{g}0{s}bound0{s}{lit}", "add{g}t0{s}t1{s}{lit}",
    "fld{g}ft0{s}{lit}{w}(zero)", "lw{g}t0{s}{lit}({w}t1)",
    "sw{g}t2{s}{lit}(sp{w})", "addi{g}t0{s}t1{s}{lit}{w}6",
    "j{g}{lit}{w}{lit}", "j{g}{s}{lit}",
)
EDGES = (0, 1, 3, 4, 16, 17, 31, 32, (1 << 31) - 1, 1 << 31, (1 << 31) + 1,
         (1 << 32) - 1, 1 << 32)
WORDS = ("loop", "end", "buf+8", "buf-4", "nowhere", "t0", "base", "0x",
         "1__0", "_1", "1_", "")
# whitespace inside a statement, \v, \f, \x1c and \u2028 among it: none of
# them ends a line
GAPS = (" ", "\t", "  ", "\x0b", "\x0c", "\x1c", "\u2028")
SEPARATORS = (", ", ",", ",\t", " , ", ",\x0b", "\x0c,", ",\x1c", " ,\u2028")
BASES = {"": "d", "0x": "x", "0X": "X", "0b": "b", "0o": "o"}


@st.composite
def literals(draw):
    """Mostly a literal decode takes, else one from near an edge."""
    if draw(st.integers(0, 2)):
        n = draw(st.integers(1, 16))
        return draw(st.sampled_from((str(n), f"-{n}", hex(n), f"{n}_0")))
    if draw(st.booleans()):
        return draw(st.sampled_from(WORDS))
    n = draw(st.one_of(st.sampled_from(EDGES), st.integers(0, 1 << 12)))
    base = draw(st.sampled_from(sorted(BASES)))
    digits = "0" * draw(st.integers(0, 2)) + format(n, BASES[base])
    cut = draw(st.integers(0, len(digits)))
    if 0 < cut < len(digits) and draw(st.booleans()):
        digits = f"{digits[:cut]}_{digits[cut:]}"
    return draw(st.sampled_from(("", "-", "+", "--"))) + base + digits


@st.composite
def sources(draw):
    """Lines of a few spellings of a few shapes, each with its literal."""
    spellings = draw(st.lists(
        st.tuples(st.sampled_from(SHAPES), st.sampled_from(GAPS),
                  st.sampled_from(SEPARATORS)),
        min_size=1, max_size=2))
    lines = []
    for _ in range(draw(st.integers(1, 8))):
        shape, g, s = draw(st.sampled_from(spellings))
        pad = draw(st.sampled_from(("", "  ", "\t")))
        w = draw(st.sampled_from(("",) + GAPS))
        lines.append(pad + shape.format(g=g, s=s, w=w, lit=draw(literals()))
                     + pad)
    return lines


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(sources())
@example(["j 9", "j , 8"])   # two spellings, one text before the last comma
def test_assemble_is_decode_per_statement(lines):
    src = "\n".join(["loop: nop", *lines, "end: halt", ".data", "buf: .word 0"])
    labels = {"loop": 0, "end": 4 * (len(lines) + 1), "buf": DATA_BASE}
    stmts = [line.strip() for line in lines]
    first = {}
    for no, stmt in enumerate(stmts, start=2):
        first.setdefault(stmt, no)
    want = None
    for stmt, no in first.items():
        try:
            decode(stmt, labels)
        except SimError as e:
            kind = UnresolvedLabel if isinstance(e, UnresolvedLabel) else ParseError
            want = kind, f"line {no}: {e}"
            break
    if want is not None:
        with pytest.raises(SimError) as ei:
            assemble(src)
        assert (type(ei.value), str(ei.value)) == want
        return
    prog = assemble(src)
    by_stmt = {}
    for addr, stmt in zip(range(4, 4 * len(stmts) + 4, 4), stmts):
        ins, d = prog.instructions[addr], decode(stmt, labels)
        assert (repr(ins), ins.text) == (repr(d), d.text)
        assert ins.op is d.op and ins.fp_op is d.fp_op
        assert by_stmt.setdefault(stmt, ins) is ins
