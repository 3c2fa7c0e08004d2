"""Exception hierarchy for the simulator.

Every error raised by the package derives from SimError so callers (and the CLI)
can map failure classes to exit codes without string matching.
"""


class SimError(Exception):
    """Base class for all simulator errors."""


# --- instruction decoding / integer core ---

class UnsupportedInstruction(SimError):
    """Mnemonic outside the implemented subset."""


class MalformedOperands(SimError):
    """Operand list does not match the mnemonic's expected shape."""


class MisalignedAccess(SimError):
    """Memory access not aligned to its natural width."""


class OutOfRangeAccess(SimError):
    """Address falls outside every mapped memory region."""


# --- stream semantic registers ---

class InvalidConfig(SimError):
    """Stream configuration violates a structural constraint (bounds, dims, width)."""


class ReconfigWhileActive(SimError):
    """Stream configuration written while streaming is enabled."""


class StreamExhausted(SimError):
    """Stream register accessed more times than the configured element count."""


# --- FP repetition sequencer ---

class NestedFrep(SimError):
    """frep issued inside a capture range, or sequencer API used while busy."""


class NonFpInCapture(SimError):
    """Non-FP instruction encountered while capturing an frep body."""


class CountZero(SimError):
    """frep issued with a repetition count of zero."""


# --- cluster / DMA ---

class InvalidDescriptor(SimError):
    """DMA descriptor with zero/negative geometry or unmapped addresses."""


class OverlappingTransfer(SimError):
    """DMA descriptor whose source and destination ranges overlap."""


class CycleLimitExceeded(SimError):
    """Simulation did not finish within the configured cycle budget."""


class SimulationFault(SimError):
    """Runtime fault inside a simulated core, annotated with core/pc/cycle."""

    def __init__(self, message, core=None, pc=None, cycle=None):
        self.core = core
        self.pc = pc
        self.cycle = cycle
        ctx = []
        if core is not None:
            ctx.append(f"core {core}")
        if pc is not None:
            ctx.append(f"pc 0x{pc:x}")
        if cycle is not None:
            ctx.append(f"cycle {cycle}")
        super().__init__(f"{message}" + (f" ({', '.join(ctx)})" if ctx else ""))


# --- assembler ---

class ParseError(SimError):
    """Source line that does not match the grammar."""


class UnresolvedLabel(ParseError):
    """Reference to a label that is never defined."""


class DuplicateLabel(ParseError):
    """Label defined more than once."""


# --- system model / config ---

class ConfigError(SimError):
    """Malformed or incomplete configuration file."""


class MissingEnergyData(SimError):
    """Power requested for an operating point without an efficiency figure."""
