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
    """A SimError raised inside a cycle, as the cluster re-raises it: the
    message names the core, its pc and the cycle, and the SimError that
    found the fault is the cause."""

    def __init__(self, message, core, pc, cycle):
        self.core = core
        self.pc = pc
        self.cycle = cycle
        super().__init__(f"{message} (core {core}, pc 0x{pc:x}, cycle {cycle})")


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
