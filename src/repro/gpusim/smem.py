"""Shared-memory bank-conflict model.

Shared memory on Fermi/Kepler is divided into 32 banks of 4-byte words;
simultaneous accesses by lanes of a warp to different words in the same
bank serialize.  For the stencil kernels studied here the compute phase
reads in-plane neighbours from the shared tile with *consecutive lanes at
consecutive x*, which is conflict-free by construction — but 8-byte (DP)
accesses occupy two banks and halve effective throughput on Fermi, and a
tile pitch that is a multiple of the bank count produces conflicts for any
column-strided access.  Bank conflicts are the first of the three error
sources the paper's section VI model explicitly ignores; the conflict
degree of a strided access is computed in closed form by
:func:`repro.analysis.memaccess.analytic_conflict_degree`, which the tests
check against a counting loop (``tests/oracles/smem.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.gpusim.arch import ArchRules


def padded_pitch_words(width_words: int, banks: int = 32) -> int:
    """Tile pitch (in words) padded to avoid column-access conflicts.

    Standard stencil-tile padding: if the natural pitch is a multiple of
    the bank count, add one word so lanes walking a column spread across
    banks.
    """
    if width_words <= 0:
        raise ValueError("width_words must be positive")
    return width_words + 1 if width_words % banks == 0 else width_words


@dataclass(frozen=True)
class SmemAccessProfile:
    """Shared-memory traffic of one block for one z-plane.

    Attributes
    ----------
    read_instructions / write_instructions:
        Warp-level shared-memory instruction counts.
    conflict_factor:
        Average serialization multiplier (>= 1.0) applied to those
        instructions by the timing model; includes the 2x Fermi DP penalty
        and any residual bank conflicts.
    """

    read_instructions: int
    write_instructions: int
    conflict_factor: float = 1.0


def dp_conflict_factor(elem_bytes: int, rules: ArchRules) -> float:
    """Serialization multiplier for the element size on this architecture.

    8-byte accesses span two 4-byte banks: Fermi serializes them into two
    transactions (factor 2.0); Kepler can run shared memory in 8-byte bank
    mode, so the penalty is smaller (factor 1.0 modeled).
    """
    if elem_bytes == 4:
        return 1.0
    if elem_bytes == 8:
        return 2.0 if rules.smem_banks * rules.smem_bank_bytes <= 128 and rules.issue_width < 4 else 1.0
    raise ValueError(f"unsupported element size {elem_bytes}")
