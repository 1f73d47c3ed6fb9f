"""Bank-conflict degree by direct counting — the closed form's reference.

:func:`repro.analysis.memaccess.analytic_conflict_degree` prices a strided
shared-memory access over gcd(stride, banks); this module buckets every
lane's word into its bank instead, so the property tests can require the
two to agree exactly.
"""

from __future__ import annotations

from repro.gpusim.arch import WARP_SIZE


def conflict_degree(
    stride_words: int,
    *,
    lanes: int = WARP_SIZE,
    banks: int = 32,
) -> int:
    """Maximum number of lanes hitting the same bank for a strided access.

    Lane ``i`` accesses word ``i * stride_words``; the conflict degree is
    the largest multiplicity over banks, i.e. the serialization factor of
    the access (1 = conflict-free).  Computed by direct counting so the
    subtle gcd cases (stride 0 = broadcast, stride sharing factors with the
    bank count) are handled exactly.
    """
    if lanes <= 0:
        raise ValueError("lanes must be positive")
    if banks <= 0:
        raise ValueError("banks must be positive")
    if stride_words == 0:
        return 1  # broadcast is served in one cycle
    hits: dict[int, set[int]] = {}
    for lane in range(lanes):
        word = lane * stride_words
        hits.setdefault(word % banks, set()).add(word)
    return max(len(words) for words in hits.values())
