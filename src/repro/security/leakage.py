"""Leakage analysis — Figure 5 of the paper, made executable.

Each operation class leaks a characteristic function of the data to the
strong adversary; this module implements the *attacks* that realize those
leakages from adversary observations, so the Figure 5 table can be
regenerated as measured facts rather than assertions:

* DET comparisons → the frequency distribution over values (group
  ciphertexts by byte equality);
* RND comparisons via the enclave → the ordering over values (accumulate
  comparison outcomes and sort);
* LIKE via scan → one unknown-predicate bit per row;
* LIKE via a range index (prefix match) → ordering plus proximity (the
  fact that a contiguous run of keys shares a prefix);
* encryption DDL → an encryption oracle, available only with client
  authorization.
"""

from __future__ import annotations

import functools
from collections import Counter
from dataclasses import dataclass

from repro.security.adversary import StrongAdversary
from repro.sqlengine.cells import Ciphertext

FIGURE5_ROWS: list[tuple[str, str]] = [
    ("Comparison (DET)", "Frequency distribution over values"),
    ("Comparison (RND)", "Ordering over values"),
    ("LIKE predicate using scans", "Unknown predicate over values"),
    (
        "LIKE predicate using an index (i.e. prefix matches)",
        "Ordering over values plus some information about proximity",
    ),
    (
        "DDL to encrypt data",
        "Limited access to encryption oracle only with client authorization",
    ),
]


def det_frequency_distribution(ciphertexts: list[Ciphertext]) -> list[int]:
    """The DET attack: the multiset of value frequencies, no keys needed.

    Returns the sorted frequency histogram, which equals the plaintext
    column's histogram — exactly the leakage the paper attributes to DET.
    """
    counts = Counter(ct.envelope for ct in ciphertexts)
    return sorted(counts.values(), reverse=True)


@dataclass
class OrderReconstruction:
    """Result of the ordering attack against enclave comparisons."""

    ordered_envelopes: list[bytes]   # distinct ciphertexts, ascending
    comparisons_used: int


def reconstruct_order(adversary: StrongAdversary, cek_name: str) -> OrderReconstruction:
    """The RND-range attack: rebuild the plaintext ordering of ciphertexts
    from the cleartext comparison results crossing the enclave boundary.

    An index build sorts the data, so after observing one build the
    adversary knows the total order of all indexed ciphertexts — the
    paper's "index build requires sorting of data that reveals the data
    ordering".
    """
    observed = adversary.observed_comparison_results()
    less_than: dict[bytes, set[bytes]] = {}
    envelopes: set[bytes] = set()
    used = 0
    for cek, left, right, result in observed:
        if cek != cek_name:
            continue
        used += 1
        a, b = left.envelope, right.envelope
        envelopes.add(a)
        envelopes.add(b)
        if result < 0:
            less_than.setdefault(a, set()).add(b)
        elif result > 0:
            less_than.setdefault(b, set()).add(a)

    # The observed relation is partial (a sort performs O(n log n) of the
    # O(n^2) comparisons); take its transitive closure so every derivable
    # pair is ordered, then topologically sort.
    reach: dict[bytes, set[bytes]] = {}

    def reachable(node: bytes) -> set[bytes]:
        cached = reach.get(node)
        if cached is not None:
            return cached
        reach[node] = set()  # cycle guard (no cycles in a valid ordering)
        out: set[bytes] = set()
        for nxt in less_than.get(node, ()):
            out.add(nxt)
            out |= reachable(nxt)
        reach[node] = out
        return out

    for env in envelopes:
        reachable(env)

    def compare(a: bytes, b: bytes) -> int:
        if a == b:
            return 0
        if b in reach.get(a, ()):
            return -1
        if a in reach.get(b, ()):
            return 1
        return 0  # genuinely unobserved pair

    ordered = sorted(envelopes, key=functools.cmp_to_key(compare))
    return OrderReconstruction(ordered_envelopes=ordered, comparisons_used=used)


def like_scan_predicate_bits(adversary: StrongAdversary) -> list[list[bool]]:
    """The LIKE-by-scan leakage: for each scan evaluation batch, which rows
    satisfied the (unknown) predicate — one boolean per enclave eval."""
    batches: dict[int, list[bool]] = {}
    for handle, __, outputs in adversary.observed_eval_results():
        verdict = outputs[0]
        if isinstance(verdict, bool):
            batches.setdefault(handle, []).append(verdict)
    return list(batches.values())


@dataclass
class ProximityLeak:
    """What a prefix-match via the index reveals beyond ordering."""

    matched_run_length: int      # contiguous keys sharing the prefix
    run_position: int            # where the run sits in the total order


def prefix_match_proximity(
    ordered_envelopes: list[bytes], matched: set[bytes]
) -> ProximityLeak:
    """Given a known ordering and the set of ciphertexts a prefix query
    touched, the adversary learns that a *contiguous run* of values shares
    a prefix — ordering plus proximity (Figure 5, row 4)."""
    positions = sorted(
        i for i, envelope in enumerate(ordered_envelopes) if envelope in matched
    )
    if not positions:
        return ProximityLeak(matched_run_length=0, run_position=-1)
    return ProximityLeak(
        matched_run_length=len(positions),
        run_position=positions[0],
    )


def encryption_oracle_access(adversary: StrongAdversary) -> dict[str, int]:
    """How often the encryption oracle was exercised, and whether any use
    happened without client authorization (it cannot: unauthorized calls
    raise before the boundary observer fires on the success path)."""
    authorized = sum(
        1
        for e in adversary.boundary_events
        if e.ecall in ("encrypt_for_ddl", "recrypt_batch_for_ddl", "decrypt_for_ddl")
    )
    return {"authorized_uses": authorized}
