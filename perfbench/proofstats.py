"""Proof provenance read back from a parsed LRAT proof.

Steps are the objects `xorcert.lrat.parse_proof` returns: add steps carry
`id`, `lits` and `hints`; delete steps carry `id` and `ids`.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class ProofStats:
    def_steps: int = 0  # hintless add steps: extension-variable definitions
    rup_steps: int = 0  # hinted add steps
    deleted_ids: int = 0
    core_rup_steps: int = 0  # hinted steps the empty clause depends on

    def __iadd__(self, other):
        self.def_steps += other.def_steps
        self.rup_steps += other.rup_steps
        self.deleted_ids += other.deleted_ids
        self.core_rup_steps += other.core_rup_steps
        return self


def proof_stats(steps) -> ProofStats:
    """Count steps by kind and walk the hints backwards from the empty
    clause.  A proof without an empty clause has an empty core."""
    st = ProofStats()
    hints_of: dict[int, tuple[int, ...]] = {}
    empty = None
    for step in steps:
        if hasattr(step, "ids"):
            st.deleted_ids += len(step.ids)
            continue
        hints_of[step.id] = step.hints
        if step.hints:
            st.rup_steps += 1
        else:
            st.def_steps += 1
        if not step.lits:
            empty = step.id
    if empty is None:
        return st
    seen = {empty}
    stack = [empty]
    while stack:
        for h in hints_of[stack.pop()]:
            # ids missing from the proof are input clauses
            if h in hints_of and h not in seen:
                seen.add(h)
                stack.append(h)
    st.core_rup_steps = sum(1 for i in seen if hints_of[i])
    return st
