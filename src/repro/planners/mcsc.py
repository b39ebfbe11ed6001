"""Minimum-Cost Set Cover -- the sub-plan combination step (Section 6.4.2/6.4.3).

After IPG collects feasible sub-plans (each covering a subset of a
node's children), it must choose a minimum-total-cost collection of
sub-plans that together cover *all* children.  The paper notes this is
the NP-complete MCSC problem and solves it exactly by enumerating all
sub-plan subsets in O(2^Q), keeping Q small via pruning rule PR3.

Because the paper's cost model is additive over source queries, an
exact dynamic program over covered-children bitmasks gives the same
optimum in O(2^k * Q) for k children -- usually much cheaper.  We
implement **both** (they are cross-checked in tests and compared in
benchmark E8) plus the classical greedy ln(n)-approximation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Generic, Iterable, Sequence, TypeVar

T = TypeVar("T")


@dataclass(frozen=True)
class CoverCandidate(Generic[T]):
    """A candidate set: which elements it covers, its cost, its payload."""

    coverage: frozenset[int]
    cost: float
    payload: T


@dataclass
class CoverSolution(Generic[T]):
    """A cover: total cost and the chosen candidates."""

    cost: float
    chosen: list[CoverCandidate[T]]


def solve_dp(
    n_elements: int, candidates: Sequence[CoverCandidate[T]]
) -> CoverSolution[T] | None:
    """Exact MCSC by dynamic programming over covered-element bitmasks."""
    if n_elements == 0:
        return CoverSolution(0.0, [])
    full = (1 << n_elements) - 1
    masks = [coverage_mask(c.coverage) for c in candidates]
    inf = math.inf
    best_cost = [inf] * (full + 1)
    best_from: list[tuple[int, int] | None] = [None] * (full + 1)
    best_cost[0] = 0.0
    for mask in range(full + 1):
        cost_here = best_cost[mask]
        if cost_here is inf:
            continue
        if mask == full:
            break
        # Branch on the lowest uncovered element: some chosen candidate
        # must cover it, so trying only those is complete.
        uncovered = (~mask) & full
        lowest = uncovered & (-uncovered)
        for index, cand_mask in enumerate(masks):
            if not cand_mask & lowest:
                continue
            new_mask = mask | cand_mask
            new_cost = cost_here + candidates[index].cost
            if new_cost < best_cost[new_mask]:
                best_cost[new_mask] = new_cost
                best_from[new_mask] = (mask, index)
    if best_cost[full] is inf:
        return None
    chosen: list[CoverCandidate[T]] = []
    mask = full
    while mask:
        step = best_from[mask]
        if step is None:
            break
        mask, index = step
        chosen.append(candidates[index])
    return CoverSolution(best_cost[full], chosen)


def solve_enumerate(
    n_elements: int, candidates: Sequence[CoverCandidate[T]]
) -> CoverSolution[T] | None:
    """Exact MCSC by the paper's O(2^Q) enumeration of sub-plan subsets."""
    if n_elements == 0:
        return CoverSolution(0.0, [])
    full = (1 << n_elements) - 1
    masks = [coverage_mask(c.coverage) for c in candidates]
    best: CoverSolution[T] | None = None
    q = len(candidates)
    for subset in range(1, 1 << q):
        covered = 0
        cost = 0.0
        bits = subset
        while bits:
            low = bits & (-bits)
            index = low.bit_length() - 1
            covered |= masks[index]
            cost += candidates[index].cost
            bits ^= low
            if best is not None and cost >= best.cost:
                break
        else:
            if covered == full and (best is None or cost < best.cost):
                chosen = [
                    candidates[i] for i in range(q) if subset & (1 << i)
                ]
                best = CoverSolution(cost, chosen)
    return best


def solve_greedy(
    n_elements: int, candidates: Sequence[CoverCandidate[T]]
) -> CoverSolution[T] | None:
    """Greedy cost-effectiveness heuristic (Hochbaum [6]'s ln-approximation)."""
    if n_elements == 0:
        return CoverSolution(0.0, [])
    full = (1 << n_elements) - 1
    masks = [coverage_mask(c.coverage) for c in candidates]
    covered = 0
    cost = 0.0
    chosen: list[CoverCandidate[T]] = []
    remaining = set(range(len(candidates)))
    while covered != full:
        best_index = -1
        best_ratio = math.inf
        for index in remaining:
            gain = bin(masks[index] & ~covered).count("1")
            if gain == 0:
                continue
            ratio = candidates[index].cost / gain
            if ratio < best_ratio:
                best_ratio = ratio
                best_index = index
        if best_index < 0:
            return None
        covered |= masks[best_index]
        cost += candidates[best_index].cost
        chosen.append(candidates[best_index])
        remaining.discard(best_index)
    return CoverSolution(cost, chosen)


def solve_minmax(
    n_elements: int, candidates: Sequence[CoverCandidate[T]]
) -> CoverSolution[T] | None:
    """Exact *min-max* set cover: minimize the most expensive chosen set.

    The combination step under the bottleneck (response-time) cost
    model: the cover's cost is the maximum of its members' costs, not
    their sum.  Solved exactly by scanning candidate costs in ascending
    order and testing coverability with the prefix; the reported
    ``cost`` is that bottleneck value.
    """
    if n_elements == 0:
        return CoverSolution(0.0, [])
    full = (1 << n_elements) - 1
    order = sorted(range(len(candidates)), key=lambda i: candidates[i].cost)
    masks = [coverage_mask(c.coverage) for c in candidates]
    covered = 0
    chosen: list[CoverCandidate[T]] = []
    for index in order:
        gain = masks[index] & ~covered
        if gain:
            covered |= masks[index]
            chosen.append(candidates[index])
        if covered == full:
            # Every chosen candidate costs <= candidates[index].cost and
            # no cover exists using only cheaper candidates (we added
            # greedily by ascending cost, taking every useful set).
            # Drop early picks made redundant by later ones (cannot
            # raise the max; avoids needless source queries).
            kept: list[CoverCandidate[T]] = []
            kept_masks: list[int] = []
            for candidate in reversed(chosen):
                mask = coverage_mask(candidate.coverage)
                union_others = 0
                for other in kept_masks:
                    union_others |= other
                if mask & ~union_others:
                    kept.append(candidate)
                    kept_masks.append(mask)
            kept.reverse()
            union = 0
            for mask in kept_masks:
                union |= mask
            if union != full:  # safety net; should not happen
                kept = chosen
            return CoverSolution(max(c.cost for c in kept), kept)
    return None


def prune_dominated(
    candidates: Sequence[CoverCandidate[T]],
) -> list[CoverCandidate[T]]:
    """Pruning rule PR3: drop candidates dominated by another candidate.

    Candidate ``a`` dominates ``b`` when ``a`` covers a superset of
    ``b``'s elements at no greater cost.  Any cover using ``b`` can swap
    in ``a`` without covering less or paying more, so dropping ``b``
    never removes the optimum.  Ties (equal coverage and cost) keep the
    earliest candidate.
    """
    kept: list[CoverCandidate[T]] = []
    for index, candidate in enumerate(candidates):
        dominated = False
        for other_index, other in enumerate(candidates):
            if other_index == index:
                continue
            if (
                other.coverage >= candidate.coverage
                and other.cost <= candidate.cost
                and (
                    other.coverage > candidate.coverage
                    or other.cost < candidate.cost
                    or other_index < index
                )
            ):
                dominated = True
                break
        if not dominated:
            kept.append(candidate)
    return kept


def coverage_mask(coverage: Iterable[int]) -> int:
    """The bitmask with bit ``i`` set for every element ``i``."""
    mask = 0
    for element in coverage:
        mask |= 1 << element
    return mask
