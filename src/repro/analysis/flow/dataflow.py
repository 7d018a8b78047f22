"""Generic fixpoint dataflow over :mod:`repro.analysis.flow.cfg` graphs.

An analysis is a plain object implementing the :class:`Analysis`
protocol — a finite-height lattice (``initial``/``join``/``equals``),
an item transfer function, and optionally an edge transfer (where the
CFG's branch :class:`~repro.analysis.flow.cfg.Guard` facts are applied
— this is the path-sensitive half).

:func:`solve_forward` runs the classic worklist algorithm to a
fixpoint and returns the state at entry of every reachable block.
Blocks the fixpoint never reaches are absent from the result — rules
should treat absence as "unreachable" and stay silent there.

After solving, :func:`each_item_state` replays the transfer function
through every reachable block and yields ``(block, item,
state-before-item)`` triples — the hook rules use for their single
reporting pass (reporting from inside ``transfer`` would fire once per
fixpoint iteration).
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Tuple

from repro.analysis.flow.cfg import CFG, Block, Edge

__all__ = [
    "Analysis",
    "each_item_state",
    "exit_edge_states",
    "solve_forward",
]

#: Hard iteration ceiling per solve — a defensive backstop only; any
#: monotone analysis over a finite lattice converges far earlier.
_MAX_STEPS_PER_BLOCK = 64


class Analysis:
    """Base/protocol for dataflow analyses (duck-typed; subclass or copy).

    States must be immutable values (or treated as such): ``transfer``
    returns a new state rather than mutating its argument.
    """

    def initial(self) -> Any:
        """State at the function boundary (entry for forward solves)."""
        raise NotImplementedError

    def join(self, a: Any, b: Any) -> Any:
        """Least upper bound of two states."""
        raise NotImplementedError

    def equals(self, a: Any, b: Any) -> bool:
        """Whether two states are the same lattice point."""
        return bool(a == b)

    def transfer(self, item: Any, state: Any) -> Any:
        """State after executing one block item."""
        raise NotImplementedError

    def transfer_edge(self, edge: Edge, state: Any) -> Any:
        """Refine a state crossing ``edge`` (guards); default identity."""
        return state


def _block_out(analysis: Analysis, block: Block, state: Any) -> Any:
    for item in block.items:
        state = analysis.transfer(item, state)
    return state


def solve_forward(cfg: CFG, analysis: Analysis) -> Dict[int, Any]:
    """Entry states of every reachable block, at the least fixpoint."""
    blocks = {b.id: b for b in cfg.blocks}
    out_edges: Dict[int, List[Edge]] = {}
    for edge in cfg.edges:
        out_edges.setdefault(edge.src, []).append(edge)
    state_in: Dict[int, Any] = {cfg.entry: analysis.initial()}
    worklist: List[int] = [cfg.entry]
    budget = _MAX_STEPS_PER_BLOCK * max(len(blocks), 1)
    steps = 0
    while worklist and steps < budget:
        steps += 1
        block_id = worklist.pop(0)
        out = _block_out(analysis, blocks[block_id], state_in[block_id])
        for edge in out_edges.get(block_id, []):
            incoming = analysis.transfer_edge(edge, out)
            if edge.dst not in state_in:
                state_in[edge.dst] = incoming
                worklist.append(edge.dst)
                continue
            old = state_in[edge.dst]
            merged = analysis.join(old, incoming)
            if not analysis.equals(merged, old):
                state_in[edge.dst] = merged
                if edge.dst not in worklist:
                    worklist.append(edge.dst)
    return state_in


def each_item_state(
    cfg: CFG, analysis: Analysis, state_in: Dict[int, Any]
) -> Iterator[Tuple[Block, Any, Any]]:
    """Replay: yields ``(block, item, state-before-item)`` triples.

    Only reachable blocks (present in ``state_in``) are replayed, in
    block-id order — which is construction order, hence deterministic.
    """
    for block in cfg.blocks:
        if block.id not in state_in:
            continue
        state = state_in[block.id]
        for item in block.items:
            yield block, item, state
            state = analysis.transfer(item, state)


def exit_edge_states(
    cfg: CFG, analysis: Analysis, state_in: Dict[int, Any]
) -> List[Tuple[Edge, Any]]:
    """The state arriving at the exit along each reachable leave edge."""
    out: List[Tuple[Edge, Any]] = []
    blocks = {b.id: b for b in cfg.blocks}
    for edge in cfg.exit_edges():
        if edge.src not in state_in:
            continue
        state = _block_out(analysis, blocks[edge.src], state_in[edge.src])
        out.append((edge, analysis.transfer_edge(edge, state)))
    return out
