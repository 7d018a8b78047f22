"""Fixpoint solver: forward solves, guards, the step budget."""

import ast
import textwrap

from repro.analysis.flow.cfg import build_cfg
from repro.analysis.flow.dataflow import (
    Analysis,
    each_item_state,
    exit_edge_states,
    solve_forward,
)


def _cfg(src):
    tree = ast.parse(textwrap.dedent(src))
    func = next(
        node for node in tree.body if isinstance(node, ast.FunctionDef)
    )
    return build_cfg(func)


class _Assigned(Analysis):
    """Forward may-analysis: set of names assigned so far."""

    def initial(self):
        return frozenset()

    def join(self, a, b):
        return a | b

    def transfer(self, item, state):
        if isinstance(item, ast.Assign):
            names = {
                t.id for t in item.targets if isinstance(t, ast.Name)
            }
            return state | frozenset(names)
        return state


class _Counter(Analysis):
    """Interval on one variable; its join grows forever in a loop."""

    def initial(self):
        return (0, 0)

    def join(self, a, b):
        return (min(a[0], b[0]), max(a[1], b[1]))

    def transfer(self, item, state):
        if isinstance(item, ast.AugAssign):
            return (state[0] + 1, state[1] + 1)
        return state


class _TruthyGuard(Analysis):
    """Forward: tracks whether 'x' is known truthy via edge guards."""

    def initial(self):
        return "unknown"

    def join(self, a, b):
        return a if a == b else "unknown"

    def transfer(self, item, state):
        return state

    def transfer_edge(self, edge, state):
        if edge.guard is not None and edge.guard.name == "x":
            return "truthy" if edge.guard.truthy else "falsy"
        return state


def test_forward_solve_reaches_all_branches():
    cfg = _cfg(
        """
        def f(c):
            a = 1
            if c:
                b = 2
            return a
        """
    )
    state_in = solve_forward(cfg, _Assigned())
    exit_states = [s for _, s in exit_edge_states(cfg, _Assigned(), state_in)]
    assert exit_states
    for state in exit_states:
        assert "a" in state
    # 'b' is assigned on only one branch: a may-analysis keeps it.
    assert any("b" in state for state in exit_states)


def test_step_budget_stops_a_non_converging_analysis():
    cfg = _cfg(
        """
        def f(n):
            i = 0
            while n:
                i += 1
            return i
        """
    )
    state_in = solve_forward(cfg, _Counter())
    # Termination is the assertion: the bound kept growing until the
    # per-solve step budget cut the worklist off.
    assert max(s[1] for s in state_in.values()) > 1


def test_edge_guards_refine_state():
    cfg = _cfg(
        """
        def f(x):
            if x:
                a = 1
            else:
                a = 2
            return a
        """
    )
    analysis = _TruthyGuard()
    state_in = solve_forward(cfg, analysis)
    seen = set(state_in.values())
    assert "truthy" in seen and "falsy" in seen
    # After the join the fact is gone again.
    exit_states = [s for _, s in exit_edge_states(cfg, analysis, state_in)]
    assert exit_states == ["unknown"]


def test_each_item_state_replays_in_deterministic_order():
    cfg = _cfg(
        """
        def f(c):
            a = 1
            if c:
                b = 2
            c2 = 3
            return c2
        """
    )
    analysis = _Assigned()
    state_in = solve_forward(cfg, analysis)
    replay_a = [
        (ast.unparse(item) if isinstance(item, ast.stmt) else "", set(state))
        for _, item, state in each_item_state(cfg, analysis, state_in)
    ]
    replay_b = [
        (ast.unparse(item) if isinstance(item, ast.stmt) else "", set(state))
        for _, item, state in each_item_state(cfg, analysis, state_in)
    ]
    assert replay_a == replay_b
    # The state before 'c2 = 3' already carries 'a'.
    before_c2 = next(s for text, s in replay_a if text == "c2 = 3")
    assert "a" in before_c2


def test_unreachable_code_is_absent_from_solution():
    cfg = _cfg(
        """
        def f():
            return 1
            dead = 2
        """
    )
    state_in = solve_forward(cfg, _Assigned())
    dead_blocks = [
        b.id for b in cfg.blocks
        for item in b.items
        if isinstance(item, ast.stmt) and "dead" in ast.unparse(item)
    ]
    for block_id in dead_blocks:
        assert block_id not in state_in
