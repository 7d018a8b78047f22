"""Whole-program flow analysis: call graph, unit inference, effects.

Phase one (:mod:`~repro.analysis.flow.summary`) reduces each parsed
module to a JSON-serializable :class:`ModuleSummary`; phase two
(:mod:`~repro.analysis.flow.project`) stitches summaries into a
:class:`Project` — the call graph plus derived return units and
transitive effect sets — that the interprocedural rules in
:mod:`~repro.analysis.flow.rules` consume.  :mod:`~repro.analysis.flow.hot`
derives the simulator's hot closure from the same call graph for
OBS003.

Phase 1.5 (:mod:`~repro.analysis.flow.cfg` +
:mod:`~repro.analysis.flow.dataflow`) sits between them: per-function
control-flow graphs and a generic fixpoint solver, consumed by the
path-sensitive RES rule family.
"""

from repro.analysis.flow.cfg import (
    CFG,
    Block,
    CfgUnsupported,
    Edge,
    Guard,
    build_cfg,
    function_cfgs,
)
from repro.analysis.flow.dataflow import (
    Analysis,
    each_item_state,
    exit_edge_states,
    solve_forward,
)
from repro.analysis.flow.hot import HOT_ROOTS, hot_closure
from repro.analysis.flow.project import (
    ClassEntry,
    EffectPath,
    FunctionEntry,
    Project,
)
from repro.analysis.flow.summary import (
    MODULE_BODY,
    ArgUnit,
    AssignFromCall,
    CallSite,
    ClassInfo,
    EffectSite,
    FunctionInfo,
    ModuleSummary,
    ObsSite,
    summarize,
)

__all__ = [
    "Analysis",
    "ArgUnit",
    "Block",
    "CFG",
    "CfgUnsupported",
    "Edge",
    "Guard",
    "build_cfg",
    "each_item_state",
    "exit_edge_states",
    "function_cfgs",
    "solve_forward",
    "AssignFromCall",
    "CallSite",
    "ClassEntry",
    "ClassInfo",
    "EffectPath",
    "EffectSite",
    "FunctionEntry",
    "FunctionInfo",
    "HOT_ROOTS",
    "MODULE_BODY",
    "ModuleSummary",
    "ObsSite",
    "Project",
    "hot_closure",
    "summarize",
]
