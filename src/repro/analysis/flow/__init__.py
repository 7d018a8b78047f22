"""Whole-program flow analysis: call graph, unit inference, effects.

Phase one (:mod:`~repro.analysis.flow.summary`) reduces each parsed
module to a JSON-serializable :class:`ModuleSummary`; phase two
(:mod:`~repro.analysis.flow.project`) stitches summaries into a
:class:`Project` — the call graph plus derived return units and
transitive effect sets — that the interprocedural rules in
:mod:`~repro.analysis.flow.rules` consume.

Phase 1.5 (:mod:`~repro.analysis.flow.cfg` +
:mod:`~repro.analysis.flow.dataflow`) sits between them: per-function
control-flow graphs and a generic fixpoint solver, consumed by the
path-sensitive RES rule family.
"""
