"""Domain-aware static analysis for the MNTP reproduction.

Two invariants keep the experiments in this repository trustworthy, and
neither is checked by the interpreter:

* **Determinism** — every run must be bit-for-bit reproducible from its
  root seed: no wall-clock reads inside the simulator, all randomness
  through :class:`repro.simcore.random.RngRegistry` named streams.
* **Time-unit safety** — a quantity declared in one unit (``_s``,
  ``_ms``, ``_us``, ``_ns`` suffixes, NTP wire fixed-point) must never
  silently meet a quantity in another.

This package enforces both, plus leaked spans and handles, robustness
and telemetry routing, as an AST-based lint
runnable as ``repro-mntp lint`` or ``python -m repro.analysis``.  The
one suppression mechanism is an inline ``# repro: noqa[RULE] reason``
comment.  See ``docs/STATIC_ANALYSIS.md`` for the rules.
"""
