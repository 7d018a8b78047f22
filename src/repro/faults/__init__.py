"""Deterministic fault injection for chaos experiments.

The subsystem has two layers:

* :mod:`repro.faults.schedule` — declarative timed
  :class:`~repro.faults.schedule.FaultEpisode` lists
  (:class:`~repro.faults.schedule.FaultSchedule`), JSON-round-trippable
  so a scenario spec can embed the exact hostile conditions it runs
  under;
* :mod:`repro.faults.injectors` — the
  :class:`~repro.faults.injectors.FaultInjector` that arms a schedule
  against a live simulation, wrapping the per-link effect hooks and
  mutating :class:`~repro.ntp.server.NtpServer` fault state at episode
  boundaries, with every episode visible as a ``fault.episode`` span.

The fault matrices themselves are data: ``scenarios/chaos_smoke.json``
and ``scenarios/chaos_full.json`` embed their schedules, and
``repro-mntp matrix`` runs and judges them.
"""
