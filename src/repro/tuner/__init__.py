"""The MNTP tuner (§5.3): logger, emulator, searcher.

* :class:`TraceLogger` runs on the testbed's target node, emitting SNTP
  requests to multiple reference clocks every 5 s and recording the
  responses plus the wireless hints — the tuner's input trace.
* :class:`MntpEmulator` replays the MNTP algorithm over a recorded
  trace for any parameter choice, with virtual clock corrections so the
  reported offsets reflect what a corrected clock would have seen.
* :class:`ParameterSearcher` grid-searches the four MNTP parameters,
  scoring each configuration by the RMSE of its reported offsets
  against a perfectly synchronized clock (0 ms) and counting the
  requests it generates (Table 2's two metrics).
"""
