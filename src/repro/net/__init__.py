"""Network path substrate.

Models one-way delays, jitter and loss on the paths between the testbed
nodes and the (simulated) stratum servers, plus presets calibrated to
the per-provider latency categories observed in the paper's Figure 1.
"""
