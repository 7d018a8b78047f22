"""The §3.1 NTP-server log study.

Synthesises per-server packet traces calibrated to the paper's Table 1
(client counts, strata, IP versions, measurement volumes) and Figure 1
(per-provider-category latency profiles), writes them as genuine pcap
bytes via :mod:`repro.pcaplib`, then runs the same analysis pipeline the
paper's tcpdump-based tool performs: dissect -> synchronized-client
filtering heuristic -> wired/wireless + SNTP/NTP classification ->
per-provider latency statistics.
"""
