"""IEEE 1588 Precision Time Protocol (PTPv2) — the third protocol
variant the paper's §2 names beside NTP and SNTP.

Implements the two-step delay-request/response mechanism over the same
simulated links as NTP: the master multicasts ``Sync`` (precise origin
timestamp delivered in ``Follow_Up``), the slave measures t2 on
arrival, sends ``Delay_Req`` at t3, and learns t4 from ``Delay_Resp``;
offset and mean path delay follow from the four timestamps.  Included
both as a faithful substrate and to demonstrate that PTP's accuracy
advantage on clean LANs evaporates over the asymmetric wireless hop —
the same failure mode the paper shows for SNTP.
"""
