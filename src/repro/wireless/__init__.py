"""Wireless channel substrate.

Simulates the 802.11 last hop of the paper's testbed: an RSSI process
(path loss + slow shadowing + fast fading + interference episodes), a
noise-floor process, cross-traffic channel occupancy, and the mapping
from channel state to per-packet loss and extra delay.

MNTP consumes only the *hints* (RSSI, noise, SNR margin) and the
resulting packet timings, so reproducing the joint statistics of
(hints, loss, delay) reproduces the paper's operating conditions.
"""
