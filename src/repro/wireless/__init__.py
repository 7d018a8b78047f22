"""Wireless channel substrate.

Simulates the 802.11 last hop of the paper's testbed: an RSSI process
(path loss + slow shadowing + fast fading + interference episodes), a
noise-floor process, cross-traffic channel occupancy, and the mapping
from channel state to per-packet loss and extra delay.

MNTP consumes only the *hints* (RSSI, noise, SNR margin) and the
resulting packet timings, so reproducing the joint statistics of
(hints, loss, delay) reproduces the paper's operating conditions.
"""

from repro._lazy import lazy_exports

__all__ = [
    "WirelessHints",
    "HintProvider",
    "WirelessChannel",
    "ChannelParams",
    "CrossTrafficGenerator",
    "CrossTrafficParams",
    "AccessPoint",
    "ChannelEffects",
    "EffectsParams",
]

# Re-exports resolve on first use: the hint types that MNTP's gate and
# the tuner read must not pull in the channel, and with it the simulator.
_HOMES = {
    "repro.wireless.hints": ("WirelessHints", "HintProvider"),
    "repro.wireless.channel": ("WirelessChannel", "ChannelParams"),
    "repro.wireless.crosstraffic": ("CrossTrafficGenerator", "CrossTrafficParams"),
    "repro.wireless.wap": ("AccessPoint",),
    "repro.wireless.effects": ("ChannelEffects", "EffectsParams"),
}

__getattr__, __dir__ = lazy_exports(globals(), _HOMES)
