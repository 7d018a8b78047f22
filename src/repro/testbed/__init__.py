"""Laboratory testbed simulation (§3.2 of the paper).

Recreates the three-node testbed: a programmable wireless access point
(WAP), a target node (TN) running the time-sync clients, and a monitor
node (MN) that degrades the channel via cross-traffic and tx-power
commands, closing the loop on ping statistics reported by the TN.
"""
