"""Cellular (4G) substrate for the §3.3 experiments.

The Galaxy S4 / 4G environment is reproduced with an RRC state-machine
delay model: a device idle between synchronization requests pays a
radio *promotion* delay on the first uplink packet, which inflates the
request path asymmetrically and biases SNTP offsets — the mechanism
behind Figure 5's 192 ms mean offset.
"""
