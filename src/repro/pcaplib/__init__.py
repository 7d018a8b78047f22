"""Minimal packet-capture substrate.

The paper's §3.1 tool is built on tcpdump's ``netdissect.h`` /
``print-ntp.c``; this package is the equivalent: a classic-pcap file
reader/writer, Ethernet/IPv4/IPv6/UDP codecs (with real checksums), and
an NTP payload dissector.  The log study writes synthetic server traces
as genuine pcap bytes and parses them back through this stack, so the
analysis pipeline exercises the same code path it would on real
captures.
"""
