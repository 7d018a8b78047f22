"""NTP / SNTP protocol implementation.

Implements the RFC 5905 wire format and the reference processing
pipeline (clock filter, intersection/select, cluster, PLL/FLL
discipline), plus the RFC 4330 SNTP client behaviour that mobile
devices actually ship.
"""
