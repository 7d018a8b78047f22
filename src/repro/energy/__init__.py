"""Energy accounting for time-synchronization traffic.

The paper's §3.4 argues NTP is ill-suited to mobile devices on energy
grounds, citing Balasubramanian et al. (IMC 2009): on cellular radios
every transfer pays a *tail* — the radio lingers in a high-power state
after the last packet — so "a few 100 B transfers periodically ... can
consume more energy than bulk one-shot transfers".  §7 lists
"benchmarking of MNTP against SNTP and NTP in terms of metrics like
processor and battery performance" as future work.

This package implements that benchmark: a radio power-state machine
(idle / promotion / active / tail) driven by the transmission instants
a protocol produces, and an accountant that attributes energy to each
synchronization strategy.
"""
