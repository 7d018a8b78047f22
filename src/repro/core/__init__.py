"""MNTP — Mobile NTP, the paper's contribution (§4).

MNTP modifies SNTP in two ways:

1. **Channel-aware pacing** — synchronization requests are emitted only
   while the wireless hints (RSSI, noise, SNR margin) satisfy baseline
   thresholds; otherwise they are deferred.
2. **Trend-line filtering** — recorded offsets are fit with a degree-1
   least-squares line; a new offset is accepted only if its squared
   error against the extrapolated line is within one standard deviation
   of the historical mean squared error.  Multi-server warm-up samples
   additionally pass a mean+1σ false-ticker rejection.

The drift estimate (trend-line slope) is re-estimated on every accepted
sample — the fix the authors report discovering via the MNTP tuner.
"""
