"""Clock and oscillator models.

Terminology follows Paxson (SIGMETRICS 1998), as the paper does:

* **offset** — difference between a clock's reported time and true time.
* **skew** — first derivative of offset, i.e. frequency error (s/s).
* **drift** — second derivative; here realised as random-walk frequency
  wander plus a temperature-sensitivity term.
"""
