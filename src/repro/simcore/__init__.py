"""Discrete-event simulation kernel.

All experiments in this reproduction run on *virtual time*: a float number
of simulated seconds advanced by one heap of scheduled callbacks.  Nothing
in the library ever sleeps on the wall clock, which makes hour-long
protocol experiments run in seconds and keeps millisecond-level timing
exact regardless of interpreter jitter.
"""
