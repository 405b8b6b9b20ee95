"""Random linear packet coding over burst-error channels.

Library and Monte Carlo simulator for three receivers: plain RLC
decoding, RLC with minimum-weight syndrome repair, and RLC with
transversal GRAND (likelihood-ordered error guessing that exploits
Markov-correlated errors).
"""
