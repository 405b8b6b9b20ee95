"""Random linear packet coding over burst-error channels.

Library and Monte Carlo simulator for three receivers: plain RLC
decoding, RLC with minimum-weight syndrome repair, and RLC with
transversal GRAND (likelihood-ordered error guessing that exploits
Markov-correlated errors).
"""

from .channel import ChannelParams
from .gf2 import BitMatrix
from .pipeline import (
    DecodeOutcome,
    ReceivedBatch,
    attempt_rlc,
    classify,
    needs_repair,
    redecode,
    syndrome_system,
)
from .rlc import Generator, ParityCheck, encode, make_generator, parity_check, rlc_decode
from .simcli import SimConfig, SimRecord, run_experiment, run_trial
from .syndrome_decoder import SyndromeSystem, compute_syndrome, sd_repair, sd_solve_column
from .tgrand import (
    ColumnPrior,
    TransitionClass,
    class_probability,
    enumerate_candidates,
    sorted_classes,
    tg_repair,
    tg_solve_column,
)

__all__ = [
    "BitMatrix",
    "ChannelParams",
    "ColumnPrior",
    "DecodeOutcome",
    "Generator",
    "ParityCheck",
    "ReceivedBatch",
    "SimConfig",
    "SimRecord",
    "SyndromeSystem",
    "TransitionClass",
    "attempt_rlc",
    "class_probability",
    "classify",
    "compute_syndrome",
    "encode",
    "enumerate_candidates",
    "make_generator",
    "needs_repair",
    "parity_check",
    "redecode",
    "rlc_decode",
    "run_experiment",
    "run_trial",
    "sd_repair",
    "sd_solve_column",
    "sorted_classes",
    "syndrome_system",
    "tg_repair",
    "tg_solve_column",
]
