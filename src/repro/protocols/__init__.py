"""Toolbox and baseline protocols.

Substrates the paper's protocol builds on (epidemics, CHVP, detection) and
the protocols it is compared against or motivated by (static counting
baselines, the Doty–Eftekhari dynamic baseline, non-uniform phase clocks,
majority payloads).  They are scalar ``interact`` rules with no vectorised
or counts kernel, so they run on the exact ``sequential`` engine only.
"""

from repro.protocols.chvp import CHVP, CLVP
from repro.protocols.detection import DetectionProtocol, DetectionState
from repro.protocols.doty_eftekhari import DotyEftekhariCounting, DotyEftekhariState
from repro.protocols.epidemic import InfectionEpidemic, MaxEpidemic
from repro.protocols.junta import JuntaElection, JuntaState
from repro.protocols.leader_election import (
    CoinLevelLeaderElection,
    CoinLevelState,
    LeaderState,
    PairwiseEliminationLeaderElection,
)
from repro.protocols.majority import ApproximateMajority, PhasedMajority, PhasedMajorityState
from repro.protocols.nonuniform_clock import NonUniformPhaseClock
from repro.protocols.static_counting import (
    AveragedMaximaCounting,
    AveragedMaximaState,
    MaxGrvCounting,
)
from repro.protocols.token_counting import TokenCounting, TokenCountingState

__all__ = [
    "CHVP",
    "CLVP",
    "ApproximateMajority",
    "AveragedMaximaCounting",
    "AveragedMaximaState",
    "CoinLevelLeaderElection",
    "CoinLevelState",
    "DetectionProtocol",
    "DetectionState",
    "DotyEftekhariCounting",
    "DotyEftekhariState",
    "InfectionEpidemic",
    "JuntaElection",
    "JuntaState",
    "LeaderState",
    "MaxEpidemic",
    "MaxGrvCounting",
    "NonUniformPhaseClock",
    "PairwiseEliminationLeaderElection",
    "PhasedMajority",
    "PhasedMajorityState",
    "TokenCounting",
    "TokenCountingState",
]
