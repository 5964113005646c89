"""The paper's contribution: temporal privacy via adaptive buffering.

* :mod:`repro.core.delays` -- the artificial delay distributions nodes
  draw from (exponential is the paper's max-entropy choice; uniform,
  constant and Erlang are the comparators),
* :mod:`repro.core.buffers` -- buffer disciplines: infinite (the
  M/M/infinity idealization), drop-tail (M/M/k/k) and **RCAD**'s
  preemptive buffer,
* :mod:`repro.core.victim` -- victim-selection policies for RCAD
  preemption (the paper picks shortest-remaining-delay; the others are
  ablations),
* :mod:`repro.core.adversary` -- creation-time estimators: naive,
  baseline (knows the delay distributions) and adaptive (switches
  estimate using the Erlang loss formula, Section 5.4),
* :mod:`repro.core.metrics` -- the paper's privacy (MSE) and
  performance (latency) metrics,
* :mod:`repro.core.planner` -- per-node delay-parameter planners:
  uniform, sink-weighted (Section 3.3) and Erlang-target (Section 4),
* :mod:`repro.core.privacy_core` -- the clock-agnostic
  :class:`TemporalPrivacyCore` state machine that both the DES
  simulator and the streaming service drive.
"""

from repro.core.adversary import (
    AdaptiveAdversary,
    Adversary,
    BaselineAdversary,
    FlowKnowledge,
    ModelBasedAdversary,
    NaiveAdversary,
    PathAwareAdaptiveAdversary,
)
from repro.core.bayes import EmpiricalBayesAdversary, erlang_path_delay_pdf
from repro.core.buffers import (
    AdmissionOutcome,
    BufferedEntry,
    DropTailBuffer,
    InfiniteBuffer,
    PacketBuffer,
    RcadBuffer,
)
from repro.core.delays import (
    ConstantDelay,
    DelayDistribution,
    ErlangDelay,
    ExponentialDelay,
    ParetoDelay,
    UniformDelay,
)
from repro.core.metrics import FlowMetrics, LatencyStats, summarize_flow
from repro.core.optimizer import (
    OptimizedAllocation,
    VarianceOptimalPlanner,
    optimize_path_delays,
)
from repro.core.planner import (
    DelayPlan,
    ErlangTargetPlanner,
    SinkWeightedPlanner,
    UniformPlanner,
)
from repro.core.privacy_core import CoreAction, CoreDecision, TemporalPrivacyCore
from repro.core.victim import (
    LongestRemainingDelay,
    NewestArrival,
    OldestArrival,
    RandomVictim,
    ShortestRemainingDelay,
    VictimPolicy,
)

__all__ = [
    "DelayDistribution",
    "ExponentialDelay",
    "UniformDelay",
    "ConstantDelay",
    "ErlangDelay",
    "ParetoDelay",
    "PacketBuffer",
    "InfiniteBuffer",
    "DropTailBuffer",
    "RcadBuffer",
    "BufferedEntry",
    "AdmissionOutcome",
    "VictimPolicy",
    "ShortestRemainingDelay",
    "LongestRemainingDelay",
    "RandomVictim",
    "OldestArrival",
    "NewestArrival",
    "Adversary",
    "NaiveAdversary",
    "BaselineAdversary",
    "AdaptiveAdversary",
    "PathAwareAdaptiveAdversary",
    "ModelBasedAdversary",
    "EmpiricalBayesAdversary",
    "erlang_path_delay_pdf",
    "FlowKnowledge",
    "FlowMetrics",
    "LatencyStats",
    "summarize_flow",
    "DelayPlan",
    "UniformPlanner",
    "SinkWeightedPlanner",
    "ErlangTargetPlanner",
    "VarianceOptimalPlanner",
    "OptimizedAllocation",
    "optimize_path_delays",
    "CoreAction",
    "CoreDecision",
    "TemporalPrivacyCore",
]
