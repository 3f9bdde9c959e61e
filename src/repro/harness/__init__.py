"""Experiment harness: one entry point per paper table/figure."""

from ..faults.campaign import ThroughputRecord
from .cache import ArtifactCache
from .diff import (DiffOutcome, Divergence, FuzzCase, FuzzReport,
                   build_case, lockstep_diff, run_case, run_corpus)
from .experiment import (SCALES, SCHEMES, ExperimentConfig,
                         ExperimentContext, FaultFreeRun, scheme_unit)
from .parallel import ContextMetrics, ParallelExecutor
from .spec import (SpecError, compile_file, compile_spec, load_run,
                   load_spec, task_argv, task_key)
from .supervisor import (CampaignAborted, CampaignJournal, EXIT_ABORTED,
                         EXIT_COMPLETE, EXIT_QUARANTINE, PhaseReport,
                         QuarantineRecord, Supervisor, SupervisorPolicy,
                         summarize_run_dir)
from . import figures

__all__ = [
    "ArtifactCache",
    "CampaignAborted",
    "CampaignJournal",
    "ContextMetrics",
    "DiffOutcome",
    "Divergence",
    "EXIT_ABORTED",
    "EXIT_COMPLETE",
    "EXIT_QUARANTINE",
    "ExperimentConfig",
    "ExperimentContext",
    "FaultFreeRun",
    "FuzzCase",
    "FuzzReport",
    "ParallelExecutor",
    "PhaseReport",
    "QuarantineRecord",
    "SCALES",
    "SCHEMES",
    "SpecError",
    "Supervisor",
    "SupervisorPolicy",
    "ThroughputRecord",
    "build_case",
    "compile_file",
    "compile_spec",
    "lockstep_diff",
    "load_run",
    "load_spec",
    "run_case",
    "run_corpus",
    "scheme_unit",
    "summarize_run_dir",
    "task_argv",
    "task_key",
    "figures",
]
