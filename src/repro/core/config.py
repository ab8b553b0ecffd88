"""``repro.core.config`` — the one carrier of analysis settings.

:class:`AnalysisConfig` is a frozen value object holding every knob the
pipeline accepts.  It alone validates them, resolves the
environment-backed ones (:meth:`AnalysisConfig.resolved`, through the
one table in :mod:`repro.settings`) and derives the persistent cache's
config fingerprint (:meth:`AnalysisConfig.fingerprint`).
:class:`~repro.core.dca.DcaAnalyzer` is built from one, and
:mod:`repro.api` re-exports it for embedders.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.analysis.sccdag import DEFAULT_MAX_PIPELINE_STAGES
from repro.analysis.specs import default_registry
from repro.cache import keys
from repro.core.schedule_engine import resolve_schedule_backend
from repro.core.schedules import ScheduleConfig, schedule_from_name
from repro.interp.compiler import EXEC_BACKENDS
from repro.settings import SETTINGS, resolve

__all__ = ["AnalysisConfig"]


@dataclass(frozen=True)
class AnalysisConfig:
    """Immutable description of one analysis configuration.

    Build variants with :meth:`replace`; equality and hashing follow
    value semantics, so configs can key dictionaries and memo tables.
    """

    #: Entry function and its arguments (the workload).
    entry: str = "main"
    args: Tuple[object, ...] = ()
    #: Float tolerance for live-out comparison.
    rtol: float = 1e-9
    #: "strict" compares live-outs at every loop exit; "eventual" only
    #: the final observable outcome.
    liveout_policy: str = "strict"
    #: Pre-screen loops with the static commutativity prover.
    static_filter: bool = True
    #: Interpreter step budget (None derives one from the golden run).
    max_steps: Optional[int] = None
    #: Schedule preset: either an explicit :class:`ScheduleConfig`, or
    #: the paper's default preset parameterized by these two knobs.
    schedules: Optional[ScheduleConfig] = None
    n_random_schedules: int = 2
    schedule_seed: int = 0xDCA
    #: Restrict analysis to these loop labels (None analyzes all).
    candidate_labels: Optional[Tuple[str, ...]] = None
    #: Schedule-execution backend ("serial"/"process") and worker count;
    #: None defers to the environment, then the defaults.
    backend: Optional[str] = None
    jobs: Optional[int] = None
    #: Execution backend (one of
    #: :data:`repro.interp.compiler.EXEC_BACKENDS`); None defers to
    #: ``REPRO_EXEC_BACKEND``, then ``codegen``.
    exec_backend: Optional[str] = None
    #: Persistent cache directory (None defers to ``REPRO_CACHE_DIR``,
    #: then disabled) and mode ("rw", "ro", "refresh", or "off").
    cache_dir: Optional[str] = None
    cache_mode: str = "rw"
    #: Commutativity specs (verification modulo declared equivalence;
    #: see :mod:`repro.analysis.specs`).  None defers to ``REPRO_SPECS``
    #: (default: off); True/False force the built-in registry on or off.
    specs: Optional[bool] = None
    #: Run-ledger directory (None defers to ``REPRO_LEDGER_DIR``, then
    #: disabled; the explicit value "off" disables even over the
    #: environment).  Session entry points append one headline row per
    #: run (see :mod:`repro.obs.ledger` and ``repro stats``).
    ledger_dir: Optional[str] = None
    #: Parallelization tiering (DOALL/REDUCTION/PIPELINE/SEQUENTIAL per
    #: loop; see :mod:`repro.analysis.sccdag`).  None defers to
    #: ``REPRO_TIERING`` (default: off); True/False force it.  When on,
    #: reports serialize under ``report_schema_version`` 2.
    tiering: Optional[bool] = None
    #: Upper bound on DSWP pipeline stages per loop (>= 2).
    max_pipeline_stages: int = DEFAULT_MAX_PIPELINE_STAGES

    def __post_init__(self) -> None:
        if self.liveout_policy not in ("strict", "eventual"):
            raise ValueError(
                f"unknown liveout policy {self.liveout_policy!r}"
            )
        if self.cache_mode not in ("rw", "ro", "refresh", "off"):
            raise ValueError(f"unknown cache mode {self.cache_mode!r}")
        if self.backend not in (None,) + SETTINGS["schedule_backend"].choices:
            raise ValueError(f"unknown schedule backend {self.backend!r}")
        # Validate against the backend registry, not a local copy: the
        # explicit field must accept exactly what REPRO_EXEC_BACKEND
        # accepts, or the documented explicit-beats-env precedence
        # silently inverts for backends missing from the copy.
        if self.exec_backend is not None and self.exec_backend not in EXEC_BACKENDS:
            raise ValueError(f"unknown exec backend {self.exec_backend!r}")
        if self.max_pipeline_stages < 2:
            raise ValueError("max_pipeline_stages must be >= 2")
        # Frozen dataclasses hash by field tuple; normalize silently
        # mutable aliases so value semantics hold.
        if isinstance(self.args, list):
            object.__setattr__(self, "args", tuple(self.args))
        if isinstance(self.candidate_labels, list):
            object.__setattr__(
                self, "candidate_labels", tuple(self.candidate_labels)
            )

    def replace(self, **changes) -> "AnalysisConfig":
        """A copy of this config with the given fields changed."""
        return dataclasses.replace(self, **changes)

    # -- resolution (explicit > environment > default) --------------------

    def schedule_config(self) -> ScheduleConfig:
        if self.schedules is not None:
            return self.schedules
        return ScheduleConfig.default(
            n_random=self.n_random_schedules, seed=self.schedule_seed
        )

    def schedule_names(self) -> List[str]:
        """Canonical schedule names: identity plus the testing set."""
        return ["identity"] + [
            s.name for s in self.schedule_config().testing_schedules()
        ]

    def resolved(self) -> "AnalysisConfig":
        """This config with every environment-backed field decided
        (explicit field > ``REPRO_*`` variable > default, per
        :mod:`repro.settings`).  ``backend``/``jobs`` follow
        :func:`~repro.core.schedule_engine.resolve_schedule_backend`;
        ``cache_mode="off"`` and ``ledger_dir="off"`` beat the
        environment, and a disabled directory resolves to None."""
        backend, jobs = resolve_schedule_backend(self.backend, self.jobs)
        return self.replace(
            backend=backend,
            jobs=jobs,
            exec_backend=resolve("exec_backend", self.exec_backend),
            cache_dir=(
                None
                if self.cache_mode == "off"
                else resolve("cache_dir", self.cache_dir)
            ),
            ledger_dir=(
                None
                if self.ledger_dir == "off"
                else resolve("ledger_dir", self.ledger_dir)
            ),
            specs=resolve("specs", self.specs),
            tiering=resolve("tiering", self.tiering),
        )

    def cache_key(self) -> Tuple[str, Dict[str, object]]:
        """``(fingerprint, description)``: the config-fingerprint
        component of the persistent cache key and the JSON description
        it hashes (see :mod:`repro.cache.keys`), which the cache stores
        beside each entry.  Covers only verdict-relevant settings —
        backends, jobs, observability and cache policy are excluded,
        matching the report byte-identity contract across those axes."""
        description = keys.fingerprint_description(
            self.schedule_names(),
            rtol=self.rtol,
            liveout_policy=self.liveout_policy,
            static_filter=self.static_filter,
            max_steps=self.max_steps,
            candidate_labels=self.candidate_labels,
            specs=(
                default_registry().digest()
                if resolve("specs", self.specs)
                else None
            ),
            tiering=(
                {"max_pipeline_stages": self.max_pipeline_stages}
                if resolve("tiering", self.tiering)
                else None
            ),
        )
        return keys.config_fingerprint(description), description

    def fingerprint(self) -> str:
        """The config-fingerprint component of the cache key."""
        return self.cache_key()[0]

    def fingerprint_description(self) -> Dict[str, object]:
        """The dict :meth:`fingerprint` hashes and the cache stores."""
        return self.cache_key()[1]

    @classmethod
    def from_description(
        cls, description: Dict[str, object], **fields
    ) -> "AnalysisConfig":
        """The config a stored description was made from, plus
        ``fields`` (the workload's ``entry``/``args``).  Specs and
        tiering are on exactly when the description names them, never
        taken from the environment.  Only the built-in spec registry
        can be rebuilt, so callers compare the result's
        :meth:`fingerprint` with the stored one."""
        labels = description["candidate_labels"]
        tiering = description.get("tiering")
        return cls(
            schedules=ScheduleConfig(
                [schedule_from_name(n) for n in description["schedules"]]
            ),
            rtol=float(description["rtol"]),
            liveout_policy=description["liveout_policy"],
            static_filter=description["static_filter"],
            max_steps=description["max_steps"],
            candidate_labels=None if labels is None else tuple(labels),
            specs="specs" in description,
            tiering=tiering is not None,
            max_pipeline_stages=(tiering or {}).get(
                "max_pipeline_stages", DEFAULT_MAX_PIPELINE_STAGES
            ),
            **fields,
        )
