"""Permutation schedules (paper §IV-B2).

Exhaustively testing all ``n!`` iteration orders is infeasible, so DCA
ships *reduced permutation presets*: the identity order (which doubles as
the transformation-sanity check), the reverse order, and a configurable
number of seeded random shuffles.  The schedule-adequacy ablation bench
(`benchmarks/test_schedule_ablation.py`) quantifies the residual risk of
this trade-off.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Sequence, Tuple


class Schedule:
    """A family of permutations, one per trip count.

    Names are self-describing (see :func:`schedule_from_name`), so
    schedules compare and hash by name.
    """

    name = "abstract"

    def permutation(self, n: int) -> List[int]:
        """A permutation of ``range(n)``."""
        raise NotImplementedError

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Schedule):
            return NotImplemented
        return self.name == other.name

    def __hash__(self) -> int:
        return hash(self.name)

    def __repr__(self) -> str:
        return f"<schedule {self.name}>"


class IdentitySchedule(Schedule):
    """Original program order; used as the transformation sanity check."""

    name = "identity"

    def permutation(self, n: int) -> List[int]:
        return list(range(n))


class ReverseSchedule(Schedule):
    name = "reverse"

    def permutation(self, n: int) -> List[int]:
        return list(range(n - 1, -1, -1))


class RandomSchedule(Schedule):
    """A seeded Fisher-Yates shuffle; deterministic per (seed, n)."""

    def __init__(self, seed: int):
        self.seed = seed
        self.name = f"random{seed}"

    def permutation(self, n: int) -> List[int]:
        order = list(range(n))
        random.Random(f"{self.seed}:{n}").shuffle(order)
        return order


class EvenOddSchedule(Schedule):
    """Even iterations first, then odd — a deterministic interleave killer.

    Not part of the paper's presets; used by the schedule ablation to show
    the effect of adding structured permutations.
    """

    name = "evenodd"

    def permutation(self, n: int) -> List[int]:
        return list(range(0, n, 2)) + list(range(1, n, 2))


class RotationSchedule(Schedule):
    """Cyclic rotation by ``k`` — the weakest non-identity disturbance."""

    def __init__(self, k: int = 1):
        self.k = k
        self.name = f"rotate{k}"

    def permutation(self, n: int) -> List[int]:
        if n == 0:
            return []
        k = self.k % n
        return list(range(k, n)) + list(range(0, k))


@dataclass(frozen=True)
class ScheduleConfig:
    """The preset used by a DCA run: an immutable value, so analysis
    configs holding one compare and hash by value."""

    schedules: Tuple[Schedule, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "schedules", tuple(self.schedules))

    @staticmethod
    def default(n_random: int = 2, seed: int = 0xDCA) -> "ScheduleConfig":
        """The paper's preset: identity + reverse + random shuffles."""
        schedules: List[Schedule] = [IdentitySchedule(), ReverseSchedule()]
        for i in range(n_random):
            schedules.append(RandomSchedule(seed + i))
        return ScheduleConfig(schedules)

    @staticmethod
    def identity_only() -> "ScheduleConfig":
        return ScheduleConfig([IdentitySchedule()])

    def testing_schedules(self) -> List[Schedule]:
        """Schedules other than identity (identity runs first, always)."""
        return [s for s in self.schedules if not isinstance(s, IdentitySchedule)]


def schedule_from_name(name: str) -> Schedule:
    """Rebuild a schedule from its recorded name.

    Schedule names are self-describing (``random<seed>`` / ``rotate<k>``
    carry their parameters), which makes a preset reconstructible from
    the name list alone — the property the persistent analysis cache
    relies on to re-execute cached loops during ``repro cache verify``.
    """
    if name == "identity":
        return IdentitySchedule()
    if name == "reverse":
        return ReverseSchedule()
    if name == "evenodd":
        return EvenOddSchedule()
    if name.startswith("random") and name[len("random"):].isdigit():
        return RandomSchedule(int(name[len("random"):]))
    if name.startswith("rotate") and name[len("rotate"):].isdigit():
        return RotationSchedule(int(name[len("rotate"):]))
    raise ValueError(f"unknown schedule name {name!r}")


def is_valid_permutation(order: Sequence[int], n: int) -> bool:
    """Invariant checked by property tests: ``order`` permutes ``range(n)``."""
    return len(order) == n and sorted(order) == list(range(n))
