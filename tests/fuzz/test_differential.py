"""Differential fuzz smoke: fixed seeds through the full harness.

Every seed's program runs through serial DCA, process DCA, and the
static prover, and its dependence profile runs on the interpreter and
on codegen's profiled lowering; any verdict, report or profile
divergence fails the test with the generated source attached for
reproduction.  CI runs this as the
``fuzz-smoke`` job; raise the seed count locally with
``REPRO_FUZZ_SEEDS=500 pytest tests/fuzz/test_differential.py``.
"""

import os

import pytest

from diffharness import (
    cache_differential_check,
    differential_check,
    profile_parity_check,
    specs_soundness_check,
    tier_map,
    tiering_differential_check,
)
from fuzzgen import ARCHETYPES, generate_program

SEED_COUNT = int(os.environ.get("REPRO_FUZZ_SEEDS", "25"))
CACHE_SEED_COUNT = int(os.environ.get("REPRO_FUZZ_CACHE_SEEDS", "10"))
TIER_SEED_COUNT = int(os.environ.get("REPRO_FUZZ_TIER_SEEDS", "10"))


@pytest.mark.parametrize("seed", range(SEED_COUNT))
def test_differential_seed(seed):
    problems = differential_check(seed=seed)
    assert not problems, (
        f"seed {seed} diverged:\n"
        + "\n".join(problems)
        + "\n--- program ---\n"
        + generate_program(seed)
    )


@pytest.mark.parametrize("seed", range(SEED_COUNT))
def test_profile_parity_seed(seed):
    problems = profile_parity_check(seed=seed)
    assert not problems, (
        f"seed {seed} profile divergence:\n"
        + "\n".join(problems)
        + "\n--- program ---\n"
        + generate_program(seed)
    )


@pytest.mark.parametrize("seed", range(CACHE_SEED_COUNT))
def test_cache_differential_seed(seed, tmp_path):
    problems = cache_differential_check(str(tmp_path), seed=seed)
    assert not problems, (
        f"seed {seed} cache divergence:\n"
        + "\n".join(problems)
        + "\n--- program ---\n"
        + generate_program(seed)
    )


@pytest.mark.parametrize("seed", range(SEED_COUNT))
def test_specs_soundness_seed(seed):
    problems = specs_soundness_check(seed=seed)
    assert not problems, (
        f"seed {seed} specs soundness violation:\n"
        + "\n".join(problems)
        + "\n--- program ---\n"
        + generate_program(seed)
    )


@pytest.mark.parametrize("seed", range(TIER_SEED_COUNT))
def test_tiering_differential_seed(seed):
    problems = tiering_differential_check(seed=seed)
    assert not problems, (
        f"seed {seed} tiering divergence:\n"
        + "\n".join(problems)
        + "\n--- program ---\n"
        + generate_program(seed)
    )


def test_pipeline_archetypes_tier_as_pipeline():
    # At least one generated program in the smoke range must contain a
    # non-commutative loop promoted to PIPELINE — the outcome the
    # pipeline_* archetypes exist to exercise.
    for seed in range(60):
        source = generate_program(seed)
        if "pipeline_" not in source.splitlines()[0]:
            continue
        tiers = tier_map(source)
        if any(entry["tier"] == "PIPELINE" and entry["stages"] >= 2
               for entry in tiers.values()):
            return
    raise AssertionError(
        "no pipeline-archetype program tiered PIPELINE in seeds 0..59"
    )


def test_spec_archetypes_only_commutative_under_specs():
    # At least one generated program in the smoke range must contain a
    # loop that byte-exact verification rejects and spec-relaxed
    # verification accepts — the divergence the registry exists for.
    import repro.obs as obs
    from repro.api import AnalysisConfig
    from repro.core.dca import DcaAnalyzer
    from repro.driver import compile_program

    def zero():
        return 0.0

    for seed in range(60):
        source = generate_program(seed)
        header = source.splitlines()[0]
        if not any(name in header
                   for name in ("bag_insert", "set_insert")):
            continue
        with obs.disabled(clock=zero):
            off = DcaAnalyzer(
                compile_program(source),
                AnalysisConfig(
                    static_filter=False, backend="serial", specs=False,
                ),
            ).analyze()
            on = DcaAnalyzer(
                compile_program(source),
                AnalysisConfig(
                    static_filter=False, backend="serial", specs=True,
                ),
            ).analyze()
        flipped = [
            label for label in off.results
            if not off.results[label].is_commutative
            and on.results[label].is_commutative
        ]
        if flipped:
            return
    raise AssertionError(
        "no spec-archetype program flipped a loop in seeds 0..59"
    )


def test_generator_is_deterministic():
    for seed in (0, 7, 123):
        assert generate_program(seed) == generate_program(seed)


def test_generator_covers_archetypes():
    # Across a modest seed range every archetype should appear at least
    # once — guards against a weight or name falling out of rotation.
    seen = set()
    for seed in range(120):
        header = generate_program(seed).splitlines()[0]
        for name, _ in ARCHETYPES:
            if name in header:
                seen.add(name)
    missing = {name for name, _ in ARCHETYPES} - seen
    assert not missing, f"archetypes never generated: {missing}"
