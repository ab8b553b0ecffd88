"""``repro.settings``: one precedence rule and one spelling rule for
every ``REPRO_*`` variable, and the guard that keeps every environment
read inside that module."""

import ast
import os
from pathlib import Path

import pytest

from repro.settings import SETTINGS, resolve

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

HOME = os.path.expanduser("~")

#: setting -> (default, explicit value, env text, parsed env value,
#: invalid env text or None when every text is valid).
CASES = {
    "cache_dir": (None, "/flag", "~/env", f"{HOME}/env", None),
    "codegen_cache_dir": (None, "/flag", " ~/cg ", f"{HOME}/cg", None),
    "ledger_dir": (None, "/flag", "~/ledger", f"{HOME}/ledger", None),
    "exec_backend": ("codegen", "codegen", " interp ", "interp", "compiled"),
    "schedule_backend": ("serial", "serial", "process", "process", "threads"),
    "schedule_jobs": (None, 1, "3", 3, "four"),
    "specs": (False, False, "YES", True, "2"),
    "tiering": (False, False, "On", True, "2"),
    "serve_host": ("127.0.0.1", "10.0.0.1", "0.0.0.0", "0.0.0.0", None),
    "serve_port": (8421, 1234, "9000", 9000, "abc"),
    "serve_queue_depth": (64, 5, "7", 7, "seven"),
    "serve_workers": (4, 1, "2", 2, "four"),
    "serve_priority": (10, 0, "3", 3, "low"),
}


def test_every_row_has_a_case():
    assert set(CASES) == set(SETTINGS)
    assert len({row.env for row in SETTINGS.values()}) == len(SETTINGS)


@pytest.mark.parametrize("name", sorted(CASES))
def test_precedence_and_spelling(name):
    default, explicit, text, value, bad = CASES[name]
    env = SETTINGS[name].env
    assert resolve(name, environ={}) == default
    # Blank means unset.
    assert resolve(name, environ={env: "  "}) == default
    # Env beats default; explicit beats env.
    assert resolve(name, environ={env: text}) == value
    assert resolve(name, explicit, environ={env: text}) == explicit
    if bad is not None:
        with pytest.raises(ValueError, match=f"^{env} must be .*{bad!r}"):
            resolve(name, environ={env: bad})
        # A bad env value never matters when an explicit value is given.
        assert resolve(name, explicit, environ={env: bad}) == explicit


@pytest.mark.parametrize("name", ["specs", "tiering"])
def test_boolean_spellings(name):
    env = SETTINGS[name].env
    for word in ("1", "true", "YES", " on "):
        assert resolve(name, environ={env: word}) is True
    for word in ("0", "False", "no", "OFF"):
        assert resolve(name, environ={env: word}) is False


def test_former_spellings_are_errors():
    # REPRO_SPECS=2 used to enable specs and REPRO_TIERING=2 used to
    # leave tiering off; REPRO_SCHEDULE_JOBS=four failed without naming
    # the variable.
    for name, env, text in [
        ("specs", "REPRO_SPECS", "2"),
        ("tiering", "REPRO_TIERING", "2"),
        ("schedule_jobs", "REPRO_SCHEDULE_JOBS", "four"),
    ]:
        with pytest.raises(ValueError, match=env):
            resolve(name, environ={env: text})


def test_derived_defaults():
    # jobs > 1 from the environment implies the process backend, unless
    # the backend variable says otherwise.
    assert resolve(
        "schedule_backend", environ={"REPRO_SCHEDULE_JOBS": "2"}
    ) == "process"
    assert resolve(
        "schedule_backend", environ={"REPRO_SCHEDULE_JOBS": "1"}
    ) == "serial"
    assert resolve(
        "schedule_backend",
        environ={"REPRO_SCHEDULE_JOBS": "2", "REPRO_SCHEDULE_BACKEND": "serial"},
    ) == "serial"
    # Codegen artifacts default to <REPRO_CACHE_DIR>/codegen.
    assert resolve(
        "codegen_cache_dir", environ={"REPRO_CACHE_DIR": "/c"}
    ) == os.path.join("/c", "codegen")
    assert resolve(
        "codegen_cache_dir",
        environ={"REPRO_CACHE_DIR": "/c", "REPRO_CODEGEN_CACHE_DIR": "/g"},
    ) == "/g"


@pytest.mark.parametrize("name", ["cache_dir", "codegen_cache_dir", "ledger_dir"])
def test_explicit_paths_expand_and_blank_disables(name):
    env = SETTINGS[name].env
    assert resolve(name, "~/x", environ={}) == f"{HOME}/x"
    assert resolve(name, "", environ={env: "/env"}) is None


def _environment_reads(tree):
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "os"
            and node.attr in ("environ", "getenv", "environb", "getenvb")
        ):
            yield node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            if any(a.name.startswith(("environ", "getenv")) for a in node.names):
                yield node.lineno


def test_only_settings_reads_the_environment():
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for line in _environment_reads(tree):
            offenders.append(f"{path.relative_to(SRC)}:{line}")
    assert offenders and all(
        o.startswith("settings.py:") for o in offenders
    ), offenders
