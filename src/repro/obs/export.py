"""Exporters for observability data: OpenMetrics text, Chrome trace, JSONL.

The renderer half turns a :class:`~repro.obs.metrics.MetricsRegistry`
into OpenMetrics / Prometheus exposition text; the ``repro serve``
``GET /metrics`` endpoint is exactly the promised ten-line adapter over
:func:`render_openmetrics` (see :meth:`repro.serve.AnalysisServer`).  The parser half
(:func:`parse_openmetrics`) exists for round-trip validation in tests
and for downstream tooling that wants the samples back without a
Prometheus client library.

Dotted internal metric names are mangled deterministically
(``dca.schedule_executions`` → ``repro_dca_schedule_executions``), and
dimensional name families — counters whose last dotted segment is an
open-ended label such as ``static.verdict.<verdict>`` — collapse into a
single family with a label (``repro_static_verdict_total{verdict="..."}``)
per the :data:`LABEL_RULES` table, which keeps the exposition's
family count stable as programs exercise new verdicts or backends.

Stdlib-only by design — enforced by ``tools/check_obs_stdlib.py`` in CI.
"""

from __future__ import annotations

import json
import re
from typing import Dict, List, Optional, Tuple

__all__ = [
    "LABEL_RULES",
    "mangle_metric_name",
    "parse_openmetrics",
    "render_export",
    "render_openmetrics",
]

#: Prefix stamped onto every exported family.
METRIC_PREFIX = "repro_"

#: Dimensional name families: ``(dotted prefix, label key)``.  A metric
#: whose dotted name starts with the prefix exports as one family named
#: after the prefix, with the remainder of the name as the label value.
LABEL_RULES: Tuple[Tuple[str, str], ...] = (
    ("static.verdict.", "verdict"),
    ("batch.outcome.", "status"),
    ("exec.fallback.", "reason"),
    ("exec.backend.", "backend"),
    ("liveout.canonicalize.", "result"),
    ("serve.requests.", "endpoint"),
    ("serve.responses.", "code"),
)

_INVALID_CHARS = re.compile(r"[^a-zA-Z0-9_:]")
_HELP_TEXT = {
    "counter": "Monotonic counter recorded by the repro pipeline.",
    "gauge": "Last-set gauge recorded by the repro pipeline.",
    "summary": "Streaming summary recorded by the repro pipeline.",
}


def mangle_metric_name(name: str) -> str:
    """Deterministic internal-name → exposition-name mangling."""
    mangled = _INVALID_CHARS.sub("_", name)
    if not mangled.startswith(METRIC_PREFIX):
        mangled = METRIC_PREFIX + mangled
    return mangled


def _split_labels(name: str) -> Tuple[str, Dict[str, str]]:
    """Resolve a dotted metric name to ``(family, labels)``."""
    for prefix, label in LABEL_RULES:
        if name.startswith(prefix) and len(name) > len(prefix):
            return mangle_metric_name(prefix.rstrip(".")), {label: name[len(prefix):]}
    return mangle_metric_name(name), {}


def _escape_label_value(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_labels(labels: Dict[str, str]) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{key}="{_escape_label_value(str(value))}"'
        for key, value in sorted(labels.items())
    )
    return "{" + inner + "}"


def _format_value(value) -> str:
    if isinstance(value, bool):  # bools are ints; be explicit
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


class _Family:
    """One metric family being assembled: TYPE + samples."""

    __slots__ = ("name", "kind", "samples")

    def __init__(self, name: str, kind: str):
        self.name = name
        self.kind = kind
        #: ``(sample_name, labels, value)`` in insertion order.
        self.samples: List[Tuple[str, Dict[str, str], object]] = []


def render_openmetrics(registry) -> str:
    """Render a :class:`MetricsRegistry` as OpenMetrics exposition text.

    Counters export with the ``_total`` sample suffix, gauges export
    verbatim, histograms export as ``summary`` families (``_count`` +
    ``_sum`` samples) with companion ``_min`` / ``_max`` gauge families
    when observed.  Output ends with the mandatory ``# EOF`` marker.
    """
    payload = registry.to_dict()
    families: Dict[str, _Family] = {}

    def family(name: str, kind: str) -> _Family:
        fam = families.get(name)
        if fam is None:
            fam = families[name] = _Family(name, kind)
        elif fam.kind != kind:
            raise ValueError(
                f"metric family {name!r} rendered as both "
                f"{fam.kind} and {kind}"
            )
        return fam

    for name, value in payload.get("counters", {}).items():
        fam_name, labels = _split_labels(name)
        if fam_name.endswith("_total"):
            fam_name = fam_name[: -len("_total")]
        family(fam_name, "counter").samples.append(
            (fam_name + "_total", labels, value)
        )
    for name, value in payload.get("gauges", {}).items():
        fam_name, labels = _split_labels(name)
        family(fam_name, "gauge").samples.append((fam_name, labels, value))
    for name, summary in payload.get("histograms", {}).items():
        fam_name, labels = _split_labels(name)
        fam = family(fam_name, "summary")
        fam.samples.append((fam_name + "_count", labels, summary.get("count", 0)))
        fam.samples.append((fam_name + "_sum", labels, summary.get("sum", 0.0)))
        for bound in ("min", "max"):
            if summary.get(bound) is None:
                continue
            family(f"{fam_name}_{bound}", "gauge").samples.append(
                (f"{fam_name}_{bound}", labels, summary[bound])
            )

    lines: List[str] = []
    for fam_name in sorted(families):
        fam = families[fam_name]
        lines.append(f"# HELP {fam_name} {_HELP_TEXT[fam.kind]}")
        lines.append(f"# TYPE {fam_name} {fam.kind}")
        for sample_name, labels, value in sorted(
            fam.samples, key=lambda s: (s[0], sorted(s[1].items()))
        ):
            lines.append(
                f"{sample_name}{_format_labels(labels)} {_format_value(value)}"
            )
    lines.append("# EOF")
    return "\n".join(lines) + "\n"


# -- parsing (round-trip validation and downstream tooling) -------------------

_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r" (?P<value>[^ ]+)$"
)
_LABEL_RE = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


_ESCAPE_RE = re.compile(r"\\(.)")
_UNESCAPES = {"n": "\n", '"': '"', "\\": "\\"}


def _unescape_label_value(value: str) -> str:
    # Single pass: sequential str.replace would corrupt an escaped
    # backslash followed by a literal ``n`` into a newline.
    return _ESCAPE_RE.sub(
        lambda m: _UNESCAPES.get(m.group(1), "\\" + m.group(1)), value
    )


def parse_openmetrics(text: str) -> Dict[str, Dict[str, object]]:
    """Parse exposition text back into families.

    Returns ``{family: {"type": kind, "help": str, "samples":
    [(sample_name, labels, value), ...]}}`` and raises :class:`ValueError`
    on malformed lines, an out-of-family sample, or a missing ``# EOF``
    terminator — strict enough that tests can use it to validate
    :func:`render_openmetrics` output.
    """
    families: Dict[str, Dict[str, object]] = {}
    saw_eof = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.rstrip()
        if not line:
            continue
        if saw_eof:
            raise ValueError(f"line {lineno}: content after # EOF")
        if line == "# EOF":
            saw_eof = True
            continue
        if line.startswith("# HELP ") or line.startswith("# TYPE "):
            try:
                _, keyword, name, rest = line.split(" ", 3)
            except ValueError as exc:
                raise ValueError(f"line {lineno}: malformed {line!r}") from exc
            fam = families.setdefault(
                name, {"type": None, "help": "", "samples": []}
            )
            if keyword == "HELP":
                fam["help"] = rest
            else:
                if rest not in ("counter", "gauge", "summary", "histogram"):
                    raise ValueError(f"line {lineno}: unknown type {rest!r}")
                fam["type"] = rest
            continue
        if line.startswith("#"):
            raise ValueError(f"line {lineno}: unexpected comment {line!r}")
        match = _SAMPLE_RE.match(line)
        if match is None:
            raise ValueError(f"line {lineno}: malformed sample {line!r}")
        sample_name = match.group("name")
        fam_name = _owning_family(sample_name, families)
        if fam_name is None:
            raise ValueError(
                f"line {lineno}: sample {sample_name!r} precedes its "
                "family's # TYPE line"
            )
        labels: Dict[str, str] = {}
        raw_labels = match.group("labels")
        if raw_labels:
            consumed = 0
            for lm in _LABEL_RE.finditer(raw_labels):
                labels[lm.group(1)] = _unescape_label_value(lm.group(2))
                consumed = lm.end()
            leftovers = raw_labels[consumed:].strip(", ")
            if leftovers:
                raise ValueError(
                    f"line {lineno}: malformed labels {raw_labels!r}"
                )
        try:
            value = float(match.group("value"))
        except ValueError as exc:
            raise ValueError(
                f"line {lineno}: malformed value {match.group('value')!r}"
            ) from exc
        families[fam_name]["samples"].append((sample_name, labels, value))
    if not saw_eof:
        raise ValueError("missing # EOF terminator")
    return families


def _owning_family(sample_name: str, families: Dict) -> Optional[str]:
    """Longest declared family that the sample name belongs to."""
    if sample_name in families:
        return sample_name
    for suffix in ("_total", "_count", "_sum", "_bucket"):
        if sample_name.endswith(suffix):
            base = sample_name[: -len(suffix)]
            if base in families:
                return base
    return None


# -- unified export dispatch --------------------------------------------------

EXPORT_FORMATS = ("openmetrics", "chrome-trace", "jsonl")


def render_export(ctx, fmt: str) -> str:
    """Render one observability context in the named export format.

    ``openmetrics`` exposes the metrics registry; ``chrome-trace`` the
    span forest as Chrome trace-event JSON; ``jsonl`` the full context —
    one typed JSON object per line (``span`` / ``counter`` / ``gauge`` /
    ``histogram`` / ``event``) — for log shippers.  ``ctx`` is
    duck-typed (anything with ``tracer`` / ``metrics`` / ``events``), so
    this module keeps its dependency arrow pointing into ``repro.obs``.
    """
    if fmt == "openmetrics":
        return render_openmetrics(ctx.metrics)
    if fmt == "chrome-trace":
        return json.dumps(ctx.tracer.to_chrome_trace(), indent=2, sort_keys=True)
    if fmt == "jsonl":
        lines: List[str] = []
        for rec in ctx.tracer.spans:
            lines.append(
                json.dumps(
                    {
                        "type": "span",
                        "name": rec.name,
                        "path": list(rec.path),
                        "start_us": round(rec.start_us, 3),
                        "dur_us": round(rec.dur_us, 3),
                        "lane": rec.lane,
                        "args": dict(rec.args),
                    },
                    sort_keys=True,
                )
            )
        payload = ctx.metrics.to_dict()
        for kind in ("counters", "gauges"):
            for name, value in payload.get(kind, {}).items():
                lines.append(
                    json.dumps(
                        {"type": kind[:-1], "name": name, "value": value},
                        sort_keys=True,
                    )
                )
        for name, summary in payload.get("histograms", {}).items():
            lines.append(
                json.dumps(
                    {"type": "histogram", "name": name, **summary},
                    sort_keys=True,
                )
            )
        for event in ctx.events.events:
            lines.append(json.dumps({"type": "event", **event.to_dict()}))
        return "\n".join(lines) + ("\n" if lines else "")
    raise ValueError(
        f"unknown export format {fmt!r}; expected one of {EXPORT_FORMATS}"
    )
