"""The telemetry plane: metrics registry, spans, audit log, exporters.

One :class:`Telemetry` object per run (``ctx.telemetry``) bundles:

* :class:`MetricsRegistry` -- the run-wide metrics namespace
  (owned counters/gauges/histograms plus zero-cost bound producers);
* :class:`SpanTimer` -- phase timing via ``with telemetry.span(name)``,
  with wall-time and event-count attribution;
* :class:`RecordLog` / :class:`AuditLog` -- the deterministic structured
  record stream, including every DLM promotion/demotion evaluation;
* exporters -- JSONL (``repro trace`` / ``repro stats`` / ``jq``) and
  Chrome-trace/Perfetto JSON.

Disabled runs wire the :data:`NULL_TELEMETRY` singleton: attribute-
compatible, allocation-free, and guaranteed not to perturb the run
(telemetry never draws sim RNG and never schedules events).  See
DESIGN.md §7 for the full contract.
"""

from .config import AUDIT_LEVELS, TelemetryConfig
from .export import export_run, iter_jsonl, write_chrome_trace, write_jsonl
from .plane import (
    NULL_TELEMETRY,
    NullTelemetry,
    Telemetry,
    attach_transport_trace,
    bind_standard_producers,
    telemetry_from_config,
)
from .progress import ProgressReporter
from .records import (
    HEALTH_FIELDS,
    SCHEMAS,
    AuditLog,
    RecordLog,
    record_as_dict,
    register_schema,
)
from .registry import Counter, Gauge, Histogram, MetricsRegistry
from .spans import NULL_SPAN, Span, SpanTimer

__all__ = [
    "AUDIT_LEVELS",
    "TelemetryConfig",
    "Telemetry",
    "NullTelemetry",
    "NULL_TELEMETRY",
    "telemetry_from_config",
    "bind_standard_producers",
    "attach_transport_trace",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "SpanTimer",
    "Span",
    "NULL_SPAN",
    "RecordLog",
    "AuditLog",
    "SCHEMAS",
    "HEALTH_FIELDS",
    "record_as_dict",
    "register_schema",
    "ProgressReporter",
    "export_run",
    "iter_jsonl",
    "write_jsonl",
    "write_chrome_trace",
]
