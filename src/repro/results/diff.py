"""Run diffing: keyed comparison of artifacts and artifact stores.

Two levels:

- :func:`diff_artifacts` compares two scenario-run artifacts (the
  dicts produced by :func:`~repro.results.serialize
  .scenario_result_to_dict`): every changed *spec* field (flattened to
  dotted paths) and every *metric* delta, keyed by the stable metric
  names -- makespan, throughput, fairness, staging times;
- :func:`diff_stores` compares two :class:`~repro.results.store
  .ResultStore` directories: artifacts pair up first by file key
  (identical spec hash + seed -- the cross-commit case, where only
  code changed), then by scenario name + seed + sweep overrides (the
  spec-change case, where the hash moved), and each pair is diffed.

The CLI form is ``repro.cli diff A B`` with files or directories.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Tuple, Union

from repro.results.store import ResultStore

__all__ = [
    "ArtifactDiff",
    "StoreDiff",
    "diff_artifacts",
    "diff_stores",
]


def _flatten(value: Any, prefix: str, out: Dict[str, Any]) -> None:
    """Dotted-path flattening; lists are leaves (compared wholesale)."""
    if isinstance(value, Mapping):
        for key in sorted(value):
            sub = f"{prefix}.{key}" if prefix else str(key)
            _flatten(value[key], sub, out)
    else:
        out[prefix] = value


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.4g}"
    if isinstance(value, (list, tuple)):
        return json.dumps(value)
    return str(value)


@dataclass
class ArtifactDiff:
    """Changed spec fields and metric deltas between two run artifacts."""

    a_label: str
    b_label: str
    #: dotted spec path -> (value in A, value in B); changed paths only.
    spec_changes: Dict[str, Tuple[Any, Any]] = field(default_factory=dict)
    #: metric name -> (value in A, value in B); every shared metric.
    metrics: Dict[str, Tuple[Optional[float], Optional[float]]] = field(
        default_factory=dict
    )
    #: provenance key -> (value in A, value in B); changed keys only
    #: (flow solver, processed-event count).
    provenance: Dict[str, Tuple[Any, Any]] = field(default_factory=dict)
    #: SLO rule -> (verdict label in A, verdict label in B); present
    #: whenever either artifact carries an ``slo`` block (``None`` on
    #: the side without one -- pre-SLO artifacts diff cleanly).
    slo: Dict[str, Tuple[Optional[str], Optional[str]]] = field(
        default_factory=dict
    )
    #: Observed-attribution bucket -> (seconds in A, seconds in B);
    #: present when either artifact carries a trace ``analysis`` block.
    attribution: Dict[
        str, Tuple[Optional[float], Optional[float]]
    ] = field(default_factory=dict)

    def metric_deltas(self) -> Dict[str, float]:
        """B minus A for every metric present on both sides."""
        return {
            name: b - a
            for name, (a, b) in self.metrics.items()
            if a is not None and b is not None
        }

    @property
    def identical(self) -> bool:
        return not self.spec_changes and not any(
            delta for delta in self.metric_deltas().values()
        )

    def render(self) -> str:
        from repro.experiments.reporting import render_table

        rows = []
        for name in sorted(self.metrics):
            a, b = self.metrics[name]
            if a is None or b is None:
                delta = "--"
            else:
                delta = f"{b - a:+.4g}"
                if a:
                    delta += f" ({(b - a) / a:+.1%})"
            rows.append(
                [
                    name,
                    _fmt(a) if a is not None else "--",
                    _fmt(b) if b is not None else "--",
                    delta,
                ]
            )
        text = render_table(
            ["metric", self.a_label, self.b_label, "delta (B-A)"],
            rows,
            title=f"diff: {self.a_label} vs {self.b_label}",
        )
        if self.spec_changes:
            rows = [
                [path, _fmt(a), _fmt(b)]
                for path, (a, b) in sorted(self.spec_changes.items())
            ]
            text += "\n\n" + render_table(
                ["spec field", self.a_label, self.b_label],
                rows,
                title="changed spec fields",
            )
        else:
            text += "\nspec: identical (same spec hash)"
        if self.provenance:
            rows = [
                [key, _fmt(a), _fmt(b)]
                for key, (a, b) in sorted(self.provenance.items())
            ]
            text += "\n\n" + render_table(
                ["provenance", self.a_label, self.b_label],
                rows,
                title="changed provenance (how the run was computed)",
            )
        if self.slo:
            rows = [
                [rule, a if a is not None else "--",
                 b if b is not None else "--"]
                for rule, (a, b) in sorted(self.slo.items())
            ]
            text += "\n\n" + render_table(
                ["SLO rule", self.a_label, self.b_label],
                rows,
                title="SLO verdicts",
            )
        if self.attribution:
            rows = []
            for bucket, (a, b) in sorted(
                self.attribution.items(),
                key=lambda kv: -max(kv[1][0] or 0.0, kv[1][1] or 0.0),
            ):
                if a is None or b is None:
                    delta = "--"
                else:
                    delta = f"{b - a:+.4g}"
                rows.append(
                    [
                        bucket,
                        _fmt(a) if a is not None else "--",
                        _fmt(b) if b is not None else "--",
                        delta,
                    ]
                )
            text += "\n\n" + render_table(
                ["bucket (s)", self.a_label, self.b_label, "delta (B-A)"],
                rows,
                title="observed critical-path attribution",
            )
        return text


def diff_artifacts(
    a: Mapping[str, Any],
    b: Mapping[str, Any],
    a_label: str = "A",
    b_label: str = "B",
) -> ArtifactDiff:
    """Keyed comparison of two scenario-run artifact documents."""
    flat_a: Dict[str, Any] = {}
    flat_b: Dict[str, Any] = {}
    _flatten(a.get("spec", {}), "", flat_a)
    _flatten(b.get("spec", {}), "", flat_b)
    spec_changes = {
        path: (flat_a.get(path), flat_b.get(path))
        for path in sorted(set(flat_a) | set(flat_b))
        if flat_a.get(path) != flat_b.get(path)
    }
    metrics_a = a.get("metrics", {})
    metrics_b = b.get("metrics", {})
    metrics = {
        name: (metrics_a.get(name), metrics_b.get(name))
        for name in sorted(set(metrics_a) | set(metrics_b))
    }
    prov_a = a.get("provenance") or {}
    prov_b = b.get("provenance") or {}
    provenance = {
        key: (prov_a.get(key), prov_b.get(key))
        for key in sorted(set(prov_a) | set(prov_b))
        if prov_a.get(key) != prov_b.get(key)
    }
    return ArtifactDiff(
        a_label=a_label,
        b_label=b_label,
        spec_changes=spec_changes,
        metrics=metrics,
        provenance=provenance,
        slo=_diff_slo(a, b),
        attribution=_diff_attribution(a, b),
    )


def _slo_labels(doc: Mapping[str, Any]) -> Optional[Dict[str, str]]:
    """Compact per-rule verdict labels of one artifact's ``slo`` block
    (plus the headline ``verdict`` rollup); None when absent --
    pre-SLO artifacts are first-class citizens of a diff."""
    block = doc.get("slo")
    if not isinstance(block, Mapping):
        return None
    labels = {"verdict": str(block.get("status", "?"))}
    for rule in block.get("rules", []):
        status = str(rule.get("status", "?"))
        if status == "violated" and rule.get("debt"):
            status += f" (debt {float(rule['debt']):.3g})"
        labels[str(rule.get("rule", "?"))] = status
    return labels


def _diff_slo(
    a: Mapping[str, Any], b: Mapping[str, Any]
) -> Dict[str, Tuple[Optional[str], Optional[str]]]:
    la, lb = _slo_labels(a), _slo_labels(b)
    if la is None and lb is None:
        return {}
    return {
        rule: ((la or {}).get(rule), (lb or {}).get(rule))
        for rule in sorted(set(la or {}) | set(lb or {}))
    }


def _diff_attribution(
    a: Mapping[str, Any], b: Mapping[str, Any]
) -> Dict[str, Tuple[Optional[float], Optional[float]]]:
    ba = (a.get("analysis") or {}).get("buckets")
    bb = (b.get("analysis") or {}).get("buckets")
    if not ba and not bb:
        return {}
    return {
        bucket: (
            float(ba[bucket]) if ba and bucket in ba else None,
            float(bb[bucket]) if bb and bucket in bb else None,
        )
        for bucket in sorted(set(ba or {}) | set(bb or {}))
    }


@dataclass
class StoreDiff:
    """Paired artifact diffs between two stores, plus the unmatched."""

    a_root: str
    b_root: str
    pairs: List[ArtifactDiff] = field(default_factory=list)
    only_a: List[str] = field(default_factory=list)
    only_b: List[str] = field(default_factory=list)

    def render(self) -> str:
        parts = [
            f"store diff: {self.a_root} (A) vs {self.b_root} (B) -- "
            f"{len(self.pairs)} paired, {len(self.only_a)} only in A, "
            f"{len(self.only_b)} only in B"
        ]
        for diff in self.pairs:
            parts.append(diff.render())
        if self.only_a:
            parts.append("only in A: " + ", ".join(sorted(self.only_a)))
        if self.only_b:
            parts.append("only in B: " + ", ".join(sorted(self.only_b)))
        return "\n\n".join(parts)


def _pair_key(doc: Mapping[str, Any]) -> str:
    """The spec-change pairing key: name + seed + sweep overrides."""
    overrides = (doc.get("meta") or {}).get("overrides") or {}
    return json.dumps(
        [doc.get("name"), doc.get("seed"), overrides], sort_keys=True
    )


def diff_stores(
    a_root: Union[str, Path], b_root: Union[str, Path]
) -> StoreDiff:
    """Pair up and diff every artifact of two store directories."""
    docs_a = {doc["key"]: doc for doc in ResultStore(a_root).list()}
    docs_b = {doc["key"]: doc for doc in ResultStore(b_root).list()}
    out = StoreDiff(a_root=str(a_root), b_root=str(b_root))

    # Pass 1: identical file keys (same spec hash + seed).
    for key in sorted(set(docs_a) & set(docs_b)):
        out.pairs.append(
            diff_artifacts(
                docs_a.pop(key), docs_b.pop(key), a_label=key, b_label=key
            )
        )
    # Pass 2: same scenario name + seed + overrides, different hash
    # (the spec changed between the stores).
    rest_b = {_pair_key(doc): key for key, doc in docs_b.items()}
    for key_a in sorted(docs_a):
        doc_a = docs_a[key_a]
        key_b = rest_b.pop(_pair_key(doc_a), None)
        if key_b is None:
            out.only_a.append(key_a)
            continue
        out.pairs.append(
            diff_artifacts(
                doc_a, docs_b.pop(key_b), a_label=key_a, b_label=key_b
            )
        )
    out.only_b.extend(sorted(rest_b.values()))
    return out
