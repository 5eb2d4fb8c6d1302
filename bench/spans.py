"""In-memory span recorder for the traced benchmark run.

A span is one call into a layer, recorded by the benchmark around the
public function it calls: name ("<layer>.<function>"), start, end, parent
span and op id.  Spans stay in memory and are written out once, when the
run ends.
"""

from __future__ import annotations

import json
import time
from pathlib import Path


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, op]

    def begin(self, name: str, parent: int | None = None, op: str | None = None) -> int:
        self.spans.append([name, time.perf_counter(), None, parent, op])
        return len(self.spans) - 1

    def end(self, span: int):
        if self.spans[span][2] is None:
            self.spans[span][2] = time.perf_counter()

    def self_times(self) -> dict[str, float]:
        """Seconds per layer (the span name up to its first dot), each span
        counted for its duration minus the time its children cover.  Spans
        of one run are sequential, so children never overlap."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                covered[parent] += end - start
        layers: dict[str, float] = {}
        for (name, start, end, _, _), child in zip(self.spans, covered):
            layer = name.split(".", 1)[0]
            layers[layer] = layers.get(layer, 0.0) + (end - start) - child
        return layers

    def write(self, path: Path):
        origin = self.spans[0][1] if self.spans else 0.0
        rows = [{"id": i, "name": name, "start": start - origin, "end": end - origin,
                 "parent": parent, "op": op}
                for i, (name, start, end, parent, op) in enumerate(self.spans)]
        path.write_text(json.dumps(rows) + "\n", encoding="utf-8")
