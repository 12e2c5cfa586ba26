"""In-memory span recorder for the benchmark's traced run.

Spans are recorded by replacing public functions at the module attributes
their callers look up (``cornerdet.pipeline.soft_nms``,
``cornerdet.synth.load_tensor``, ...), so the program runs unchanged and no
second copy of the pipeline exists. A patch whose attribute no longer exists
is listed in ``Tracer.absent`` instead of failing, so later versions of the
program that delete a function still run the same benchmark.
"""

from __future__ import annotations

import importlib
import json
import re
import threading
import time
from dataclasses import dataclass, field
from typing import Callable

_SCENE_DIR = re.compile(r"scene_(\d+)")


@dataclass(frozen=True)
class Patch:
    """One module attribute to wrap.

    `name` (a string, or a function of the call's arguments) makes the
    wrapper record a span. `counts(args, result)` adds work counts to that
    span. `scene(args)` names the scene the calling thread works on from
    then on. `tally` makes a span-less wrapper that counts calls on the
    innermost open span of the calling thread.
    """

    module: str
    attr: str
    name: str | Callable | None = None
    counts: Callable | None = None
    scene: Callable | None = None
    tally: str | None = None


@dataclass
class Span:
    name: str
    phase: str | None
    thread: int
    scene: int | None
    parent: "Span | None"
    start: float = 0.0
    end: float = 0.0
    counts: dict = field(default_factory=dict)


def scene_from_path(path) -> int | None:
    """Scene id of a path inside a corpus scene directory, if any."""
    match = _SCENE_DIR.search(str(path))
    return int(match.group(1)) if match else None


class Tracer:
    """Installs patches while used as a context manager and keeps spans."""

    def __init__(self, patches: list[Patch]):
        self.patches = patches
        self.spans: list[Span] = []
        self.phase: str | None = None
        self.absent: list[str] = []
        self._local = threading.local()
        self._undo: list[tuple[object, str, object]] = []
        self._origin = time.perf_counter()

    def __enter__(self) -> "Tracer":
        self.absent = []
        for patch in self.patches:
            module = importlib.import_module(patch.module)
            original = getattr(module, patch.attr, None)
            if original is None:
                self.absent.append(f"{patch.module}.{patch.attr}")
                continue
            self._undo.append((module, patch.attr, original))
            setattr(module, patch.attr, self._wrap(original, patch))
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, original in reversed(self._undo):
            setattr(module, attr, original)
        self._undo.clear()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, patch: Patch):
        if patch.tally is not None:
            key = patch.tally

            def tally(*args, **kwargs):
                stack = self._stack()
                if stack:
                    counts = stack[-1].counts
                    counts[key] = counts.get(key, 0) + 1
                return fn(*args, **kwargs)

            return tally

        def wrapper(*args, **kwargs):
            stack = self._stack()
            if patch.scene is not None:
                # the scene lasts until the span enclosing this call ends
                self._local.scene = (patch.scene(args), len(stack))
            if patch.name is None:
                return fn(*args, **kwargs)
            scene = getattr(self._local, "scene", None)
            span = Span(
                name=patch.name(args) if callable(patch.name) else patch.name,
                phase=self.phase,
                thread=threading.get_ident(),
                scene=None if scene is None else scene[0],
                parent=stack[-1] if stack else None,
            )
            self.spans.append(span)
            stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                current = getattr(self._local, "scene", None)
                if current is not None and len(stack) < current[1]:
                    self._local.scene = None
            if patch.counts is not None:
                span.counts.update(patch.counts(args, result))
            return result

        return wrapper

    def self_times(self) -> dict[int, float]:
        """Self time of each span (by index): its duration minus its children's."""
        index = {id(s): i for i, s in enumerate(self.spans)}
        out = {i: s.end - s.start for i, s in enumerate(self.spans)}
        for s in self.spans:
            if s.parent is not None:
                out[index[id(s.parent)]] -= s.end - s.start
        return out

    def write_jsonl(self, path, **extra) -> None:
        """Append every span as one JSON line; `extra` keys go on each line."""
        index = {id(s): i for i, s in enumerate(self.spans)}
        with open(path, "a", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                line = {
                    "id": i,
                    "name": s.name,
                    "phase": s.phase,
                    "start": s.start - self._origin,
                    "end": s.end - self._origin,
                    "parent": None if s.parent is None else index[id(s.parent)],
                    "thread": s.thread,
                    "scene": s.scene,
                    "counts": s.counts,
                    **extra,
                }
                fh.write(json.dumps(line, sort_keys=True) + "\n")
