"""Spans around calls into mixtag's public functions, recorded from outside.

The tracer replaces each traced function with a wrapper in every loaded
``mixtag`` module that binds it (so ``from .crf import viterbi`` call sites
are caught too), and restores the originals on exit.  A span is the layer
name, start and end (``perf_counter`` seconds), the parent span, and the
number of tokens the call worked on; counts that need the call's arguments
or result are taken after the span's end, so they are not part of its time.
Spans stay in memory until :meth:`Tracer.write`.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter


def _known_attrs(args, _result) -> int:
    model, attrs = args[0], args[1]
    return sum(model.index.state_base(a) is not None for ps in attrs for a in ps)


def _fired_attrs(args, _result) -> int:
    return sum(len(ps) for ps in args[1])


# layer name -> (tokens the call covers, {count name: count function})
TARGETS = {
    "corpus.parse_corpus": (lambda a, r: r.token_count(), {}),
    "corpus.merge_corpora": (lambda a, r: r.token_count(), {}),
    "corpus.write_corpus": (lambda a, r: a[0].token_count(), {}),
    "features.extract_sentence_attributes": (
        lambda a, r: len(a[0]),
        {"features.attrs": lambda a, r: sum(len(x) for x in r)},
    ),
    "trainer.train": (
        lambda a, r: a[0].token_count(),
        {"trainer.iterations": lambda a, r: r[1].iterations},
    ),
    "trainer.index_corpus": (lambda a, r: a[0].token_count(), {}),
    "trainer.objective_and_gradient": (lambda a, r: a[1].token_count(), {}),
    "crf.index_features": (lambda a, r: 0, {}),
    "crf.build_lattice": (
        lambda a, r: len(a[1]),
        {"crf.known_attrs": _known_attrs, "crf.fired_attrs": _fired_attrs},
    ),
    "crf.viterbi": (lambda a, r: len(a[1]), {}),
    "crf.viterbi_lattice": (lambda a, r: a[0].T, {}),
    "crf.posterior_marginals": (lambda a, r: a[0].T, {}),
    "crf.save_model": (lambda a, r: 0, {"crf.params": lambda a, r: a[0].index.size}),
    "crf.load_model": (lambda a, r: 0, {"crf.params": lambda a, r: r.index.size}),
    "tagging.tag_corpus": (lambda a, r: a[1].token_count(), {}),
    "tagging.tag_sentence": (lambda a, r: len(a[1]), {}),
    "evaluation.evaluate": (lambda a, r: a[0].token_count(), {}),
    "cli.main": (lambda a, r: 0, {}),
}


class Tracer:
    def __init__(self, workload: str, run_id: str):
        self.workload = workload
        self.run_id = run_id
        self.spans: list[list] = []  # [name, start, end, parent, tokens]
        self.counts: Counter[str] = Counter()
        self.last: dict[str, float] = {}  # latest value of each count
        self._stack: list[int] = []

    def _wrap(self, name: str, fn):
        tokens_of, counters = TARGETS[name]
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else None, 0]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            span[4] = tokens_of(args, result)
            for key, count in counters.items():
                value = count(args, result)
                self.counts[key] += value
                self.last[key] = value
            return result

        return traced

    @contextmanager
    def installed(self, names=tuple(TARGETS)):
        """Trace the named layers for the duration of the block."""
        modules = [m for k, m in list(sys.modules.items()) if k == "mixtag" or k.startswith("mixtag.")]
        patched = []
        try:
            for name in names:
                module, func = name.split(".")
                original = getattr(sys.modules[f"mixtag.{module}"], func)
                wrapper = self._wrap(name, original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            patched.append((mod, attr, original))
            yield self
        finally:
            for mod, attr, original in reversed(patched):
                setattr(mod, attr, original)

    # -- aggregation ---------------------------------------------------

    def _select(self, name: str):
        return [s for s in self.spans if s[0] == name]

    def us_per_token(self, name: str) -> float:
        spans = self._select(name)
        tokens = sum(s[4] for s in spans)
        if not tokens:
            raise ValueError(f"no tokens recorded for {name}")
        return 1e6 * sum(s[2] - s[1] for s in spans) / tokens

    def mean_s(self, name: str) -> float:
        spans = self._select(name)
        if not spans:
            raise ValueError(f"no spans recorded for {name}")
        return sum(s[2] - s[1] for s in spans) / len(spans)

    def self_s_by_module(self) -> dict[str, float]:
        """Each span's duration minus its direct children's, summed per module."""
        self_time = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] is not None:
                self_time[s[3]] -= s[2] - s[1]
        totals: Counter[str] = Counter()
        for s, t in zip(self.spans, self_time):
            totals[s[0].split(".")[0]] += t
        return dict(totals)

    def write(self, path: Path, header: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as out:
            out.write(json.dumps({"header": header, "workload": self.workload, "run_id": self.run_id}) + "\n")
            for i, (name, start, end, parent, tokens) in enumerate(self.spans):
                out.write(json.dumps({
                    "id": i, "name": name, "start": start, "end": end, "parent": parent,
                    "tokens": tokens, "workload": self.workload, "run_id": self.run_id,
                }) + "\n")
