"""The workloads of the mixtag benchmark and the run loop that measures them.

Every workload goes through mixtag's public CLI and library only:

* ``train-merged``: the paper's documented use.  ``mixtag train`` on the
  merged facebook/twitter/whatsapp files with the generated lexicon and a
  fixed ``--max-iter``, then ``mixtag tag`` and ``mixtag eval`` on a large
  held-out file of Zipfian text, where most surfaces repeat;
* ``tag-stream``: a closed loop, one client, sending one post at a time of
  novel-surface text through ``tag_sentence`` with the training lexicon,
  where few surfaces repeat.  Its model is trained in-process from the
  train-merged training split as preparation.

An untraced run (``trace=False``) runs the CLI as a subprocess, as a user
would, and reports the end-to-end metrics.  A traced run repeats the same
work with the CLI called in-process, alternating untraced and traced
rounds of the timed step, and reports per-layer metrics from the spans
(see tracer.py) plus the tracing overhead.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import uuid
from pathlib import Path
from time import perf_counter

import numpy
import scipy

import mixtag
import mixtag.cli as cli
from mixtag import corpus, crf, features, tagging, trainer

import gen
from tracer import Tracer

TRAIN_FILES = ("facebook.txt", "twitter.txt", "whatsapp.txt")
MAX_ITER = {"full": 8, "tiny": 2}
SETUP_SECONDS = 2.0  # set-up repeats for this long, at least MIN_SETUP_REPS times
MIN_SETUP_REPS = 3
STREAM_TRAININGS = 3  # tag-stream: train_s is the median of this many in-process trainings
STREAM_EVAL_CHUNKS = 8  # tag-stream: chunks scored by mixtag eval and checked against tag_corpus
COMMAND_LIMIT_S = 150
PROBE_TOKENS = 2000  # forward-backward probe size in a traced run

END_TO_END_UNITS = {
    "setup_s": "s",
    "train_s": "s",
    "tag_tokens_per_s": "tokens/s",
    "sentence_p50_ms": "ms",
    "sentence_p99_ms": "ms",
    "accuracy_pct": "%",
    "model_bytes": "bytes",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "corpus.parse_us_per_token": "us",
    "corpus.write_us_per_token": "us",
    "corpus.self_s": "s",
    "features.extract_us_per_token": "us",
    "features.attrs_per_token": "count",
    "features.surface_repeat_share": "share",
    "features.self_s": "s",
    "trainer.index_s": "s",
    "trainer.objective_us_per_token": "us",
    "trainer.objective_calls": "count",
    "trainer.iterations": "count",
    "trainer.self_s": "s",
    "crf.forward_backward_us_per_token": "us",
    "crf.lattice_us_per_token": "us",
    "crf.known_attr_share": "share",
    "crf.viterbi_us_per_token": "us",
    "crf.save_s": "s",
    "crf.load_s": "s",
    "crf.params": "count",
    "crf.self_s": "s",
    "tagging.tag_corpus_us_per_token": "us",
    "tagging.tag_sentence_us_per_token": "us",
    "tagging.cli_mismatch_share": "share",
    "tagging.self_s": "s",
    "evaluation.evaluate_us_per_token": "us",
    "evaluation.self_s": "s",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
    "trace.overhead_pct": "%",
    "trace.spans": "count",
}


class BenchError(RuntimeError):
    """A step failed in a way that leaves nothing to measure."""


class Ledger:
    """Operations and checks attempted, and those that failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"check failed: {what}", file=sys.stderr)
        return ok


class Program:
    """The mixtag CLI, run as a subprocess or, in traced runs, in-process."""

    def __init__(self, root: Path, workdir: Path, ledger: Ledger, in_process: bool):
        self.workdir = workdir
        self.ledger = ledger
        self.in_process = in_process
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.peak_rss_mb = 0.0

    def __call__(self, *argv: str) -> str:
        """Run one command; return its stdout."""
        if self.in_process:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main(list(argv))
            stdout = out.getvalue()
        else:
            log = self.workdir / "command.out"
            with log.open("wb") as sink:
                proc = subprocess.Popen(
                    [sys.executable, "-m", "mixtag.cli", *argv],
                    stdout=sink, stderr=subprocess.STDOUT, env=self.env, cwd=self.workdir,
                )
                timer = threading.Timer(COMMAND_LIMIT_S, proc.kill)
                timer.start()
                try:
                    _, status, usage = os.wait4(proc.pid, 0)
                except BaseException:
                    proc.kill()
                    proc.wait()
                    raise
                finally:
                    timer.cancel()
            proc.returncode = code = os.waitstatus_to_exitcode(status)
            self.peak_rss_mb = max(self.peak_rss_mb, usage.ru_maxrss / 1024)
            stdout = log.read_text(encoding="utf-8", errors="replace")
        if not self.ledger.check(code == 0, f"mixtag {argv[0]} exited {code}"):
            raise BenchError(f"mixtag {' '.join(argv)} exited {code}:\n{stdout[-2000:]}")
        return stdout


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def timed(fn, *args):
    """Call fn(*args); return its result and its wall seconds."""
    start = perf_counter()
    result = fn(*args)
    return result, perf_counter() - start


def src_line_count(root: Path) -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines()) for p in sorted((root / "src").rglob("*.py")))


def environment(root: Path) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mixtag": mixtag.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "src_lines": src_line_count(root),
        "machine_tuning": "none: no cache drops, huge pages, cgroups or CPU pinning",
    }


def read(path: Path) -> str:
    return path.read_text(encoding="utf-8")


class Workload:
    """One benchmark workload: untimed preparation, set-up, timed rounds, checks.

    Each round runs every timed operation of the workload once, so that
    every end-to-end metric is a median (or pooled percentile, or total)
    over samples spread across the whole timed window.
    """

    name = ""
    inputs: tuple[str, ...] = ()  # generated inputs; the last is the text the workload tags
    min_rounds = 1

    def __init__(self, workdir: Path, seed: int, scale: str, program: Program):
        self.dir = workdir
        self.seed = seed
        self.scale = scale
        self.run = program
        self.ledger = program.ledger
        self.desc = gen.generate(seed, workdir, scale)
        self.lexicon_path = workdir / "lexicon.tsv"
        self.lexicon = features.load_lexicon(read(self.lexicon_path))
        self.max_iter = MAX_ITER[scale]
        self.model_path = workdir / "model.txt"
        self.model_bytes = b""
        self.metrics: dict[str, float] = {}
        self.layer: dict[str, float] = {}
        self.trainings: list[float] = []
        self.latencies: list[float] = []  # tag_sentence calls, pooled over rounds

    def keep_model(self, model_bytes: bytes) -> None:
        """Keep the first trained model; every later training must reproduce it."""
        if self.model_bytes:
            self.ledger.check(model_bytes == self.model_bytes, "repeated training gave different model bytes")
        else:
            self.model_bytes = model_bytes
            self.model = crf.load_model(model_bytes)

    def tag_args(self, source: Path, output: Path) -> list[str]:
        return ["tag", "--model", str(self.model_path), "--input", str(source), "--output", str(output)]

    def check_cli_tagging(self, source_path: Path, tagged_path: Path) -> corpus.Corpus:
        """The CLI's output aligns with its input and equals in-process tag_corpus."""
        source = corpus.parse_corpus(read(source_path), corpus.TEST2COL)
        text = read(tagged_path)
        tagged = corpus.parse_corpus(text, corpus.TRAIN3COL)
        aligned = len(tagged) == len(source) and all(
            len(a) == len(b) and all(x.surface == y.surface and x.lang == y.lang for x, y in zip(a, b))
            for a, b in zip(source, tagged)
        )
        self.ledger.check(aligned, f"{tagged_path.name} does not align with {source_path.name}")
        # the CLI calls tag_corpus(model, corpus) with the default lexicon and catalogue
        expected = corpus.write_corpus(tagging.tag_corpus(self.model, source), corpus.TRAIN3COL)
        self.ledger.check(text == expected, f"{tagged_path.name} differs from in-process tag_corpus")
        return tagged

    def _lexicon_pass(self, sentences) -> tuple[list[corpus.Sentence], list[float]]:
        results, latencies = [], []
        for sentence in sentences:
            start = perf_counter()
            results.append(tagging.tag_sentence(self.model, sentence, self.lexicon))
            latencies.append(perf_counter() - start)
        return results, latencies

    def lexicon_round(self, sentences) -> tuple[list[corpus.Sentence], float]:
        """tag_sentence with the training lexicon, one sentence at a time.

        Returns the tagged sentences and the seconds of the whole loop.
        """
        (results, latencies), seconds = timed(self._lexicon_pass, sentences)
        self.latencies += latencies
        self.ledger.attempted += len(results)
        return results, seconds

    def cli_mismatch(self, pairs) -> None:
        """Share of tokens where the CLI and tagging with the training lexicon disagree.

        ``mixtag tag`` extracts features without the training lexicon, so
        its tags can differ from tagging with the features the model was
        trained with.  This is reported, not counted as a failure.
        """
        tags = [(a.pos, b.pos) for x, y in pairs for a, b in zip(x, y)]
        self.layer["tagging.cli_mismatch_share"] = sum(a != b for a, b in tags) / len(tags)

    def evaluate(self, gold: Path, pred: Path) -> None:
        stdout = self.run("eval", "--gold", str(gold), "--pred", str(pred))
        self.metrics["accuracy_pct"] = float(stdout.strip().splitlines()[-1])

    def probe_lattices(self) -> list:
        """Lattices of the workload's tagged input, for the forward-backward probe."""
        lattices, tokens = [], 0
        for sentence in self.tagged_input():
            if tokens >= PROBE_TOKENS:
                break
            attrs = features.extract_sentence_attributes(sentence, self.lexicon)
            lattices.append(crf.build_lattice(self.model, attrs))
            tokens += len(sentence)
        return lattices

    # -- per workload ------------------------------------------------------

    def prepare(self) -> None:
        """Untimed preparation."""

    def setup(self) -> None:
        """One set-up."""
        raise NotImplementedError

    def step(self) -> tuple[float, int]:
        """One timed round; returns the seconds and tokens of its tagging step."""
        raise NotImplementedError

    def finish(self) -> None:
        """Checks, accuracy, peak RSS and the CLI mismatch share."""
        raise NotImplementedError

    def tagged_input(self) -> corpus.Corpus:
        """The text the workload tags."""
        raise NotImplementedError


class TrainMerged(Workload):
    """Round: ``mixtag train``; ``mixtag tag`` on the held-out file; after
    each, the held-out file through tag_sentence with the training lexicon
    (twice per round, so the sentence latencies sample more of the window).

    Set-up is the training front end from text to an IndexedCorpus.
    """

    name = "train-merged"
    inputs = ("train", "heldout")

    def prepare(self):
        self.texts = [read(self.dir / n) for n in TRAIN_FILES]
        self.lexicon_text = read(self.lexicon_path)
        self.heldout = corpus.parse_corpus(read(self.dir / "heldout.txt"), corpus.TEST2COL)

    def setup(self):
        parts = [corpus.parse_corpus(t, corpus.TRAIN3COL) for t in self.texts]
        lexicon = features.load_lexicon(self.lexicon_text)
        trainer.index_corpus(corpus.merge_corpora(parts), lexicon)

    def step(self):
        args = ["train"]
        for name in TRAIN_FILES:
            args += ["--train", str(self.dir / name)]
        args += ["--lexicon", str(self.lexicon_path), "--model", str(self.model_path), "--max-iter", str(self.max_iter)]
        _, seconds = timed(self.run, *args)
        self.trainings.append(seconds)
        self.keep_model(self.model_path.read_bytes())
        self.lexicon_tagged, _ = self.lexicon_round(self.heldout)
        _, seconds = timed(self.run, *self.tag_args(self.dir / "heldout.txt", self.dir / "heldout.tagged.txt"))
        self.lexicon_tagged, _ = self.lexicon_round(self.heldout)
        return seconds, self.heldout.token_count()

    def finish(self):
        cli_tagged = self.check_cli_tagging(self.dir / "heldout.txt", self.dir / "heldout.tagged.txt")
        self.cli_mismatch(zip(cli_tagged, self.lexicon_tagged))
        self.evaluate(self.dir / "heldout.gold.txt", self.dir / "heldout.tagged.txt")
        self.metrics["peak_rss_mb"] = self.run.peak_rss_mb

    def tagged_input(self):
        return self.heldout


class TagStream(Workload):
    """Closed loop, one client: the next post is sent when the previous one is tagged.

    A round is one chunk of the novel-surface stream.  Chunks are generated
    and parsed between rounds, outside the timed loop, so no post is sent
    twice.  Set-up is load_model from file bytes to a Model.
    """

    name = "tag-stream"
    inputs = ("train", "stream0")
    min_rounds = STREAM_EVAL_CHUNKS

    def prepare(self):
        self.train_in_process()
        self.language = gen.Language(self.seed)
        self.rounds = 0
        self.chunks: list[tuple[corpus.Corpus, str]] = []  # posts and gold text of scored chunks
        self.results: list[corpus.Sentence] = []

    def train_in_process(self) -> None:
        """The train-merged model, trained with the library as ``mixtag train`` would."""
        parts = [corpus.parse_corpus(read(self.dir / n), corpus.TRAIN3COL) for n in TRAIN_FILES]
        (model, _), seconds = timed(
            trainer.train, corpus.merge_corpora(parts), self.lexicon, features.FeatureCatalogue(),
            trainer.TrainConfig(max_iterations=self.max_iter),
        )
        self.trainings.append(seconds)
        model_bytes = crf.save_model(model)
        if not self.model_bytes:
            self.model_path.write_bytes(model_bytes)
        self.keep_model(model_bytes)

    def setup(self):
        self.model = crf.load_model(self.model_bytes)

    def step(self):
        if self.rounds == 0:
            posts = corpus.parse_corpus(read(self.dir / "stream0.txt"), corpus.TEST2COL)
            gold = read(self.dir / "stream0.gold.txt")
        else:
            drawn = gen.stream_chunk(self.language, self.seed, self.rounds, self.scale)
            posts = corpus.parse_corpus(gen.render(drawn, with_pos=False), corpus.TEST2COL)
            gold = gen.render(drawn, with_pos=True)
        self.rounds += 1
        results, seconds = self.lexicon_round(posts)
        if len(self.chunks) < STREAM_EVAL_CHUNKS:
            self.chunks.append((posts, gold))
            self.results += results
        return seconds, posts.token_count()

    def finish(self):
        for _ in range(STREAM_TRAININGS - 1):
            self.train_in_process()
        scored = corpus.Corpus(tuple(s for posts, _ in self.chunks for s in posts))
        expected = tagging.tag_corpus(self.model, scored, self.lexicon)
        for got, want in zip(self.results, expected):
            self.ledger.check(got == want, "tag_sentence differs from tag_corpus with the same lexicon")
        gold_path, pred_path = self.dir / "stream.gold.txt", self.dir / "stream.tagged.txt"
        gold_path.write_text("\n".join(gold for _, gold in self.chunks), encoding="utf-8")
        pred_path.write_text(corpus.write_corpus(corpus.Corpus(tuple(self.results)), corpus.TRAIN3COL),
                             encoding="utf-8")
        self.evaluate(gold_path, pred_path)
        cli_path = self.dir / "stream0.cli.txt"
        self.run(*self.tag_args(self.dir / "stream0.txt", cli_path))
        cli_tagged = self.check_cli_tagging(self.dir / "stream0.txt", cli_path)
        self.cli_mismatch(zip(cli_tagged, self.results))
        self.metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def tagged_input(self):
        return self.chunks[0][0]


WORKLOADS = {w.name: w for w in (TrainMerged, TagStream)}


def _setups(w: Workload) -> list[float]:
    setups = []
    start = perf_counter()
    while len(setups) < MIN_SETUP_REPS or perf_counter() - start < SETUP_SECONDS:
        setups.append(timed(w.setup)[1])
    return setups


def _timed_loop(step, seconds: float, min_rounds: int) -> list[tuple[float, int]]:
    rounds = []
    start = perf_counter()
    while len(rounds) < min_rounds or perf_counter() - start < seconds:
        rounds.append(step())
    return rounds


def run_workload(root: Path, workdir: Path, name: str, seed: int, seconds: float,
                 trace: bool, scale: str = "full") -> dict:
    """Run one workload; return its result object, input descriptors and run details."""
    ledger = Ledger()
    program = Program(root, workdir, ledger, in_process=trace)
    w = WORKLOADS[name](workdir, seed, scale, program)
    if not trace:
        w.prepare()
        setups = _setups(w)
        rounds = _timed_loop(w.step, seconds, w.min_rounds)
        w.finish()
        w.ledger.check(crf.save_model(w.model) == w.model_bytes, "save_model(load_model(b)) != b")
        latencies = sorted(w.latencies)
        w.metrics.update(
            setup_s=statistics.median(setups),
            train_s=statistics.median(w.trainings),
            tag_tokens_per_s=sum(n for _, n in rounds) / sum(t for t, _ in rounds),
            sentence_p50_ms=1e3 * percentile(latencies, 0.50),
            sentence_p99_ms=1e3 * percentile(latencies, 0.99),
            model_bytes=len(w.model_bytes),
        )
        metrics = {k: (w.metrics[k], unit) for k, unit in END_TO_END_UNITS.items()}
        extra = {"setup_reps": len(setups), "rounds": len(rounds), "train_samples": len(w.trainings),
                 "sentence_samples": len(latencies),
                 "cli_mismatch_share": w.layer["tagging.cli_mismatch_share"]}
    else:
        tracer = Tracer(name, uuid.uuid4().hex[:12])
        with tracer.installed():
            w.prepare()
            w.setup()
        untraced, traced = [], []

        def paired_step():
            untraced.append(w.step())
            with tracer.installed():
                traced.append(w.step())
            return traced[-1]

        rounds = _timed_loop(paired_step, seconds, (w.min_rounds + 1) // 2)
        with tracer.installed():
            w.finish()
            w.ledger.check(crf.save_model(w.model) == w.model_bytes, "save_model(load_model(b)) != b")
        lattices = w.probe_lattices()
        with tracer.installed(["crf.posterior_marginals"]):
            for lattice in lattices:
                crf.posterior_marginals(lattice)
        metrics = {k: (v, PER_LAYER_UNITS[k]) for k, v in layer_metrics(w, tracer, untraced, traced).items()}
        trace_path = root / "perfbench" / "_out" / f"trace-{name}.jsonl"
        tracer.write(trace_path, {"seed": seed, "seconds": seconds, "scale": scale, "env": environment(root)})
        extra = {"spans_file": str(trace_path.relative_to(root)), "rounds": len(rounds)}
    return {
        "result": {
            "correct": ledger.failed == 0,
            "attempted": ledger.attempted,
            "failed": ledger.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        },
        "inputs": {k: w.desc[k] for k in w.inputs},
        "extra": extra,
    }


def layer_metrics(w: Workload, tracer: Tracer, untraced, traced) -> dict[str, float]:
    t = tracer
    u_per_tok = statistics.median(s / n for s, n in untraced)
    t_per_tok = statistics.median(s / n for s, n in traced)
    rep_tokens = statistics.median(n for _, n in traced)
    self_s = t.self_s_by_module()
    fired = t.counts["crf.fired_attrs"]
    m = {
        "corpus.parse_us_per_token": t.us_per_token("corpus.parse_corpus"),
        "corpus.write_us_per_token": t.us_per_token("corpus.write_corpus"),
        "features.extract_us_per_token": t.us_per_token("features.extract_sentence_attributes"),
        "features.attrs_per_token": t.counts["features.attrs"]
        / sum(s[4] for s in t.spans if s[0] == "features.extract_sentence_attributes"),
        "features.surface_repeat_share": w.desc[w.inputs[-1]]["surface_repeat_share"],
        "trainer.index_s": t.mean_s("trainer.index_corpus"),
        "trainer.objective_us_per_token": t.us_per_token("trainer.objective_and_gradient"),
        "trainer.objective_calls": sum(s[0] == "trainer.objective_and_gradient" for s in t.spans),
        "trainer.iterations": t.last["trainer.iterations"],
        "crf.forward_backward_us_per_token": t.us_per_token("crf.posterior_marginals"),
        "crf.lattice_us_per_token": t.us_per_token("crf.build_lattice"),
        "crf.known_attr_share": t.counts["crf.known_attrs"] / fired,
        "crf.viterbi_us_per_token": t.us_per_token("crf.viterbi_lattice"),
        "crf.save_s": t.mean_s("crf.save_model"),
        "crf.load_s": t.mean_s("crf.load_model"),
        "crf.params": t.last["crf.params"],
        "tagging.tag_corpus_us_per_token": t.us_per_token("tagging.tag_corpus"),
        "tagging.tag_sentence_us_per_token": t.us_per_token("tagging.tag_sentence"),
        "tagging.cli_mismatch_share": w.layer["tagging.cli_mismatch_share"],
        "evaluation.evaluate_us_per_token": t.us_per_token("evaluation.evaluate"),
        "trace.overhead_s": (t_per_tok - u_per_tok) * rep_tokens,
        "trace.overhead_pct": 100 * (t_per_tok / u_per_tok - 1),
        "trace.spans": len(t.spans),
    }
    for module in ("corpus", "features", "trainer", "crf", "tagging", "evaluation", "cli"):
        m[f"{module}.self_s"] = self_s.get(module, 0.0)
    return {k: m[k] for k in PER_LAYER_UNITS}
