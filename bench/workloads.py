"""The three workloads and the metrics taken from them.

Each workload is a closed loop with one client: the next operation
starts when the previous one has returned.  An operation's timed part
is the call into gdmorph; its output is digested and checked after the
clock stops.  gdmorph must be importable before this module is.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from gdmorph import lexicon, orthography, rules

import generate
import spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
GOLDEN = BENCH / "golden.json"
DEFAULT_SEED = 1
FOLD = orthography.FOLD_ACCENTS  # the CLI's default --fold
SETUP_REPEATS = 11  # base builds in set-up; cli-session makes VALIDATE_REPEATS calls instead
VALIDATE_REPEATS = 25
TRACED_DOCS = 50
PROBE_REPEATS = 5
# digests call gdmorph's own recognize, never the traced run's wrapper
_recognize = lexicon.recognize


def digest(data: str | bytes) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()[:16]


def expand_text(index) -> str:
    """What `gdmorph expand` writes for the index."""
    return "".join(form + "\n" for form in sorted(index.forms()))


def analyses_text(tokens, results) -> str:
    return "".join(
        token + "\t" + " ".join(f"{e.lemma}/{e.pos}/{code}" for e, code in analyses) + "\n"
        for token, analyses in zip(tokens, results)
    )


def index_text(index) -> str:
    """The whole index as a user sees it: every surface form with the
    analyses `recognize` gives it, then every recorded derivation failure."""
    forms = sorted(index.forms())
    return analyses_text(forms, [_recognize(index, form) for form in forms]) + "".join(
        "!\t" + "\t".join(failure) + "\n" for failure in sorted(index.failures)
    )


def load_golden(seed: int) -> dict | None:
    """Committed digests for the default seed; None for any other seed."""
    if seed != DEFAULT_SEED:
        return None
    return json.loads(GOLDEN.read_text(encoding="utf-8"))["digests"]


class Checker:
    """Counts operations and those whose output digest is wrong.

    With golden digests, an output must match the committed digest for
    its key.  Without them, every output must match the first output
    seen for the same key in this run (identical input, identical output).
    """

    def __init__(self, golden: dict | None):
        self.golden = golden
        self.seen: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0

    def check(self, *pairs: tuple[str, str]) -> bool:
        """Count one operation, whose outputs are (key, digest) pairs."""
        self.attempted += 1
        ok = True
        for key, value in pairs:
            first = self.seen.setdefault(key, value)
            ok &= value == (first if self.golden is None else self.golden.get(key))
        self.failed += not ok
        return ok

    def expect(self, key: str, value: str) -> None:
        """Without golden digests, outputs under key must equal value."""
        self.seen.setdefault(key, value)


class Workload:
    name = ""
    unit_label = ("op_s", 1.0, "s")  # name, scale from seconds, unit in human lines
    cycle = 1  # operations in one whole pass of the mix; loops stop on a pass boundary
    traced_ops = 1

    def __init__(self, inputs: Path, checker: Checker):
        self.inputs = inputs
        self.checker = checker
        self.index = None

    def build(self, k: int):
        """Read variant k from disk, parse its rules, build the index."""
        vocab, _ = lexicon.Vocabulary.from_svf_file(self.inputs / f"vocab-{k}.svf", fold_policy=FOLD)
        text = (self.inputs / f"rules-{k}.grl").read_text(encoding="utf-8")
        return lexicon.build_all_forms(vocab, rules.parse_rules(text))

    def setup(self, repeats: int = SETUP_REPEATS) -> list[float]:
        """Build the base index `repeats` times; keeps the last one."""
        times = []
        for _ in range(repeats):
            self.index = None
            start = time.perf_counter()
            self.index = self.build(0)
            times.append(time.perf_counter() - start)
            self.checker.check(("index/0", digest(index_text(self.index))))
        return times

    def op(self, i: int, spans_path: Path | None = None) -> tuple[float, float]:
        """Run operation i; returns (timed seconds, work units done)."""
        raise NotImplementedError


class Rebuild(Workload):
    """The edit loop: reload a variant, reparse its rules, rebuild."""

    name = "rebuild"
    unit_label = ("rebuild_s", 1.0, "s")
    cycle = traced_ops = generate.VARIANTS

    def setup(self, repeats: int = SETUP_REPEATS) -> list[float]:
        times = super().setup(repeats)
        self.index = None  # each operation builds its own
        return times

    def op(self, i, spans_path=None):
        k = i % generate.VARIANTS
        start = time.perf_counter()
        index = self.build(k)
        elapsed = time.perf_counter() - start
        self.checker.check((f"index/{k}", digest(index_text(index))))
        return elapsed, index.distinct_form_count


class RecognizeStream(Workload):
    """Running text against an index built once in set-up."""

    name = "recognize-stream"
    unit_label = ("recognize_doc_ms", 1e3, "ms")
    traced_ops = TRACED_DOCS

    def __init__(self, inputs, checker):
        super().__init__(inputs, checker)
        with open(inputs / "stream.txt", encoding="utf-8") as handle:
            self.docs = [line.split() for line in handle]
        self.cycle = len(self.docs)  # a pass is the whole stream

    def op(self, i, spans_path=None):
        d = i % len(self.docs)
        tokens, index, recognize = self.docs[d], self.index, lexicon.recognize
        start = time.perf_counter()
        results = [recognize(index, token) for token in tokens]
        elapsed = time.perf_counter() - start
        self.checker.check((f"doc/{d}", digest(analyses_text(tokens, results))))
        return elapsed, len(tokens)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


class CliSession(Workload):
    """A linguist's session: fresh `python -m gdmorph` processes in turn."""

    name = "cli-session"
    unit_label = ("cli_call_s", 1.0, "s")

    def __init__(self, inputs, checker):
        super().__init__(inputs, checker)
        self.session = json.loads((inputs / "session.json").read_text(encoding="utf-8"))
        self.cycle = self.traced_ops = len(self.session)
        self.env = child_env()
        self.unexpected_exit = 0
        self.call_s: dict[str, list[float]] = {}

    def setup(self, repeats: int = VALIDATE_REPEATS) -> list[float]:
        """The session's own set-up: `repeats` fresh `gdmorph validate`
        processes, which pay the start-up, import and SVF load that every
        call of the session pays before its command runs."""
        # the file `expand -o` writes must equal the in-process build's
        self.checker.expect("expand/0", digest(expand_text(self.build(0))))
        validate = next(i for i, c in enumerate(self.session) if c["name"] == "validate")
        return [self.call(validate) for _ in range(repeats)]

    def call(self, i, spans_path=None) -> float:
        """Run command i of the mix, check its outputs; returns its wall seconds."""
        command = self.session[i % len(self.session)]
        if spans_path is None:
            argv = [sys.executable, "-m", "gdmorph", *command["argv"]]
        else:
            argv = [sys.executable, str(BENCH / "launch.py"), str(spans_path), *command["argv"]]
        start = time.perf_counter()
        done = subprocess.run(argv, cwd=self.inputs, env=self.env, capture_output=True, timeout=120)
        elapsed = time.perf_counter() - start
        outputs = [(f"cli/{command['name']}", digest(f"{done.returncode}\n".encode() + done.stdout))]
        if "-o" in command["argv"]:
            written = self.inputs / command["argv"][command["argv"].index("-o") + 1]
            outputs.append(("expand/0", digest(written.read_bytes())))
        if done.returncode not in (0, 1, 2) or b"Traceback" in done.stderr:
            self.unexpected_exit += 1
        self.checker.check(*outputs)
        return elapsed

    def op(self, i, spans_path=None):
        elapsed = self.call(i, spans_path)
        if spans_path is None:
            self.call_s.setdefault(self.session[i % len(self.session)]["name"], []).append(elapsed)
        return elapsed, 1


WORKLOADS = {w.name: w for w in (Rebuild, RecognizeStream, CliSession)}


def loop(workload: Workload, seconds: float) -> tuple[list[float], list[float]]:
    """Run operations for `seconds`, ending on a whole pass of the mix.
    Returns each operation's timed seconds and work units."""
    times, units = [], []
    started = time.perf_counter()
    while True:
        elapsed, done = workload.op(len(times))
        times.append(elapsed)
        units.append(done)
        if len(times) % workload.cycle == 0 and time.perf_counter() - started >= seconds:
            return times, units


def percentile_lines(label: str, values: list[float], unit: str) -> list[str]:
    """Median, and the highest of p75/p90/p99/p99.9 with ten samples beyond it."""
    n = len(values)
    lines = [f"{label}.p50 = {statistics.median(values):.6g} {unit} (n={n})"]
    for p in (99.9, 99, 90, 75):
        if n * (100 - p) / 100 >= 10:
            cut = statistics.quantiles(values, n=1000, method="inclusive")[round(p * 10) - 1]
            lines.append(f"{label}.p{p:g} = {cut:.6g} {unit} (n={n}, {n * (100 - p) / 100:.0f} beyond)")
            break
    return lines


def peak_rss_mb(workload: Workload) -> float:
    who = resource.RUSAGE_CHILDREN if isinstance(workload, CliSession) else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024


def run_untraced(workload: Workload, seconds: float) -> tuple[dict, list[str]]:
    """End-to-end metrics, with human-readable lines that name the
    workload's own quantities."""
    setup = workload.setup()
    times, units = loop(workload, seconds)
    label, scale, unit = workload.unit_label
    throughput = sum(units) / sum(times)  # whole passes of the mix only
    what = "validate calls" if isinstance(workload, CliSession) else "index builds"
    lines = [f"setup_s = {statistics.median(setup):.6g} s (median of {len(setup)} {what})"]
    lines += percentile_lines(label, [t * scale for t in times], unit)
    if isinstance(workload, RecognizeStream):
        lines.append(f"recognize_tokens_per_s = {throughput:.6g} 1/s "
                     f"({len(times) // workload.cycle} passes over the {workload.cycle} documents)")
    if isinstance(workload, CliSession):
        lines += [f"cli.{name}.s.p50 = {statistics.median(v):.4g} s (n={len(v)})"
                  for name, v in workload.call_s.items()]
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "throughput_per_s": (throughput, "1/s"),
        "peak_rss_mb": (peak_rss_mb(workload), "MB"),
    }
    return metrics, lines


def orthography_ns(workload: Workload) -> dict[str, float]:
    """ns per call of each primitive over the workload's words: the base
    vocabulary's lemmas and parts for the build side, the first ten
    documents of the text stream for the recognition side."""
    vocab, _ = lexicon.Vocabulary.from_svf_file(workload.inputs / "vocab-0.svf")
    words = [e.lemma for e in vocab] + [
        p.text for e in vocab for p in (e.np, e.gs, e.vn, e.cp) if p is not None and p.is_present
    ]
    with open(workload.inputs / "stream.txt", encoding="utf-8") as handle:
        tokens = [t for _, line in zip(range(10), handle) for t in line.split()]
    suffix = orthography.SuffixAlternation("aidh", "idh")

    def guarded(fn, *extra):
        def call(word):
            try:
                fn(word, *extra)
            except (orthography.NoVowelError, orthography.NotSlenderizableError):
                pass
        return call

    cases = {
        "lenite": (orthography.lenite, words),
        "glottal_past_prefix": (orthography.glottal_past_prefix, words),
        "slenderize": (guarded(orthography.slenderize), words),
        "attach_suffix": (guarded(orthography.attach_suffix, suffix), words),
        "canonical": (orthography.canonical, tokens),
        "fold_key": (lambda t: orthography.fold_key(t, FOLD), tokens),
        "strip_prothesis": (orthography.strip_prothesis, tokens),
    }
    out = {}
    for name, (fn, items) in cases.items():
        runs = []
        for _ in range(3):
            start = time.perf_counter_ns()
            for item in items:
                fn(item)
            runs.append((time.perf_counter_ns() - start) / len(items))
        out[name] = statistics.median(runs)
    return out


def recognize_paths(workload: Workload) -> dict[str, float]:
    """Share of the first TRACED_DOCS documents' tokens that each path of
    `recognize` serves: the word as written, its accent-folded key, a hit
    only after the prothetic prefix is stripped, or no analysis.  The
    generator's spelling shares are assumptions; this is what they come to."""
    index = workload.index if workload.index is not None else workload.build(0)
    forms = index.forms()
    folded = {orthography.fold_key(form, FOLD) for form in forms}
    with open(workload.inputs / "stream.txt", encoding="utf-8") as handle:
        tokens = [t for _, line in zip(range(TRACED_DOCS), handle) for t in line.split()]
    paths = dict.fromkeys(("exact", "folded", "prothesis", "miss"), 0)
    for token in tokens:
        query = orthography.canonical(token)
        if not lexicon.recognize(index, token):
            paths["miss"] += 1
        elif query in forms:
            paths["exact"] += 1
        elif orthography.fold_key(query, FOLD) in folded:
            paths["folded"] += 1
        else:
            paths["prothesis"] += 1
    return {path: n / len(tokens) for path, n in paths.items()}


def _fresh_interpreter(code: str, env: dict) -> tuple[float, float]:
    """Medians over fresh interpreters running code: (wall seconds,
    the number the code prints, or 0)."""
    walls, printed = [], []
    for _ in range(PROBE_REPEATS):
        start = time.perf_counter()
        done = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                              capture_output=True, text=True, timeout=60)
        walls.append(time.perf_counter() - start)
        printed.append(float(done.stdout or 0))
    return statistics.median(walls), statistics.median(printed)


def run_traced(workload: Workload, seconds: float, work: Path) -> dict:
    """Per-layer metrics.  Half the time runs the loop untraced, for the
    overhead baseline; then, with the wrappers installed, one base build,
    a fixed set of operations and, off the cli-session workload, one
    pass of the CLI mix, so that every layer is reached."""
    workload.setup(repeats=1)
    untraced, _ = loop(workload, seconds / 2)
    cli = workload if isinstance(workload, CliSession) else CliSession(workload.inputs, workload.checker)
    if cli is not workload:
        loop(cli, 0)  # one untraced pass, for the per-command times
    tracer = spans.Tracer()
    totals = spans.LayerTotals()
    span_dir = work / "spans"
    span_dir.mkdir(parents=True, exist_ok=True)
    child_files = []

    def traced_op(w, i):
        path = None
        if isinstance(w, CliSession):
            path = span_dir / f"{workload.name}-cli-{len(child_files):03d}.tsv"
            child_files.append(path)
        return w.op(i, path)[0]

    with spans.installed(tracer):
        if cli is not workload:
            workload.setup(repeats=1)
        first_span, first_child = len(tracer.spans), len(child_files)
        traced = [traced_op(workload, i) for i in range(workload.traced_ops)]
        covered = spans.covered_ns(tracer.spans[first_span:])
        for path in child_files[first_child:]:
            covered += spans.covered_ns(spans.read_spans(path))
        if cli is not workload:
            for i in range(cli.cycle):
                traced_op(cli, i)
    tracer.write(span_dir / f"{workload.name}-main.tsv")
    totals.add(tracer.spans)
    for path in child_files:
        totals.add(spans.read_spans(path))

    env = child_env()
    metrics = layer_metrics(totals, orthography_ns(workload))
    metrics["cli.startup_s"] = (_fresh_interpreter("pass", env)[0], "s")
    metrics["cli.import_s"] = (_fresh_interpreter(
        "import time; t = time.perf_counter(); import gdmorph.cli; print(time.perf_counter() - t)",
        env)[1], "s")
    for path, share in recognize_paths(workload).items():
        metrics[f"lexicon.recognize.{path}_share"] = (share, "ratio")
    for name, values in cli.call_s.items():
        metrics[f"cli.{name}.s.p50"] = (statistics.median(values), "s")
    metrics["cli.unexpected_exit"] = (cli.unexpected_exit, "count")
    metrics["trace.overhead_ratio"] = (statistics.median(traced) / statistics.median(untraced), "ratio")
    metrics["trace.accounted_ratio"] = (covered / 1e9 / sum(traced), "ratio")
    return metrics


def layer_metrics(t: spans.LayerTotals, ortho_ns: dict[str, float]) -> dict:
    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    builds = t.calls.get("lexicon.build", 0)
    recognized = t.calls.get("lexicon.recognize", 0)
    attempted, failed = t.count("rules.derive", 0), t.count("rules.derive", 1)
    m = {
        "svf.load.busy_s": (t.per_call_s("svf.load"), "s"),
        "svf.load.lines_per_s": (ratio(t.count("svf.load", 0), t.busy_ns.get("svf.load", 0) / 1e9), "1/s"),
        "svf.load.line_errors": (t.count("svf.load", 1), "count"),
        "rules.parse.busy_s": (t.per_call_s("rules.parse"), "s"),
        "rules.derive.calls": (t.calls.get("rules.derive", 0), "count"),
        "rules.derive.busy_s": (t.per_call_s("rules.derive"), "s"),
        "rules.derive.self_s": (t.per_call_s("rules.derive", t.self_ns), "s"),
        "rules.inflect.calls": (t.calls.get("rules.inflect", 0), "count"),
        "rules.inflect.busy_s": (t.per_call_s("rules.inflect"), "s"),
        "rules.forms.attempted": (attempted, "count"),
        "rules.forms.failed": (failed, "count"),
        "rules.forms.success_ratio": (1 - ratio(failed, attempted), "ratio"),
        "lexicon.vocabulary.busy_s": (t.per_call_s("lexicon.vocabulary"), "s"),
        "lexicon.build.busy_s": (t.per_call_s("lexicon.build"), "s"),
        "lexicon.build.self_s": (t.per_call_s("lexicon.build", t.self_ns), "s"),
        "lexicon.index.distinct_forms": (ratio(t.count("lexicon.build", 0), builds), "count"),
        "lexicon.index.failures": (ratio(t.count("lexicon.build", 1), builds), "count"),
        "lexicon.recognize.calls": (recognized, "count"),
        "lexicon.recognize.ns_per_call": (ratio(t.busy_ns.get("lexicon.recognize", 0), recognized), "ns"),
        "lexicon.recognize.hit_ratio": (ratio(t.count("lexicon.recognize", 1), recognized), "ratio"),
        "lexicon.recognize.analyses_per_hit": (
            ratio(t.count("lexicon.recognize", 0), t.count("lexicon.recognize", 1)), "count"),
    }
    for name, ns in ortho_ns.items():
        m[f"orthography.{name}.ns_per_call"] = (ns, "ns")
    m.update({
        "analysis.load_freq.busy_s": (t.per_call_s("analysis.load_freq"), "s"),
        "analysis.coverage.busy_s": (t.per_call_s("analysis.coverage"), "s"),
        "analysis.coverage.rows_per_s": (
            ratio(t.count("analysis.coverage", 0), t.busy_ns.get("analysis.coverage", 0) / 1e9), "1/s"),
        "analysis.stats.busy_s": (t.per_call_s("analysis.stats"), "s"),
        "export.emit_inserts.busy_s": (t.per_call_s("export.emit_inserts"), "s"),
        "export.render_paradigm.busy_s": (t.per_call_s("export.render_paradigm"), "s"),
    })
    return m
