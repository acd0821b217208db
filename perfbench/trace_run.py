"""Traced run: the workload's jobs in-process, with spans around public calls.

Each job runs ``ruledict.cli.main(argv)`` twice in this process, once
plain and once with the public functions of each module wrapped from
outside, so the engine itself is unchanged. A span records its name,
start, end, parent span and job. Spans stay in memory and are written as
JSON lines when the run ends. A layer's self time is its span minus its
child spans.

After the traced call, the job's rule is evaluated again by a replay
fold that calls the exported ``unit_dictionary`` and ``combine`` once per
node. The replay counts nodes and entries per node and must produce the
same dictionary as ``eval_rule``.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import sys
import time
import traceback
import types


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.stack: list[int] = []
        self.job = None
        self.origin = time.perf_counter()

    def open(self, name: str) -> dict:
        rec = {
            "id": len(self.spans),
            "name": name,
            "job": self.job,
            "parent": self.stack[-1] if self.stack else None,
            "start": time.perf_counter() - self.origin,
        }
        self.spans.append(rec)
        self.stack.append(rec["id"])
        return rec

    def close(self, rec: dict, error: Exception | None = None) -> None:
        rec["end"] = time.perf_counter() - self.origin
        self.stack.pop()
        if error is not None:
            rec["error"] = type(error).__name__

    @contextlib.contextmanager
    def span(self, name: str):
        rec = self.open(name)
        try:
            yield rec
        except Exception as exc:
            self.close(rec, exc)
            raise
        self.close(rec)

    def wrap(self, name: str, fn, count=None):
        """``fn`` inside a span; ``count(result)`` adds counts to the span."""

        def traced(*args, **kwargs):
            rec = self.open(name)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self.close(rec, exc)
                raise
            self.close(rec)
            if count is not None:
                rec.update(count(result))
            return result

        return traced

    def self_times(self) -> list[float]:
        own = [_length(rec) for rec in self.spans]
        for rec in self.spans:
            if rec["parent"] is not None:
                own[rec["parent"]] -= _length(rec)
        return own


def _length(rec: dict) -> float:
    return rec["end"] - rec["start"]


@contextlib.contextmanager
def patched(replacements):
    """Temporarily set attributes: [(owner, name, value)]."""
    saved = [(owner, name, getattr(owner, name)) for owner, name, _ in replacements]
    try:
        for owner, name, value in replacements:
            setattr(owner, name, value)
        yield
    finally:
        for owner, name, value in reversed(saved):
            setattr(owner, name, value)


def instrument(tracer: Tracer, rd, fits: list, evaluated: list):
    """Replacements that put spans around the public calls of each module."""
    cli, core, grouping, select = rd.cli, rd.core, rd.grouping, rd.select
    np = select.np

    def entries_out(d):
        evaluated.append(d)
        return {"entries_out": len(d)}

    lstsq = np.linalg.lstsq

    def counted_lstsq(*args, **kwargs):
        fits[0] += 1
        return lstsq(*args, **kwargs)

    json_proxy = types.ModuleType("json")
    json_proxy.__dict__.update(json.__dict__)
    json_proxy.dumps = tracer.wrap("cli.emit", json.dumps)
    w = tracer.wrap
    return [
        (cli, "read_rule_document", w("dsl.parse", cli.read_rule_document)),
        (cli, "format_rule", w("dsl.format", cli.format_rule)),
        (cli, "eval_rule", w("rules.eval", cli.eval_rule, entries_out)),
        (core.Dictionary, "to_json_obj", w("core.to_json", core.Dictionary.to_json_obj)),
        (cli, "json", json_proxy),
        (cli, "synthesize_log_grouping", w("grouping.synth", cli.synthesize_log_grouping,
                                           lambda g: {"groups": len(g.groups)})),
        (grouping, "union_closure", w("grouping.closure", grouping.union_closure,
                                      lambda d: {"closure_entries": len(d)})),
        (cli, "check_log_congruence", w("grouping.check", cli.check_log_congruence)),
        (cli, "check_ogl_necessary", w("grouping.check", cli.check_ogl_necessary)),
        (cli, "load_dataset", w("select.load", cli.load_dataset)),
        (cli, "select_best", w("select.rank", cli.select_best)),
        (select, "fit_ols", w("select.fit", select.fit_ols)),
        (np.linalg, "lstsq", counted_lstsq),
    ]


def call_main(cli, argv) -> tuple[int, bytes, bytes]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except Exception:
            traceback.print_exc()
            code = 1
    return code, out.getvalue().encode(), err.getvalue().encode()


def replay(rd, rule_text: str, stats: dict):
    """Post-order fold over the rule with the exported per-node operations."""
    rules = rd.rules
    u, expr = rd.dsl.read_rule_document(rule_text)
    binary = {rules.And: "and", rules.Or: "or", rules.Implies: "implies"}
    done: dict[int, object] = {}
    stack = [(expr, False)]
    while stack:
        node, expanded = stack.pop()
        if isinstance(node, rules.Unit):
            t = time.perf_counter()
            d = rules.unit_dictionary(u, node.rule)
            stats["unit_s"] += time.perf_counter() - t
        elif not expanded:
            stack.append((node, True))
            children = [node.child] if isinstance(node, rules.Not) else [node.left, node.right]
            stack.extend((c, False) for c in reversed(children))
            continue
        else:
            t = time.perf_counter()
            if isinstance(node, rules.Not):
                d = rules.combine("not", u, done.pop(id(node.child)))
            else:
                left, right = done.pop(id(node.left)), done.pop(id(node.right))
                d = rules.combine(binary[type(node)], u, left, right)
            stats["combine_s"] += time.perf_counter() - t
        stats["nodes"] += 1
        stats["node_entries"] += len(d)
        stats["peak_node_entries"] = max(stats["peak_node_entries"], len(d))
        done[id(node)] = d
    return done[id(expr)]


def run(job_list, src: str, seconds: float, spans_path: str):
    """Traced passes over the job list; returns (metrics, attempted, failed, problems)."""
    sys.path.insert(0, src)
    import ruledict.cli  # noqa: F401  (loads every module the CLI uses)

    rd = sys.modules["ruledict"]
    tracer = Tracer()
    fits = [0]
    stats = {"unit_s": 0.0, "combine_s": 0.0, "nodes": 0, "node_entries": 0,
             "peak_node_entries": 0}
    plain_s = traced_s = cv_s = 0.0
    entries_out = stdout_bytes = 0
    problems, attempted, failed = [], 0, 0
    start = time.perf_counter()
    while True:
        for i, job in enumerate(job_list):
            tracer.job = f"{job.name}#{attempted}"
            evaluated: list = []
            results = {}
            # Alternate which of the two calls goes first, so that neither
            # always meets the other's garbage or warm caches.
            for traced in ((False, True) if i % 2 == 0 else (True, False)):
                gc.collect()
                if traced:
                    before = len(tracer.spans)
                    with patched(instrument(tracer, rd, fits, evaluated)):
                        with tracer.span("cli.main") as main_rec:
                            results[traced] = call_main(rd.cli, job.argv)
                    traced_s += _length(main_rec)
                    job_spans = tracer.spans[before:]
                else:
                    t = time.perf_counter()
                    results[traced] = call_main(rd.cli, job.argv)
                    plain_s += time.perf_counter() - t
            attempted += 1
            problem = job.verify(*results[True]) or job.verify(*results[False])
            stdout_bytes += len(results[True][1])
            if "cv" in job.argv:
                cv_s += sum(_length(r) for r in job_spans if r["name"] == "select.rank")
                cv_s -= sum(_length(r) for r in job_spans if r["name"] == "select.fit")
            if not problem and len(evaluated) == 1:
                entries_out += len(evaluated[0])
                replayed = replay(rd, job.rule_text, stats)
                if replayed.masks() != evaluated[0].masks():
                    problem = "replay fold disagrees with eval_rule"
            if problem:
                failed += 1
                problems.append(f"{job.name}: {problem}")
        if time.perf_counter() - start >= seconds:
            break

    with open(spans_path, "w") as fh:
        for rec in tracer.spans:
            fh.write(json.dumps(rec) + "\n")

    own = tracer.self_times()
    total = {}
    for rec in tracer.spans:
        total[rec["name"]] = total.get(rec["name"], 0.0) + _length(rec)

    def calls(name):
        return [r for r in tracer.spans if r["name"] == name]

    main_s = total.get("cli.main", 0.0)
    main_self = sum(t for rec, t in zip(tracer.spans, own) if rec["name"] == "cli.main")
    n = attempted
    synth, closures = calls("grouping.synth"), calls("grouping.closure")
    rank_s = total.get("select.rank", 0.0)

    def span_s(name):
        return (total.get(name, 0.0) / n, "s")

    metrics = {
        "cli.main_s": span_s("cli.main"),
        "dsl.parse_s": span_s("dsl.parse"),
        "dsl.format_s": span_s("dsl.format"),
        "rules.eval_s": span_s("rules.eval"),
        "rules.unit_s": (stats["unit_s"] / n, "s"),
        "rules.combine_s": (stats["combine_s"] / n, "s"),
        "rules.nodes": (stats["nodes"] / n, "count"),
        "rules.node_entries": (stats["node_entries"] / n, "count"),
        "rules.peak_node_entries": (stats["peak_node_entries"], "count"),
        "rules.useful_ratio": (entries_out / stats["node_entries"] if stats["node_entries"] else 0.0, "ratio"),
        "core.to_json_s": span_s("core.to_json"),
        "core.entries_out": (entries_out / n, "count"),
        "cli.emit_s": span_s("cli.emit"),
        "cli.stdout_bytes": (stdout_bytes / n, "bytes"),
        "grouping.synth_s": span_s("grouping.synth"),
        "grouping.groups": (sum(r["groups"] for r in synth) / len(synth) if synth else 0.0, "count"),
        "grouping.closure_s": span_s("grouping.closure"),
        "grouping.closure_entries": (
            sum(r["closure_entries"] for r in closures) / len(closures) if closures else 0.0, "count"),
        "grouping.check_s": span_s("grouping.check"),
        "select.load_s": span_s("select.load"),
        "select.rank_s": span_s("select.rank"),
        "select.fit_s": span_s("select.fit"),
        "select.cv_s": (cv_s / n, "s"),
        "select.fits": (fits[0] / n, "count"),
        "select.fits_per_s": (fits[0] / rank_s if rank_s else 0.0, "1/s"),
        "select.rank_deficient": (
            sum(1 for r in calls("select.rank") if r.get("error") == "RankDeficient"), "count"),
        "trace.overhead_ratio": (traced_s / plain_s, "ratio"),
        "trace.unaccounted_ratio": (main_self / main_s, "ratio"),
    }
    return metrics, attempted, failed, problems
