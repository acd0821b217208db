"""Command line front end.

Subcommands map one-to-one onto the library layers: ``dict`` evaluates a
rule to its dictionary, ``equiv`` compares two rules, ``check`` tests a
grouping against a rule, ``synthesize`` builds a grouping from a rule,
``select`` runs dictionary-constrained best-subset OLS, and
``from-dict`` reconstructs a rule from an explicit dictionary.

Exit codes: 0 on success, 1 when a negative verdict was computed (not
congruent, not equivalent, no grouping exists, estimation impossible on
this data), 2 when the inputs could not be processed at all. Whenever
the exit code is 0 or 1 standard output holds a single JSON document;
diagnostics go to standard error. The environment variable
``RULEDICT_MAX_ENUM`` overrides the enumeration cap.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from functools import cache

from .core import (
    DEFAULT_MAX_ENUM,
    Dictionary,
    Universe,
    make_universe,
    parse_braced_names,
)
from .dsl import format_rule, is_rule_name, read_rule_document, split_names
from .errors import DomainError, ParseError, RuledictError, SynthesisFailure
from .rules import (
    StageResult,
    eval_rule,
    expr_from_json_obj,
    rule_from_dictionary,
    rules_equivalent,
    sequential_nodes,
)


def __getattr__(name: str):
    """Bind a name that :data:`ruledict._LAZY` lists, loading its module (PEP 562).

    ``.grouping`` loads for ``check`` and ``synthesize`` only, and
    ``.select``, which imports numpy, for ``select`` only.
    """
    package = sys.modules[__package__]
    if not any(name in names for names in package._LAZY.values()):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(package, name)
    return value


# This module: a handler that reads a lazy name as its attribute loads that
# name's module (``.grouping``, or numpy for ``select``) only when it runs,
# and calls a name that was rebound (to time it, say) as rebound.
_this = sys.modules[__name__]


def _error_tag(exc: Exception) -> str:
    """The kebab-case form of the error's class name."""
    return re.sub(r"(?<!^)(?=[A-Z])", "-", type(exc).__name__).lower()


def _emit(obj: dict) -> None:
    """Write ``json.dumps(obj, indent=2)`` and a newline to stdout, for a non-empty ``obj``.

    The values are written one at a time, and Dictionary values are
    streamed by :func:`_write_dictionary` instead of being built as
    nested lists first.
    """
    write = sys.stdout.write
    sep = "{"
    for key, value in obj.items():
        write(f"{sep}\n  {json.dumps(key)}: ")
        if isinstance(value, Dictionary):
            _write_dictionary(write, value)
        else:
            # Encoded strings hold no raw newline, so this only re-indents.
            write(json.dumps(value, indent=2).replace("\n", "\n  "))
        sep = ","
    write("\n}\n")


#: Characters per stdout or stderr write, one Linux pipe buffer. Names go
#: through ``json.dumps``, so the text is ASCII and a character is a byte.
_WRITE_BYTES = 1 << 16


def _write_pieces(write, pieces) -> None:
    """Write the strings ``pieces`` in order, each write under :data:`_WRITE_BYTES` characters and one piece."""
    parts, pending = [], 0
    for piece in pieces:
        parts.append(piece)
        pending += len(piece)
        if pending >= _WRITE_BYTES:
            write("".join(parts))
            parts, pending = [], 0
    if parts:
        write("".join(parts))


def _write_dictionary(write, d: Dictionary) -> None:
    """Write ``d.to_json_obj()`` as ``json.dumps(..., indent=2)`` lays out a top-level value.

    Each name is encoded once. A mask is cut after its first ``k = min(ceil(n/2), 10)``
    variables, and an entry's text joins the name block of its low half with
    those of its high half's ten-name slices: at most 1,024 blocks per slice,
    each made once, whatever the universe's width. :meth:`Dictionary.halves`
    reads the runs of one high half straight from the storage, and hands each
    distinct run once to the builder of its list of low-half blocks and its
    longest length. A run is cut into slices that this length bounds to
    :data:`_WRITE_BYTES`; each slice is one ``join``, and one piece to write.
    """
    if not d:
        write("[]")
        return
    names = [f",\n      {json.dumps(name)}" for name in d.universe.names]
    k = min((len(names) + 1) // 2, 10)

    @cache
    def block(key: int) -> str:
        """For ``key = start << 10 | bits``, the names ``start + i`` for the set bits ``i`` of ``bits``.

        From 0, ``[`` and those names less the first comma. One int key takes
        the cache's fast path, and a low half's block is ``block(low)``.
        """
        start, bits = key >> 10, key & 1023
        text = "".join([names[start + i] for i in range(bits.bit_length()) if bits >> i & 1])
        return text if start else "[" + text[1:]

    def pieces():
        sep = "[\n    "
        for high, (run, longest) in d.halves(k, lambda lows: (run := [*map(block, lows)], max(map(len, run)))):
            tail = "".join([block(start << 10 | high >> (start - k) & 1023) for start in range(k, len(names), 10)]) + "\n    ]"
            if run[0] == "[":  # low half 0, the one bare block: the high half's names alone
                yield sep + ("[" + tail[1:] if high else "[]")
                sep = ",\n    "
            step = max(1, _WRITE_BYTES // (longest + len(tail) + len(sep)))
            for start in range(run[0] == "[", len(run), step):
                yield sep
                yield (tail + ",\n    ").join(run[start:start + step])
                yield tail
                sep = ",\n    "
        yield "\n  ]"

    _write_pieces(write, pieces())


def _write_ranking(u: Universe, ranked) -> None:
    """Write the ranking to stdout, then its table to stderr, from the block that ``select_best`` ranked.

    Stdout is byte for byte ``json.dumps(payload, indent=2)`` and a newline,
    where ``payload`` lists ``{"subset", "score", "intercept",
    "coefficients"}`` per model and a ``-inf`` score is the string
    ``"-inf"``. Each name is quoted once. A model's values are written with
    one ``map(float.__repr__, ...)``, as ``json`` writes finite floats, when
    their sum is finite, and by :func:`_number` otherwise. Each model's
    text is made as it is written.
    """
    quoted = [json.dumps(name) for name in u.names]

    def items():
        sep = "[\n  "
        for mask, values in ranked._ranked():
            texts = list(map(float.__repr__ if math.isfinite(sum(values)) else _number, values))
            idx = [i for i in range(mask.bit_length()) if mask >> i & 1]
            if idx:
                subset = "[\n      " + ",\n      ".join([quoted[i] for i in idx]) + "\n    ]"
                coefficients = "{\n      " + ",\n      ".join(
                    [f"{quoted[i]}: {text}" for i, text in zip(idx, texts[2:])]
                ) + "\n    }"
            else:
                subset, coefficients = "[]", "{}"
            score = '"-inf"' if values[0] == -math.inf else texts[0]
            yield (
                f'{sep}{{\n    "subset": {subset},\n    "score": {score},\n'
                f'    "intercept": {texts[1]},\n    "coefficients": {coefficients}\n  }}'
            )
            sep = ",\n  "
        yield "\n]\n"

    _write_pieces(sys.stdout.write, items())
    write = sys.stderr.write
    write(f"criterion: {ranked.criterion}\n{'rank':>4}  {'score':>14}  subset\n")
    _write_pieces(write, (
        f"{rank:>4}  {values[0]:>14.6g}  {{{','.join([u.names[i] for i in range(mask.bit_length()) if mask >> i & 1])}}}\n"
        for rank, (mask, values) in enumerate(ranked._ranked(), 1)
    ))


def _number(value: float) -> str:
    """``value`` as ``json.dumps`` writes a float."""
    return float.__repr__(value) if math.isfinite(value) else json.dumps(value)


def _rule_inputs(args) -> tuple:
    """``(cap, u, expr)``: the enumeration cap, checked first, then the rule of ``--rule`` over ``--vars``."""
    raw = os.environ.get("RULEDICT_MAX_ENUM", str(DEFAULT_MAX_ENUM))
    try:
        cap = int(raw)
    except ValueError:
        raise RuledictError(f"RULEDICT_MAX_ENUM is not an integer: {raw!r}") from None
    if cap < 1:
        raise RuledictError(f"RULEDICT_MAX_ENUM must be positive, got {cap}")
    return (cap, *_load_rule(args.rule, None if args.vars is None else make_universe(split_names(args.vars))))


def _read(path: str):
    """The text of ``path``, or its decoded JSON when it is named *.json."""
    # utf-8-sig drops a byte order mark, as load_dataset does for CSV.
    try:
        with open(path, encoding="utf-8-sig") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason})") from None
    if not path.endswith(".json"):
        return text
    try:
        return json.loads(text)
    except RecursionError:
        raise RuledictError(f"{path}: JSON nested too deeply to decode") from None


def _load_rule(path: str, universe: Universe | None):
    """Read a rule file (DSL text, or JSON when named *.json).

    Returns (universe, expression). A given ``universe``, from --vars or
    another rule, overrides whatever the file declares.
    """
    content = _read(path)
    if not path.endswith(".json"):
        return read_rule_document(content, universe=universe)
    if not isinstance(content, dict) or "rule" not in content:
        raise RuledictError(f"{path}: expected an object with a 'rule' field")
    if universe is not None:
        u = universe
    elif "vars" in content:
        if not isinstance(content["vars"], list):
            raise RuledictError(f"{path}: 'vars' must be an array of names")
        u = make_universe(content["vars"])
    else:
        raise RuledictError(f"{path}: no 'vars' field and no --vars given")
    return u, expr_from_json_obj(u, content["rule"])


def _load_family(path: str, u: Universe, cls, key: str):
    """A grouping or dictionary file: text, or JSON that may wrap it as ``{key: ...}``."""
    content = _read(path)
    if not path.endswith(".json"):
        return cls.from_text(u, content)
    if isinstance(content, dict) and key in content:
        content = content[key]
    return cls.from_json_obj(u, content)


def _stages_for(expr, u: Universe, stage_specs: list[str]):
    """The stages keyed by sequential operator (outermost first), and as given.

    Structurally equal operators share one key, so they need equal values.
    """
    nodes = sequential_nodes(expr)
    if len(stage_specs) > len(nodes):
        raise RuledictError(
            f"{len(stage_specs)} --stage values but the rule has "
            f"{len(nodes)} sequential operator(s)"
        )
    given = [StageResult(parse_braced_names(u, spec, "stage result")) for spec in stage_specs]
    stages = {}
    for node, stage in zip(nodes, given):
        if stages.setdefault(node, stage) != stage:
            raise RuledictError(
                f"equal sequential operators got different --stage values "
                f"{stages[node].chosen.to_text()} and {stage.chosen.to_text()}"
            )
    return stages, given


def _cmd_dict(args) -> int:
    cap, u, expr = _rule_inputs(args)
    stages, given = _stages_for(expr, u, args.stage)
    d = eval_rule(u, expr, stages=stages, max_entries=cap)
    payload = {
        "universe": list(u.names),
        "rule": format_rule(expr),
        "size": len(d),
        "dictionary": d,
    }
    if given:
        payload["stages"] = [list(s.chosen) for s in given]
    _emit(payload)
    return 0


def _cmd_equiv(args) -> int:
    cap, u, e1 = _rule_inputs(args)
    _, e2 = _load_rule(args.rule2, u)
    same = rules_equivalent(u, e1, e2, max_entries=cap)
    _emit(
        {
            "universe": list(u.names),
            "rule": format_rule(e1),
            "rule2": format_rule(e2),
            "equivalent": same,
        }
    )
    return 0 if same else 1


def _cmd_check(args) -> int:
    cap, u, expr = _rule_inputs(args)
    g = _load_family(args.grouping, u, _this.GroupingStructure, "groups")
    d = eval_rule(u, expr, max_entries=cap)
    if args.method == "log":
        report = _this.check_log_congruence(d, g, max_entries=cap)
    else:
        report = _this.check_ogl_necessary(d, g, max_entries=cap)
    payload = {
        "method": args.method,
        "congruent": report.congruent,
        "missing": report.missing,
        "extra": report.extra,
    }
    if report.rule_family is not None:
        payload["rule_family"] = report.rule_family
        payload["method_family"] = report.method_family
    _emit(payload)
    return 0 if report.congruent else 1


def _cmd_synthesize(args) -> int:
    cap, u, expr = _rule_inputs(args)
    d = eval_rule(u, expr, max_entries=cap)
    g = _this.synthesize_log_grouping(d)
    _emit(
        {
            "universe": list(u.names),
            "rule": format_rule(expr),
            "groups": g.to_json_obj(),
        }
    )
    return 0


def _cmd_select(args) -> int:
    cap, u, expr = _rule_inputs(args)
    d = eval_rule(u, expr, max_entries=cap)
    # Each fit is a solve of a few columns: a second OpenBLAS thread gains
    # nothing on it and waits out any process that holds the other core,
    # and select_best forks its workers only where no BLAS pool runs.
    # Read when numpy loads, so it holds unless numpy is already loaded.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    data = _this.load_dataset(args.data, args.outcome, u)
    ranked = _this.select_best(
        data, d, args.criterion, folds=args.folds, seed=args.seed
    )
    _write_ranking(u, ranked)
    return 0


def _cmd_from_dict(args) -> int:
    u = make_universe(split_names(args.vars))  # argparse requires --vars here
    for name in u.names:
        if not is_rule_name(name):
            raise RuledictError(f"rule text cannot name the variable {name!r}")
    d = _load_family(args.dict, u, Dictionary, "dictionary")
    expr = rule_from_dictionary(u, d)
    _emit(
        {
            "universe": list(u.names),
            "size": len(d),
            "rule": format_rule(expr),
        }
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ruledict",
        description="Selection rules, their dictionaries, groupings, and "
        "dictionary-constrained subset selection.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def rule_flags(p):
        p.add_argument("--rule", required=True, help="rule file (DSL text or .json)")
        p.add_argument("--vars", help="comma-separated universe, overrides the file")

    p = sub.add_parser("dict", help="evaluate a rule to its selection dictionary")
    rule_flags(p)
    p.add_argument(
        "--stage",
        action="append",
        default=[],
        metavar="NAME_SET",
        help="first-stage outcome like '{A,B}', repeatable, assigned to "
        "sequential operators outermost first",
    )
    p.set_defaults(func=_cmd_dict)

    p = sub.add_parser("equiv", help="decide whether two rules share a dictionary")
    rule_flags(p)
    p.add_argument("--rule2", required=True, help="second rule file")
    p.set_defaults(func=_cmd_equiv)

    p = sub.add_parser("check", help="compare a grouping's pattern family to a rule")
    rule_flags(p)
    p.add_argument("--grouping", required=True, help="grouping file (text or .json)")
    p.add_argument("--method", required=True, choices=["log", "ogl"])
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("synthesize", help="build a grouping realising a rule exactly")
    rule_flags(p)
    p.set_defaults(func=_cmd_synthesize)

    p = sub.add_parser("select", help="best-subset OLS restricted to a dictionary")
    rule_flags(p)
    p.add_argument("--data", required=True, help="CSV file with a header row")
    p.add_argument("--outcome", required=True, help="outcome column name")
    p.add_argument("--criterion", required=True, choices=["aic", "bic", "adjr2", "cv"])
    p.add_argument("--folds", type=int, help="fold count, cv only")
    p.add_argument("--seed", type=int, help="shuffle rows before folding, cv only")
    p.set_defaults(func=_cmd_select)

    p = sub.add_parser("from-dict", help="reconstruct a rule from a dictionary")
    p.add_argument("--dict", required=True, help="dictionary file (text or .json)")
    p.add_argument("--vars", required=True, help="comma-separated universe")
    p.set_defaults(func=_cmd_from_dict)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except DomainError as exc:
        payload = {"error": _error_tag(exc), "message": str(exc)}
        if isinstance(exc, SynthesisFailure):
            payload["reason"] = exc.reason
            payload["witness"] = (
                [list(w) for w in exc.witness] if exc.witness else None
            )
        _emit(payload)
        return 1
    except (RuledictError, OSError, ValueError, Warning) as exc:
        # json.JSONDecodeError is a ValueError; so are bad numeric flags. A
        # Warning is raised when the warnings filter says "error".
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except MemoryError:  # its text is usually empty
        sys.stderr.write("error: out of memory\n")
        return 2


def entry() -> None:
    """Run :func:`main`, flush stdout and stderr, and skip interpreter teardown by ``os._exit``.

    Safe, as every file is closed by a ``with`` and ``select`` has reaped its
    workers when ``main`` returns. A failed flush is one ``error:`` line and exit 2.
    """
    code = main(sys.argv[1:])
    try:
        try:
            sys.stdout.flush()
        except OSError as exc:
            if code != 2:  # else main has written its error line
                sys.stderr.write(f"error: {exc}\n")
            code = 2
        sys.stderr.flush()
    except OSError:
        code = 2
    os._exit(code)


if __name__ == "__main__":
    entry()
