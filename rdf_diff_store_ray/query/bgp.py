"""Basic-graph-pattern (SPARQL-subset) evaluator + cached diff-store reader.

The reference loads all live graphs at ``ts`` into an in-memory oxigraph
store and runs SPARQL (``/root/reference/src/query.rs:117-145``). This
engine holds the reconstructed state as an Arrow triple table and evaluates
BGPs — conjunctions of triple patterns with shared variables — via Arrow
hash joins on the variable columns, plus ``FILTER``
(=, !=, numeric and lexical <, <=, >, >=), ``OPTIONAL`` (left-outer
merge), typed literals (``"5"^^<dt>``) and language tags (``"x"@en``).
Binding sets are Arrow tables from the scan through the joins, GROUP BY
and finalization; the clauses not ported yet run as one pandas block
(:func:`_frame_ops`). Results are SPARQL-JSON-shaped bindings; unbound
OPTIONAL variables are omitted, as SPARQL does.

Query syntax::

    ?s <https://kg.example/prop/acquired> ?o
    ?s <p1> ?m . ?m <p2> "lit"
    ?s <p> ?v . FILTER(?v >= 10)
    ?s <p1> ?o . OPTIONAL { ?s <p2> ?label }
    { ?s <p1> ?o } UNION { ?s <p2> ?o }
    ?s <p> "name"@en . ?s <q> "5"^^<http://www.w3.org/2001/XMLSchema#integer>

:class:`DiffStoreReader` mirrors the reference's ``QueryCache``
(``src/query.rs:28-43``) through the shared front door
(:mod:`.front`): a ``(ts, query)`` LRU and one per-instant LRU of the
forms materialized at ``ts`` (triple table, quad table, merged
document), 1000 entries each, with the same ``CacheLevel`` reporting
(``src/query.rs:14-26``). At cluster scale one reader actor serves each
delta-log partition and a router merges bindings; in-sandbox a single
reader holds the (small) log.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import math
import re
from collections import OrderedDict
from json.encoder import encode_basestring_ascii

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ..state import reconstruct
from .front import AsOfReads, ts_key


class LRU:
    """Tiny LRU. Thread-safe: the HTTP server shares one
    :class:`DiffStoreReader` across handler threads, so get/put must not
    race a ``move_to_end`` against an eviction (KeyError / corrupted
    eviction order under concurrent reads)."""

    def __init__(self, cap: int = 1000):
        import threading

        self.cap = cap
        self.d: OrderedDict = OrderedDict()
        self._lock = threading.Lock()

    def get(self, k):
        with self._lock:
            if k in self.d:
                self.d.move_to_end(k)
                return self.d[k]
            return None

    def put(self, k, v):
        with self._lock:
            self.d[k] = v
            self.d.move_to_end(k)
            while len(self.d) > self.cap:
                self.d.popitem(last=False)

    def items(self) -> list:
        """The ``(key, value)`` entries, least recent first."""
        with self._lock:
            return list(self.d.items())

    def filtered(self, keep) -> "LRU":
        """A new LRU of the same capacity holding the entries whose key
        passes ``keep``, in the same recency order."""
        out = LRU(self.cap)
        with self._lock:
            out.d.update((k, v) for k, v in self.d.items() if keep(k))
        return out


def parse_bgp(query: str):
    """Parse ``pat ( . pat)*`` where pat = 3 terms — the base group's
    pattern list (legacy surface; :func:`parse_query` is the full
    grammar)."""
    return parse_query(query)["patterns"]


_NO_MODIFIERS = {"select": None, "distinct": False, "order_by": None,
                 "limit": None, "offset": 0, "ask": False, "construct": None,
                 "describe": None, "group_by": None, "aggregates": None,
                 "having": None, "select_exprs": None, "agg_exprs": None,
                 "from_graphs": None, "from_named": None}


_PNAME_DECL = None
_PNAME_TOKEN = None
_SCHEME_RE = None


def _expand_prefixes(q: str) -> str:
    """Strip leading ``PREFIX ns: <iri>`` / ``BASE <iri>`` declarations
    and expand prefixed names (``ns:local``, ``:local``) into full
    ``<IRI>`` terms — quote-, IRI- and variable-aware, so colons inside
    string literals, IRIs and ``?vars`` are never touched. With a BASE,
    relative ``<ref>`` IRIs are resolved RFC-3986-style. Undefined
    prefixes raise. This is a pure text pre-pass, so every query form
    and every term position (patterns, paths, FILTER expressions,
    VALUES, GRAPH/FROM names, CONSTRUCT templates, ``^^dt`` suffixes)
    gets prefix support at once — matching how oxigraph accepts
    prefixed queries for the reference (`src/query.rs:102-114`)."""
    global _PNAME_DECL, _PNAME_TOKEN, _SCHEME_RE

    if _PNAME_DECL is None:
        _PNAME_DECL = re.compile(
            r"(?:PREFIX\s+([A-Za-z_][\w-]*)?:\s*<([^<>\s]*)>"
            r"|BASE\s+<([^<>\s]*)>)\s*",
            re.IGNORECASE,
        )
        # prefix ":" local — local may contain dots but not end in one
        _PNAME_TOKEN = re.compile(
            r"([A-Za-z_][\w-]*)?:([\w](?:[\w-]|\.(?=[\w.-]))*)?"
        )
        _SCHEME_RE = re.compile(r"^[A-Za-z][A-Za-z0-9+.-]*:")
    s = q.lstrip()
    prefixes: dict = {}
    base = None
    while m := _PNAME_DECL.match(s):
        if m.group(3) is not None:
            base = m.group(3)
        else:
            prefixes[m.group(1) or ""] = m.group(2)
        s = s[m.end():]
    if not prefixes and base is None:
        return q
    out, i, n = [], 0, len(s)
    while i < n:
        c = s[i]
        if c == '"':
            j = i + 1
            while j < n:
                if s[j] == "\\":
                    j += 2
                    continue
                if s[j] == '"':
                    break
                j += 1
            out.append(s[i : j + 1])
            i = j + 1
        elif c == "<" and (j := _iri_end(s, i)) is not None:
            ref = s[i + 1 : j]
            if base is not None and not _SCHEME_RE.match(ref):
                from urllib.parse import urljoin

                ref = urljoin(base, ref)
            out.append(f"<{ref}>")
            i = j + 1
        elif c in "?$":
            j = i + 1
            while j < n and (s[j].isalnum() or s[j] == "_"):
                j += 1
            out.append(s[i:j])
            i = j
        elif (c.isalnum() or c in "_:") and (
            m := _PNAME_TOKEN.match(s, i)
        ) and ":" in m.group(0):
            ns = m.group(1) or ""
            if ns not in prefixes:
                raise ValueError(
                    f"undefined prefix {ns!r}: in query (declared: "
                    f"{sorted(prefixes) or 'none'})"
                )
            out.append(f"<{prefixes[ns]}{m.group(2) or ''}>")
            i = m.end()
        elif c.isalnum() or c == "_":
            # a bare word without a colon: consume it whole so its inner
            # letters are never re-tested as a pname start
            j = i + 1
            while j < n and (s[j].isalnum() or s[j] == "_"):
                j += 1
            out.append(s[i:j])
            i = j
        else:
            out.append(c)
            i += 1
    return "".join(out)


def parse_query(query: str) -> dict:
    """Parse the SPARQL-subset grammar into a group dict::

        query   := group
                 | SELECT [DISTINCT] (?var... | *) WHERE { group }
                   [ORDER BY ?var...] [LIMIT n] [OFFSET n]
        group   := clause ( " . " clause )*
        clause  := pattern | FILTER( expr ) | FILTER [NOT] EXISTS { group }
                 | OPTIONAL { group } | MINUS { group }
                 | { group } UNION { group }
                 | VALUES ?v { data... } | VALUES (?v...) { (data...)... }
                 | BIND( operand AS ?v )
        pattern := term term term
        expr    := operand (= | != | < | <= | > | >=) operand
        operand := ?var | <iri> | "lit" | "lit"@lang | "lit"^^<dt> | number

    Returns ``{"patterns": [...], "filters": [...], "optionals":
    [group, ...], "unions": [[branch, ...], ...]}`` plus the solution
    modifiers ``select`` (var list or None = all), ``distinct``,
    ``order_by``, ``limit``, ``offset`` (defaults for a bare group).
    OPTIONAL, UNION, MINUS and EXISTS groups nest arbitrarily (each
    braced group is a full recursive group with its own scope).
    Evaluation order within a group is patterns → VALUES → unions →
    optionals → BINDs → MINUS → EXISTS → filters → modifiers (a fixed
    normal form of the spec's position-sensitive ordering). Grows the oxigraph-subset surface of
    ``src/query.rs:102-114`` toward the full SELECT form it accepts."""
    q = _expand_prefixes(query.strip())

    # fresh-label state for [ ... ] anonymous nodes: reset at the
    # OUTERMOST parse so labels are deterministic per query text and
    # unique across every nested scope (parse_query recurses for
    # subgroups; sharing one counter keeps a nested group's anon node
    # distinct from the outer group's)
    top_level = _ANON_STATE["depth"] == 0
    if top_level:
        _ANON_STATE["n"] = 0
    _ANON_STATE["depth"] += 1
    try:
        if re.match(r"^SELECT\b", q, re.IGNORECASE):
            return _parse_select(q)
        if re.match(r"^ASK\b", q, re.IGNORECASE):
            return _parse_ask(q)
        if re.match(r"^CONSTRUCT\b", q, re.IGNORECASE):
            return _parse_construct(q)
        if re.match(r"^DESCRIBE\b", q, re.IGNORECASE):
            return _parse_describe(q)
        group = _parse_group_body(q)
        group.update(_NO_MODIFIERS)
        return group
    finally:
        _ANON_STATE["depth"] -= 1


_ANON_STATE = {"depth": 0, "n": 0}


def _parse_ask(q: str) -> dict:
    """``ASK [WHERE] { group }`` → boolean query form."""

    rest = q[len("ASK"):].lstrip()
    if m := re.match(r"^WHERE\b", rest, re.IGNORECASE):
        rest = rest[m.end():].lstrip()
    if not rest.startswith("{"):
        raise ValueError("ASK needs a braced group")
    j = _match_brace(rest, 0)
    if rest[j + 1:].strip():
        raise ValueError(f"trailing text after ASK group: {rest[j+1:]!r}")
    group = _parse_group_body(rest[1:j].strip())
    group.update(_NO_MODIFIERS)
    group["ask"] = True
    return group


def _parse_construct(q: str) -> dict:
    """``CONSTRUCT { template } WHERE { group }`` → graph-building form.
    The template is a plain pattern list (no FILTER/OPTIONAL/paths).
    ``CONSTRUCT WHERE { patterns }`` is the SPARQL 1.1 shorthand: the
    group doubles as the template (patterns-only, enforced below)."""

    rest = q[len("CONSTRUCT"):].lstrip()
    if m := re.match(r"^WHERE\b", rest, re.IGNORECASE):
        body = rest[m.end():].lstrip()
        if not body.startswith("{"):
            raise ValueError("WHERE needs a braced group")
        j = _match_brace(body, 0)
        if body[j + 1:].strip():
            raise ValueError(
                f"trailing text after CONSTRUCT group: {body[j+1:]!r}"
            )
        rest = "{" + body[1:j] + "} WHERE {" + body[1:j] + "}"
    if not rest.startswith("{"):
        raise ValueError("CONSTRUCT needs a braced template")
    j = _match_brace(rest, 0)
    tgroup = _parse_group_body(rest[1:j].strip())
    if (tgroup["filters"] or tgroup["optionals"] or tgroup["unions"]
            or tgroup["values"] or tgroup["binds"] or tgroup["minus"]
            or tgroup["exists"]):
        raise ValueError("CONSTRUCT templates may contain only triple patterns")
    if not tgroup["patterns"]:
        raise ValueError("empty CONSTRUCT template")
    for s, p, o in tgroup["patterns"]:
        if s[0] == "lit" or p[0] == "lit":
            raise ValueError("literals are only valid in template object position")
        if p[0] == "path":
            raise ValueError("property paths are not valid in CONSTRUCT templates")
    rest = rest[j + 1:].strip()
    if not re.match(r"^WHERE\b", rest, re.IGNORECASE):
        raise ValueError("CONSTRUCT needs WHERE { group }")
    rest = rest[len("WHERE"):].lstrip()
    if not rest.startswith("{"):
        raise ValueError("WHERE needs a braced group")
    j = _match_brace(rest, 0)
    if rest[j + 1:].strip():
        raise ValueError(f"trailing text after CONSTRUCT group: {rest[j+1:]!r}")
    group = _parse_group_body(rest[1:j].strip())
    group.update(_NO_MODIFIERS)
    group["construct"] = tgroup["patterns"]
    return group


def _parse_describe(q: str) -> dict:
    """``DESCRIBE (<iri> | ?var)... [WHERE { group }]`` → resource
    description form. The description we serve is the outbound concise
    form: every triple whose SUBJECT is a described resource (the spec
    leaves the shape to the implementation; oxigraph behind the
    reference serves a CBD — blank-node closure is not applicable here
    because stored graphs are skolemized at canonicalization)."""

    rest = q[len("DESCRIBE"):].lstrip()
    terms: list = []
    while rest:
        if rest.startswith("?"):
            names, rest = _take_vars(rest)
            terms.extend(("var", n) for n in names)
            continue
        if rest.startswith("<"):
            j = rest.index(">")
            terms.append(("iri", rest[1:j]))
            rest = rest[j + 1:].lstrip()
            continue
        break
    if not terms:
        raise ValueError("DESCRIBE needs <iri> or ?var resources")
    if rest:
        if m := re.match(r"^WHERE\b", rest, re.IGNORECASE):
            rest = rest[m.end():].lstrip()
        if not rest.startswith("{"):
            raise ValueError(f"trailing text after DESCRIBE: {rest!r}")
        j = _match_brace(rest, 0)
        if rest[j + 1:].strip():
            raise ValueError(
                f"trailing text after DESCRIBE group: {rest[j+1:]!r}"
            )
        group = _parse_group_body(rest[1:j].strip())
    else:
        group = _parse_group_body("")
    if any(k == "var" for k, _ in terms) and not group["patterns"] \
            and not group["unions"] and not (group.get("values") or []):
        raise ValueError("DESCRIBE ?var needs a WHERE group binding it")
    group.update(_NO_MODIFIERS)
    group["describe"] = terms
    return group


def _take_vars(s: str):
    """Leading ``?var`` tokens → (names, rest)."""
    names = []
    while s.startswith("?"):
        j = 1
        while j < len(s) and not s[j].isspace():
            j += 1
        names.append(_check_user_name(s[1:j]))
        s = s[j:].lstrip()
    return names, s


def _take_order_keys(s: str):
    """Leading order conditions → ([(key, ascending), ...], rest).
    ``key`` is a variable name, or ``("expr", operand-ast)`` for
    computed conditions — ``ASC|DESC(<expression>)`` and bracketed
    ``(<expression>)`` forms (SPARQL's bare-builtin-call condition is
    written with brackets here)."""

    keys = []
    while True:
        if s.startswith("?"):
            j = 1
            while j < len(s) and not s[j].isspace():
                j += 1
            keys.append((s[1:j], True))
            s = s[j:].lstrip()
        elif m := re.match(r"^(ASC|DESC)\s*\(", s, re.IGNORECASE):
            j = _match_paren(s, m.end() - 1)
            inner = s[m.end():j].strip()
            asc = m.group(1).upper() == "ASC"
            if vm := re.fullmatch(r"\?([A-Za-z_]\w*)", inner):
                keys.append((vm.group(1), asc))
            else:
                keys.append((("expr", _parse_filter_operand(inner)), asc))
            s = s[j + 1:].lstrip()
        elif s.startswith("("):
            j = _match_paren(s, 0)
            keys.append(
                (("expr", _parse_filter_operand(s[1:j].strip())), True)
            )
            s = s[j + 1:].lstrip()
        else:
            return keys, s


def _take_group_keys(s: str):
    """Leading GroupCondition tokens → ([key, ...], rest). A key is a
    variable name, ``("expr", ast, alias)`` for ``(expr AS ?v)``,
    ``("expr", ast, None)`` for ``(expr)``, or a bare builtin /
    constructor call (``STRLEN(?x)``, ``xsd:integer(?x)``) — the
    SPARQL 1.1 GroupCondition grammar."""

    keys = []
    while s:
        if s.startswith("?"):
            j = 1
            while j < len(s) and (s[j].isalnum() or s[j] == "_"):
                j += 1
            keys.append(s[1:j])
            s = s[j:].lstrip()
        elif s.startswith("("):
            j = _match_paren(s, 0)
            inner = s[1:j].strip()
            key = None
            if m := re.search(r"\s+AS\s+\?([A-Za-z_]\w*)$", inner,
                               re.IGNORECASE):
                pre = inner[: m.start()].strip()
                try:  # AS must be top-level — a pre-part that parses IS
                    key = ("expr", _parse_filter_operand(pre), m.group(1))
                except ValueError:
                    key = None
            if key is None:
                key = ("expr", _parse_filter_operand(inner), None)
            keys.append(key)
            s = s[j + 1:].lstrip()
        elif m := re.match(
            r"^(?!(?:HAVING|ORDER|LIMIT|OFFSET|VALUES)\b)"
            r"(?:[A-Za-z_]\w*:)?[A-Za-z_]\w*\s*\(",
            s, re.IGNORECASE,
        ):
            p = s.index("(")
            j = _match_paren(s, p)
            keys.append(("expr", _parse_filter_operand(s[: j + 1]), None))
            s = s[j + 1:].lstrip()
        else:
            return keys, s
    return keys, s


def _hoist_having_aggs(expr: str, aggregates: list, agg_exprs: list) -> str:
    """Aggregate calls appearing INSIDE a HAVING expression (legal
    SPARQL 1.1 — ``HAVING(COUNT(?o) > 1)`` needs no SELECT alias) hoist
    into the query's aggregate list under hidden ``__hagg`` aliases;
    the returned expression references the alias variable instead (the
    spec's own rewrite, 18.2.4.1). Quote-aware: calls inside string
    literals stay text."""

    pat = re.compile(
        r"\b(COUNT|SUM|AVG|MIN|MAX|SAMPLE|GROUP_CONCAT)\s*\(",
        re.IGNORECASE,
    )
    out, i = [], 0
    while m := pat.search(expr, i):
        if expr.count('"', 0, m.start()) % 2 == 1:  # inside a literal
            out.append(expr[i:m.end()])
            i = m.end()
            continue
        func = m.group(1).upper()
        open_i = m.end() - 1
        j = _match_paren(expr, open_i)
        inner = expr[open_i + 1:j].strip()
        distinct_a = False
        if dm := re.match(r"^DISTINCT\s+", inner, re.IGNORECASE):
            distinct_a = True
            inner = inner[dm.end():].strip()
        sep = " "
        if sm := re.search(r';\s*SEPARATOR\s*=\s*"([^"]*)"\s*$', inner,
                            re.IGNORECASE):
            if func != "GROUP_CONCAT":
                raise ValueError(
                    f"SEPARATOR is only valid in GROUP_CONCAT, not {func}"
                )
            sep = sm.group(1)
            inner = inner[:sm.start()].strip()
        if inner == "*":
            if func != "COUNT":
                raise ValueError(f"{func}(*) is not valid SPARQL")
            var = None
        elif vm := re.fullmatch(r"\?([A-Za-z_]\w*)", inner):
            var = vm.group(1)
        else:
            var = f"__agg{len(agg_exprs)}"
            agg_exprs.append((var, _parse_filter_operand(inner)))
        alias = f"__hagg{len(aggregates)}"
        aggregates.append((func, var, distinct_a, alias, sep))
        out.append(expr[i:m.start()])
        out.append(f"?{alias}")
        i = j + 1
    out.append(expr[i:])
    return "".join(out)


def _group_key_names(group_by) -> set:
    """The variable names a GROUP BY binds (plain vars + expr aliases)
    — what plain projections outside aggregates must draw from."""
    names = set()
    for k in group_by or []:
        if isinstance(k, str):
            names.add(k)
        elif k[2] is not None:
            names.add(k[2])
    return names


_AGG_RE = None


def _parse_select(q: str) -> dict:
    global _AGG_RE

    if _AGG_RE is None:
        # matches only the aggregate HEAD; the argument (a variable, *,
        # or a full expression) is taken with the paren matcher below
        _AGG_RE = re.compile(
            r"^\(\s*(COUNT|SUM|AVG|MIN|MAX|SAMPLE|GROUP_CONCAT)\s*\(",
            re.IGNORECASE,
        )
    rest = q[len("SELECT"):].lstrip()
    distinct = False
    if re.match(r"^DISTINCT\b", rest, re.IGNORECASE):
        distinct = True
        rest = rest[len("DISTINCT"):].lstrip()
    select: list | None
    aggregates: list = []
    select_exprs: list = []
    agg_exprs: list = []
    if rest.startswith("*"):
        select = None
        rest = rest[1:].lstrip()
    else:
        select = []
        while True:
            if rest.startswith("?"):
                names, rest = _take_vars(rest)
                select.extend(names)
                continue
            if m := _AGG_RE.match(rest):
                func = m.group(1).upper()
                open_i = m.end() - 1
                j = _match_paren(rest, open_i)
                inner = rest[open_i + 1:j].strip()
                am = re.match(r"^\s*AS\s+\?([A-Za-z_]\w*)\s*\)",
                               rest[j + 1:], re.IGNORECASE)
                if not am:
                    raise ValueError(
                        f"aggregate needs ') AS ?alias )': {rest[:40]!r}"
                    )
                alias = _check_user_name(am.group(1))
                distinct_a = False
                if dm := re.match(r"^DISTINCT\s+", inner, re.IGNORECASE):
                    distinct_a = True
                    inner = inner[dm.end():].strip()
                sep = " "
                if sm := re.search(r';\s*SEPARATOR\s*=\s*"([^"]*)"\s*$',
                                    inner, re.IGNORECASE):
                    if func != "GROUP_CONCAT":
                        raise ValueError(
                            f"SEPARATOR is only valid in GROUP_CONCAT, "
                            f"not {func}"
                        )
                    sep = sm.group(1)
                    inner = inner[:sm.start()].strip()
                if inner == "*":
                    if func != "COUNT":
                        raise ValueError(f"{func}(*) is not valid SPARQL")
                    var = None
                elif vm := re.fullmatch(r"\?([A-Za-z_]\w*)", inner):
                    var = vm.group(1)
                else:
                    # aggregate over an EXPRESSION: materialized as a
                    # hidden pre-bound column just before aggregation
                    var = f"__agg{len(agg_exprs)}"
                    agg_exprs.append((var, _parse_filter_operand(inner)))
                aggregates.append((func, var, distinct_a, alias, sep))
                select.append(alias)
                rest = rest[j + 1 + am.end():].lstrip()
                continue
            if rest.startswith("("):
                # (expr AS ?alias) projection — evaluated like a BIND
                # over the group result just before projection
                j = _match_paren(rest, 0)
                body = rest[1:j].strip()
                am = re.search(r"\s+AS\s+\?([A-Za-z_]\w*)\s*$", body,
                                re.IGNORECASE)
                if not am:
                    raise ValueError(
                        f"projection expression needs AS ?alias: {body!r}"
                    )
                select_exprs.append(
                    (_check_user_name(am.group(1)),
                     _parse_filter_operand(body[:am.start()].strip()))
                )
                select.append(am.group(1))
                rest = rest[j + 1:].lstrip()
                continue
            break
        if not select:
            raise ValueError("SELECT needs ?vars, aggregates, or *")
    from_graphs: list = []
    from_named: list = []
    while m := re.match(r"^FROM\s+(NAMED\s+)?<([^<>\s]*)>", rest,
                         re.IGNORECASE):
        (from_named if m.group(1) else from_graphs).append(m.group(2))
        rest = rest[m.end():].lstrip()
    if not re.match(r"^WHERE\b", rest, re.IGNORECASE):
        raise ValueError(f"expected WHERE in SELECT query: {rest!r}")
    rest = rest[len("WHERE"):].lstrip()
    if not rest.startswith("{"):
        raise ValueError("WHERE needs a braced group")
    j = _match_brace(rest, 0)
    group = _parse_group_body(rest[1:j].strip())
    tail = rest[j + 1:].strip()
    group_by, order_by, limit, offset = None, None, None, 0
    having: list = []
    while tail:
        if m := re.match(r"^GROUP\s+BY\b", tail, re.IGNORECASE):
            group_by, tail = _take_group_keys(tail[m.end():].lstrip())
            if not group_by:
                raise ValueError("GROUP BY needs group conditions")
        elif m := re.match(r"^HAVING\s*\(", tail, re.IGNORECASE):
            start = m.end() - 1
            j = _match_paren(tail, start)
            hexpr = _hoist_having_aggs(
                tail[start + 1:j].strip(), aggregates, agg_exprs
            )
            having.append(_parse_filter(hexpr))
            tail = tail[j + 1:].strip()
        elif m := re.match(r"^ORDER\s+BY\b", tail, re.IGNORECASE):
            order_by, tail = _take_order_keys(tail[m.end():].lstrip())
            if not order_by:
                raise ValueError("ORDER BY needs ?vars or ASC/DESC(?var)")
        elif m := re.match(r"^LIMIT\s+(\d+)", tail, re.IGNORECASE):
            limit = int(m.group(1))
            tail = tail[m.end():].strip()
        elif m := re.match(r"^OFFSET\s+(\d+)", tail, re.IGNORECASE):
            offset = int(m.group(1))
            tail = tail[m.end():].strip()
        elif m := re.match(r"^VALUES\b", tail, re.IGNORECASE):
            # trailing VALUES (always last in the grammar): joins the
            # group's solutions before the modifiers — the same join the
            # in-group form performs, so it reuses group["values"]
            group["values"].append(_parse_values(tail[m.end():]))
            tail = ""
        else:
            raise ValueError(f"bad solution modifier: {tail!r}")
    if aggregates and select_exprs:
        raise ValueError(
            "projection expressions cannot be combined with aggregates"
        )
    if aggregates or group_by:
        aliases = {a[3] for a in aggregates} if aggregates else set()
        plain = [v for v in (select or []) if v not in aliases]
        if set(plain) - _group_key_names(group_by):
            raise ValueError(
                "projected variables outside aggregates must be in GROUP BY"
            )
    if having and not (aggregates or group_by):
        raise ValueError("HAVING requires aggregates or GROUP BY")
    group.update(select=select, distinct=distinct, order_by=order_by,
                 limit=limit, offset=offset, group_by=group_by,
                 aggregates=aggregates or None, having=having or None,
                 select_exprs=select_exprs or None,
                 agg_exprs=agg_exprs or None,
                 from_graphs=from_graphs or None,
                 from_named=from_named or None)
    return group


def _match_paren(s: str, i: int) -> int:
    """Index of the ``)`` matching ``s[i] == '('`` (quote/IRI aware —
    IRIs may legally contain parentheses)."""
    depth = 0
    n = len(s)
    while i < n:
        c = s[i]
        if c == "<" and (j := _iri_end(s, i)) is not None:
            i = j + 1
        elif c == '"':
            i += 1
            while i < n:
                if s[i] == "\\":
                    i += 2
                    continue
                if s[i] == '"':
                    break
                i += 1
            i += 1
        elif c == "(":
            depth += 1
            i += 1
        elif c == ")":
            depth -= 1
            if depth == 0:
                return i
            i += 1
        else:
            i += 1
    raise ValueError("unbalanced parentheses in HAVING")


def _parse_group_body(body: str) -> dict:
    group = {"patterns": [], "filters": [], "optionals": [], "unions": [],
             "values": [], "binds": [], "minus": [], "exists": [],
             "graphs": [], "subqueries": [], "services": []}
    for clause in _split_clauses(body):
        up = clause.upper()
        if clause.startswith("{"):
            j = _match_brace(clause, 0)
            inner = clause[1:j].strip()
            after = clause[j + 1:].strip()
            if not after and re.match(r"^SELECT\b", inner, re.IGNORECASE):
                # subquery: evaluated bottom-up, independent of outer
                # bindings, then joined on its projected variables
                sub = parse_query(inner)
                if sub.get("from_graphs") or sub.get("from_named"):
                    raise ValueError(
                        "FROM is not supported inside subqueries"
                    )
                group["subqueries"].append(sub)
            elif not after:
                # lone braced group-graph-pattern: joins like a
                # one-branch UNION (scoped filters/OPTIONALs inside)
                group["unions"].append(
                    [_plain_group(parse_query(inner), "nested group")]
                )
            else:
                group["unions"].append(_parse_union(clause))
        elif up.startswith("GRAPH"):
            rest = clause[len("GRAPH"):].strip()
            b = rest.find("{")
            if b < 0 or not rest.endswith("}") \
                    or _match_brace(rest, b) != len(rest) - 1:
                raise ValueError(f"GRAPH needs a term and braces: {clause!r}")
            gterm = _parse_term(rest[:b].strip())
            if gterm[0] not in ("var", "iri"):
                raise ValueError(
                    f"GRAPH term must be a variable or IRI: {clause!r}"
                )
            sub = _plain_group(parse_query(rest[b + 1 : -1].strip()), "GRAPH")
            if sub.get("graphs"):
                raise ValueError("GRAPH inside GRAPH is not supported")
            group["graphs"].append((gterm, sub))
        elif up.startswith("FILTER"):
            inner = clause[len("FILTER"):].strip()
            if m := re.match(r"^(NOT\s+)?EXISTS\b", inner, re.IGNORECASE):
                sub = inner[m.end():].strip()
                if not (sub.startswith("{") and sub.endswith("}")
                        and _match_brace(sub, 0) == len(sub) - 1):
                    raise ValueError(f"EXISTS needs braces: {clause!r}")
                group["exists"].append((
                    m.group(1) is None,
                    _plain_group(parse_query(sub[1:-1].strip()), "EXISTS"),
                ))
                continue
            if not (inner.startswith("(") and inner.endswith(")")):
                raise ValueError(f"FILTER needs parentheses: {clause!r}")
            group["filters"].append(_parse_filter(inner[1:-1].strip()))
        elif up.startswith("OPTIONAL"):
            inner = clause[len("OPTIONAL"):].strip()
            if not (inner.startswith("{") and inner.endswith("}")):
                raise ValueError(f"OPTIONAL needs braces: {clause!r}")
            group["optionals"].append(
                _plain_group(parse_query(inner[1:-1].strip()), "OPTIONAL")
            )
        elif up.startswith("MINUS"):
            inner = clause[len("MINUS"):].strip()
            if not (inner.startswith("{") and inner.endswith("}")):
                raise ValueError(f"MINUS needs braces: {clause!r}")
            group["minus"].append(
                _plain_group(parse_query(inner[1:-1].strip()), "MINUS")
            )
        elif up.startswith("SERVICE"):
            inner = clause[len("SERVICE"):].strip()
            silent = False
            if inner[:6].upper() == "SILENT" and (
                len(inner) == 6 or not inner[6].strip()
                or inner[6] in "<{"
            ):
                silent = True
                inner = inner[6:].strip()
            b = inner.find("{")
            if b < 0 or not inner.endswith("}") or \
                    _match_brace(inner, b) != len(inner) - 1:
                raise ValueError(
                    f"SERVICE needs an endpoint IRI and braces: {clause!r}"
                )
            term = _parse_term(inner[:b].strip())
            if term[0] != "iri":
                raise ValueError(
                    f"SERVICE endpoint must be a constant IRI: {clause!r}"
                )
            sub = _plain_group(parse_query(inner[b + 1:-1].strip()),
                               "SERVICE")
            # the raw brace content rides along so an HTTP endpoint can
            # receive the sub-pattern verbatim (SELECT * WHERE {raw})
            # without a group→text re-serializer
            sub["raw_text"] = inner[b + 1:-1].strip()
            group["services"].append((silent, term[1], sub))
        elif up.startswith("VALUES"):
            group["values"].append(_parse_values(clause[len("VALUES"):]))
        elif up.startswith("BIND"):
            group["binds"].append(_parse_bind(clause[len("BIND"):]))
        else:
            for terms in _expand_triple_sugar(clause):
                pat = tuple(_parse_term(t) for t in terms)
                if pat[0][0] == "path" or pat[2][0] == "path":
                    raise ValueError(
                        f"property paths are only valid in predicate "
                        f"position: {clause!r}"
                    )
                group["patterns"].append(pat)
    return group


def _space_punct(s: str) -> str:
    """Insert spaces around ``[ ] ; ,`` outside IRIs and quoted
    literals, so the whitespace tokenizer emits them as standalone
    tokens even when glued to a term (``?o; <q>``, ``[<p> ?o]``)."""
    out = []
    i, n = 0, len(s)
    while i < n:
        c = s[i]
        if c == "<" and (j := _iri_end(s, i)) is not None:
            out.append(s[i : j + 1])
            i = j + 1
        elif c == '"':
            j = i + 1
            while j < n:
                if s[j] == "\\":
                    j += 2
                    continue
                if s[j] == '"':
                    break
                j += 1
            out.append(s[i : j + 1])
            i = j + 1
        elif c in "[];,":
            out.append(f" {c} ")
            i += 1
        else:
            out.append(c)
            i += 1
    return "".join(out)


def _expand_triple_sugar(clause: str):
    """Expand SPARQL triple-pattern abbreviations into plain triples:
    predicate-object lists (``s p o ; q r``), object lists
    (``s p o , o2``) and anonymous blank nodes (``[ p o ; ... ]``,
    recursively) — each ``[`` mints a fresh ``_:genid<n>`` label
    (deterministic per query text; scoped-variable semantics via
    :func:`_parse_term`; ``_:genid*`` is effectively reserved).
    Returns a list of (s, p, o) term-string triples."""
    toks = _split_terms(_space_punct(clause))
    if not any(t in ("[", "]", ";", ",", "(", ")") for t in toks):
        if len(toks) != 3:
            raise ValueError(f"bad triple pattern: {clause!r}")
        return [tuple(toks)]

    pos = 0
    triples: list = []

    def peek():
        return toks[pos] if pos < len(toks) else None

    def take():
        nonlocal pos
        if pos >= len(toks):
            raise ValueError(f"unexpected end of triple pattern: {clause!r}")
        t = toks[pos]
        pos += 1
        return t

    def fresh():
        label = f"_:genid{_ANON_STATE['n']}"
        _ANON_STATE["n"] += 1
        return label

    def parse_node():
        t = peek()
        if t == "[":
            take()
            label = fresh()
            if peek() != "]":
                parse_prop_list(label)
            if take() != "]":
                raise ValueError(f"unbalanced '[' in: {clause!r}")
            return label, True
        if t == "(":
            # RDF collection → rdf:first/rest chain over fresh anon
            # nodes (the Turtle data desugaring, `turtle.py` list
            # handling); empty list = rdf:nil. Parens must be
            # whitespace-separated — glued parens parse as property
            # paths (predicate position only).
            take()
            items = []
            while peek() not in (")", None):
                node, _ = parse_node()
                items.append(node)
            if take() != ")":
                raise ValueError(f"unbalanced '(' in: {clause!r}")
            ns = "http://www.w3.org/1999/02/22-rdf-syntax-ns#"
            if not items:
                return f"<{ns}nil>", False
            labels = [fresh() for _ in items]
            for i, (lbl, item) in enumerate(zip(labels, items)):
                triples.append((lbl, f"<{ns}first>", item))
                nxt = (labels[i + 1] if i + 1 < len(items)
                       else f"<{ns}nil>")
                triples.append((lbl, f"<{ns}rest>", nxt))
            return labels[0], True
        if t in ("]", ";", ","):
            raise ValueError(f"unexpected {t!r} in: {clause!r}")
        return take(), False

    def parse_prop_list(subj):
        while True:
            verb = take()
            if verb in ("[", "]", ";", ",", "(", ")"):
                raise ValueError(f"expected predicate, got {verb!r} in: "
                                 f"{clause!r}")
            while True:
                obj, _ = parse_node()
                triples.append((subj, verb, obj))
                if peek() == ",":
                    take()
                    continue
                break
            if peek() == ";":
                take()
                if peek() in ("]", None):  # trailing ';' is valid
                    break
                continue
            break

    subj, was_bracket = parse_node()
    if peek() is not None:
        parse_prop_list(subj)
    elif not (was_bracket and triples):
        raise ValueError(f"bad triple pattern: {clause!r}")
    if pos != len(toks):
        raise ValueError(f"trailing tokens in triple pattern: {clause!r}")
    return triples


def _plain_group(sub: dict, ctx: str) -> dict:
    """Inner braced groups must be plain pattern groups — a SELECT/ASK/
    CONSTRUCT body would parse but its modifiers would be SILENTLY
    ignored by eval_group, so reject subqueries explicitly."""
    if (sub.get("select") is not None or sub.get("aggregates")
            or sub.get("ask") or sub.get("construct") is not None
            or sub.get("distinct") or sub.get("order_by")
            or sub.get("limit") is not None or sub.get("offset")):
        raise ValueError(f"subqueries are not supported inside {ctx}")
    return sub


def _match_brace(s: str, i: int) -> int:
    """Index of the ``}`` matching ``s[i] == '{'`` (quote/IRI aware)."""
    depth = 0
    n = len(s)
    while i < n:
        c = s[i]
        if c == "<" and (j := _iri_end(s, i)) is not None:
            i = j + 1
        elif c == '"':
            i += 1
            while i < n:
                if s[i] == "\\":
                    i += 2
                    continue
                if s[i] == '"':
                    break
                i += 1
            i += 1
        elif c == "{":
            depth += 1
            i += 1
        elif c == "}":
            depth -= 1
            if depth == 0:
                return i
            i += 1
        else:
            i += 1
    raise ValueError("unbalanced braces in query")


def _parse_union(clause: str) -> list:
    """``{ group } UNION { group } ...`` → list of parsed branch groups."""
    branches = []
    rest = clause
    while True:
        if not rest.startswith("{"):
            raise ValueError(f"expected '{{' in UNION clause: {rest!r}")
        j = _match_brace(rest, 0)
        branches.append(_plain_group(parse_query(rest[1:j].strip()), "UNION"))
        rest = rest[j + 1 :].strip()
        if not rest:
            break
        if not rest.upper().startswith("UNION"):
            raise ValueError(f"expected UNION between groups: {rest!r}")
        rest = rest[5:].strip()
    if len(branches) < 2:
        raise ValueError("UNION needs at least two groups")
    return branches


def _parse_values(rest: str):
    """``VALUES ?v { data... }`` / ``VALUES (?a ?b) { (d d) ... }`` →
    ``(varnames, rows)`` where each row is a tuple of tagged binding
    strings (``None`` = UNDEF). Inline data joins into the group like
    any other binding set, so UNDEF composes with the existing
    unbound-compatible join."""
    rest = rest.strip()
    if rest.startswith("("):
        j = _match_paren(rest, 0)
        names, extra = _take_vars(rest[1:j].strip())
        if extra or not names:
            raise ValueError(f"bad VALUES variable list: {rest!r}")
        rest = rest[j + 1:].strip()
        multi = True
    else:
        names, rest = _take_vars(rest)
        if len(names) != 1:
            raise ValueError(
                f"VALUES needs one variable or a parenthesized list: {rest!r}"
            )
        multi = False
    if not rest.startswith("{") or _match_brace(rest, 0) != len(rest) - 1:
        raise ValueError(f"VALUES needs a braced data block: {rest!r}")
    inner = rest[1:-1].strip()
    rows = []
    if multi:
        i = 0
        while i < len(inner):
            if inner[i].isspace():
                i += 1
                continue
            if inner[i] != "(":
                raise ValueError(
                    f"VALUES rows must be parenthesized tuples: {inner[i:]!r}"
                )
            k = _match_paren(inner, i)
            terms = _split_terms(inner[i + 1:k])
            if len(terms) != len(names):
                raise ValueError(
                    f"VALUES row arity {len(terms)} != {len(names)} vars"
                )
            rows.append(tuple(_values_term(t) for t in terms))
            i = k + 1
    else:
        rows = [(_values_term(t),) for t in _split_terms(inner)]
    if not rows:
        raise ValueError("empty VALUES data block")
    return (names, rows)


def _values_term(t: str):
    """One VALUES datum → tagged binding string (or None for UNDEF)."""
    if t.upper() == "UNDEF":
        return None
    o = _parse_operand(t)
    if o[0] == "iri":
        return "I" + o[1]
    if o[0] == "lit":
        return "L" + o[1]
    raise ValueError(
        f"VALUES data must be an IRI, a (typed/lang) literal, or UNDEF "
        f"(bare numbers are ambiguous — write a typed literal): {t!r}"
    )


def _parse_bind(rest: str):
    """``BIND( expr AS ?v )`` → ``(varname, operand)``. The expression
    grammar is the full FILTER operand grammar: terms, accessor calls,
    arithmetic, ``IF`` and ``COALESCE``; numeric results bind as
    decorated numeric literals."""

    rest = rest.strip()
    if not rest.startswith("(") or _match_paren(rest, 0) != len(rest) - 1:
        raise ValueError(f"BIND needs parentheses: {rest!r}")
    body = rest[1:-1].strip()
    # the target anchors at the end, so an " AS ?x" inside a quoted
    # literal can never match
    m = re.search(r"\s+AS\s+\?([A-Za-z_]\w*)\s*$", body, re.IGNORECASE)
    if not m:
        raise ValueError(f"BIND needs 'expr AS ?var': {body!r}")
    return (_check_user_name(m.group(1)),
            _parse_filter_operand(body[:m.start()].strip()))


def _split_clauses(s: str):
    """Split on top-level ``.`` separators, protecting ``<>``, quoted
    literals, ``{}`` groups and ``()`` filter expressions."""
    out, buf = [], []
    depth = 0
    i, n = 0, len(s)
    while i < n:
        c = s[i]
        if c == "<" and (j := _iri_end(s, i)) is not None:
            buf.append(s[i : j + 1])
            i = j + 1
        elif c == '"':
            j = i + 1
            while j < n:
                if s[j] == "\\":
                    j += 2
                    continue
                if s[j] == '"':
                    break
                j += 1
            buf.append(s[i : j + 1])
            i = j + 1
        elif c in "{(":
            depth += 1
            buf.append(c)
            i += 1
        elif c in "})":
            depth -= 1
            buf.append(c)
            i += 1
        elif c == "." and depth == 0 and (i + 1 == n or s[i + 1].isspace()) \
                and (i == 0 or s[i - 1].isspace()):
            part = "".join(buf).strip()
            if part:
                out.append(part)
            buf = []
            i += 1
        else:
            buf.append(c)
            i += 1
    part = "".join(buf).strip()
    if part:
        out.append(part)
    return out


_FILTER_OPS = ("<=", ">=", "!=", "=", "<", ">")
_FUNC_CALL_RE = None
_REGEX_CALL_RE = None


def _split_logical(s: str, op: str):
    """Split on a top-level ``&&`` / ``||``, protecting quotes, IRIs and
    parentheses. Returns the parts (one element = no top-level op)."""
    out, buf = [], []
    depth = 0
    i, n = 0, len(s)
    while i < n:
        c = s[i]
        if c == "<" and (j := _iri_end(s, i)) is not None:
            buf.append(s[i : j + 1])
            i = j + 1
        elif c == '"':
            j = i + 1
            while j < n:
                if s[j] == "\\":
                    j += 2
                    continue
                if s[j] == '"':
                    break
                j += 1
            buf.append(s[i : j + 1])
            i = j + 1
        elif c in "({":
            depth += 1
            buf.append(c)
            i += 1
        elif c in ")}":
            depth -= 1
            buf.append(c)
            i += 1
        elif depth == 0 and s[i : i + 2] == op:
            out.append("".join(buf).strip())
            buf = []
            i += 2
        else:
            buf.append(c)
            i += 1
    out.append("".join(buf).strip())
    return out


def _parse_filter(s: str):
    """``expr`` → a filter tree::

        expr := disj ( '||' disj )*          → ("or", [node, ...])
        disj := atom ( '&&' atom )*          → ("and", [node, ...])
        atom := '!' atom | '(' expr ')'      → ("not", node)
              | bound(?v)                    → ("bound", ("var", v))
              | regex(expr, "pat"[, flags])  → ("regex", operand, p, f)
              | operand op operand           → (lhs, op, rhs)

    Operands may be the SPARQL accessor functions ``str(?v)`` /
    ``lang(?v)`` / ``datatype(?v)`` (written without internal spaces),
    matching the oxigraph builtin subset (``src/query.rs:102-114``
    accepts full SPARQL)."""
    s = s.strip()
    disjuncts = _split_logical(s, "||")
    if len(disjuncts) > 1:
        return ("or", [_parse_filter(d) for d in disjuncts])
    conjuncts = _split_logical(s, "&&")
    if len(conjuncts) > 1:
        return ("and", [_parse_filter(c) for c in conjuncts])
    if s.startswith("!") and not s.startswith("!="):
        return ("not", _parse_filter(s[1:].strip()))
    if s.startswith("(") and _match_paren(s, 0) == len(s) - 1:
        return _parse_filter(s[1:-1].strip())
    return _parse_filter_atom(s)


def _ensure_filter_res():
    global _FUNC_CALL_RE, _REGEX_CALL_RE

    if _REGEX_CALL_RE is None:
        _FUNC_CALL_RE = re.compile(
            r"^(str|lang|datatype|strlen|ucase|lcase)\(\?([A-Za-z_]\w*)\)$",
            re.IGNORECASE,
        )
        _REGEX_CALL_RE = re.compile(
            r'^regex\(\s*(\S+)\s*,\s*"((?:[^"\\]|\\.)*)"'
            r'\s*(?:,\s*"([a-z]*)"\s*)?\)$',
            re.IGNORECASE,
        )


def _split_args(s: str) -> list:
    """Split a function-call argument list on top-level commas
    (IRI/quote/paren aware — IRIs and literals may contain commas)."""
    out, start, i, n = [], 0, 0, len(s)
    depth = 0
    while i < n:
        c = s[i]
        if c == "<" and (j := _iri_end(s, i)) is not None:
            i = j + 1
        elif c == '"':
            j = i + 1
            while j < n:
                if s[j] == "\\":
                    j += 2
                    continue
                if s[j] == '"':
                    break
                j += 1
            i = j + 1
        elif c == "(":
            depth += 1
            i += 1
        elif c == ")":
            depth -= 1
            i += 1
        elif c == "," and depth == 0:
            out.append(s[start:i].strip())
            start = i + 1
            i += 1
        else:
            i += 1
    out.append(s[start:].strip())
    return out


_TYPE_TESTS = {"isiri": "iri", "isuri": "iri", "isliteral": "lit",
               "isblank": "blank", "isnumeric": "num"}


def _parse_filter_atom(s: str):
    _ensure_filter_res()
    s = s.strip()
    if m := re.match(r"^(NOT\s+)?EXISTS\s*\{", s, re.IGNORECASE):
        # expression-level [NOT] EXISTS { group } (usable inside
        # &&/||/!/IF — the clause form stays structural)
        b = s.index("{", m.start())
        if _match_brace(s, b) != len(s) - 1:
            raise ValueError(f"EXISTS braces must close the atom: {s!r}")
        return ("exists", m.group(1) is None,
                _plain_group(parse_query(s[b + 1:-1].strip()), "EXISTS"))
    if m := re.match(r"^bound\(\s*\?([A-Za-z_]\w*)\s*\)$", s, re.IGNORECASE):
        return ("bound", ("var", m.group(1)))
    if m := _REGEX_CALL_RE.match(s):
        arg = _parse_filter_operand(m.group(1))
        flags = m.group(3) or ""
        if set(flags) - {"i", "s", "m"}:
            raise ValueError(f"unsupported regex flags: {flags!r}")
        try:
            re.compile(m.group(2))  # fail fast on a bad pattern
        except re.error as e:
            raise ValueError(f"bad regex pattern {m.group(2)!r}: {e}") from e
        return ("regex", arg, m.group(2), flags)
    if m := re.match(r"^(isIRI|isURI|isLiteral|isBlank|isNumeric)\s*\(", s,
                     re.IGNORECASE):
        j = _match_paren(s, m.end() - 1)
        if j != len(s) - 1:
            raise ValueError(f"bad type-test expression: {s!r}")
        return ("typetest", _TYPE_TESTS[m.group(1).lower()],
                _parse_filter_operand(s[m.end():j].strip()))
    if m := re.match(r"^sameTerm\s*\(", s, re.IGNORECASE):
        j = _match_paren(s, m.end() - 1)
        args = _split_args(s[m.end():j])
        if j != len(s) - 1 or len(args) != 2:
            raise ValueError(f"sameTerm needs exactly two arguments: {s!r}")
        return ("sameterm", _parse_filter_operand(args[0]),
                _parse_filter_operand(args[1]))
    if m := re.match(r"^LANGMATCHES\s*\(", s, re.IGNORECASE):
        j = _match_paren(s, m.end() - 1)
        args = _split_args(s[m.end():j])
        if j != len(s) - 1 or len(args) != 2:
            raise ValueError(f"LANGMATCHES needs two arguments: {s!r}")
        rng = _parse_filter_operand(args[1])
        if rng[0] != "lit":
            raise ValueError("LANGMATCHES range must be a string literal")
        return ("langmatches", _parse_filter_operand(args[0]), rng[1])
    if m := re.match(r"^(STRSTARTS|STRENDS|CONTAINS)\s*\(", s, re.IGNORECASE):
        j = _match_paren(s, m.end() - 1)
        args = _split_args(s[m.end():j])
        if j != len(s) - 1 or len(args) != 2:
            raise ValueError(f"{m.group(1)} needs two arguments: {s!r}")
        return ("strfn", m.group(1).lower(),
                _parse_filter_operand(args[0]),
                _parse_filter_operand(args[1]))
    # operand [NOT] IN (t1, t2, ...) — sugar for an (in)equality chain,
    # so it inherits the engine's `=` semantics exactly (SPARQL defines
    # IN as `= || = || ...`)
    if m := re.search(r"\s(NOT\s+)?IN\s*\(", s, re.IGNORECASE):
        try:
            j = _match_paren(s, m.end() - 1)
            lhs = _parse_filter_operand(s[:m.start()].strip())
            ok = j == len(s) - 1
            terms = [t for t in _split_args(s[m.end():j]) if t] if ok else []
        except ValueError:
            ok = False  # "IN (" inside a literal/IRI — not an IN clause
        if ok:
            # empty list: ("or", []) is all-False, so IN () = false and
            # NOT IN () = true, exactly per spec
            node = ("or",
                    [(lhs, "=", _parse_filter_operand(t)) for t in terms])
            return ("not", node) if m.group(1) else node
    # comparison: split on the FIRST top-level comparison operator
    # (quote/IRI/paren aware; a '<' that opens an IRI is not an operator)
    op, oi, olen = None, -1, 0
    i, depth = 0, 0
    while i < len(s):
        c = s[i]
        if c == "<" and (j := _iri_end(s, i)) is not None:
            i = j + 1
            continue
        if c == '"':
            j = i + 1
            while j < len(s):
                if s[j] == "\\":
                    j += 2
                    continue
                if s[j] == '"':
                    break
                j += 1
            i = j + 1
            continue
        if c == "(":
            depth += 1
        elif c == ")":
            depth -= 1
        elif depth == 0:
            if s[i:i + 2] in ("<=", ">=", "!="):
                op, oi, olen = s[i:i + 2], i, 2
                break
            if c in "<>=":
                op, oi, olen = c, i, 1
                break
        i += 1
    if op is None:
        raise ValueError(f"bad FILTER expression: {s!r}")
    return (_parse_filter_operand(s[:oi]), op,
            _parse_filter_operand(s[oi + olen:]))


def _parse_filter_operand(t: str):
    """Full operand-expression grammar (recursive descent)::

        expr := mul (('+'|'-') mul)*          → ("arith", op, l, r)
        mul  := unary (('*'|'/') unary)*      → ("arith", op, l, r)
        unary:= '-' unary | prim              → ("neg", node)
        prim := '(' expr ')' | func(expr) | IF(cond, expr, expr)
              | COALESCE(expr, ...) | ?var | <iri> | literal | number

    ``IF``'s condition is a full FILTER expression. Numeric operators
    evaluate on SPARQL-numeric values (an error — unbound, non-numeric,
    division by zero — makes the row's value an error per SPARQL)."""

    s = t.strip()
    pos = [0]
    n = len(s)

    def ws():
        while pos[0] < n and s[pos[0]].isspace():
            pos[0] += 1

    def expr():
        node = mul()
        while True:
            ws()
            if pos[0] < n and s[pos[0]] in "+-":
                op = s[pos[0]]
                pos[0] += 1
                node = ("arith", op, node, mul())
            else:
                return node

    def mul():
        node = unary()
        while True:
            ws()
            if pos[0] < n and s[pos[0]] in "*/":
                op = s[pos[0]]
                pos[0] += 1
                node = ("arith", op, node, unary())
            else:
                return node

    def unary():
        ws()
        if pos[0] < n and s[pos[0]] == "-":
            pos[0] += 1
            return ("neg", unary())
        if pos[0] < n and s[pos[0]] == "+":
            pos[0] += 1
            return unary()
        return prim()

    def call_args() -> list:
        """Arguments of the call whose ``(`` is at pos; advances past
        the matching ``)`` and returns the raw argument strings."""
        j = _match_paren(s, pos[0])
        args = _split_args(s[pos[0] + 1 : j])
        pos[0] = j + 1
        return args

    def prim():
        ws()
        if pos[0] >= n:
            raise ValueError(f"truncated expression: {t!r}")
        c = s[pos[0]]
        if c == "(":
            pos[0] += 1
            node = expr()
            ws()
            if pos[0] >= n or s[pos[0]] != ")":
                raise ValueError(f"unbalanced parentheses in {t!r}")
            pos[0] += 1
            return node
        if m := re.compile(r"IF\s*\(", re.IGNORECASE).match(s, pos[0]):
            pos[0] = m.end() - 1
            args = call_args()
            if len(args) != 3:
                raise ValueError(f"IF needs three arguments: {t!r}")
            return ("if", _parse_filter(args[0]),
                    _parse_filter_operand(args[1]),
                    _parse_filter_operand(args[2]))
        if m := re.compile(r"COALESCE\s*\(", re.IGNORECASE).match(s, pos[0]):
            pos[0] = m.end() - 1
            args = call_args()
            if not args or args == [""]:
                raise ValueError(f"COALESCE needs arguments: {t!r}")
            return ("coalesce", [_parse_filter_operand(a) for a in args])
        if m := re.compile(r"CONCAT\s*\(", re.IGNORECASE).match(s, pos[0]):
            pos[0] = m.end() - 1
            args = call_args()
            if not args or args == [""]:
                raise ValueError(f"CONCAT needs arguments: {t!r}")
            return ("concat", [_parse_filter_operand(a) for a in args])
        if m := re.compile(r"SUBSTR\s*\(", re.IGNORECASE).match(s, pos[0]):
            pos[0] = m.end() - 1
            args = call_args()
            if len(args) not in (2, 3):
                raise ValueError(f"SUBSTR needs 2 or 3 arguments: {t!r}")
            return ("substr", _parse_filter_operand(args[0]),
                    _parse_filter_operand(args[1]),
                    _parse_filter_operand(args[2]) if len(args) == 3
                    else None)
        if m := re.compile(r"REPLACE\s*\(", re.IGNORECASE).match(s, pos[0]):
            pos[0] = m.end() - 1
            args = call_args()
            if len(args) != 3:
                raise ValueError(
                    f"REPLACE needs (arg, \"pattern\", \"replacement\"): {t!r}"
                )
            pat = _parse_filter_operand(args[1])
            rep = _parse_filter_operand(args[2])
            if pat[0] != "lit" or rep[0] != "lit":
                raise ValueError(
                    "REPLACE pattern and replacement must be string "
                    f"literals: {t!r}"
                )
            try:
                re.compile(pat[1])
            except re.error as e:
                raise ValueError(
                    f"bad REPLACE pattern {pat[1]!r}: {e}"
                ) from e
            return ("replace", _parse_filter_operand(args[0]),
                    pat[1], rep[1])
        if m := re.compile(
            r"(ABS|CEIL|FLOOR|ROUND)\s*\(", re.IGNORECASE
        ).match(s, pos[0]):
            pos[0] = m.end() - 1
            args = call_args()
            if len(args) != 1:
                raise ValueError(f"{m.group(1)} needs one argument: {t!r}")
            return ("numfn", m.group(1).lower(),
                    _parse_filter_operand(args[0]))
        if m := re.compile(
            r"(STRBEFORE|STRAFTER)\s*\(", re.IGNORECASE
        ).match(s, pos[0]):
            pos[0] = m.end() - 1
            args = call_args()
            if len(args) != 2:
                raise ValueError(f"{m.group(1)} needs two arguments: {t!r}")
            return ("strpart", m.group(1).lower(),
                    _parse_filter_operand(args[0]),
                    _parse_filter_operand(args[1]))
        if m := re.compile(
            r"ENCODE_FOR_URI\s*\(", re.IGNORECASE
        ).match(s, pos[0]):
            pos[0] = m.end() - 1
            args = call_args()
            if len(args) != 1:
                raise ValueError(f"ENCODE_FOR_URI needs one argument: {t!r}")
            return ("encodeuri", _parse_filter_operand(args[0]))
        if m := re.compile(r"STRDT\s*\(", re.IGNORECASE).match(s, pos[0]):
            pos[0] = m.end() - 1
            args = call_args()
            if len(args) != 2:
                raise ValueError(f"STRDT needs two arguments: {t!r}")
            dt = _parse_filter_operand(args[1])
            if dt[0] != "iri":
                raise ValueError(
                    f"STRDT datatype must be a constant IRI: {t!r}"
                )
            return ("strdt", _parse_filter_operand(args[0]), dt[1])
        if m := re.compile(r"STRLANG\s*\(", re.IGNORECASE).match(s, pos[0]):
            pos[0] = m.end() - 1
            args = call_args()
            if len(args) != 2:
                raise ValueError(f"STRLANG needs two arguments: {t!r}")
            tag = _parse_filter_operand(args[1])
            if tag[0] != "lit" or not re.fullmatch(
                r"[A-Za-z]+(-[A-Za-z0-9]+)*", tag[1]
            ):
                raise ValueError(
                    f"STRLANG tag must be a constant BCP-47 literal: {t!r}"
                )
            return ("strlang", _parse_filter_operand(args[0]), tag[1])
        if m := re.compile(r"(IRI|URI)\s*\(", re.IGNORECASE).match(s, pos[0]):
            pos[0] = m.end() - 1
            args = call_args()
            if len(args) != 1:
                raise ValueError(f"{m.group(1)} needs one argument: {t!r}")
            return ("mkiri", _parse_filter_operand(args[0]))
        if m := re.compile(
            r"(MD5|SHA1|SHA256|SHA384|SHA512)\s*\(", re.IGNORECASE
        ).match(s, pos[0]):
            pos[0] = m.end() - 1
            args = call_args()
            if len(args) != 1:
                raise ValueError(f"{m.group(1)} needs one argument: {t!r}")
            return ("hashfn", m.group(1).lower(),
                    _parse_filter_operand(args[0]))
        if m := re.compile(r"NOW\s*\(\s*\)", re.IGNORECASE).match(s, pos[0]):
            pos[0] = m.end()
            return ("now",)
        if m := re.compile(
            r"(YEAR|MONTH|DAY|HOURS|MINUTES|SECONDS)\s*\(", re.IGNORECASE
        ).match(s, pos[0]):
            pos[0] = m.end() - 1
            args = call_args()
            if len(args) != 1:
                raise ValueError(f"{m.group(1)} needs one argument: {t!r}")
            return ("dtfn", m.group(1).lower(),
                    _parse_filter_operand(args[0]))
        if m := re.compile(
            r"(TIMEZONE|TZ)\s*\(", re.IGNORECASE
        ).match(s, pos[0]):
            pos[0] = m.end() - 1
            args = call_args()
            if len(args) != 1:
                raise ValueError(f"{m.group(1)} needs one argument: {t!r}")
            return ("tzfn", m.group(1).lower(),
                    _parse_filter_operand(args[0]))
        if m := re.compile(
            r"(?:xsd:|<http://www\.w3\.org/2001/XMLSchema#)"
            r"(integer|decimal|double|float|string|boolean|dateTime)"
            r">?\s*\(",
            re.IGNORECASE,
        ).match(s, pos[0]):
            # XPath constructor casts (oxigraph parity, src/query.rs)
            pos[0] = m.end() - 1
            args = call_args()
            if len(args) != 1:
                raise ValueError(f"xsd cast needs one argument: {t!r}")
            return ("cast", m.group(1).lower(),
                    _parse_filter_operand(args[0]))
        if m := re.compile(
            r"(RAND|UUID|STRUUID)\s*\(", re.IGNORECASE
        ).match(s, pos[0]):
            raise ValueError(
                f"{m.group(1)}() is non-deterministic and unsupported — "
                "this engine is deterministic by contract"
            )
        if m := re.compile(
            r"(str|lang|datatype|strlen|ucase|lcase)\s*\(", re.IGNORECASE
        ).match(s, pos[0]):
            pos[0] = m.end() - 1
            args = call_args()
            if len(args) != 1:
                raise ValueError(f"{m.group(1)} needs one argument: {t!r}")
            return ("func", m.group(1).lower(),
                    _parse_filter_operand(args[0]))
        if c == "?":
            m = re.compile(r"\?([A-Za-z_]\w*)").match(s, pos[0])
            if not m:
                raise ValueError(f"bad variable in {t!r}")
            pos[0] = m.end()
            return ("var", m.group(1))
        if c == "<":
            j = _iri_end(s, pos[0])
            if j is None:
                raise ValueError(f"unterminated IRI in {t!r}")
            node = ("iri", s[pos[0] + 1 : j])
            pos[0] = j + 1
            return node
        if c == '"':
            j = pos[0] + 1
            while j < n:
                if s[j] == "\\":
                    j += 2
                    continue
                if s[j] == '"':
                    break
                j += 1
            k = j + 1
            if k < n and s[k] == "@":
                while k < n and not s[k].isspace() and s[k] not in "),":
                    k += 1
            elif s[k : k + 3] == "^^<":
                k = s.index(">", k) + 1
            node = _parse_term(s[pos[0]:k])
            pos[0] = k
            return node
        if m := re.compile(r"(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?").match(
            s, pos[0]
        ):
            pos[0] = m.end()
            return ("num", float(m.group(0)))
        raise ValueError(f"bad expression at {s[pos[0]:]!r} in {t!r}")

    node = expr()
    ws()
    if pos[0] != n:
        raise ValueError(f"trailing characters in expression: {s[pos[0]:]!r}")
    return node


_NUM_RE = None


def _parse_operand(t: str):
    global _NUM_RE
    if _NUM_RE is None:

        _NUM_RE = re.compile(r"^[+-]?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")
    if _NUM_RE.match(t):
        return ("num", float(t))
    return _parse_term(t)


def _iri_end(s: str, i: int):
    """``s[i] == '<'`` starts an IRI iff a ``>`` closes it before any
    whitespace (canonical IRIs contain no spaces); otherwise ``<`` is the
    comparison operator. Returns the index of ``>`` or None."""
    j = i + 1
    n = len(s)
    while j < n and not s[j].isspace():
        if s[j] == ">":
            return j
        j += 1
    return None


def _split_terms(s: str):
    out, i, n = [], 0, len(s)
    while i < n:
        c = s[i]
        if c.isspace():
            i += 1
        elif c == "<" and (j := _iri_end(s, i)) is not None:
            # a property path keeps going past the IRI without whitespace
            # (<a>/<b>, <p>+, ^<p>|<q>) — consume the whole run, IRI-aware
            k = j + 1
            while k < n and not s[k].isspace():
                if s[k] == "<" and (j2 := _iri_end(s, k)) is not None:
                    k = j2 + 1
                else:
                    k += 1
            out.append(s[i:k])
            i = k
        elif c == '"':
            j = i + 1
            while j < n:
                if s[j] == "\\":
                    j += 2
                    continue
                if s[j] == '"':
                    break
                j += 1
            # consume a typed/lang suffix so the decorated literal stays
            # one token: "x"@en or "5"^^<iri>
            k = j + 1
            if k < n and s[k] == "@":
                while k < n and not s[k].isspace():
                    k += 1
            elif s[k : k + 3] == "^^<":
                k = s.index(">", k) + 1
            out.append(s[i:k])
            i = k
        else:
            j = i
            while j < n and not s[j].isspace():
                j += 1
            out.append(s[i:j])
            i = j
    return out


def _check_user_name(name: str) -> str:
    """Reject user-written names in the engine's hidden-column
    namespace: ``__bn_<label>`` (blank-node pattern vars) and
    ``__aggN`` (aggregate-expression pre-binds) are minted internally,
    and a user ``?__bn_t`` would silently alias the hidden column for
    ``_:t`` and then be dropped from ``SELECT *`` projection."""
    if name.startswith("__"):
        raise ValueError(
            f"variable names starting with '__' are reserved: ?{name}"
        )
    return name


def _parse_term(t: str):
    from ..ntriples import is_decorated_literal, unescape_literal

    if t.startswith("?"):
        return ("var", _check_user_name(t[1:]))
    if (t.startswith("<") and t.endswith(">")
            and "<" not in t[1:-1] and ">" not in t[1:-1]):
        return ("iri", t[1:-1])
    if t.startswith('"') and t.endswith('"'):
        return ("lit", unescape_literal(t[1:-1]))
    if is_decorated_literal(t):
        # typed / lang-tagged literal term == the decorated object form
        return ("lit", t)
    if "<" in t and any(ch in t for ch in "/|+^(*?!"):
        # plain IRIs (even ones containing ?query or *) matched above;
        # anything else with path operators parses as a property path
        return ("path", _parse_path_token(t))
    if t == "a":  # the rdf:type keyword (valid only as a predicate)
        return ("iri", "http://www.w3.org/1999/02/22-rdf-syntax-ns#type")
    if t.startswith("_:"):
        # A blank-node label in a query pattern is a VARIABLE scoped to
        # the query (SPARQL 1.1 §4.1.4) — it never matches the stored
        # blank node of the same name. Mapped to a hidden ?__bn_<label>
        # var: joins across patterns like any variable, dropped from
        # SELECT * projection, and instantiated fresh per solution in
        # CONSTRUCT templates. (Strict SPARQL additionally forbids
        # reusing one label across two group scopes; here the label
        # simply names the same hidden variable.)
        # no dots: the group splitter treats top-level '.' as a clause
        # separator, so dotted labels could never reach here intact
        if not re.fullmatch(r"[A-Za-z0-9_-]+", t[2:]) or "__" in t[2:]:
            raise ValueError(f"bad blank node label: {t!r}")
        return ("var", "__bn_" + t[2:])
    raise ValueError(f"bad term: {t!r}")


def _parse_path_token(t: str):
    """SPARQL property-path subset →  AST::

        alt  := seq ('|' seq)*          →  ('alt', [node, ...])
        seq  := post ('/' post)*        →  ('seq', [node, ...])
        post := atom ('+'|'*'|'?')?     →  ('plus'|'star'|'ques', node)
        atom := '^' post | <iri> | '(' alt ')'   — '^' → ('inv', node)

    ``*`` / ``?`` carry zero-length-path semantics (every graph term —
    plus any constant endpoint of the enclosing pattern — matches
    itself), so their evaluation needs a node universe; see
    :func:`eval_path_pairs`."""
    pos = [0]
    n = len(t)

    def peek() -> str:
        return t[pos[0]] if pos[0] < n else ""

    def alt():
        nodes = [seq()]
        while peek() == "|":
            pos[0] += 1
            nodes.append(seq())
        return nodes[0] if len(nodes) == 1 else ("alt", nodes)

    def seq():
        nodes = [post()]
        while peek() == "/":
            pos[0] += 1
            nodes.append(post())
        return nodes[0] if len(nodes) == 1 else ("seq", nodes)

    def post():
        node = atom()
        if peek() == "+":
            pos[0] += 1
            node = ("plus", node)
        elif peek() == "*":
            pos[0] += 1
            node = ("star", node)
        elif peek() == "?":
            pos[0] += 1
            node = ("ques", node)
        return node

    def atom():
        c = peek()
        if c == "!":
            # negated property set: !<p> or !(<p>|<q>|...) — forward
            # members only (inverse members ^<p> are out of scope)
            pos[0] += 1
            iris = []

            def one_iri() -> str:
                if peek() == "^":
                    raise ValueError(
                        "inverse members in negated property sets are "
                        f"not supported: {t!r}"
                    )
                if peek() != "<":
                    raise ValueError(f"negated set needs IRIs: {t!r}")
                j = t.index(">", pos[0])
                iri = t[pos[0] + 1 : j]
                pos[0] = j + 1
                return iri

            if peek() == "(":
                pos[0] += 1
                iris.append(one_iri())
                while peek() == "|":
                    pos[0] += 1
                    iris.append(one_iri())
                if peek() != ")":
                    raise ValueError(f"unbalanced negated set in {t!r}")
                pos[0] += 1
            else:
                iris.append(one_iri())
            return ("negset", iris)
        if c == "^":
            pos[0] += 1
            return ("inv", post())
        if c == "(":
            pos[0] += 1
            node = alt()
            if peek() != ")":
                raise ValueError(f"unbalanced parentheses in path: {t!r}")
            pos[0] += 1
            return node
        if c == "<":
            j = t.index(">", pos[0])
            iri = t[pos[0] + 1 : j]
            pos[0] = j + 1
            return ("pred", iri)
        raise ValueError(f"bad property path at {t[pos[0]:]!r} in {t!r}")

    node = alt()
    if pos[0] != n:
        raise ValueError(f"trailing characters in path: {t[pos[0]:]!r}")
    return node


def eval_bgp(triples, query: "str | dict",
             quads: "pa.Table | None" = None,
             service_tables: "dict | None" = None,
             finalize: bool = True) -> pd.DataFrame:
    """Evaluate a SPARQL-subset query against an Arrow triple table
    (``subj, pred, obj, obj_is_literal``) or a reader's
    :class:`DefaultGraph` at an instant (``quads`` adds ``graph_id`` for
    GRAPH and FROM): the in-process backend of :func:`answer_group`,
    whose pattern scans are :func:`eval_one_pattern` over ``triples``
    and :func:`eval_pattern_in_graph` over ``quads``. Returns distinct
    bindings, one column per variable, sorted for determinism — or, with
    ``finalize=False``, the tagged frame. Unbound OPTIONAL variables are
    ``None`` (omitted in the SPARQL-JSON form).

    A variable binds an RDF *term*, not a lexical form: bindings are
    carried internally as tag-prefixed strings (see
    :func:`eval_one_pattern`) so that a
    literal ``"x"`` never joins the IRI ``<x>`` — across patterns AND for
    a variable repeated within one pattern (``?s <p> ?s`` = self-loops).

    ``query`` is the query text or its :func:`parse_query` group."""
    group = parse_query(query) if isinstance(query, str) else query

    # GRAPH clauses may sit anywhere in the group tree (OPTIONAL/UNION
    # branches included), so a missing quad table errors only when a
    # graph scan is actually reached
    def graph_scan(pat, gt, graphs=None):
        if quads is None:
            raise ValueError("query has a GRAPH or FROM clause but no quad "
                             "table was supplied")
        return eval_pattern_in_graph(quads, pat, gt, graphs)

    return answer_group(group, lambda pat: eval_one_pattern(triples, pat),
                        graph_scan, service_tables, finalize)


_FROM = "__from"  # graph variable of a FROM scan; user names never start "__"


def answer_group(group: dict, scan, graph_scan, endpoints=None,
                 finalize: bool = True) -> pd.DataFrame:
    """The one query driver: a parsed group → its answer. A backend
    supplies only how one pattern is scanned, as a tagged Arrow binding
    set: ``scan(pattern)`` over the store's default graph (the union of
    its live graphs; property paths included) and ``graph_scan(pattern,
    gterm, graphs=None)`` inside ``GRAPH gterm`` over its named graphs,
    or only those named in ``graphs`` (:func:`eval_pattern_in_graph`). The
    in-process reader scans its per-instant tables (:func:`eval_bgp`),
    the router gathers from its partition actors
    (:meth:`.service.QueryService._evaluate`). Held here once:

    - the dataset rules: with FROM / FROM NAMED, the default graph is
      the set-union of the FROM graphs (empty when only FROM NAMED is
      given; a property path closes over the union's edges), and GRAPH
      sees exactly the FROM NAMED graphs;
    - SERVICE endpoints (:func:`service_evaluator`);
    - the group algebra (:func:`eval_group`) and the answer's form
      (:func:`finish_query`), or with ``finalize=False`` the TAGGED
      bindings the engine-to-engine federation wire needs
      (:func:`_tagged_result`)."""
    source, gsource = scan, graph_scan
    fg = group.get("from_graphs") or []
    fn = group.get("from_named") or []
    if fg or fn:
        def from_scan(pat):
            # one scan over the FROM graphs; a triple held by several of
            # them matches once
            out = graph_scan(pat, ("var", _FROM), fg).drop_columns([_FROM])
            return _first_rows(out) if out.num_columns \
                else _unit(min(out.num_rows, 1))

        def source(pat):
            if not fg:
                return empty_bindings(pat)
            if pat[1][0] == "path":
                return path_bindings(pat, from_scan)
            return from_scan(pat)

        def gsource(pat, gt):
            if gt[0] == "iri":
                return graph_scan(pat, gt) if gt[1] in fn \
                    else empty_bindings(pat)
            return graph_scan(pat, gt, fn)

    service_eval = service_evaluator(endpoints)
    result = eval_group(group, source, gsource, service_eval)
    if not finalize:
        return _tagged_result(result, group)
    return finish_query(result, group, source, gsource, service_eval)


def _tagged_result(result: pa.Table, group: dict) -> pd.DataFrame:
    """Tagged bindings of a PLAIN SELECT group, wire-ready: hidden
    variables dropped, distinct, sorted by full bytes. Forms that
    need the finalization machinery (aggregates, projection
    expressions, modifiers, ASK/CONSTRUCT/DESCRIBE) raise — the
    federation client only ever ships ``SELECT * WHERE { ... }``."""
    if (group.get("aggregates") or group.get("group_by")
            or group.get("select_exprs") or group.get("ask")
            or group.get("construct") is not None
            or group.get("describe") is not None
            or group.get("order_by") or group.get("limit") is not None
            or group.get("offset")):
        raise ValueError(
            "tagged evaluation supports plain SELECT groups only")
    cols = [c for c in result.column_names if not c.startswith("__")]
    if group.get("select") is not None:
        cols = [c for c in group["select"] if c in cols] or cols
    if not cols:
        return _frame(_unit(result.num_rows))
    return _frame(_distinct_sorted(result.select(cols)))


_WIRE_CTYPE = "application/x-kg-tagged-tsv"


def _wire_escape(v: str) -> str:
    return (v.replace("\\", "\\\\").replace("\t", "\\t")
            .replace("\n", "\\n").replace("\r", "\\r"))


def _wire_unescape(v: str) -> str:
    out, i, n = [], 0, len(v)
    while i < n:
        ch = v[i]
        if ch == "\\" and i + 1 < n:
            nxt = v[i + 1]
            rep = {"\\": "\\", "t": "\t", "n": "\n", "r": "\r"}.get(nxt)
            if rep is not None:
                out.append(rep)
                i += 2
                continue
        out.append(ch)
        i += 1
    return "".join(out)


def _wire_cell(v) -> str:
    # tagged strings never start with "\", so "\"-prefixed sentinels are
    # unambiguous: \U unbound, \i / \f native BIND-arithmetic numbers
    if v is None or (isinstance(v, float) and np.isnan(v)):
        return "\\U"
    if isinstance(v, (bool, np.bool_)):
        return f"\\i{int(v)}"  # engine booleans ride as tagged literals;
        # a stray native bool degrades to int, never crashes the wire
    if isinstance(v, (int, np.integer)):
        return f"\\i{int(v)}"
    if isinstance(v, (float, np.floating)):
        return f"\\f{float(v)!r}"
    return _wire_escape(v)


def _unwire_cell(v: str):
    if v == "\\U":
        return None
    if v.startswith("\\i"):
        return int(v[2:])
    if v.startswith("\\f"):
        return float(v[2:])
    return _wire_unescape(v)


def tagged_wire(df: pd.DataFrame) -> str:
    """Serialize a TAGGED bindings frame for the engine-to-engine
    federation wire (content type ``application/x-kg-tagged-tsv``):
    header of variable names, one escaped tagged string per cell,
    unbound = ``\\U``. Exact — term kind, decorated literals, NULs and
    whitespace, and native BIND-arithmetic numbers all survive, unlike
    the W3C result formats, which serialize finalized values and cannot
    carry kind for IRI-shaped plain literals."""
    cols = [[_wire_cell(v) for v in col] for col in _column_lists(df)]
    lines = ["\t".join(df.columns)]
    lines.extend("\t".join(row) for row in _rows(cols, len(df)))
    return "\n".join(lines) + "\n"


def tagged_from_wire(text: str) -> pd.DataFrame:
    """Inverse of :func:`tagged_wire`."""
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        return pd.DataFrame()
    cols = [c for c in lines[0].split("\t") if c]
    rows = [[_unwire_cell(v) for v in ln.split("\t")]
            for ln in lines[1:]]
    if not cols:
        return pd.DataFrame(index=range(len(rows)))
    return pd.DataFrame(rows, columns=cols, dtype=object)


def walk_groups(group: dict):
    """``group`` and every group nested anywhere inside it: OPTIONAL,
    UNION, MINUS, EXISTS, GRAPH and SERVICE bodies, subqueries, and the
    ``("exists", positive, group)`` atoms that expression-level EXISTS
    leaves inside FILTER, BIND, projection, HAVING and ORDER BY
    expressions. Any dict carrying ``patterns`` is a group, so a new
    clause kind is walked without touching this function."""
    yield group
    todo = list(group.values())
    while todo:
        v = todo.pop()
        if isinstance(v, dict):
            if "patterns" in v:
                yield from walk_groups(v)
            else:
                todo.extend(v.values())
        elif isinstance(v, (list, tuple)):
            todo.extend(v)


def service_evaluator(endpoints: "dict | None"):
    """``service_eval(iri, sub)`` over resolved SERVICE endpoints: a
    triple TABLE is scanned here by the Arrow pattern kernel, a str URL
    is asked over HTTP with the sub-pattern shipped verbatim. An
    unregistered http(s) IRI dereferences ITSELF as the endpoint, the
    oxigraph behavior (``src/query.rs:102-114``). A partial of a module
    function, not a closure that names itself: every query builds one,
    and a self-referencing closure is a cycle only the cyclic GC
    frees."""
    return functools.partial(_service_eval, endpoints)


def _service_eval(endpoints: "dict | None", iri: str, sub: dict) -> pa.Table:
    ep = (endpoints or {}).get(iri)
    if ep is None and iri.startswith(("http://", "https://")):
        ep = iri
    if ep is None:
        raise ValueError(f"unknown SERVICE endpoint <{iri}>")
    if isinstance(ep, str):
        raw = sub.get("raw_text")
        if raw is None:
            raise ValueError(
                "HTTP SERVICE needs the raw sub-pattern text "
                "(query was not parsed by this engine)")
        return _table(http_service_bindings(ep, raw))
    return eval_group(sub, lambda pat: eval_one_pattern(ep, pat),
                      None, service_evaluator(endpoints))


def finish_query(result: pa.Table, group: dict, pattern_bindings,
                 graph_bindings, service_eval) -> pd.DataFrame:
    """Tagged group bindings → the query form's final frame: ASK boolean,
    CONSTRUCT / DESCRIBE triple frame, or SELECT/bare bindings. DESCRIBE
    fetches each described resource's triples from ``pattern_bindings``.
    GROUP BY and finalization run in Arrow; HAVING and projection
    expressions are the pandas operator block."""
    if group.get("ask"):
        return pd.DataFrame({"ask": [bool(result.num_rows)]})
    if group.get("construct") is not None:
        return construct_triples(_frame(result), group["construct"])
    if group.get("describe") is not None:
        return describe_triples(_frame(result), group["describe"],
                                pattern_bindings)
    # projection / aggregate / ORDER BY expressions may carry EXISTS —
    # keep the group's evaluation context (its GRAPH and SERVICE sources
    # included) alive while they materialize
    _exists_stack().append(lambda g: eval_group(
        g, pattern_bindings, graph_bindings, service_eval))
    try:
        if group.get("aggregates") or group.get("group_by"):
            result = aggregate_bindings(
                _assign_exprs(result, group.get("agg_exprs")), group)
            if group.get("having"):
                df = _frame(result)
                for flt in group["having"]:
                    df = df[[_having_true(row, flt)
                             for row in df.to_dict("records")]]
                result = _table(df)
        result = _assign_exprs(result, group.get("select_exprs"),
                               projection=True)
        return finalize_bindings(result, group)
    finally:
        _exists_stack().pop()


def _having_true(row: dict, flt) -> bool:
    """HAVING comparison over one AGGREGATED row (mixed native numbers
    for aliases + tagged strings for group keys). Row-wise is fine here:
    the aggregated frame has one row per GROUP, not per binding."""
    if flt[0] == "or":
        return any(_having_true(row, sub) for sub in flt[1])
    if flt[0] == "and":
        return all(_having_true(row, sub) for sub in flt[1])
    if flt[0] == "not":
        return not _having_true(row, flt[1])
    if flt[0] == "bound":
        v = row.get(flt[1][1])
        return v is not None and not (isinstance(v, float) and np.isnan(v))
    if flt[0] in ("regex", "typetest", "sameterm", "langmatches", "strfn"):
        raise ValueError(f"{flt[0]} is not supported in HAVING")
    lhs, op, rhs = flt

    def val(o):
        kind, *rest = o
        if kind == "var":
            return row.get(rest[0])
        if kind == "iri":
            return "I" + rest[0]
        if kind == "lit":
            return "L" + rest[0]
        if kind == "num":
            return float(rest[0])
        raise ValueError("accessor functions are not supported in HAVING")

    def num(x):
        if isinstance(x, (int, np.integer)):
            return float(x)
        if isinstance(x, (float, np.floating)):
            return None if np.isnan(x) else float(x)
        if isinstance(x, str) and x.startswith("L"):
            from ..ntriples import literal_parts

            lex, suffix = literal_parts(x[1:])
            if suffix.startswith("^^<") and suffix[3:-1] not in _XSD_NUMERIC:
                return None
            if suffix.startswith("@"):
                return None
            try:
                return float(lex)
            except ValueError:
                return None
        return None

    a, b = val(lhs), val(rhs)
    if a is None or b is None or (isinstance(a, float) and np.isnan(a)) \
            or (isinstance(b, float) and np.isnan(b)):
        return False
    an, bn = num(a), num(b)
    if an is not None and bn is not None:
        a, b = an, bn
    elif op not in ("=", "!="):
        return False
    elif type(a) is not type(b):
        return op == "!="
    return _cmp_scalar(a, b, op)


def _cmp_scalar(a, b, op: str) -> bool:
    if op == "=":
        return a == b
    if op == "!=":
        return a != b
    if op == "<":
        return a < b
    if op == "<=":
        return a <= b
    if op == ">":
        return a > b
    return a >= b


def _assign_exprs(result: pa.Table, exprs, projection: bool = False
                  ) -> pa.Table:
    """Columns ``name = expression`` appended by the pandas expression
    machinery (one block: in through :func:`_frame`, out through
    :func:`_table`): hidden ``__aggN`` inputs of aggregates over
    expressions (``SUM(?a * ?b)``), computed GROUP BY keys, projection
    expressions. An expression error leaves the row's value unbound,
    which aggregates then skip per SPARQL."""
    if not exprs:
        return result
    df = _frame(result)
    for name, node in exprs:
        if projection and name in df.columns:
            raise ValueError(f"projection alias ?{name} is already bound")
        s = _operand_tagged(node, df)
        df = df.assign(**{name: s.astype(object).where(s.notna(), None)})
    return _table(df)


def _group_ids(t: pa.Table, by: list) -> "tuple[np.ndarray, pa.Table]":
    """(group number of each row, the groups' key rows): groups numbered
    in first-appearance order, unbound keys a group of their own. Arrow
    hashes full bytes, so NUL-twin keys stay apart."""
    n = t.num_rows
    if not by:
        return np.zeros(n, np.int64), _unit(1)
    rows = _ROW + "_list"
    g = (t.select(by).append_column(_ROW, _row_ids(n))
         .group_by(by, use_threads=False).aggregate([(_ROW, "list")]))
    g = g.take(pc.sort_indices(pc.list_element(g[rows], 0)))
    lists = g[rows].combine_chunks()
    gid = np.empty(n, np.int64)
    gid[pc.list_flatten(lists).to_numpy()] = \
        pc.list_parent_indices(lists).to_numpy()
    return gid, g.select(by)


def _term_parts(col) -> "tuple[np.ndarray, np.ndarray]":
    """(lexical form, SPARQL-numeric value or NaN) of each term of a
    binding column, by :func:`_series_parts` over its distinct values."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    enc = pc.dictionary_encode(col)
    lex, num = _series_parts(enc.dictionary.to_pandas())[:2]
    idx = enc.indices.fill_null(0).to_numpy()
    valid = enc.indices.is_valid().to_numpy(zero_copy_only=False)
    lex = lex.to_numpy(object, na_value=None)
    num = num.to_numpy("float64", na_value=np.nan)
    if not len(lex):
        return np.full(len(col), None, object), np.full(len(col), np.nan)
    return (np.where(valid, lex[idx], None),
            np.where(valid, num[idx], np.nan))


def _aggregate(func: str, var, distinct: bool, sep, t: pa.Table,
               gid: np.ndarray, ngroups: int) -> pa.Array:
    """One aggregate over every group (see :func:`aggregate_bindings`)."""
    if func == "COUNT" and var is None:
        return pa.array(np.bincount(gid, minlength=ngroups))
    col = t[var] if var in t.column_names else pa.nulls(t.num_rows,
                                                          pa.string())
    valid = col.is_valid().to_numpy(zero_copy_only=False)
    vals, g = col.filter(valid), gid[valid]
    if distinct and func in ("COUNT", "GROUP_CONCAT"):
        keep = _first_ids(pa.table({"#g": g, "v": vals}))
        vals, g = vals.take(keep), g[keep]
    if func == "COUNT":
        return pa.array(np.bincount(g, minlength=ngroups))
    if func == "SAMPLE":
        items = vals.to_pylist()
    else:
        lex, num = _term_parts(vals)
        items = (lex if func == "GROUP_CONCAT" else num).tolist()
    lists: list = [[] for _ in range(ngroups)]
    for k, v in zip(g.tolist(), items):
        if v == v:  # NaN: not a numeric term
            lists[k].append(v)
    if func == "SAMPLE":
        # SPARQL leaves the pick free; the minimum tagged term keeps
        # results deterministic and replayable
        return pa.array([min(x) if x else None for x in lists], col.type)
    if func == "GROUP_CONCAT":
        # element order is implementation-defined in SPARQL — sorted
        # lexical order keeps it deterministic here; empty = ""
        return pa.array(["L" + sep.join(sorted(v or "" for v in x))
                         for x in lists], pa.string())
    reduce = {"SUM": np.sum, "AVG": np.mean, "MIN": np.min,
              "MAX": np.max}[func]
    return pa.array([float(reduce(list(dict.fromkeys(x)) if distinct else x))
                     if x else None for x in lists], pa.float64())


def aggregate_bindings(result: pa.Table, group: dict) -> pa.Table:
    """GROUP BY + aggregates over tagged bindings → one row per group,
    groups in first-appearance order. COUNT counts bound terms (``*``
    counts rows, DISTINCT dedups); SUM/AVG/MIN/MAX apply to the
    SPARQL-numeric values of the variable (non-numeric terms are
    ignored, SPARQL's error-skipping); SAMPLE picks the minimum tagged
    term; GROUP_CONCAT joins the sorted lexical forms. Aggregate
    columns are NATIVE numbers (finalize passes numbers through), so
    downstream sorting is numeric, not lexical."""
    by = []
    for i, k in enumerate(group.get("group_by") or []):
        if isinstance(k, str):
            if k not in result.column_names:
                result = result.append_column(
                    k, pa.nulls(result.num_rows, pa.string()))
            by.append(k)
            continue
        # computed GroupCondition: (expr [AS ?alias]) / bare call —
        # evaluate on the tagged pre-aggregation bindings; aliased keys
        # are projectable, anonymous ones group then drop
        _tag, node, alias = k
        col = alias or f"__grp_{i}"
        if col in result.column_names:
            raise ValueError(f"GROUP BY alias ?{col} is already bound")
        result = _assign_exprs(result, [(col, node)])
        by.append(col)
    aggs = group["aggregates"] or []
    gid, out = _group_ids(result, by)
    if not out.num_rows:
        return _empty(by + [a[3] for a in aggs])
    for func, var, distinct, alias, sep in aggs:
        out = out.append_column(alias, _aggregate(
            func, var, distinct, sep, result, gid, out.num_rows))
    # anonymous (hidden __grp_) key columns stay through finalize — they
    # keep distinct groups with equal aggregate values from collapsing
    # in the bindings dedup — and drop in apply_result_modifiers
    return out


def construct_triples(result: pd.DataFrame, template) -> pd.DataFrame:
    """Instantiate a CONSTRUCT template against tagged bindings → a
    distinct, sorted triple frame ``(subj, pred, obj, obj_is_literal)``.
    Per SPARQL: rows where a template variable is unbound, or binds a
    literal in subject/predicate position (or a blank node in predicate
    position), produce no triple. A template-only blank-node label
    (``_:x`` parsed to a hidden ``__bn_x`` var the WHERE group never
    binds) instantiates a FRESH blank node per solution row — rows are
    pre-sorted so the generated labels are a pure function of the
    solution multiset, not of arrival order."""
    fresh = {val for s, p, o in template for kind, val in (s, p, o)
             if kind == "var" and val.startswith("__bn_")
             and val not in result.columns}
    if fresh:
        for s, p, o in template:
            if p[0] == "var" and p[1] in fresh:
                raise ValueError(
                    "blank nodes are not valid in predicate position"
                )
        result = _sort_frame(result, list(result.columns))
    frames = []
    for s, p, o in template:
        n = len(result)
        ok = pd.Series(True, index=result.index)
        cols: dict = {}
        for pos, term in (("subj", s), ("pred", p), ("obj", o)):
            kind, val = term
            if kind == "var" and val in fresh:
                cols[pos] = pd.Series(
                    [f"_:{val[5:]}r{i}" for i in range(n)],
                    index=result.index,
                )
                if pos == "obj":
                    cols["obj_is_literal"] = pd.Series(
                        False, index=result.index
                    )
            elif kind == "var":
                series = (result[val] if val in result.columns
                          else pd.Series([None] * n, index=result.index,
                                         dtype=object)).astype("string")
                ok &= series.notna().astype(bool)
                if pos == "obj":
                    cols["obj_is_literal"] = series.str.startswith(
                        "L").fillna(False).astype(bool)
                else:
                    ok &= series.str.startswith("I").fillna(False).astype(bool)
                    if pos == "pred":
                        ok &= ~series.str.slice(1).str.startswith(
                            "_:").fillna(False).astype(bool)
                cols[pos] = series.str.slice(1)
            elif kind == "iri":
                cols[pos] = pd.Series([val] * n, index=result.index)
                if pos == "obj":
                    cols["obj_is_literal"] = pd.Series(
                        False, index=result.index
                    )
            else:  # literal constant (validated: object position only)
                cols[pos] = pd.Series([val] * n, index=result.index)
                cols["obj_is_literal"] = pd.Series(True, index=result.index)
        frames.append(pd.DataFrame(cols)[ok])
    out = pd.concat(frames, ignore_index=True)
    for c in ("subj", "pred", "obj"):
        out[c] = out[c].astype(object)
    return _distinct_sorted_frame(
        out[["subj", "pred", "obj", "obj_is_literal"]])


def describe_triples(result: pd.DataFrame, describe,
                     pattern_bindings) -> pd.DataFrame:
    """DESCRIBE resources → their Concise Bounded Description as a
    distinct, sorted ``(subj, pred, obj, obj_is_literal)`` frame (same
    shape as CONSTRUCT). Resources = the form's IRI constants plus
    every IRI a described variable binds in the group result; one
    selective ``<r> ?p ?o`` pattern per resource, then blank-node
    OBJECTS are followed recursively (the CBD rule — the shape the
    reference's oxigraph serves, ``src/query.rs:148-169``; meaningful
    here since stored graphs carry canonical ``_:`` labels). Cycle-safe
    via the described set; the transfer stays bounded by the
    descriptions' size, never the store's."""
    resources: set = set()
    for kind, val in describe:
        if kind == "iri":
            resources.add(val)
            continue
        if val in result.columns:
            col = result[val].dropna().astype("string")
            resources.update(col[col.str.startswith("I")].str.slice(1))
    frames = []
    described: set = set()
    queue = sorted(resources)
    while queue:
        nxt: set = set()
        for r in queue:
            if r in described:
                continue
            described.add(r)
            b = _frame(pattern_bindings(
                (("iri", r), ("var", "_dp"), ("var", "_do"))
            ))
            if not len(b):
                continue
            dp = b["_dp"].astype("string")
            do = b["_do"].astype("string")
            frames.append(
                pd.DataFrame(
                    {
                        "subj": pd.Series([r] * len(b), dtype=object),
                        "pred": dp.str.slice(1).astype(object).to_numpy(),
                        "obj": do.str.slice(1).astype(object).to_numpy(),
                        "obj_is_literal": do.str.startswith("L")
                        .fillna(False)
                        .astype(bool)
                        .to_numpy(),
                    }
                )
            )
            objs = do[~do.str.startswith("L").fillna(False)].str.slice(1)
            nxt.update(
                o for o in objs
                if isinstance(o, str) and o.startswith("_:")
                and o not in described
            )
        queue = sorted(nxt)
    if not frames:
        return pd.DataFrame(
            columns=["subj", "pred", "obj", "obj_is_literal"]
        ).astype({"obj_is_literal": bool})
    return _distinct_sorted_frame(pd.concat(frames, ignore_index=True))


def _exists_stack() -> list:
    """Group-evaluator stack for expression-level EXISTS — thread-local
    (see ``_EVAL_TLS``): concurrent server handlers must not see each
    other's bindings sources."""
    st = getattr(_EVAL_TLS, "exists_eval", None)
    if st is None:
        st = _EVAL_TLS.exists_eval = []
    return st


def eval_group(group: dict, pattern_bindings,
               graph_bindings=None, service_eval=None) -> pa.Table:
    """Entry wrapper: pushes this evaluation context so ``EXISTS {..}``
    appearing INSIDE expressions (boolean combinations, IF conditions)
    can evaluate its group against the same bindings source — the
    clause form ``FILTER [NOT] EXISTS`` never needed it because the
    group is applied structurally."""
    _exists_stack().append(
        lambda g: eval_group(g, pattern_bindings, graph_bindings,
                             service_eval)
    )
    try:
        return _eval_group_inner(group, pattern_bindings, graph_bindings,
                                 service_eval)
    finally:
        _exists_stack().pop()


# group clauses evaluated by the pandas operator block
_FRAME_OPS = ("values", "subqueries", "services", "graphs", "unions",
              "optionals", "binds", "minus", "exists", "filters")


def _eval_group_inner(group: dict, pattern_bindings,
                      graph_bindings=None, service_eval=None) -> pa.Table:
    """Evaluate a parsed group given ``pattern_bindings(pattern) →
    tagged Arrow binding set``. The bindings source is what varies
    between the local evaluator (one triple table) and the distributed
    service (union of per-partition pattern evaluations) — the
    join/OPTIONAL/FILTER algebra is identical. ``graph_bindings(pattern,
    gterm)`` is the graph-scoped source for ``GRAPH`` clauses
    (quad-aware; binds the graph variable when ``gterm`` is a var).

    The conjunction runs in Arrow. The clauses not ported yet (VALUES,
    subqueries, SERVICE, GRAPH, UNION, OPTIONAL, BIND, MINUS, EXISTS,
    FILTER) run as one pandas block, entered through :func:`_frame` and
    left through :func:`_table`, so only a group using one pays for the
    conversion."""
    result = _conjoin(group["patterns"], pattern_bindings)
    if not any(group.get(op) for op in _FRAME_OPS):
        return result
    return _table(_frame_ops(_frame(result), group, pattern_bindings,
                             graph_bindings, service_eval))


def _frame_ops(result: pd.DataFrame, group: dict, pattern_bindings,
               graph_bindings, service_eval) -> pd.DataFrame:
    """The pandas operator block of :func:`_eval_group_inner`."""
    def sub_eval(g, src=pattern_bindings, gsrc=graph_bindings):
        return _frame(eval_group(g, src, gsrc, service_eval))

    for varnames, rows in group.get("values") or []:
        vdf = _distinct(pd.DataFrame(rows, columns=varnames, dtype=object))
        # inline data is just another binding set; UNDEF rows route
        # through the unbound-compatible join automatically
        result = _distinct(_merge_bindings(result, vdf))
    for sub in group.get("subqueries") or []:
        sres = eval_subquery(sub, pattern_bindings, graph_bindings,
                             service_eval)
        result = _distinct(_merge_bindings(result, sres))
    for silent, iri, sub in group.get("services") or []:
        # federation: the sub-group evaluates against ANOTHER store's
        # registered endpoint; its solutions join like any nested group.
        # SILENT failure contributes the identity solution (no merge) —
        # the SPARQL 1.1 federated-query rule
        if service_eval is None:
            if silent:
                continue
            raise ValueError(
                "query has a SERVICE clause but no federated endpoints "
                "are registered for this reader"
            )
        try:
            sres = _frame(service_eval(iri, sub))
        except Exception:
            if not silent:
                raise
            continue
        result = _distinct(_merge_bindings(result, sres))
    for gterm, sub in group.get("graphs") or []:
        if graph_bindings is None:
            raise ValueError(
                "this pattern source does not support GRAPH clauses"
            )
        src = lambda pat, gt=gterm: graph_bindings(pat, gt)  # noqa: E731
        result = _distinct(_merge_bindings(result, sub_eval(sub, src, None)))
    for branches in group["unions"]:
        parts = [sub_eval(b) for b in branches]
        cols: list = []
        for p in parts:
            cols.extend(c for c in p.columns if c not in cols)
        udf = pd.concat(
            [p.reindex(columns=cols) for p in parts], ignore_index=True
        )
        # variables bound in only some branches are unbound (NaN → None
        # at finalize) elsewhere — SPARQL's UNION shape
        result = _distinct(_merge_bindings(result, _distinct(udf)))
    for opt in group["optionals"]:
        # full recursive evaluation: OPTIONAL groups may carry their own
        # FILTERs, UNIONs and nested OPTIONALs (scoped inside the group)
        result = _merge_optional(result, sub_eval(opt))
    for vname, o in group.get("binds") or []:
        if vname in result.columns:
            raise ValueError(f"BIND would rebind already-bound ?{vname}")
        # tagged unconditionally: numeric expression results become
        # decorated numeric literals; expression errors (lang() of an
        # IRI, division by zero, non-numeric arithmetic) → unbound
        s = _operand_tagged(o, result)
        result = result.assign(
            **{vname: s.astype(object).where(s.notna(), None)}
        )
    for mg in group.get("minus") or []:
        result = _apply_minus(result, sub_eval(mg))
    for positive, eg in group.get("exists") or []:
        result = _apply_exists(result, sub_eval(eg), positive)
    return _apply_filters(result, group["filters"])


def _apply_minus(result: pd.DataFrame, mres: pd.DataFrame) -> pd.DataFrame:
    """SPARQL MINUS: drop result rows compatible with ANY minus-group
    row they share at least one mutually-bound variable with (rows with
    disjoint bound domains are kept — the spec's ``dom`` condition,
    which is also why a MINUS group with no shared variables removes
    nothing). Same null-mask pair decomposition as :func:`_compat_join`,
    but pairs whose mutual bound set is empty are skipped instead of
    cross-joined."""
    shared = [c for c in result.columns if c in mres.columns]
    if not shared or not len(mres) or not len(result):
        return result
    left = result.reset_index(drop=True)
    left = left.assign(__lid__=np.arange(len(left)))
    lmask = left[shared].isna()
    rmask = mres[shared].isna()
    drop: set = set()
    for lkey, lg in left.groupby([lmask[c] for c in shared], sort=False):
        lnull = dict(zip(shared, lkey if isinstance(lkey, tuple) else (lkey,)))
        for rkey, rg in mres.groupby([rmask[c] for c in shared], sort=False):
            rnull = dict(
                zip(shared, rkey if isinstance(rkey, tuple) else (rkey,))
            )
            on = [c for c in shared if not lnull[c] and not rnull[c]]
            if not on:
                continue
            m = lg.merge(_distinct(rg[on]), on=on, how="inner")
            drop.update(m["__lid__"].tolist())
    out = left[~left["__lid__"].isin(drop)]
    return out.drop(columns="__lid__").reset_index(drop=True)


def _apply_exists(result: pd.DataFrame, eres: pd.DataFrame,
                  positive: bool) -> pd.DataFrame:
    """``FILTER [NOT] EXISTS { group }`` as an unbound-compatible
    semi-join: a row passes EXISTS when at least one group solution is
    compatible with it (shares no contradicting bound variable). Exact
    for the common case where the inner group's cross-references to the
    outer query are via shared variables; inner FILTERs see only inner
    bindings (the same scoping simplification UNION branches make)."""
    if not len(result):
        return result
    ok = _exists_mask(result, eres)
    return result[ok if positive else ~ok].reset_index(drop=True)


def _exists_mask(result: pd.DataFrame, eres: pd.DataFrame) -> pd.Series:
    """Per-row EXISTS indicator (aligned to ``result.index``)."""
    shared = [c for c in result.columns if c in eres.columns]
    if not shared:
        return pd.Series(len(eres) > 0, index=result.index)
    left = result.reset_index(drop=True)
    left = left.assign(__lid__=np.arange(len(left)))
    matched = _compat_join(left, _distinct(eres[shared]), shared)
    ok = left["__lid__"].isin(set(matched["__lid__"]))
    return pd.Series(ok.to_numpy(), index=result.index)


def _conjoin(patterns, pattern_bindings) -> pa.Table:
    """Natural-join the patterns' Arrow binding sets. Join ORDER is
    chosen by greedy selectivity (smallest set first, then the smallest
    set sharing a variable with the accumulated bindings; a cross join
    only when nothing shares) — safe because pattern bindings are fully
    bound, so the inner joins commute; the written order of an
    unselective first pattern no longer inflates the intermediates. If
    any pattern matched nothing the conjunction is empty regardless of
    order, with every pattern variable present (unbound) in the result
    schema. A matched variable-free pattern is the join's identity.
    Joins of distinct sets are distinct, so no dedup runs here."""
    if not patterns:  # pure-OPTIONAL/FILTER group
        return _unit(1)
    tables = [pattern_bindings(p) for p in patterns]
    if any(t.num_rows == 0 for t in tables):
        return _empty(list(dict.fromkeys(
            c for t in tables for c in t.column_names)))
    tables = [t for t in tables if t.num_columns]
    if not tables:
        return _unit(1)
    rest = sorted(range(len(tables)), key=lambda i: (len(tables[i]), i))
    order = [rest.pop(0)]
    seen = set(tables[order[0]].column_names)
    while rest:
        sharing = [i for i in rest if seen & set(tables[i].column_names)]
        pick = min(sharing or rest, key=lambda i: (len(tables[i]), i))
        rest.remove(pick)
        order.append(pick)
        seen |= set(tables[pick].column_names)
    result = tables[order[0]]
    for i in order[1:]:
        result = _join(result, tables[i])
        if result.num_rows == 0:
            break
    return result


def _join_ids(left: pa.Table, right: pa.Table
              ) -> "tuple[np.ndarray, np.ndarray]":
    """(left row, right row) index pairs of the natural join of two key
    tables holding no unbound value, in nested-loop order: each left
    row in turn, its matches in right order (the order a pandas inner
    merge keeps). No shared column = the cross join, from
    repeated/tiled indices (Arrow has no cross-join kernel). Arrow
    hashes full bytes, so NUL twins never match each other."""
    nl, nr = left.num_rows, right.num_rows
    if not left.num_columns:
        return np.repeat(np.arange(nl), nr), np.tile(np.arange(nr), nl)
    keys = left.column_names
    j = left.append_column("#l", _row_ids(nl)).join(
        right.append_column("#r", _row_ids(nr)), keys, join_type="inner",
        use_threads=False)
    j = j.take(pc.sort_indices(j, [("#l", "ascending"),
                                   ("#r", "ascending")]))
    return (j["#l"].to_numpy().astype(np.int64, copy=False),
            j["#r"].to_numpy().astype(np.int64, copy=False))


def _join(left: pa.Table, right: pa.Table) -> pa.Table:
    """Natural join of two fully bound binding sets (see
    :func:`_join_ids`); columns are ``left``'s, then ``right``'s new
    ones."""
    shared = [c for c in left.column_names if c in right.column_names]
    li, ri = _join_ids(left.select(shared), right.select(shared))
    out = _take(left, li)
    for c in right.column_names:
        if c not in shared:
            out = out.append_column(c, right[c].take(ri))
    return out


def _merge_bindings(result: pd.DataFrame, cur: pd.DataFrame) -> pd.DataFrame:
    """:func:`_join` for the pandas operator block; shared variables
    unbound on either side take the unbound-compatible join."""
    shared = [c for c in result.columns if c in cur.columns]
    if shared and not (result[shared].notna().all().all()
                       and cur[shared].notna().all().all()):
        return _compat_join(result, cur, shared)
    li, ri = _join_ids(_table(result[shared]), _table(cur[shared]))
    new = [c for c in cur.columns if c not in shared]
    return pd.concat([result.iloc[li].reset_index(drop=True),
                      cur[new].iloc[ri].reset_index(drop=True)], axis=1)


def _compat_join(left: pd.DataFrame, right: pd.DataFrame,
                 shared: list) -> pd.DataFrame:
    """SPARQL-compatible join when shared variables may be UNBOUND
    (None/NaN) on either side — after OPTIONAL or UNION branches that
    bind only some variables. Two rows are compatible when they agree on
    every shared var bound on BOTH sides; the bound side's value
    survives (a plain ``merge`` drops every NaN-keyed row, silently
    losing branch solutions). Each side is split by its distinct
    null-mask over the shared columns (a handful of masks in practice,
    one per branch shape) and each mask pair joins on the columns bound
    in both."""
    lmask = left[shared].isna()
    rmask = right[shared].isna()
    parts = []
    for lkey, lg in left.groupby([lmask[c] for c in shared], sort=False):
        lnull = dict(zip(shared, lkey if isinstance(lkey, tuple) else (lkey,)))
        for rkey, rg in right.groupby([rmask[c] for c in shared], sort=False):
            rnull = dict(
                zip(shared, rkey if isinstance(rkey, tuple) else (rkey,))
            )
            on = [c for c in shared if not lnull[c] and not rnull[c]]
            if on:
                m = lg.merge(rg, on=on, how="inner", suffixes=("", "__r"))
            else:
                m = lg.merge(rg, how="cross", suffixes=("", "__r"))
            for c in shared:
                rc = c + "__r"
                if rc in m.columns:
                    m[c] = m[c].where(m[c].notna(), m[rc])
                    m = m.drop(columns=[rc])
            parts.append(m)
    if not parts:
        cols = list(left.columns) + [
            c for c in right.columns if c not in left.columns
        ]
        return pd.DataFrame(columns=cols)
    return pd.concat(parts, ignore_index=True)


def _merge_optional(result: pd.DataFrame, ores: pd.DataFrame) -> pd.DataFrame:
    shared = [c for c in result.columns if c in ores.columns]
    new_cols = [c for c in ores.columns if c not in result.columns]
    if len(ores) == 0:
        for c in new_cols:
            result[c] = None
        return _distinct(result)
    if not shared:
        return _distinct(result.merge(ores, how="cross"))
    if result[shared].notna().all().all() and ores[shared].notna().all().all():
        return _distinct(result.merge(ores, on=shared, how="left"))
    # unbound-compatible LEFT join: compat-inner join plus the left rows
    # that matched nothing (kept once, optional vars unbound)
    left = result.reset_index(drop=True)
    left = left.assign(__lid__=np.arange(len(left)))
    matched = _compat_join(left, ores, shared)
    unmatched = left[~left["__lid__"].isin(matched["__lid__"])].copy()
    for c in new_cols:
        unmatched[c] = None
    out = pd.concat(
        [matched, unmatched.reindex(columns=matched.columns)],
        ignore_index=True,
    )
    return _distinct(out.drop(columns="__lid__"))


def _untag(col):
    """Tagged terms → their values (the tag prefix stripped); native
    aggregate numbers pass through."""
    if pa.types.is_string(col.type) or pa.types.is_large_string(col.type):
        return pc.utf8_slice_codeunits(col, 1)
    return col


def finalize_bindings(result: pa.Table, spec: dict | None = None
                      ) -> pd.DataFrame:
    """Strip tag prefixes from tagged strings; unbound → None; distinct +
    deterministic sort by full bytes; then the SELECT solution modifiers
    from ``spec`` (projection / DISTINCT / ORDER BY / LIMIT / OFFSET),
    if any — all in Arrow, with one ``to_pandas()`` of the answer."""
    if spec is not None and spec.get("order_by") and result.num_rows:
        # computed ORDER BY conditions evaluate against the TAGGED
        # bindings (the pandas expression machinery) into hidden sort
        # columns; the modifier application sorts by them like any var
        exprs = [(i, k) for i, (k, _a) in enumerate(spec["order_by"])
                 if isinstance(k, tuple)]
        if exprs:
            spec = dict(spec)
            order = list(spec["order_by"])
            df = _frame(result)
            for i, k in exprs:
                col = f"__ordx_{i}"
                tag, const = _operand_series(k[1], df)
                df[col] = const if tag is None else tag
                order[i] = (col, order[i][1])
            spec["order_by"] = order
            result = _table(df)
    cols = result.column_names
    out = result
    if cols and not result.num_rows:
        # an empty answer's columns are float64, as pandas infers them
        # from empty lists (a projection below makes them objects)
        out = pa.table({c: pa.array([], pa.float64()) for c in cols})
    elif cols:
        out = _distinct_sorted(pa.table({c: _untag(result[c])
                                         for c in cols}))
    if spec is not None:
        out = apply_result_modifiers(out, spec)
    return _frame(out)


def _untagged_numeric(s: pd.Series) -> pd.Series:
    """SPARQL-numeric value of each UNTAGGED binding: native aggregate
    numbers and plain numeric strings via ``to_numeric``, decorated
    numeric literals via a columnar extract; everything else <NA>.
    (Untagged frames no longer distinguish IRIs from literals, so a
    column of purely numeric-looking IRIs would also qualify — an
    accepted approximation for ORDER BY.)"""
    num = pd.Series(
        pd.to_numeric(s, errors="coerce"), index=s.index, dtype="Float64"
    )
    rem = num.isna() & s.notna()
    if rem.any():
        st = s[rem].astype("string")
        ext = st.str.extract(r'^"(?P<lex>[^"]*)"\^\^<(?P<dt>[^>]*)>$')
        ok = ext["dt"].isin(_XSD_NUMERIC)
        num.loc[rem] = pd.to_numeric(
            ext["lex"].where(ok), errors="coerce"
        ).astype("Float64")
    return num


def apply_result_modifiers(t: pa.Table, spec: dict) -> pa.Table:
    """SELECT solution modifiers over finalized (untagged) bindings, in
    SPARQL order: ORDER BY (over the FULL solution, so a non-projected
    sort var still orders the rows) → projection → DISTINCT → OFFSET →
    LIMIT. Bindings are already set-semantics upstream, so projection
    without DISTINCT keeps the remaining multiplicities as-is."""
    order = spec.get("order_by")
    cols = t.column_names
    if order and t.num_rows:
        # sort pre-projection; remaining columns are the deterministic
        # tie-break (projection below preserves this row order). An
        # ORDER BY key whose values are ALL numeric (native aggregate
        # numbers, plain numeric strings, or decorated numeric literals)
        # sorts by VALUE, per SPARQL; mixed/non-numeric keys fall back to
        # codepoint order on the untagged form.
        keys = [(c, a) for c, a in order if c in cols]
        named = {c for c, _ in keys}
        sort = []
        for c, a in keys:
            num = _untagged_numeric(t[c].to_pandas())
            if num.notna().all() and len(num):
                sort.append((pa.array(num.to_numpy("float64")), a))
            else:
                sort.append((t[c], a))
        sort += [(t[c], True) for c in cols if c not in named]
        t = _take(t, _order(sort))
    select = spec.get("select")
    if select is not None:
        # vars never bound anywhere → None, not float NaN
        n = t.num_rows
        t = pa.table({c: t[c] if c in cols and t[c].null_count < n
                      else pa.nulls(n, pa.string()) for c in select}) \
            if select else _unit(n)
    elif any(c.startswith("__bn_") for c in cols):
        # SELECT * never projects blank-node-label variables (they are
        # scoped to the pattern, not part of the solution sequence)
        t = t.select([c for c in cols if not c.startswith("__bn_")])
    if spec.get("distinct"):
        t = _first_rows(t)
    if not order and t.num_columns and t.num_rows:
        t = _take(t, _order([(t[c], True) for c in t.column_names]))
    offset = spec.get("offset") or 0
    if offset:
        t = t.slice(offset)
    limit = spec.get("limit")
    if limit is not None:
        t = t.slice(0, limit)
    hidden = [c for c in t.column_names
              if c.startswith(("__ordx_", "__grp_", "__hagg"))]
    if hidden:  # computed sort/group/having keys never project
        t = t.drop_columns(hidden)
    return t


def format_term(term) -> str:
    """Inverse of :func:`_parse_term` (for shipping parsed patterns)."""
    from ..ntriples import escape_literal, is_decorated_literal

    kind, val = term
    if kind == "var":
        if val.startswith("__bn_"):
            # hidden blank-node vars ship in their PUBLIC surface
            # syntax — ``?__bn_x`` text would be rejected on re-parse
            # (the ``__`` namespace is reserved against user aliasing)
            return "_:" + val[len("__bn_"):]
        return "?" + val
    if kind == "iri":
        return f"<{val}>"
    if kind == "path":
        return format_path(val)
    if is_decorated_literal(val):
        return val
    return f'"{escape_literal(val)}"'


def format_path(ast) -> str:
    """Inverse of :func:`_parse_path_token`."""
    kind = ast[0]
    if kind == "pred":
        return f"<{ast[1]}>"
    if kind == "negset":
        return "!(" + "|".join(f"<{i}>" for i in ast[1]) + ")"
    if kind == "inv":
        return "^" + format_path(ast[1])
    if kind in ("plus", "star", "ques"):
        inner = format_path(ast[1])
        if ast[1][0] in ("seq", "alt", "plus", "star", "ques"):
            inner = f"({inner})"
        return inner + {"plus": "+", "star": "*", "ques": "?"}[kind]
    sep = "/" if kind == "seq" else "|"
    return f"({sep.join(format_path(b) for b in ast[1])})"


def format_pattern(pattern) -> str:
    return " ".join(format_term(t) for t in pattern)


# ------------------------------------------------------ property paths -----
def graph_node_terms(table: pa.Table) -> pa.Array:
    """Distinct TAGGED terms of a triple table (subjects ∪ objects, in
    first-appearance order): its share of the zero-length-path universe
    for ``*``/``?``."""
    subj, obj = _tag(table, "subj"), _tag(table, "obj")
    return pc.unique(pa.chunked_array(subj.chunks + obj.chunks, subj.type))


def _pairs(start, end) -> pa.Table:
    """A path's (start, end) pair set: two tagged term columns."""
    return pa.table({"__s": start, "__o": end})


_ANY_EDGE = (("var", "_ps"), ("var", "_pp"), ("var", "_po"))


def path_bindings(pattern, scan, nodes=None) -> pa.Table:
    """A property-path pattern → tagged binding set, closed over the
    edges ``scan`` finds for its predicates: a transitive chain may
    cross graphs and partitions, so the closure runs over the union of
    every source's edges (the same bound a ``?s <p> ?o`` scan has; a
    negated property set reads every edge, as ``?s ?p ?o`` does).
    ``nodes()`` gives arrays of the distinct tagged terms that the
    zero-length step of ``*``/``?`` ranges over; by default, the
    subjects and objects of every edge. The pattern's constant
    endpoints join them, per the spec's evaluation from a bound start."""
    s, p, o = pattern

    def edges_of(iri) -> pa.Table:
        if isinstance(iri, tuple):  # ("not", iris): a negated property set
            e = scan(_ANY_EDGE)
            e = e.filter(pc.invert(pc.is_in(e["_pp"], pa.array(
                ["I" + i for i in iri[1]], pa.string()))))
            return _first_rows(_pairs(e["_ps"], e["_po"]))
        e = scan((("var", "_ps"), ("iri", iri), ("var", "_po")))
        return _pairs(e["_ps"], e["_po"])

    def nodes_of() -> pa.Array:
        if nodes is None:
            e = scan(_ANY_EDGE)
            terms = e["_ps"].chunks + e["_po"].chunks
        else:
            terms = nodes()
        extras = [("I" if kind == "iri" else "L") + val
                  for kind, val in (s, o) if kind in ("iri", "lit")]
        return pc.unique(pa.chunked_array(
            terms + [pa.array(extras, pa.string())], pa.string()))

    return bindings_from_pairs(eval_path_pairs(p[1], edges_of, nodes_of),
                               s, o)


def _compose(a: pa.Table, b: pa.Table) -> pa.Table:
    """Pairs (x, z) with (x, y) in ``a`` and (y, z) in ``b``: distinct,
    in nested-loop order."""
    j = _join(a.rename_columns(["__s", _ROW]), b.rename_columns([_ROW, "__o"]))
    return _first_rows(j.select(["__s", "__o"]))


def _plus_closure(base: pa.Table) -> pa.Table:
    """Transitive closure of a (__s, __o) pair set by frontier expansion
    (terminates: the pair set is bounded by nodes²; each round adds only
    unseen pairs, in the order they are reached)."""
    total = frontier = base
    while frontier.num_rows:
        step = _compose(frontier, base)
        new = step.append_column(_ROW, _row_ids(step.num_rows)).join(
            total, ["__s", "__o"], join_type="left anti", use_threads=False)
        if not new.num_rows:
            break
        new = new.take(pc.sort_indices(new[_ROW])).select(["__s", "__o"])
        total = pa.concat_tables([total, new])
        frontier = new
    return total


def eval_path_pairs(ast, edges_of, nodes_of=None) -> pa.Table:
    """Evaluate a path AST over ``edges_of(iri) → (__s, __o) pairs``.
    The edge source is pluggable for the same reason as
    :func:`eval_group`'s pattern source: locally it reads one triple
    table; the distributed router feeds it unioned per-partition edge
    bindings, because a transitive path may cross partitions and cannot
    be evaluated per-partition.

    ``nodes_of() → tagged terms`` supplies the node universe for
    the zero-length component of ``*`` / ``?`` (per spec a zero-length
    path matches every graph term to itself; callers fold the pattern's
    constant endpoints in, matching the spec's ALP evaluation from a
    bound start). Only ``*`` / ``?`` pay that cost — ``+``/``/``/``|``
    never touch the universe. Pair sets are Arrow tables."""
    kind = ast[0]
    if kind == "pred":
        return edges_of(ast[1])
    if kind == "negset":
        # all edges whose predicate is OUTSIDE the set — the edge source
        # receives ("not", iris) and owns the store-bound scan (same
        # transfer bound as an unrestricted ?s ?p ?o pattern)
        return edges_of(("not", tuple(ast[1])))
    if kind == "inv":
        e = eval_path_pairs(ast[1], edges_of, nodes_of)
        return _pairs(e["__o"], e["__s"])
    if kind == "seq":
        cur = eval_path_pairs(ast[1][0], edges_of, nodes_of)
        for step in ast[1][1:]:
            if not cur.num_rows:
                break
            cur = _compose(cur, eval_path_pairs(step, edges_of, nodes_of))
        return cur
    if kind == "alt":
        return _first_rows(pa.concat_tables(
            [eval_path_pairs(b, edges_of, nodes_of) for b in ast[1]]))
    if kind in ("star", "ques"):
        if nodes_of is None:
            raise ValueError(
                f"'{'*' if kind == 'star' else '?'}' needs a node universe"
            )
        nodes = pc.unique(pc.drop_null(nodes_of()))
        inner = _first_rows(eval_path_pairs(ast[1], edges_of, nodes_of))
        step = _plus_closure(inner) if kind == "star" else inner
        return _first_rows(pa.concat_tables([_pairs(nodes, nodes), step]))
    # plus
    return _plus_closure(
        _first_rows(eval_path_pairs(ast[1], edges_of, nodes_of)))


def bindings_from_pairs(pairs: pa.Table, s_term, o_term) -> pa.Table:
    """Path (start, end) pairs + subject/object terms → tagged Arrow
    binding set (same contract as :func:`eval_one_pattern`)."""
    mask = None
    var_positions: dict = {}
    for pos, (kind, val) in (("__s", s_term), ("__o", o_term)):
        if kind == "var":
            var_positions.setdefault(val, []).append(pos)
            continue
        m = pc.equal(pairs[pos], ("I" if kind == "iri" else "L") + val)
        mask = m if mask is None else pc.and_(mask, m)
    for positions in var_positions.values():
        for extra in positions[1:]:
            m = pc.equal(pairs[positions[0]], pairs[extra])
            mask = m if mask is None else pc.and_(mask, m)
    cur = pairs if mask is None else pairs.filter(mask)
    if not var_positions:
        return _unit(min(cur.num_rows, 1))
    return _first_rows(pa.table({var: cur[ps[0]]
                                 for var, ps in var_positions.items()}))


def eval_subquery(sub: dict, pattern_bindings,
                  graph_bindings=None, service_eval=None) -> pd.DataFrame:
    """A ``{ SELECT ... }`` subquery: evaluate the inner group bottom-up
    (independent of outer bindings, per SPARQL), apply its aggregates and
    solution modifiers IN TAGGED SPACE, and return only the projected
    variables — the outer group then joins on them like any binding set.
    ORDER BY / the deterministic pre-LIMIT sort compare tagged strings
    (tag prefix included), which is deterministic though not identical to
    the final untagged collation."""
    res = eval_group(sub, pattern_bindings, graph_bindings,
                     service_eval)
    if sub.get("aggregates") or sub.get("group_by"):
        res = aggregate_bindings(_assign_exprs(res, sub.get("agg_exprs")),
                                 sub)
    res = _frame(res)
    if sub.get("aggregates") or sub.get("group_by"):
        for flt in sub.get("having") or []:
            res = res[[_having_true(row, flt)
                       for row in res.to_dict("records")]]
    order = sub.get("order_by")
    limit, offset = sub.get("limit"), sub.get("offset") or 0
    if order and len(res):
        # computed ORDER BY conditions → hidden sort columns on the
        # tagged frame (the finalize_bindings mechanism, subquery form)
        drop_ord, norm = [], []
        for i, (k, a) in enumerate(order):
            if isinstance(k, tuple):
                col = f"__sordx_{i}"
                tag, const = _operand_series(k[1], res)
                vals = const if tag is None else tag
                if tag is not None:
                    # all-numeric keys sort by VALUE (the main path's
                    # apply_result_modifiers rule), mixed by codepoint
                    nums = _series_parts(tag)[1]
                    if bool((tag.isna() | nums.notna()).all()):
                        vals = nums
                res = res.assign(**{col: vals})
                drop_ord.append(col)
                norm.append((col, a))
            else:
                norm.append((k, a))
        keys = [(c, a) for c, a in norm if c in res.columns]
        named = {c for c, _ in keys}
        res = _sort_frame(res, keys + [
            (c, True) for c in res.columns
            if c not in named and c not in drop_ord])
        if drop_ord:
            res = res.drop(columns=drop_ord)
    elif (limit is not None or offset) and len(res) and len(res.columns):
        # LIMIT without ORDER BY: sort all columns so the pick is
        # deterministic (SPARQL leaves it implementation-defined)
        res = _sort_frame(res, [(c, True) for c in res.columns])
    for name, o in sub.get("select_exprs") or []:
        if name in res.columns:
            raise ValueError(f"projection alias ?{name} is already bound")
        s = _operand_tagged(o, res)
        res = res.assign(**{name: s.astype(object).where(s.notna(), None)})
    if sub.get("select") is not None:
        res = res.reindex(columns=sub["select"])
    if sub.get("distinct"):
        res = _distinct(res)
    if offset:
        res = res.iloc[offset:]
    if limit is not None:
        res = res.iloc[:limit]
    return res.reset_index(drop=True)


def eval_pattern_in_graph(quads: pa.Table, pattern, gterm,
                          graphs=None) -> pa.Table:
    """One pattern against a QUAD table (``graph_id`` + triple columns)
    under a ``GRAPH`` term → Arrow binding set: a constant IRI restricts
    to that named graph (the reference's graphs are keyed the same way,
    one per source url); a variable binds the graph id as an IRI term
    alongside the pattern's own variables — the shared graph column then
    keeps every pattern of the GRAPH block in the same graph through the
    ordinary join algebra. ``graphs`` (a list of graph ids) keeps the
    scan to those graphs."""
    if graphs is not None:
        quads = quads.filter(pc.is_in(quads["graph_id"], pa.array(
            graphs, quads["graph_id"].type)))
    kind, val = gterm
    if kind == "iri":
        return eval_one_pattern(
            quads.filter(pc.equal(quads["graph_id"], val)), pattern)
    if kind != "var":
        raise ValueError("GRAPH term must be a variable or IRI")
    if pattern[1][0] == "path":
        # a path inside GRAPH never crosses graphs, so evaluate it once
        # per graph present in the quad table and tag the graph id —
        # per-graph work is bounded by that graph's own edge count.
        # Graphs run in sorted id order, each keeping its rows' order.
        quads = quads.take(pc.sort_indices(
            quads.append_column(_ROW, _row_ids(quads.num_rows)),
            sort_keys=[("graph_id", "ascending"), (_ROW, "ascending")]))
        ids = quads["graph_id"].to_numpy(zero_copy_only=False)
        _, starts = np.unique(ids, return_index=True)
        parts = []
        for a, b in zip(starts, [*starts[1:], len(ids)]):
            res = eval_one_pattern(quads.slice(a, b - a), pattern)
            if res.num_rows:
                tag = "I" + ids[a]
                if val in res.column_names:  # GRAPH ?g { ?g <p>+ ?o }
                    res = res.filter(pc.equal(res[val], tag))
                else:
                    res = res.append_column(
                        val, pa.array([tag] * res.num_rows, pa.string()))
                parts.append(res)
        if not parts:
            out = eval_one_pattern(quads.slice(0, 0), pattern)
            if val not in out.column_names:
                out = out.append_column(val, pa.array([], pa.string()))
            return out
        return _first_rows(pa.concat_tables(parts))
    return eval_one_pattern(quads, pattern, graph_var=val)


# ------------------------------------------------- Arrow binding sets ------
# A binding set is a pa.Table of tagged-term string columns (null =
# unbound; aggregates add native int64/double columns) from the pattern
# scan to the final answer. Row order is part of the contract: scans
# keep first appearance, joins nested-loop order.

_ROW = "#row"  # row-number column of the Arrow kernels; never a variable


def _row_ids(n: int) -> pa.Array:
    return pa.array(np.arange(n, dtype=np.int64))


def _unit(n: int) -> pa.Table:
    """A zero-column binding set of ``n`` rows: 1 is the one empty
    solution (a matched variable-free pattern), 0 no solution. pyarrow
    16 drops such a table's row count in ``concat_tables``, ``take`` and
    pickling, so it never crosses an actor boundary as a table."""
    return pa.table({_ROW: pa.nulls(n)}).drop_columns([_ROW])


def _empty(cols) -> pa.Table:
    """A binding set with no rows over ``cols``."""
    return pa.table({c: pa.array([], pa.string()) for c in cols}) \
        if cols else _unit(0)


def _take(t: pa.Table, idx) -> pa.Table:
    return t.take(idx) if t.num_columns else _unit(len(idx))


def _first_ids(table: pa.Table) -> np.ndarray:
    """Row numbers of ``table``'s distinct rows, each at its first
    appearance, ascending. Arrow hashes full bytes, so rows that differ
    only past a NUL stay distinct."""
    cols = table.column_names
    t = table.append_column(_ROW, _row_ids(table.num_rows))
    g = t.group_by(cols, use_threads=False).aggregate([(_ROW, "min")])
    return np.sort(g[_ROW + "_min"].to_numpy().astype(np.int64))


def _first_rows(table: pa.Table) -> pa.Table:
    """Distinct rows of ``table`` in first-appearance order (a
    zero-column table is returned as is)."""
    if not table.num_columns:
        return table
    return table.take(_first_ids(table))


def empty_bindings(pattern, gterm=("iri", None)) -> pa.Table:
    """What a scan of ``pattern`` (inside ``GRAPH gterm``) returns when
    nothing matches: no rows, one column per variable in first-occurrence
    order."""
    return _empty(list(dict.fromkeys(
        val for kind, val in (*pattern, gterm) if kind == "var")))


def _order(keys) -> pa.Array:
    """Row order sorting by ``keys`` — ``(column, ascending)`` pairs of
    equal length: strings by full bytes (code point order), unbound
    last, ties kept in row order (a stable sort)."""
    n = len(keys[0][0])
    t = pa.table({str(i): col for i, (col, _) in enumerate(keys)}
                 | {_ROW: _row_ids(n)})
    return pc.sort_indices(t, sort_keys=[
        (str(i), "ascending" if asc else "descending")
        for i, (_, asc) in enumerate(keys)] + [(_ROW, "ascending")],
        null_placement="at_end")


def _distinct_sorted(t: pa.Table) -> pa.Table:
    """Distinct rows of ``t`` sorted by every column in order."""
    d = t.group_by(t.column_names, use_threads=False).aggregate([])
    return d.take(_order([(d[c], True) for c in t.column_names]))


def _frame(t: pa.Table) -> pd.DataFrame:
    """Arrow binding set → pandas frame: the one ``to_pandas()`` of an
    answer, and the way into the pandas operator block. A column with no
    bound value is an object column of ``None``, as pandas infers it."""
    n = t.num_rows
    if not t.num_columns:
        return pd.DataFrame(index=pd.RangeIndex(n))
    if n and any(t[c].null_count == n for c in t.column_names):
        t = pa.table({c: pa.nulls(n) if t[c].null_count == n else t[c]
                      for c in t.column_names})
    return t.to_pandas()


def _column(s: pd.Series) -> pa.Array:
    a = pa.array(s, from_pandas=True)
    return a.cast(pa.string()) if pa.types.is_null(a.type) else a


def _table(df: pd.DataFrame) -> pa.Table:
    """pandas frame → Arrow binding set: the way out of the pandas
    operator block. Unbound (None/NaN) becomes null; a column with no
    bound value is a string column."""
    if not len(df.columns):
        return _unit(len(df))
    return pa.table({c: _column(df[c]) for c in df.columns})


def _distinct(df: pd.DataFrame) -> pd.DataFrame:
    """Distinct rows of a pandas-block frame in first-appearance order,
    decided in Arrow (full bytes), dtypes kept."""
    if not len(df.columns) or not len(df):
        return df.reset_index(drop=True)
    return df.iloc[_first_ids(_table(df))].reset_index(drop=True)


def _sort_frame(df: pd.DataFrame, keys) -> pd.DataFrame:
    """A pandas-block frame sorted by :func:`_order` over ``keys`` (column
    names or ``(column, ascending)`` pairs), dtypes kept."""
    keys = [(k, True) if isinstance(k, str) else k for k in keys]
    if not keys or not len(df):
        return df.reset_index(drop=True)
    order = _order([(_column(df[c]), a) for c, a in keys])
    return df.iloc[order.to_numpy()].reset_index(drop=True)


def _distinct_sorted_frame(df: pd.DataFrame) -> pd.DataFrame:
    return _sort_frame(_distinct(df), list(df.columns))


def _tag(table: pa.Table, pos: str):
    """The tagged terms of one position of a triple/quad table: ``"I"``
    + value, or ``"L"`` + value for a literal object."""
    col = table[pos]
    iri = pc.binary_join_element_wise("I", col, "")
    if pos != "obj":
        return iri
    return pc.if_else(table["obj_is_literal"],
                      pc.binary_join_element_wise("L", col, ""), iri)


def _pattern_rows(table: pa.Table, pattern,
                  graph_var: str | None = None
                  ) -> "tuple[pa.Table, np.ndarray]":
    """The match rules of one triple pattern over a triple (or quad)
    table: ``(tagged, rows)``, the TAGGED binding of each matching row
    (one column per variable in first-occurrence order, duplicates kept;
    zero columns for a variable-free pattern) and those rows' numbers.
    The one home of the constant masks, the tagging and the
    repeated-variable rule: the table scan (:func:`eval_one_pattern`)
    and the match lists (:class:`MatchList`) both run it."""
    is_lit = table["obj_is_literal"]
    mask = None
    var_positions: dict = {}  # var -> [position, ...]
    for pos, (kind, val) in zip(("subj", "pred", "obj"), pattern):
        if kind == "var":
            var_positions.setdefault(val, []).append(pos)
            continue
        m = pc.equal(table[pos], val)
        if kind == "iri":
            if pos == "obj":
                m = pc.and_(m, pc.invert(is_lit))
        else:  # literal — only matches the object position
            m = pc.and_(m, is_lit)
        mask = m if mask is None else pc.and_(mask, m)
    cur, rows = table, np.arange(table.num_rows)
    if mask is not None:
        # (numpy: pyarrow 16's indices_nonzero crashes on zero chunks)
        cur, rows = table.filter(mask), np.flatnonzero(np.asarray(mask))
    if graph_var is not None:
        # graph id rides along as a fourth bound position; sharing the
        # variable with a triple position (GRAPH ?g { ?g ?p ?o }) falls
        # out of the repeated-variable equality below
        var_positions.setdefault(graph_var, []).append("graph_id")
    if not var_positions:  # boolean pattern
        return _unit(cur.num_rows), rows
    tagged = {pos: _tag(cur, pos)
              for ps in var_positions.values() for pos in ps}
    out = pa.table({var: tagged[ps[0]] for var, ps in var_positions.items()})
    # a variable repeated WITHIN the pattern must bind one term
    keep = None
    for ps in var_positions.values():
        for extra in ps[1:]:
            m = pc.equal(tagged[ps[0]], tagged[extra])
            keep = m if keep is None else pc.and_(keep, m)
    if keep is not None:
        out, rows = out.filter(keep), rows[np.asarray(keep)]
    return out, rows


def eval_one_pattern(table, pattern,
                     graph_var: str | None = None) -> pa.Table:
    """One triple pattern against an Arrow triple table (``subj, pred,
    obj, obj_is_literal``; a quad table adds ``graph_id``) → Arrow
    binding set of TAGGED terms: one column per variable in
    first-occurrence order, distinct rows in the order they first appear
    in ``table`` (a zero-column table of 0/1 rows for a variable-free
    pattern).

    ``table`` may instead be a reader's default graph at an instant
    (:class:`DefaultGraph`), prepared as :mod:`..state.reconstruct`'s
    kernels take a prepared log: a triple pattern is then a stab into
    the reader's match lists (:func:`pattern_at`), with the same answer
    as a scan of the instant's triple table, and no such table is built.
    A property path over either source closes over its pattern scans;
    only its zero-length step (``*``/``?``) reads the triple table.

    A tagged binding is a plain string ``"I" + value`` (IRI) or
    ``"L" + value`` (literal; decorated token for typed/lang) — a
    vectorizable representation (string concat / equality / dedup are
    columnar) that also ships compactly between partition actors, while
    still making a literal ``"x"`` never join the IRI ``<x>``."""
    if pattern[1][0] == "path":
        return path_bindings(
            pattern, lambda pat: eval_one_pattern(table, pat),
            lambda: [graph_node_terms(
                table if isinstance(table, pa.Table) else table.table())])
    if not isinstance(table, pa.Table):
        return table.scan(pattern)
    out, _ = _pattern_rows(table, pattern, graph_var)
    return _first_rows(out) if out.num_columns \
        else _unit(min(out.num_rows, 1))


class MatchList:
    """Where one triple pattern matches a prepared log
    (:class:`..state.reconstruct.Versions`), for stabs at any instant:
    the distinct ``bindings`` of its matching dictionary lines, and per
    matching line its id (``lines``) and its binding's row in
    ``bindings`` (``bids``). The stab's occurrences — one per (row,
    matching line) of a kept row, with the row's interval — come from
    the log's per-row line ids, built on the first stab."""

    def __init__(self, versions, pattern, lines, bids, bindings):
        self.versions, self.pattern = versions, pattern
        self.lines, self.bids, self.bindings = lines, bids, bindings
        self._occurrences = None  # built on the first stab

    @classmethod
    def grown(cls, versions, pattern, scan, lines, bids,
              bindings) -> "MatchList":
        """The match list of ``lines``/``bids``/``bindings`` (line ids
        of ``versions``) with the matches among the dictionary lines
        ``scan`` added: the pattern's match rules run over those lines
        only."""
        out, rows = _pattern_rows(versions.triples[0].take(scan), pattern)
        new = np.zeros(out.num_rows, np.int64)
        if not out.num_columns and len(new):  # a variable-free match
            bindings = _unit(1)
        elif len(new):
            # the known bindings are distinct, so each keeps its row and
            # the new ones follow in first-appearance order
            known = bindings.num_rows
            both = pa.concat_tables([bindings, out])
            gid, bindings = _group_ids(both, both.column_names)
            new = gid[known:]
        return cls(versions, pattern, np.r_[lines, scan[rows]],
                   np.r_[bids, new], bindings)

    @classmethod
    def build(cls, versions, pattern) -> "MatchList":
        """The pattern's match list over every line of ``versions``."""
        return cls.grown(versions, pattern,
                         np.arange(len(versions.lines)), np.zeros(0, np.int64),
                         np.zeros(0, np.int64), empty_bindings(pattern))

    def extended(self, versions) -> "MatchList":
        """This list carried to ``versions``, an extend of its own
        (:meth:`..state.reconstruct.Versions.extend`): its line ids
        remapped, and only the lines the write added scanned."""
        old_new, fresh = versions.remap
        return self.grown(versions, self.pattern, fresh.astype(np.int64),
                          old_new[self.lines], self.bids, self.bindings)

    def at(self, k: int) -> pa.Table:
        """The pattern's bindings at instant ``k``: the matching lines
        held by a version valid at ``k``, in triple order, their
        bindings' first appearances, and one take."""
        if self._occurrences is None:
            self._occurrences = self._index()
        sec, t_to, hit, bids = self._occurrences
        b = bids[np.unique(hit[(sec <= k) & (k < t_to)])]
        return _take(self.bindings,
                     b[np.sort(np.unique(b, return_index=True)[1])])

    def _index(self) -> tuple:
        """``(sec, t_to, hit, bids)``: per (row, matching line) of a
        kept row with a non-empty interval, the row's interval and the
        line's rank among the matching lines in triple order, and the
        binding ids in that order."""
        v = self.versions
        order = v.triples[1]
        rank = np.empty(len(order), np.int64)
        rank[order] = np.arange(len(order))
        by = np.argsort(rank[self.lines])
        hit = np.full(len(order), -1, np.int64)
        hit[self.lines[by]] = np.arange(len(by))
        parent, ids = v.line_ids()
        hit = hit[ids]
        # a same-second replay's empty interval never holds
        use = (hit >= 0) & (v.kept & (v.sec < v.t_to))[parent]
        rows = parent[use]
        return v.sec[rows], v.t_to[rows], hit[use], self.bids[by]


def pattern_at(versions, pattern, k: int, matches: "LRU | None" = None
               ) -> pa.Table:
    """The scan primitive: the bindings of the triple pattern
    ``pattern`` at instant ``k`` over ``versions`` (a delta table or one
    prepared by :func:`..state.reconstruct.prepare`) — equal, values and
    row order, to ``eval_one_pattern(triples_at_table(versions, k),
    pattern)`` — as a stab into its :class:`MatchList`, taken from
    ``matches`` (keyed by :func:`format_pattern`) or built there."""
    v = reconstruct.prepare(versions)
    key = format_pattern(pattern)
    ml = None if matches is None else matches.get(key)
    if ml is None or ml.versions is not v:
        ml = MatchList.build(v, pattern)
        if matches is not None:
            matches.put(key, ml)
    return ml.at(k)


class DefaultGraph:
    """A reader's default graph (the union of its live graphs) at
    instant ``k``, as a scan source for :func:`eval_one_pattern`: the
    stab path of both backends' default-graph scans."""

    def __init__(self, reader: "DiffStoreReader", k: int):
        self.reader, self.k = reader, k

    def scan(self, pattern) -> pa.Table:
        return pattern_at(self.reader.versions, pattern, self.k,
                          self.reader.matches)

    def table(self) -> pa.Table:
        """The instant's triple table, materialized once per instant."""
        return self.reader._at(self.k, "store")


# ------------------------------------------------------------- FILTER ------

_XSD_NUMERIC = frozenset(
    f"http://www.w3.org/2001/XMLSchema#{t}"
    for t in ("integer", "int", "long", "short", "byte", "decimal", "float",
              "double", "nonNegativeInteger", "positiveInteger",
              "unsignedInt", "unsignedLong")
)


_DEC_EXTRACT = None  # lazy: (lex)(dtype)(lang) groups of a decorated token

# Per-THREAD evaluation context (ThreadingHTTPServer handlers share one
# DiffStoreReader, so module-global mutable state would race across
# concurrent queries): NOW()'s as-of instant and the expression-EXISTS
# group-evaluator stack both live in thread-local storage.
import threading as _threading


class _EvalTLS(_threading.local):
    """threading.local that cloudpickle can ship (Ray actor classes
    capture module globals by value): pickles as a FRESH empty local —
    per-query state never outlives the query, so an empty start on the
    receiving worker is the correct semantics."""

    def __reduce__(self):
        return (_EvalTLS, ())


_EVAL_TLS = _EvalTLS()


def _now_slot() -> list:
    """One-element slot holding the running query's as-of timestamp (a
    pandas Timestamp) so NOW() is deterministic — the time-travel
    instant being queried, not the wall clock. Thread-local."""
    slot = getattr(_EVAL_TLS, "now", None)
    if slot is None:
        slot = _EVAL_TLS.now = [None]
    return slot


def _series_parts(s: pd.Series):
    """Columnar decomposition of a Series of tagged binding strings
    (``None`` = unbound) → ``(lex, num, dtype, lang, is_lit)``: lexical
    form (``<NA>`` when unbound), SPARQL-numeric value (``<NA>`` when
    not numeric), datatype IRI / language tag of decorated literals
    (``<NA>`` otherwise), and the literal mask. The only per-row work is
    unescaping the (rare) decorated lexical forms; everything else is
    pandas string kernels."""
    global _DEC_EXTRACT
    if _DEC_EXTRACT is None:

        _DEC_EXTRACT = re.compile(
            r'^"((?:[^"\\\n\r\t]|\\["\\nrt])*)"'
            r'(?:\^\^<([^<>"\s{}|^`\\]+)>|@([A-Za-z]+(?:-[A-Za-z0-9]+)*))$'
        )
    from ..ntriples import unescape_literal

    st = s.astype("string")
    body = st.str.slice(1)
    is_lit = st.str.startswith("L").fillna(False).astype(bool)
    dec = body.str.extract(_DEC_EXTRACT)
    dec.columns = ["lex", "dtype", "lang"]
    dec_mask = (dec["lex"].notna() & is_lit).astype(bool)
    lex = body.copy()
    if dec_mask.any():
        lex[dec_mask] = dec.loc[dec_mask, "lex"].map(unescape_literal)
    num = pd.to_numeric(lex, errors="coerce")
    numeric_ok = is_lit & (
        ~dec_mask | dec["dtype"].isin(_XSD_NUMERIC).astype(bool)
    )
    num = num.where(numeric_ok)
    return lex, num, dec["dtype"].where(is_lit), dec["lang"].where(is_lit), \
        is_lit


def _cmp(a, b, op: str):
    if op == "=":
        return a == b
    if op == "!=":
        return a != b
    if op == "<":
        return a < b
    if op == "<=":
        return a <= b
    if op == ">":
        return a > b
    return a >= b


_RDF_LANGSTRING = "http://www.w3.org/1999/02/22-rdf-syntax-ns#langString"
_XSD_STRING = "http://www.w3.org/2001/XMLSchema#string"


_XSD_DT = "http://www.w3.org/2001/XMLSchema#dateTime"
_XSD_DUR = "http://www.w3.org/2001/XMLSchema#dayTimeDuration"
_DUR_LEX_RE = (r"^(-)?P(?:(\d+)D)?"
               r"(?:T(?:(\d+)H)?(?:(\d+)M)?(?:(\d+(?:\.\d+)?)S)?)?$")


def _dur_seconds(lex: pd.Series) -> pd.Series:
    """xsd:dayTimeDuration lexical → signed seconds (Float64; <NA> on
    invalid forms — ``P``/``PT`` alone carry no component and are
    invalid per XSD)."""
    ex = lex.str.extract(_DUR_LEX_RE)
    comp = ex[[1, 2, 3, 4]].notna().any(axis=1)
    valid = lex.str.match(_DUR_LEX_RE).fillna(False) & comp
    secs = (
        pd.to_numeric(ex[1], errors="coerce").fillna(0) * 86400.0
        + pd.to_numeric(ex[2], errors="coerce").fillna(0) * 3600.0
        + pd.to_numeric(ex[3], errors="coerce").fillna(0) * 60.0
        + pd.to_numeric(ex[4], errors="coerce").fillna(0)
    )
    neg = (ex[0] == "-").fillna(False)  # NA sign must read as positive
    secs = secs.where(~neg, -secs)
    return secs.astype("Float64").where(valid)


def _dur_lex(v) -> str | None:
    """Signed seconds → canonical xsd:dayTimeDuration lexical form."""
    if pd.isna(v):
        return None
    sign = "-" if v < 0 else ""
    v = abs(float(v))
    d = int(v // 86400)
    v -= d * 86400
    h = int(v // 3600)
    v -= h * 3600
    m = int(v // 60)
    s = v - m * 60
    date = f"{d}D" if d else ""
    time = ""
    if h:
        time += f"{h}H"
    if m:
        time += f"{m}M"
    if s:
        slex = f"{s:.6f}".rstrip("0").rstrip(".")
        time += f"{slex}S"
    if not date and not time:
        return "PT0S"
    return f"{sign}P{date}" + (f"T{time}" if time else "")


def _lex_clock(lex: pd.Series, is_lit) -> pd.Series:
    """Parse the LEXICAL clock of ISO dateTime literals as tz-naive
    timestamps: the designator is stripped first (so mixed-offset
    columns parse row-independently, and accessors return lexical
    parts per SPARQL 17.4.5), and ``format="ISO8601"`` prevents
    pandas' first-row format inference from coercing mixed-precision
    rows to NaT."""
    s = lex.where(is_lit).str.replace(
        r"(Z|[+-]\d{2}:\d{2})$", "", regex=True)
    return pd.to_datetime(s, errors="coerce", format="ISO8601")


def _temporal_arith(tl: pd.Series, tr: pd.Series, op: str, idx):
    """XSD temporal ``+``/``-`` over tagged operands, or ``None`` when
    no row pairs temporal datatypes. UTC semantics: zoneless dateTimes
    count as UTC (the store's as-of instants are epoch seconds) and
    results carry the canonical ``Z``."""
    ll, _ln, ldt, _llg, _li = _series_parts(tl)
    rl, _rn, rdt, _rlg, _ri = _series_parts(tr)
    l_dt = (ldt == _XSD_DT).fillna(False)
    r_dt = (rdt == _XSD_DT).fillna(False)
    l_du = (ldt == _XSD_DUR).fillna(False)
    r_du = (rdt == _XSD_DUR).fillna(False)
    pairs = ((l_dt & r_dt) | (l_dt & r_du) | (l_du & r_dt)
             | (l_du & r_du))
    if not bool(pairs.any()):
        return None
    out = pd.Series(None, index=idx, dtype=object)

    def dts(lex, mask):
        # format="ISO8601": without it pandas infers the format from the
        # first element and coerces mixed-precision rows to NaT
        return pd.to_datetime(lex.where(mask), errors="coerce",
                              utc=True, format="ISO8601")

    def dt_tok(ts):
        if pd.isna(ts):
            return None
        lex = ts.isoformat().replace("+00:00", "Z")
        return f'L"{lex}"^^<{_XSD_DT}>'

    def dur_tok(v):
        lex = _dur_lex(v)
        return None if lex is None else f'L"{lex}"^^<{_XSD_DUR}>'

    if op == "-":
        m = l_dt & r_dt  # dateTime − dateTime → dayTimeDuration
        if m.any():
            secs = (dts(ll, m) - dts(rl, m)).dt.total_seconds()
            out.loc[m] = secs[m].map(dur_tok)
    m = l_dt & r_du  # dateTime ± duration → dateTime
    if m.any():
        delta = pd.to_timedelta(
            _dur_seconds(rl.where(m)).astype("float64"), unit="s"
        )
        res = dts(ll, m) + (delta if op == "+" else -delta)
        out.loc[m] = res[m].map(dt_tok)
    if op == "+":
        m = l_du & r_dt  # duration + dateTime commutes
        if m.any():
            delta = pd.to_timedelta(
                _dur_seconds(ll.where(m)).astype("float64"), unit="s"
            )
            res = dts(rl, m) + delta
            out.loc[m] = res[m].map(dt_tok)
    m = l_du & r_du  # duration ± duration → duration
    if m.any():
        a = _dur_seconds(ll.where(m))
        b = _dur_seconds(rl.where(m))
        v = a + b if op == "+" else a - b
        out.loc[m] = v[m].map(dur_tok)
    return out


def _operand_numeric(o, result: pd.DataFrame) -> pd.Series:
    """SPARQL-numeric value series of an operand (<NA> = error)."""
    s, const = _operand_series(o, result)
    if s is None:
        if isinstance(const, pd.Series):
            return const
        return pd.Series(const, index=result.index, dtype="Float64")
    return _series_parts(s)[1]


_XSD_INTEGER = "http://www.w3.org/2001/XMLSchema#integer"
_XSD_DOUBLE = "http://www.w3.org/2001/XMLSchema#double"


def _render_numeric_tagged(num: pd.Series) -> pd.Series:
    """Numeric value series → tagged decorated-literal series (integral
    values as xsd:integer, others as xsd:double via repr; <NA> → None)."""
    def render(v):
        if v is None or pd.isna(v):
            return None
        f = float(v)
        if f.is_integer() and abs(f) < 2**53:
            return f'L"{int(f)}"^^<{_XSD_INTEGER}>'
        return f'L"{f!r}"^^<{_XSD_DOUBLE}>'

    return pd.Series([render(v) for v in num], index=num.index, dtype=object)


def _operand_tagged(o, result: pd.DataFrame) -> pd.Series:
    """Operand → TAGGED series unconditionally (numeric results are
    rendered as decorated numeric literals) — the term form IF/COALESCE
    and BIND assign."""
    s, const = _operand_series(o, result)
    if s is not None:
        return s
    if isinstance(const, pd.Series):
        return _render_numeric_tagged(const)
    return _render_numeric_tagged(
        pd.Series(const, index=result.index, dtype="Float64")
    )


def _operand_series(o, result: pd.DataFrame):
    """Filter operand → (tagged Series | None, numeric constant | None).
    Accessor functions are evaluated columnar: ``str`` → the term's
    lexical form as a simple literal; ``lang`` → the language tag (or
    ``""``) of a literal; ``datatype`` → the datatype IRI (plain →
    xsd:string, lang-tagged → rdf:langString); each is an error
    (unbound → row removed) on non-matching terms, per SPARQL."""
    idx = result.index
    n = len(result)
    kind, *rest = o
    if kind == "arith":
        op, left, right = rest
        ln, rn = _operand_numeric(left, result), _operand_numeric(right, result)
        if op in "+-" and bool((ln.isna() | rn.isna()).all()) and n:
            # nothing numeric: XSD temporal arithmetic (oxigraph parity)
            # — dateTime-dateTime → dayTimeDuration, dateTime ±
            # dayTimeDuration → dateTime, duration ± duration.
            # Mixed numeric/temporal columns stay expression errors on
            # the temporal rows (scope limit, documented in README).
            temporal = _temporal_arith(
                _operand_tagged(left, result),
                _operand_tagged(right, result), op, idx,
            )
            if temporal is not None:
                return temporal, None
        if op == "+":
            out = ln + rn
        elif op == "-":
            out = ln - rn
        elif op == "*":
            out = ln * rn
        else:  # division by zero is an expression error, not inf
            out = (ln / rn).where(rn != 0)
        return None, out.astype("Float64")
    if kind == "neg":
        return None, (-_operand_numeric(rest[0], result)).astype("Float64")
    if kind == "if":
        cond, a, b = rest
        mask = _filter_mask(result, cond)
        ta, tb = _operand_tagged(a, result), _operand_tagged(b, result)
        return ta.where(mask, tb), None
    if kind == "coalesce":
        out = _operand_tagged(rest[0][0], result)
        for node in rest[0][1:]:
            nxt = _operand_tagged(node, result)
            out = out.where(out.notna(), nxt)
        return out, None
    if kind == "concat":
        out = None
        ok = pd.Series(True, index=idx)
        for node in rest[0]:
            part = _operand_tagged(node, result)
            lex, _nm, _dt, _lg, is_lit = _series_parts(part)
            ok &= is_lit.fillna(False) & lex.notna()
            out = lex if out is None else out.fillna("") + lex.fillna("")
        tagged = ("L" + out.fillna("")).where(ok)
        return tagged.astype(object).where(tagged.notna(), None), None
    if kind == "substr":
        src, start_n, len_n = rest
        lex, _nm, _dt, _lg, is_lit = _series_parts(
            _operand_tagged(src, result)
        )
        start = _operand_numeric(start_n, result)
        # SPARQL SUBSTR is 1-based; non-integer/unbound args are errors
        i0 = (start - 1).astype("Float64")
        ok = is_lit.fillna(False) & lex.notna() & i0.notna() & (i0 >= 0)
        if len_n is not None:
            ln = _operand_numeric(len_n, result)
            ok &= ln.notna() & (ln >= 0)
        parts = []
        for k_, v in enumerate(lex.tolist()):
            if not bool(ok.iloc[k_]) or not isinstance(v, str):
                parts.append(None)
                continue
            a = int(i0.iloc[k_])
            if len_n is not None:
                parts.append(v[a:a + int(ln.iloc[k_])])
            else:
                parts.append(v[a:])
        tagged = pd.Series(
            ["L" + p if p is not None else None for p in parts],
            index=idx, dtype=object,
        )
        return tagged, None
    if kind == "replace":
        src, pat, rep = rest
        lex, _nm, _dt, _lg, is_lit = _series_parts(
            _operand_tagged(src, result)
        )
        ok = is_lit.fillna(False) & lex.notna()
        out = lex.fillna("").str.replace(pat, rep, regex=True)
        tagged = ("L" + out).where(ok)
        return tagged.astype(object).where(tagged.notna(), None), None
    if kind == "strpart":
        which, a, b = rest
        alex, _an, _ad, _al, ail = _series_parts(_operand_tagged(a, result))
        blex, _bn, _bd, _bl, bil = _series_parts(_operand_tagged(b, result))
        ok = (ail.fillna(False) & alex.notna()
              & bil.fillna(False) & blex.notna())
        parts = []
        for av, bv, okv in zip(alex.tolist(), blex.tolist(), ok.tolist()):
            if not okv or not isinstance(av, str) or not isinstance(bv, str):
                parts.append(None)
                continue
            if bv == "":
                # SPARQL: empty separator → "" before, the whole str after
                parts.append("" if which == "strbefore" else av)
                continue
            i = av.find(bv)
            if i < 0:
                parts.append("")
            elif which == "strbefore":
                parts.append(av[:i])
            else:
                parts.append(av[i + len(bv):])
        return pd.Series(
            ["L" + p if p is not None else None for p in parts],
            index=idx, dtype=object,
        ), None
    if kind == "encodeuri":
        from urllib.parse import quote

        lex, _nm, _dt, _lg, is_lit = _series_parts(
            _operand_tagged(rest[0], result)
        )
        ok = is_lit.fillna(False) & lex.notna()
        out = lex.map(
            lambda v: quote(v, safe="") if isinstance(v, str) else None
        )
        tagged = ("L" + out).where(ok)
        return tagged.astype(object).where(tagged.notna(), None), None
    if kind in ("strdt", "strlang"):
        from ..ntriples import escape_literal

        node, decor = rest
        lex, _nm, dtype, lang_, is_lit = _series_parts(
            _operand_tagged(node, result)
        )
        # the first argument must be a SIMPLE literal, per SPARQL
        ok = (is_lit.fillna(False) & lex.notna()
              & dtype.isna() & lang_.isna())
        esc = lex.map(
            lambda v: escape_literal(v) if isinstance(v, str) else None
        )
        suffix = f"^^<{decor}>" if kind == "strdt" else f"@{decor}"
        tagged = ('L"' + esc + '"' + suffix).where(ok)
        return tagged.astype(object).where(tagged.notna(), None), None
    if kind == "mkiri":
        src = _operand_tagged(rest[0], result)
        lex, _nm, dtype, lang_, is_lit = _series_parts(src)
        st = src.astype("string")
        already = (st.notna() & ~is_lit
                   & ~lex.fillna("").str.startswith("_:"))
        simple = is_lit.fillna(False) & lex.notna() & dtype.isna() \
            & lang_.isna()
        out = st.where(already, ("I" + lex.fillna("")).where(simple))
        return out.astype(object).where(out.notna(), None), None
    if kind == "hashfn":
        import hashlib

        name, node = rest
        lex, _nm, _dt, _lg, is_lit = _series_parts(
            _operand_tagged(node, result)
        )
        ok = is_lit.fillna(False) & lex.notna()
        out = lex.map(
            lambda v: hashlib.new(name, v.encode("utf-8")).hexdigest()
            if isinstance(v, str) else None
        )
        tagged = ("L" + out).where(ok)
        return tagged.astype(object).where(tagged.notna(), None), None
    if kind == "tzfn":
        name, node = rest
        lex, _nm, _dt, _lg, is_lit = _series_parts(
            _operand_tagged(node, result)
        )
        parse_ok = _lex_clock(lex, is_lit).notna()
        tzpart = lex.where(is_lit).str.extract(
            r"(Z|[+-]\d{2}:\d{2})$"
        )[0]
        if name == "tz":
            # simple literal: the timezone designator text, "" when the
            # dateTime carries none (SPARQL 17.4.5.8)
            out = tzpart.where(tzpart.notna(), "").where(parse_ok)
            tok = ("L" + out).where(parse_ok)
            return tok.astype(object).where(tok.notna(), None), None

        def _as_duration(v):
            if not isinstance(v, str):
                return None
            if v == "Z":
                return "PT0S"
            sign = "-" if v.startswith("-") else ""
            h, mnt = int(v[1:3]), int(v[4:6])
            if h == 0 and mnt == 0:
                return "PT0S"
            return (sign + "PT" + (f"{h}H" if h else "")
                    + (f"{mnt}M" if mnt else ""))

        dur = tzpart.map(_as_duration)
        tok = (
            'L"' + dur + '"^^<http://www.w3.org/2001/XMLSchema#'
            "dayTimeDuration>"
        ).where(parse_ok & dur.notna())  # no designator → expr error
        return tok.astype(object).where(tok.notna(), None), None
    if kind == "cast":
        name, node = rest
        xsd = "http://www.w3.org/2001/XMLSchema#"
        tagged = _operand_tagged(node, result)
        lex, num, _dt, _lg, is_lit = _series_parts(tagged)
        if name == "string":
            # accepts IRIs and literals: the lexical form as a plain
            # (xsd:string-valued) literal
            st = tagged.astype("string")
            ok = st.notna() & ~st.str.startswith("B")
            tok = ("L" + lex).where(ok)
            return tok.astype(object).where(tok.notna(), None), None
        if name == "boolean":
            low = lex.str.lower()
            val = pd.Series(pd.NA, index=idx, dtype="string")
            val = val.mask(num.notna(), (num.fillna(0) != 0).map(
                {True: "true", False: "false"}))
            val = val.mask(num.isna() & is_lit & low.isin(["true"]), "true")
            val = val.mask(num.isna() & is_lit & low.isin(["false"]),
                           "false")
            tok = ('L"' + val + f'"^^<{xsd}boolean>').where(val.notna())
            return tok.astype(object).where(tok.notna(), None), None
        if name == "datetime":
            # lexical clock + the ORIGINAL designator: the cast keeps
            # the input's timezone (XPath), and parsing the stripped
            # clock means mixed-offset / mixed-precision columns never
            # coerce valid rows to NaT
            parsed = _lex_clock(lex, is_lit)
            desig = lex.where(is_lit).str.extract(
                r"(Z|[+-]\d{2}:\d{2})$")[0].fillna("")
            iso = pd.Series(
                [v.isoformat() if pd.notna(v) else None for v in parsed],
                index=idx, dtype="string",
            ) + desig.astype("string")
            tok = ('L"' + iso + f'"^^<{xsd}dateTime>').where(iso.notna())
            return tok.astype(object).where(tok.notna(), None), None
        # numeric casts: integer truncates toward zero (XPath); an
        # unparseable / non-numeric operand is an expression error
        if name == "integer":
            sval = num.map(
                lambda v: str(int(v)) if pd.notna(v) else None
            ).astype("string")
        else:
            sval = num.map(
                lambda v: repr(float(v)) if pd.notna(v) else None
            ).astype("string")
        dt_name = {"integer": "integer", "decimal": "decimal",
                   "double": "double", "float": "float"}[name]
        tok = ('L"' + sval + f'"^^<{xsd}{dt_name}>').where(sval.notna())
        return tok.astype(object).where(tok.notna(), None), None
    if kind == "dtfn":
        name, node = rest
        lex, _nm, _dt, _lg, is_lit = _series_parts(
            _operand_tagged(node, result)
        )
        # accessor over date/dateTime literals: parse the LEXICAL form
        # (SPARQL 17.4.5: accessors return the lexical parts, not the
        # UTC-normalized clock; unparseable / non-literal terms are
        # expression errors)
        dt = _lex_clock(lex, is_lit)
        comp = {
            "year": dt.dt.year, "month": dt.dt.month, "day": dt.dt.day,
            "hours": dt.dt.hour, "minutes": dt.dt.minute,
            "seconds": dt.dt.second,
        }[name]
        return None, pd.Series(comp, index=idx).astype("Float64")
    if kind == "now":
        ts = _now_slot()[0]
        if ts is None:
            raise ValueError(
                "NOW() needs a query-timestamp context — evaluate via "
                "query_at(ts, ...) (NOW() = the as-of timestamp, so "
                "results stay deterministic and reproducible)"
            )
        # the as-of instant is an epoch second, i.e. a UTC instant —
        # XPath fn:current-dateTime (and so SPARQL NOW()) carries an
        # explicit timezone, canonical designator Z
        lex = ts.isoformat().replace("+00:00", "Z")
        if not lex.endswith("Z"):
            lex += "Z"
        tok = (f'L"{lex}"'
               "^^<http://www.w3.org/2001/XMLSchema#dateTime>")
        return pd.Series([tok] * n, index=idx, dtype=object), None
    if kind == "numfn":
        name, node = rest
        num = _operand_numeric(node, result).astype("Float64")
        if name == "abs":
            out = num.abs()
        elif name == "ceil":
            out = pd.Series(np.ceil(num.astype(float)), index=idx,
                            dtype="Float64").where(num.notna())
        elif name == "floor":
            out = pd.Series(np.floor(num.astype(float)), index=idx,
                            dtype="Float64").where(num.notna())
        else:  # round — SPARQL rounds half towards +inf
            out = pd.Series(
                np.floor(num.astype(float) + 0.5), index=idx,
                dtype="Float64",
            ).where(num.notna())
        return None, out
    if kind == "func":
        name, arg = rest
        inner, _ = _operand_series(arg, result)
        lex, _num, dtype, lang, is_lit = _series_parts(inner)
        if name == "str":
            out = ("L" + lex.fillna("")).where(lex.notna())
        elif name == "lang":
            out = ("L" + lang.fillna("")).where(is_lit & lex.notna())
        elif name == "strlen":
            # decorated integer literal, so the numeric comparison path
            # sees a SPARQL number (is_lit guards: STRLEN is over strings)
            n_ = lex.str.len()
            out = ('L"' + n_.astype("Int64").astype(str)
                   + '"^^<http://www.w3.org/2001/XMLSchema#integer>'
                   ).where(is_lit & lex.notna())
        elif name in ("ucase", "lcase"):
            cased = lex.str.upper() if name == "ucase" else lex.str.lower()
            out = ("L" + cased.fillna("")).where(is_lit & lex.notna())
        else:  # datatype
            dt = dtype.copy()
            dt[lang.notna()] = _RDF_LANGSTRING
            dt = dt.fillna(_XSD_STRING)
            out = ("I" + dt).where(is_lit & lex.notna())
        return out.astype(object).where(out.notna(), None), None
    val = rest[0]
    if kind == "var":
        if val in result.columns:
            return result[val], None
        return pd.Series([None] * n, index=idx, dtype=object), None
    if kind == "iri":
        return pd.Series(["I" + val] * n, index=idx, dtype=object), None
    if kind == "lit":
        return pd.Series(["L" + val] * n, index=idx, dtype=object), None
    return None, float(val)


def _filter_mask(result: pd.DataFrame, flt) -> pd.Series:
    """Vectorized SPARQL-style filter over the binding frame;
    unbound/incomparable rows → False (a filter error removes the row).
    Comparison rule per row (same as the reference naive evaluator):
    numeric when BOTH sides are numeric; else term equality on tagged
    strings for ``=``/``!=``; else codepoint order on lexical forms —
    numeric constants never compare non-numerically. ``regex`` tests the
    lexical form of literal bindings (compiled once, applied with the
    pandas regex kernel)."""
    idx = result.index
    if flt[0] == "or":
        mask = pd.Series(False, index=idx)
        for sub in flt[1]:
            mask |= _filter_mask(result, sub)
        return mask
    if flt[0] == "and":
        mask = pd.Series(True, index=idx)
        for sub in flt[1]:
            mask &= _filter_mask(result, sub)
        return mask
    if flt[0] == "not":
        # SPARQL !: errors stay errors (row removed), so negate only the
        # boolean outcome of the inner test — which _filter_mask already
        # collapses to False; this matches !bound/!regex semantics and
        # approximates !(<) as (>=) only when both sides are comparable
        return ~_filter_mask(result, flt[1])
    if flt[0] == "exists":
        _, positive, eg = flt
        if not _exists_stack():
            raise ValueError(
                "EXISTS inside an expression needs a group-evaluation "
                "context (evaluate through eval_group/query_at)"
            )
        eres = _frame(_exists_stack()[-1](eg))
        ok = _exists_mask(result, eres)
        return ok if positive else ~ok
    if flt[0] == "bound":
        var = flt[1][1]
        if var not in result.columns:
            return pd.Series(False, index=idx)
        return result[var].notna()
    if flt[0] == "typetest":
        _, which, arg = flt
        s, const = _operand_series(arg, result)
        if s is None:  # numeric constant or arithmetic result
            if isinstance(const, pd.Series):
                m = const.notna() if which == "num" \
                    else pd.Series(False, index=idx)
                return pd.Series(m, index=idx).fillna(False).astype(bool)
            return pd.Series(which == "num", index=idx)
        lex, num, _d, _l, is_lit = _series_parts(s)
        bound = s.notna()
        if which == "iri":
            m = bound & ~is_lit & ~lex.fillna("").str.startswith("_:")
        elif which == "lit":
            m = bound & is_lit
        elif which == "blank":
            m = bound & ~is_lit & lex.fillna("").str.startswith("_:")
        else:  # num
            m = num.notna()
        return pd.Series(m, index=idx).fillna(False).astype(bool)
    if flt[0] == "sameterm":
        _, a, b = flt
        ls, _lc = _operand_series(a, result)
        rs, _rc = _operand_series(b, result)
        if ls is None or rs is None:
            # numeric constants have no canonical term form to compare
            raise ValueError("sameTerm needs RDF-term arguments")
        m = (ls == rs) & ls.notna() & rs.notna()
        return pd.Series(m, index=idx).fillna(False).astype(bool)
    if flt[0] == "langmatches":
        _, arg, rng = flt
        s, _ = _operand_series(arg, result)
        lex, _n, _d, _lang, is_lit = _series_parts(s)
        # arg is usually lang(?v): a simple literal holding the tag
        tags = lex.fillna("").str.lower()
        ok = is_lit.fillna(False) & lex.notna()
        if rng == "*":
            m = ok & (tags != "")
        else:
            r = rng.lower()
            m = ok & ((tags == r) | tags.str.startswith(r + "-"))
        return pd.Series(m, index=idx).fillna(False).astype(bool)
    if flt[0] == "strfn":
        _, name, a, b = flt
        ls, _ = _operand_series(a, result)
        rs, _ = _operand_series(b, result)
        if ls is None or rs is None:
            raise ValueError(f"{name} needs string arguments")
        llex, _n1, _d1, _l1, l_lit = _series_parts(ls)
        rlex, _n2, _d2, _l2, r_lit = _series_parts(rs)
        ok = (l_lit.fillna(False) & r_lit.fillna(False)
              & llex.notna() & rlex.notna())
        if b[0] == "lit":  # constant needle: pandas string kernel
            pat = b[1]
            if name == "strstarts":
                m = llex.fillna("").str.startswith(pat)
            elif name == "strends":
                m = llex.fillna("").str.endswith(pat)
            else:
                m = llex.fillna("").str.contains(pat, regex=False)
        else:  # var needle — rare; elementwise over the bound rows
            fn = {"strstarts": str.startswith, "strends": str.endswith,
                  "contains": str.__contains__}[name]
            m = pd.Series(
                [fn(x, y) if isinstance(x, str) and isinstance(y, str)
                 else False
                 for x, y in zip(llex.tolist(), rlex.tolist())],
                index=idx,
            )
        return pd.Series(m & ok, index=idx).fillna(False).astype(bool)
    if flt[0] == "regex":
        _, arg, pattern, flags = flt
        s, _ = _operand_series(arg, result)
        lex, _n, _d, _l, is_lit = _series_parts(s)

        f = 0
        if "i" in flags:
            f |= re.IGNORECASE
        if "s" in flags:
            f |= re.DOTALL
        if "m" in flags:
            f |= re.MULTILINE
        hit = lex.str.contains(pattern, regex=True, flags=f)
        return (
            pd.Series(hit & is_lit, index=idx).fillna(False).astype(bool)
        )
    lhs, op, rhs = flt
    ls, lconst = _operand_series(lhs, result)
    rs, rconst = _operand_series(rhs, result)
    ldt = rdt = None
    if ls is None:
        ln = pd.Series(lconst, index=idx, dtype="Float64")
        llex = None
    else:
        llex, ln, ldt = _series_parts(ls)[:3]
    if rs is None:
        rn = pd.Series(rconst, index=idx, dtype="Float64")
        rlex = None
    else:
        rlex, rn, rdt = _series_parts(rs)[:3]
    if ldt is not None and rdt is not None and op not in ("=", "!="):
        # dayTimeDuration ordering compares by VALUE (seconds), not by
        # lexical form — "P1D" > "PT2H" even though "P1" < "PT"
        both_dur = ((ldt == _XSD_DUR) & (rdt == _XSD_DUR)).fillna(False)
        if bool(both_dur.any()):
            ln = ln.mask(both_dur, _dur_seconds(llex))
            rn = rn.mask(both_dur, _dur_seconds(rlex))
    both_num = (ln.notna() & rn.notna()).astype(bool)
    num_cmp = _cmp(ln.astype("Float64"), rn.astype("Float64"), op)
    if ls is None or rs is None:
        fallback = pd.Series(False, index=idx)
    elif op in ("=", "!="):
        bound = ls.notna() & rs.notna()
        eq = ls == rs  # term equality on tagged strings
        fallback = (eq if op == "=" else ~eq) & bound
    else:
        bound = (llex.notna() & rlex.notna()).astype(bool)
        fallback = _cmp(llex.fillna(""), rlex.fillna(""), op) & bound
    mask = num_cmp.where(both_num, pd.Series(fallback, index=idx))
    return pd.Series(mask, index=idx).fillna(False).astype(bool)


def _apply_filters(result: pd.DataFrame, filters) -> pd.DataFrame:
    for flt in filters:
        if len(result) == 0:
            break
        result = result[_filter_mask(result, flt)]
    return result


def _column_lists(df: pd.DataFrame) -> list:
    """One plain Python list per column, in column order: ``tolist()``
    yields ``str``/``None`` as stored and ``int``/``float`` for numeric
    columns, so no value is boxed per row and an all-numeric row is
    never upcast to float the way ``iterrows`` does."""
    return [df.iloc[:, i].tolist() for i in range(df.shape[1])]


def _rows(cols: list, n: int):
    """The rows of per-column lists ``cols``; a zero-column answer still
    has its ``n`` (empty) rows."""
    return zip(*cols) if cols else [()] * n


def _json_value(v) -> str:
    return encode_basestring_ascii(v) if isinstance(v, str) else json.dumps(v)


def bindings_json(df: pd.DataFrame) -> str:
    """SPARQL-JSON-shaped serialization (``src/query.rs:110-113`` analog):
    ``{"head": {"vars": [...]}, "results": {"bindings": [...]}}`` with one
    ``{var: {"value": v}}`` object per row, unbound variables omitted. The
    text is what ``json.dumps(..., sort_keys=True)`` gives for it (keys
    sorted, non-ASCII escaped), built from the columns directly. Strings
    render as JSON strings, aggregate numbers as JSON numbers (``431``,
    ``1963.2296983758702``, ``NaN``, ``Infinity``) and the ASK boolean as
    ``true``/``false``."""
    names = list(df.columns)
    cols = _column_lists(df)
    cells = []
    for i in sorted(range(len(names)), key=names.__getitem__):
        key = f'{encode_basestring_ascii(names[i])}: {{"value": '
        cells.append([None if v is None else key + _json_value(v) + "}"
                      for v in cols[i]])
    rows = ", ".join("{" + ", ".join([c for c in row if c is not None]) + "}"
                     for row in _rows(cells, len(df)))
    return (f'{{"head": {{"vars": {json.dumps(names)}}}, '
            f'"results": {{"bindings": [{rows}]}}}}')


def bindings_csv(df: pd.DataFrame) -> str:
    """W3C SPARQL 1.1 Query Results CSV: header of variable names, one
    row per solution, unbound = empty field, RFC-4180 quoting, CRLF
    line ends. A number is written as Python prints it (``431``,
    ``1963.2296983758702``)."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\r\n", quoting=csv.QUOTE_MINIMAL)
    w.writerow(df.columns)
    w.writerows(_rows(_column_lists(df), len(df)))  # None → empty field
    return buf.getvalue()


_IRI_LIKE = re.compile(r"^[A-Za-z][A-Za-z0-9+.-]*:[^\s\"<>{}|^`\\]*$")


def _turtle_number(v) -> str:
    """A numeric cell in Turtle's number syntax: ``true``/``false``, an
    integer, or a float's shortest repr (``1963.2296983758702``,
    ``1e+20``). NaN and ±inf have no bare form, so they become typed
    ``xsd:double`` literals (``"NaN"``, ``"INF"``, ``"-INF"``)."""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        return str(v)
    if math.isfinite(v):
        return repr(v)
    lex = "NaN" if math.isnan(v) else ("INF" if v > 0 else "-INF")
    return f'"{lex}"^^<{_XSD_DOUBLE}>'


def bindings_tsv(df: pd.DataFrame) -> str:
    """W3C SPARQL 1.1 Query Results TSV: ``?var`` header, RDF-term
    syntax per value (IRIs bracketed, literals quoted/decorated),
    unbound = empty field. Values here are finalized (untagged)
    strings, so term syntax is reconstructed the same way the engine
    distinguishes terms: decorated literals pass through, everything
    else is typed by the column's provenance being lost — emit IRIs for
    absolute-IRI-shaped values and plain quoted literals otherwise.
    Numbers take Turtle's number syntax (:func:`_turtle_number`)."""
    from ..ntriples import escape_literal, is_decorated_literal

    def term(v):
        if v is None:
            return ""
        if not isinstance(v, str):
            return _turtle_number(v)
        if is_decorated_literal(v):
            return v
        if v.startswith("_:"):
            return v
        if _IRI_LIKE.match(v):
            return f"<{v}>"
        return f'"{escape_literal(v)}"'

    cols = [[term(v) for v in col] for col in _column_lists(df)]
    lines = ["\t".join(f"?{c}" for c in df.columns)]
    lines.extend("\t".join(row) for row in _rows(cols, len(df)))
    return "\n".join(lines) + "\n"


def tagged_from_tsv(text: str) -> pd.DataFrame:
    """Inverse of :func:`bindings_tsv`: W3C SPARQL-TSV → TAGGED bindings
    frame (the internal join representation). TSV is the federation wire
    format because it is the one W3C result format that preserves term
    KIND exactly — IRIs bracketed, literals quoted/decorated — so a
    remote literal ``"x"`` still never joins the local IRI ``<x>``."""
    from ..ntriples import is_decorated_literal, unescape_literal

    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        return pd.DataFrame()
    header = lines[0].split("\t") if lines[0] else []
    cols = [h[1:] if h.startswith("?") else h for h in header if h]

    def term(v: str):
        if v == "":
            return None  # unbound
        if v.startswith("<") and v.endswith(">"):
            return "I" + v[1:-1]
        if v.startswith("_:"):
            return "I" + v
        if is_decorated_literal(v):
            return "L" + v  # typed/lang literals stay decorated tokens
        if v.startswith('"') and v.endswith('"'):
            return "L" + unescape_literal(v[1:-1])
        return "I" + v  # bare token: treat as IRI (lenient)

    rows = [[term(v) for v in ln.split("\t")] for ln in lines[1:]]
    if not cols:
        return pd.DataFrame(index=range(len(rows)))
    return pd.DataFrame(rows, columns=cols, dtype=object)


def http_service_bindings(endpoint: str, raw_pattern: str) -> pd.DataFrame:
    """SPARQL-protocol federation client (the wire analog of the
    reference's oxigraph SERVICE, ``/root/reference/src/query.rs:102-114``):
    ship the SERVICE sub-pattern to a remote endpoint as
    ``SELECT * WHERE { ... }``, preferring the engine's EXACT tagged
    wire format (``application/x-kg-tagged-tsv`` — term kind survives,
    so an IRI-shaped plain literal never turns into an IRI across the
    hop); a third-party SPARQL server answers W3C TSV instead, which is
    parsed with the documented best-effort kind heuristic
    (:func:`tagged_from_tsv`)."""
    import urllib.parse
    import urllib.request

    q = f"SELECT * WHERE {{ {raw_pattern} }}"
    sep = "&" if "?" in endpoint else "?"
    url = endpoint + sep + urllib.parse.urlencode({"query": q})
    req = urllib.request.Request(
        url, headers={"Accept": f"{_WIRE_CTYPE}, "
                                "text/tab-separated-values;q=0.5"})
    try:
        with urllib.request.urlopen(req, timeout=30) as resp:
            if resp.status != 200:
                raise ValueError(
                    f"SERVICE endpoint {endpoint!r} answered {resp.status}")
            ctype = resp.headers.get("Content-Type", "")
            body = resp.read().decode("utf-8")
    except OSError as e:  # URLError/HTTPError/socket — unreachable/4xx/5xx
        raise ValueError(
            f"SERVICE endpoint <{endpoint}> unreachable: {e}") from e
    if ctype.startswith(_WIRE_CTYPE):
        return tagged_from_wire(body)
    if "json" in ctype:
        raise ValueError(
            f"SERVICE endpoint {endpoint!r} ignored the Accept header "
            "and answered JSON; SPARQL-TSV is required for federation")
    return tagged_from_tsv(body)


class DiffStoreReader(AsOfReads):
    """Cached reader over a delta-log table (one partition or a whole small
    store) behind the shared as-of front door (:mod:`.front`), whose
    per-instant cache holds the forms materialized here.

    The table is prepared once, on the first as-of read of the store
    (:attr:`versions`, :func:`..state.reconstruct.prepare`): its rows
    sorted into per-graph version intervals, and on the first read that
    needs lines, one dictionary of every version's lines parsed by one
    ``ntriples.parse`` call. Every store read after that — each form at
    each instant, :meth:`diff` and the partition actor's blame and diff
    — is a mask over the intervals and takes from that dictionary. A
    default-graph pattern scan is a stab into the pattern's
    :class:`MatchList`, kept in :attr:`matches` (an LRU of
    ``cache_capacity`` keyed by :func:`format_pattern`) and carried
    through :meth:`extended`.
    :meth:`graph_at` is a point read of one graph's rows and needs no
    prepare. The kernels are called through the module, where the
    benchmark's timing shims sit."""

    def __init__(self, deltas: pa.Table, cache_capacity: int = 1000,
                 registry=None, services: "dict | None" = None):
        # services: iri → DiffStoreReader over ANOTHER store (in-process;
        # SERVICE evaluates there at the SAME timestamp — shared version
        # axis, the federated analog of the reference's one-repo-per-store
        # pool), a store directory, or the str URL of a live `serve`
        # process (HTTP SPARQL protocol)
        super().__init__(services, registry, cache_capacity)
        self.deltas = deltas
        self._versions = None
        # format_pattern text -> MatchList over self.versions
        self.matches = LRU(cache_capacity)

    @property
    def versions(self) -> "reconstruct.Versions":
        """The delta table prepared for as-of reads."""
        if self._versions is None:
            self._versions = reconstruct.prepare(self.deltas)
        return self._versions

    def extended(self, rows: pa.Table) -> "DiffStoreReader":
        """This reader after a write of the delta ``rows`` (what
        :func:`..state.append.commit` returns), as a new reader: its
        prepared versions extended (:meth:`..state.reconstruct.Versions.extend`)
        and its caches kept before the write's first instant. ``self``
        keeps serving the reads already holding it."""
        if not rows.num_rows:
            return self
        new = self._successor(rows)
        new.deltas = pa.concat_tables([self.deltas, rows.select(
            self.deltas.schema.names).cast(self.deltas.schema)])
        new.matches = LRU(self.matches.cap)
        if self._versions is not None:
            new._versions = v = self._versions.extend(rows)
            if v.remap is not None:
                for key, ml in self.matches.items():
                    new.matches.put(key, ml.extended(v))
        return new

    def _materialize(self, form: str, k: int):
        make = {"store": reconstruct.triples_at_table,
                "quads": reconstruct.quads_at_table,
                "graphs": reconstruct.graphs_at_table}[form]
        return make(self.versions, k)

    def _evaluate(self, group: dict, query: str, k: int,
                  endpoints: "dict | None", finalize: bool) -> pd.DataFrame:
        need_quads = (group.get("from_graphs") or group.get("from_named")
                      or any(g.get("graphs") for g in walk_groups(group)))
        return eval_bgp(DefaultGraph(self, k), group,
                        quads=self._at(k, "quads") if need_quads else None,
                        service_tables=endpoints, finalize=finalize)

    def graph_at(self, graph_id: str, ts) -> "str | None":
        """One graph's live canonical text at ``ts`` (None if absent):
        the as-of read of that graph's rows only."""
        rows = self.deltas.filter(pc.equal(self.deltas["graph_id"], graph_id))
        live = reconstruct.state_at_table(rows, ts_key(ts))
        if live.num_rows == 0:
            return None
        return live["delta_text"][0].as_py()

    def diff(self, ts1, ts2) -> pd.DataFrame:
        """Triples added/removed between two store versions — the
        diff-store's namesake operation (each reference version IS such a
        diff, one git commit per change, ``src/git.rs:151-190``).
        ``(graph_id, change, line)`` sorted, uncached (arbitrary ts
        pairs would thrash an LRU keyed by single instants)."""
        return reconstruct.diff_table(self.versions, ts_key(ts1),
                                      ts_key(ts2)).to_pandas()

    def metadata(self):
        return reconstruct.metadata_table(self.deltas)

