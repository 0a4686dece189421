"""SPARQL 1.1 Update over the versioned store.

The reference writes through REST (``POST/DELETE /api/graphs``,
``src/bin/rdf-diff-writer.rs``); this module adds the SPARQL-Update
spelling of the same write path, reusing the query grammar (PREFIX
expansion, term/group parsing) and the engine's append semantics
(canonicalization, no-op suppression, monotonic timestamps, the
single-writer lock):

- ``INSERT DATA { GRAPH <g> { ... } ... }`` — ground quads, upserted
  into their graphs. Every triple must sit in a ``GRAPH`` block: the
  engine's data model (one named graph per source id, like the
  reference's one-repo-file-per-graph, ``src/git.rs:110-120``) has no
  free-floating default graph to insert into.
- ``DELETE DATA { GRAPH <g> { ... } ... }`` — ground quads removed
  (absent triples are a no-op, per spec).
- ``DELETE WHERE { ... }`` — the pattern group is both the match and
  the deletion template. Bare patterns match the merged default-graph
  view and delete each matched triple from every source graph that
  holds it; ``GRAPH ?g/<g>`` blocks scope matches and deletions to
  named graphs.
- ``CLEAR GRAPH <g>`` — the graph becomes the empty graph (a new empty
  version; the id stays live). ``DROP GRAPH <g>`` — delete tombstone
  (the reference's ``DELETE /api/graphs?id=``).
- Graph management: ``CREATE [SILENT] GRAPH <g>`` (new empty graph —
  this store records empty graphs, so CREATE on a live graph errors
  unless SILENT), ``COPY/MOVE/ADD [SILENT] <g1> TO <g2>`` (replace /
  replace-then-drop-source / union; ``DEFAULT`` is rejected — the
  store's default graph is the read-only union of the named graphs),
  and ``LOAD [SILENT] <file:doc> INTO GRAPH <g>`` (local N-Triples or
  Turtle document inserted into the graph; no network in a store
  deployment, so ``file://``/plain paths only).

Scale note: updates are the low-rate interactive write surface — the
same role the reference's pool-of-one writer plays — so the apply step
reads only the affected graphs' current text (plus, for DELETE WHERE,
the quad view at ``ts``) on the driver. Bulk mutation belongs to the
build/append pipelines, not here.
"""

from __future__ import annotations

import re

import pyarrow as pa
import pyarrow.compute as pc

from .. import ntriples
from ..stages.deltas import read_log
from . import reconstruct
from .append import append_graphs, commit, delete_graphs

_DATA_RE = re.compile(r"(INSERT|DELETE)\s+DATA\s*\{", re.IGNORECASE)
_WHERE_RE = re.compile(r"DELETE\s+WHERE\s*\{", re.IGNORECASE)
_GRAPH_RE = re.compile(
    r"(CLEAR|DROP)\s+(?:SILENT\s+)?GRAPH\s*<([^<>\s]+)>\s*$", re.IGNORECASE
)
_CREATE_RE = re.compile(
    r"CREATE\s+(SILENT\s+)?GRAPH\s*<([^<>\s]+)>\s*$", re.IGNORECASE
)
# COPY/MOVE/ADD GraphOrDefault TO GraphOrDefault (SPARQL 1.1 §3.2.3-5).
# DEFAULT is matched so it can be rejected with a store-specific message.
_XFER_RE = re.compile(
    r"(COPY|MOVE|ADD)\s+(SILENT\s+)?"
    r"(DEFAULT|(?:GRAPH\s+)?<[^<>\s]+>)\s+TO\s+"
    r"(DEFAULT|(?:GRAPH\s+)?<[^<>\s]+>)\s*$",
    re.IGNORECASE,
)
_LOAD_RE = re.compile(
    r"LOAD\s+(SILENT\s+)?<([^<>\s]+)>\s+INTO\s+GRAPH\s*<([^<>\s]+)>\s*$",
    re.IGNORECASE,
)


def _ground_term(term, pos: str):
    """Query-AST term → (value, is_literal); vars/paths are rejected
    (DATA forms take ground quads only)."""
    kind = term[0]
    if kind == "iri":
        return term[1], False
    if kind == "lit" and pos == "obj":
        return term[1], True
    if kind == "var":
        raise ValueError(
            f"INSERT/DELETE DATA takes ground terms, got variable ?{term[1]}"
        )
    raise ValueError(f"bad {pos} term in ground data: {term!r}")


def _ground_quads(group: dict) -> list:
    """Parsed DATA group → [(graph_id, subj, pred, obj, is_lit)]."""
    for key in ("filters", "optionals", "unions", "values", "binds",
                "minus", "exists", "subqueries"):
        if group.get(key):
            raise ValueError(f"{key} are not allowed in INSERT/DELETE DATA")
    if group["patterns"]:
        raise ValueError(
            "INSERT/DELETE DATA needs GRAPH blocks — the store keeps "
            "every triple in a named source graph (GRAPH <id> { ... })"
        )
    out = []
    for gterm, sub in group.get("graphs") or []:
        if gterm[0] != "iri":
            raise ValueError(
                f"GRAPH term in DATA must be a constant IRI: {gterm!r}"
            )
        for key in ("filters", "optionals", "unions", "values", "binds",
                    "minus", "exists", "subqueries", "graphs"):
            if sub.get(key):
                raise ValueError(
                    f"{key} are not allowed inside a DATA GRAPH block"
                )
        for s, p, o in sub["patterns"]:
            subj, _ = _ground_term(s, "subj")
            pred, _ = _ground_term(p, "pred")
            if p[0] == "path":
                raise ValueError("property paths are not ground predicates")
            obj, is_lit = _ground_term(o, "obj")
            out.append((gterm[1], subj, pred, obj, is_lit))
    if not out:
        raise ValueError("empty INSERT/DELETE DATA block")
    return out


def _parse_template(body: str, kind: str) -> dict:
    """Quad-pattern template body → a group-shaped dict of bare
    ``patterns`` plus ``graphs`` blocks. SPARQL quad templates do not
    require "." separators between adjacent GRAPH blocks; bare triple
    runs between blocks parse with the ordinary group grammar.
    ``kind="DATA"`` restricts GRAPH terms to constant IRIs; templates
    also accept ``GRAPH ?var``."""
    from ..query.bgp import _match_brace, _parse_group_body

    gre = re.compile(
        r"GRAPH\s*(\?[A-Za-z_]\w*|<[^<>\s]+>)\s*\{", re.IGNORECASE
    )
    patterns, graphs, pos, n = [], [], 0, len(body)

    def consume_bare(start: int) -> int:
        """Advance to the next top-level GRAPH keyword (quote-aware) and
        parse the skipped run as bare triple patterns."""
        i = start
        while i < n:
            c = body[i]
            if c == '"':
                i += 1
                while i < n:
                    if body[i] == "\\":
                        i += 2
                        continue
                    if body[i] == '"':
                        break
                    i += 1
                i += 1
                continue
            if gre.match(body, i):
                break
            i += 1
        chunk = body[start:i].strip().rstrip(".").strip()
        if chunk:
            sub = _parse_group_body(chunk)
            for key in ("filters", "optionals", "unions", "values",
                        "binds", "minus", "exists", "subqueries", "graphs"):
                if sub.get(key):
                    raise ValueError(
                        f"{key} are not allowed in a quad template"
                    )
            patterns.extend(sub["patterns"])
        return i

    while pos < n:
        if body[pos].isspace() or body[pos] == ".":
            pos += 1
            continue
        if gm := gre.match(body, pos):
            gj = _match_brace(body, gm.end() - 1)
            sub = _parse_group_body(body[gm.end(): gj].strip())
            for key in ("filters", "optionals", "unions", "values",
                        "binds", "minus", "exists", "subqueries", "graphs"):
                if sub.get(key):
                    raise ValueError(
                        f"{key} are not allowed inside a GRAPH template block"
                    )
            term = gm.group(1)
            gterm = (("var", term[1:]) if term.startswith("?")
                     else ("iri", term[1:-1]))
            if kind == "DATA" and gterm[0] != "iri":
                raise ValueError(
                    f"GRAPH term in DATA must be a constant IRI: {term!r}"
                )
            graphs.append((gterm, sub))
            pos = gj + 1
        else:
            nxt = consume_bare(pos)
            if nxt == pos:
                raise ValueError(f"bad quad template at: {body[pos:pos+60]!r}")
            pos = nxt
    for pats in [patterns] + [sub["patterns"] for _g, sub in graphs]:
        for _s, p, _o in pats:
            if p[0] == "path":
                raise ValueError(
                    "property paths cannot appear in a quad template"
                )
    if kind == "DATA" and patterns:
        raise ValueError(
            "INSERT/DELETE DATA needs GRAPH blocks — the store keeps "
            "every triple in a named source graph (GRAPH <id> { ... })"
        )
    if not patterns and not graphs:
        raise ValueError("empty quad template")
    return {"patterns": patterns, "filters": [], "optionals": [],
            "unions": [], "values": [], "binds": [], "minus": [],
            "exists": [], "subqueries": [], "graphs": graphs}


def parse_update(update: str) -> dict:
    """Parse a SPARQL-Update string (PREFIX declarations supported) into
    ``{"form": ..., ...}``; raises on unsupported forms with the list of
    supported ones."""
    from ..query.bgp import _expand_prefixes, _match_brace, _parse_group_body

    q = _expand_prefixes(update.strip())
    if m := _DATA_RE.match(q):
        j = _match_brace(q, m.end() - 1)
        if q[j + 1:].strip():
            raise ValueError(f"trailing content after DATA block: {q[j+1:]!r}")
        group = _parse_template(q[m.end(): j].strip(), kind="DATA")
        return {
            "form": f"{m.group(1).lower()}_data",
            "quads": _ground_quads(group),
        }
    if m := _WHERE_RE.match(q):
        j = _match_brace(q, m.end() - 1)
        if q[j + 1:].strip():
            raise ValueError(
                f"trailing content after WHERE block: {q[j+1:]!r}"
            )
        group = _parse_group_body(q[m.end(): j].strip())
        for key in ("filters", "optionals", "unions", "values", "binds",
                    "minus", "exists", "subqueries"):
            if group.get(key):
                raise ValueError(
                    f"DELETE WHERE takes only triple/GRAPH patterns "
                    f"({key} found) — the group is also the deletion "
                    "template, which must be quad patterns"
                )
        for _s, p, _o in group["patterns"]:
            if p[0] == "path":
                raise ValueError(
                    "property paths cannot appear in a deletion template"
                )
        for _gt, sub in group.get("graphs") or []:
            for _s, p, _o in sub["patterns"]:
                if p[0] == "path":
                    raise ValueError(
                        "property paths cannot appear in a deletion template"
                    )
        return {"form": "delete_where", "group": group}
    if m := re.match(r"(DELETE|INSERT)\s*\{", q, re.IGNORECASE):
        # the general modify form:
        #   [DELETE { template }] [INSERT { template }] WHERE { group }
        pos = 0
        dele = ins = None
        for _ in range(2):
            t = re.compile(r"(DELETE|INSERT)\s*\{", re.IGNORECASE).match(
                q, pos
            )
            if not t:
                break
            j = _match_brace(q, t.end() - 1)
            tmpl = _parse_template(q[t.end(): j].strip(), kind="TEMPLATE")
            if t.group(1).upper() == "DELETE":
                if dele is not None:
                    raise ValueError("duplicate DELETE template")
                dele = tmpl
            else:
                if ins is not None:
                    raise ValueError("duplicate INSERT template")
                ins = tmpl
            pos = j + 1
            while pos < len(q) and q[pos].isspace():
                pos += 1
        if ins is not None and ins["patterns"]:
            raise ValueError(
                "INSERT templates need GRAPH blocks — there is no "
                "default graph to insert into (one named graph per "
                "source id)"
            )
        wm = re.compile(r"WHERE\s*\{", re.IGNORECASE).match(q, pos)
        if not wm:
            raise ValueError(f"modify form needs WHERE {{ ... }}: {q[pos:pos+60]!r}")
        j = _match_brace(q, wm.end() - 1)
        if q[j + 1:].strip():
            raise ValueError(
                f"trailing content after WHERE block: {q[j+1:]!r}"
            )
        group = _parse_group_body(q[wm.end(): j].strip())
        return {"form": "modify", "delete": dele, "insert": ins,
                "group": group}
    if m := _GRAPH_RE.match(q):
        return {"form": f"{m.group(1).lower()}_graph", "graph": m.group(2)}
    if m := _CREATE_RE.match(q):
        return {"form": "create_graph", "graph": m.group(2),
                "silent": bool(m.group(1))}
    if m := _XFER_RE.match(q):
        def _graph_ref(tok: str) -> str:
            if tok.upper() == "DEFAULT":
                raise ValueError(
                    "COPY/MOVE/ADD DEFAULT is not supported — the store's "
                    "default graph is the read-only union of the named "
                    "graphs (one named graph per source id); name a graph"
                )
            return tok[tok.index("<") + 1: -1]

        return {"form": f"{m.group(1).lower()}_graph",
                "silent": bool(m.group(2)),
                "src": _graph_ref(m.group(3)),
                "dst": _graph_ref(m.group(4))}
    if m := _LOAD_RE.match(q):
        return {"form": "load", "silent": bool(m.group(1)),
                "doc": m.group(2), "graph": m.group(3)}
    if re.match(r"LOAD\b", q, re.IGNORECASE):
        raise ValueError(
            "LOAD needs an explicit INTO GRAPH <g> — there is no default "
            "graph to load into (one named graph per source id)"
        )
    raise ValueError(
        "unsupported update form (supported: INSERT DATA, DELETE DATA, "
        "DELETE WHERE, DELETE/INSERT...WHERE, CLEAR GRAPH, DROP GRAPH, "
        "CREATE GRAPH, COPY/MOVE/ADD ... TO ..., LOAD ... INTO GRAPH): "
        f"{update[:80]!r}"
    )


def _tagged_to_term(v: str):
    """Tagged binding value → (value, is_literal)."""
    return (v[1:], v[0] == "L")


def _instantiate(pattern, row: dict):
    """One solution row (tagged dict) × one triple pattern → ground
    (subj, pred, obj, is_lit); None if a template var is unbound or the
    instantiation is ill-formed (a literal in subject/predicate
    position) — such quads are skipped, per the SPARQL Update spec."""
    out = []
    for term in pattern:
        if term[0] == "var":
            v = row.get(term[1])
            if v is None:
                return None
            val, is_lit = _tagged_to_term(v)
        elif term[0] == "iri":
            val, is_lit = term[1], False
        else:  # lit
            val, is_lit = term[1], True
        out.append((val, is_lit))
    (s, sl), (p, pl), (o, ol) = out
    if sl or pl:
        return None
    return (s, p, o, ol)


def _solutions(group: dict, deltas, ts):
    """Evaluate a WHERE group against the quad view at ``ts`` → (tagged
    solution rows, Arrow quad table)."""
    from ..query.bgp import (
        _frame,
        eval_group,
        eval_one_pattern,
        eval_pattern_in_graph,
    )

    quads = reconstruct.quads_at_table(deltas, ts)
    # the default graph is the merged view; a scan's bindings are
    # distinct, so a triple held by several graphs matches once
    source = lambda pat: eval_one_pattern(quads, pat)  # noqa: E731
    gsource = lambda pat, gt: eval_pattern_in_graph(quads, pat, gt)  # noqa: E731
    return _frame(eval_group(group, source, gsource)).to_dict("records"), \
        quads


def _template_quads(tmpl: dict, rows: list, quads: pa.Table) -> list:
    """Instantiate a quad template with the solution rows →
    [(graph_id, subj, pred, obj, is_lit)]. Bare (default-graph) patterns
    resolve to EVERY source graph holding the triple (the merged view is
    the union) — inserts never carry bare patterns (rejected at parse)."""
    out = []
    for pat in tmpl["patterns"]:
        seen = set()
        for row in rows:
            t = _instantiate(pat, row)
            if t is None or t in seen:
                continue
            seen.add(t)
            mask = pc.equal(quads["obj_is_literal"], t[3])
            for col, v in zip(("subj", "pred", "obj"), t):
                mask = pc.and_(mask, pc.equal(quads[col], v))
            # Arrow's unique keeps NUL-twin graph ids apart, in
            # first-appearance order
            for gid in pc.unique(quads.filter(mask)["graph_id"]).to_pylist():
                out.append((gid,) + t)
    for gterm, sub in tmpl.get("graphs") or []:
        for pat in sub["patterns"]:
            seen = set()
            for row in rows:
                if gterm[0] == "iri":
                    gid = gterm[1]
                else:
                    gv = row.get(gterm[1])
                    if gv is None or gv[0] == "L":
                        continue  # unbound / literal graph term: skip
                    gid = _tagged_to_term(gv)[0]
                t = _instantiate(pat, row)
                if t is None or (gid,) + t in seen:
                    continue
                seen.add((gid,) + t)
                out.append((gid,) + t)
    return out


def _load_document(doc_iri: str) -> list:
    """``LOAD`` source document → parsed triples. Local documents only
    (``file://`` URI or a plain path — a store deployment has no
    network fetcher); format by extension: ``.ttl``/``.turtle`` parse
    as Turtle, everything else as N-Triples."""
    path = doc_iri
    if path.startswith("file://"):
        path = path[len("file://"):]
    elif re.match(r"[a-zA-Z][a-zA-Z0-9+.-]*://", path):
        raise ValueError(
            f"LOAD supports only local documents (file:// or a plain "
            f"path), got {doc_iri!r}"
        )
    with open(path, encoding="utf-8") as f:
        text = f.read()
    if path.endswith((".ttl", ".turtle")):
        from ..turtle import parse_turtle

        return parse_turtle(text)
    return ntriples.parse(text)


def _graph_management(store: str, u: dict, deltas, ts: int) -> dict:
    """Apply CREATE / COPY / MOVE / ADD / LOAD, each as one commit
    (:func:`.append.commit`), so digest no-op suppression applies (e.g.
    COPY onto an identical target writes nothing) and MOVE's upsert and
    tombstone apply together or not at all."""
    form, silent = u["form"], u.get("silent", False)
    live = reconstruct.state_at_table(deltas, ts)
    cur_text = dict(zip(live["graph_id"].to_pylist(),
                        live["delta_text"].to_pylist()))

    def _noop():
        return {"form": form, "graphs": 0, "added": 0, "removed": 0}

    if form == "create_graph":
        gid = u["graph"]
        if gid in cur_text:
            if silent:
                return _noop()
            raise ValueError(
                f"CREATE GRAPH: graph already exists: {gid!r} "
                "(this store records empty graphs, so CREATE on a live "
                "graph is an error; use SILENT to ignore)"
            )
        n = append_graphs(store, {gid: []}, ts)
        return {"form": form, "graphs": n, "added": 0, "removed": 0}

    if form == "load":
        try:
            triples = _load_document(u["doc"])
        except (OSError, ValueError):
            if silent:
                return _noop()
            raise
        gid = u["graph"]
        cur = set(ntriples.parse(cur_text.get(gid, "")))
        new = cur | set(triples)
        if new == cur:
            return _noop()
        n = append_graphs(store, {gid: sorted(new)}, ts)
        return {"form": form, "graphs": n, "added": len(new) - len(cur),
                "removed": 0}

    # COPY / MOVE / ADD <src> TO <dst>
    src, dst = u["src"], u["dst"]
    if src not in cur_text:
        if silent:
            return _noop()
        raise ValueError(f"{form.split('_')[0].upper()}: source graph "
                         f"does not exist: {src!r}")
    if src == dst:
        return _noop()  # same-graph transfer is a no-op, per spec
    src_set = set(ntriples.parse(cur_text[src]))
    dst_set = set(ntriples.parse(cur_text.get(dst, "")))
    new = dst_set | src_set if form == "add_graph" else src_set
    added = len(new) - len(dst_set & new)
    removed = len(dst_set) - len(dst_set & new)
    upsert = ({dst: sorted(new)} if new != dst_set or dst not in cur_text
              else {})
    moved = [src] if form == "move_graph" else []
    graphs = commit(store, upsert, moved, ts).num_rows \
        if upsert or moved else 0
    return {"form": form, "graphs": graphs, "added": added,
            "removed": removed}


def sparql_update(store: str, update: str, ts: int) -> dict:
    """Apply one SPARQL-Update request to the store at unix-seconds
    ``ts``. Returns a summary ``{"form", "graphs", "added", "removed"}``.
    Writes go through :func:`append_graphs` / :func:`delete_graphs`, so
    canonicalization, digest no-op suppression, the monotonicity check
    and the single-writer lock all apply unchanged."""
    u = parse_update(update)
    form = u["form"]
    if form == "drop_graph":
        n = delete_graphs(store, [u["graph"]], ts)
        return {"form": form, "graphs": n, "added": 0, "removed": 0}
    if form == "clear_graph":
        n = append_graphs(store, {u["graph"]: []}, ts)
        return {"form": form, "graphs": n, "added": 0, "removed": 0}

    deltas = read_log(store)
    if form in ("create_graph", "copy_graph", "move_graph", "add_graph",
                "load"):
        return _graph_management(store, u, deltas, ts)
    if form == "delete_where":
        rows, quads = _solutions(u["group"], deltas, ts)
        del_quads = _template_quads(u["group"], rows, quads)
        ins_quads = []
    elif form == "modify":
        rows, quads = _solutions(u["group"], deltas, ts)
        del_quads = (_template_quads(u["delete"], rows, quads)
                     if u["delete"] else [])
        ins_quads = (_template_quads(u["insert"], rows, quads)
                     if u["insert"] else [])
    elif form == "insert_data":
        del_quads, ins_quads = [], u["quads"]
    else:  # delete_data
        del_quads, ins_quads = u["quads"], []

    by_graph: dict = {}
    for gid, s, p, o, ol in del_quads:
        by_graph.setdefault(gid, [set(), set()])[0].add((s, p, o, ol))
    for gid, s, p, o, ol in ins_quads:
        by_graph.setdefault(gid, [set(), set()])[1].add((s, p, o, ol))

    live = reconstruct.state_at_table(deltas, ts)
    cur_text = dict(zip(live["graph_id"].to_pylist(),
                        live["delta_text"].to_pylist()))
    updates: dict = {}
    added = removed = 0
    for gid, (dels, ins) in sorted(by_graph.items()):
        cur = set(ntriples.parse(cur_text.get(gid, "")))
        new = (cur - dels) | ins  # spec order: delete, then insert
        removed += len(dels & cur)
        added += len(new) - len(cur - dels)
        if new != cur:
            updates[gid] = sorted(new)
    if updates:
        append_graphs(store, updates, ts)
    return {"form": form, "graphs": len(updates),
            "added": added, "removed": removed}
