"""The four result renderers (SPARQL JSON, CSV, TSV and the tagged
federation wire) walk an answer's columns. Here they are held to
row-by-row ``iterrows`` oracles, byte for byte, on seeded random
string frames; numeric cells are held to the number rule instead,
and the two wire formats must read back what they wrote. No Ray."""

from __future__ import annotations

import csv
import io
import json
import math
import random
import re
import unicodedata

import numpy as np
import pandas as pd
import pytest

from rdf_diff_store_ray.ntriples import escape_literal, is_decorated_literal
from rdf_diff_store_ray.query import bgp

XSD = "http://www.w3.org/2001/XMLSchema#"


# ----------------------------------------------------- row-by-row oracles ---

def oracle_json(df):
    out = {
        "head": {"vars": list(df.columns)},
        "results": {
            "bindings": [
                {c: {"value": row[c]} for c in df.columns if row[c] is not None}
                for _, row in df.iterrows()
            ]
        },
    }
    return json.dumps(out, sort_keys=True)


def oracle_csv(df):
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\r\n", quoting=csv.QUOTE_MINIMAL)
    w.writerow(df.columns)
    for _, row in df.iterrows():
        w.writerow(["" if row[c] is None else row[c] for c in df.columns])
    return buf.getvalue()


IRI_LIKE = re.compile(r"^[A-Za-z][A-Za-z0-9+.-]*:[^\s\"<>{}|^`\\]*$")


def oracle_term(v):
    if v is None:
        return ""
    if is_decorated_literal(v):
        return v
    if v.startswith("_:"):
        return v
    if IRI_LIKE.match(v):
        return f"<{v}>"
    return f'"{escape_literal(v)}"'


def oracle_tsv(df):
    lines = ["\t".join(f"?{c}" for c in df.columns)]
    for _, row in df.iterrows():
        lines.append("\t".join(oracle_term(row[c]) for c in df.columns))
    return "\n".join(lines) + "\n"


def oracle_tagged(df):
    lines = ["\t".join(df.columns)]
    for _, row in df.iterrows():
        lines.append("\t".join(bgp._wire_cell(row[c]) for c in df.columns))
    return "\n".join(lines) + "\n"


RENDERERS = [
    (bgp.bindings_json, oracle_json),
    (bgp.bindings_csv, oracle_csv),
    (bgp.bindings_tsv, oracle_tsv),
    (bgp.tagged_wire, oracle_tagged),
]


# ------------------------------------------------------ seeded frames ---

NASTY = ["\x00", "é", "日本", "\U0001F600", '"', "\\", "\t", "\r", "\n",
         " ", ",", "a", "Z", "0", ":", "<", ">"]
NAMES = ["s", "o", "p", "g", "a1", "Z", "x_y", "n2", "é"]


def _text(rng, lo=0, hi=8):
    t = "".join(rng.choice(NASTY) for _ in range(rng.randint(lo, hi)))
    return unicodedata.normalize("NFC", t)


def _term(rng):
    """``(kind, finalized value)``: the value a finalized answer holds
    for an IRI, a blank node, or a plain, typed or tagged literal."""
    kind = rng.choice(["iri", "bnode", "plain", "typed", "lang"])
    if kind == "iri":
        return kind, f"https://x/{rng.randint(0, 99)}#{rng.choice('abc')}"
    if kind == "bnode":
        return kind, f"_:b{rng.randint(0, 99)}"
    if kind == "typed":
        lex = rng.choice(["5", "-1.5", 'say \\"hi\\"', "a\\tb", ""])
        return kind, f'"{lex}"^^<{XSD}{rng.choice(["integer", "string"])}>'
    if kind == "lang":
        lex = rng.choice(["x", "ça", "a\\nb"])
        return kind, f'"{lex}"@en-GB'
    while True:  # a plain literal the TSV reader reads back as one
        t = _text(rng)
        if not IRI_LIKE.match(t) and not t.startswith("_:"):
            return kind, t


def _frame(seed):
    """A finalized answer of random width (column order shuffled, so
    sorted keys differ from the projection) and length, with unbound
    cells, plus the tag (``I`` or ``L``) of every bound cell."""
    rng = random.Random(seed)
    names = rng.sample(NAMES, rng.randint(1, 5))
    n = rng.randint(0, 40)
    cols, tags = {}, {}
    for c in names:
        vals, kinds = [], []
        for _ in range(n):
            if rng.random() < 0.2:
                vals.append(None)
                kinds.append(None)
            else:
                k, v = _term(rng)
                vals.append(v)
                kinds.append("I" if k in ("iri", "bnode") else "L")
        cols[c] = pd.Series(vals, dtype=object)
        tags[c] = kinds
    return pd.DataFrame(cols, columns=names), tags


def _tagged(df, tags):
    return pd.DataFrame(
        {c: pd.Series([None if v is None else t + v
                       for v, t in zip(df[c], tags[c])], dtype=object)
         for c in df.columns}, columns=list(df.columns))


EDGE_FRAMES = {
    "empty with columns": pd.DataFrame(columns=["s", "o"], dtype=object),
    "no columns, no rows": pd.DataFrame(),
    "no columns, one row": pd.DataFrame(index=range(1)),
    "no columns, three rows": pd.DataFrame(index=range(3)),
    "one unbound cell": pd.DataFrame({"t": pd.Series([None], dtype=object)}),
    "unbound and empty string": pd.DataFrame(
        {"t": pd.Series([None, ""], dtype=object)}),
    "sorted keys differ": pd.DataFrame(
        {"s": ["https://x/a", None], "o": ["é\x00\"", "b"],
         "a": [None, "_:b0"]}, dtype=object),
}


@pytest.mark.parametrize("seed", range(60))
def test_string_frames_render_like_the_oracles(seed):
    df, tags = _frame(seed)
    for new, old in RENDERERS[:3]:
        assert new(df) == old(df), new.__name__
    tagged = _tagged(df, tags)
    assert bgp.tagged_wire(tagged) == oracle_tagged(tagged)


@pytest.mark.parametrize("name", sorted(EDGE_FRAMES))
def test_edge_frames_render_like_the_oracles(name):
    df = EDGE_FRAMES[name]
    for new, old in RENDERERS:
        assert new(df) == old(df), new.__name__
    if df.shape[1] == 0:  # one empty solution per row
        body = json.loads(bgp.bindings_json(df))
        assert body["results"]["bindings"] == [{}] * len(df)


@pytest.mark.parametrize("seed", range(60))
def test_wire_formats_read_back(seed):
    """``tagged_from_wire(tagged_wire(df))`` is exact; the W3C TSV
    reader recovers each finalized term's kind."""
    df, tags = _frame(seed)
    tagged = _tagged(df, tags)
    back = bgp.tagged_from_wire(bgp.tagged_wire(tagged))
    back_tsv = bgp.tagged_from_tsv(bgp.bindings_tsv(df))
    if len(df) == 0:
        assert back.empty and back_tsv.empty
        return
    for got in (back, back_tsv):
        assert list(got.columns) == list(df.columns)
        for c in df.columns:
            assert got[c].tolist() == tagged[c].tolist(), c


# ------------------------------------------------------- numeric cells ---

def _turtle(v):
    if v is None or isinstance(v, str):
        return oracle_term(v)
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        return str(v)
    if math.isnan(v):
        return f'"NaN"^^<{XSD}double>'
    if math.isinf(v):
        return f'"{"INF" if v > 0 else "-INF"}"^^<{XSD}double>'
    return repr(v)


NUMERIC_FRAMES = [
    # the COUNT(*) answer: one int64 column
    pd.DataFrame({"n": np.array([431], dtype="int64")}),
    # COUNT beside AVG: iterrows upcast the count to 431.0
    pd.DataFrame({"n": np.array([431, 7], dtype="int64"),
                  "a": [1963.2296983758702, 0.1]}),
    # a grouped count beside its key
    pd.DataFrame({"s": ["https://x/a", "b c"],
                  "n": np.array([1, 2], dtype="int64")}),
    # non-finite floats, an exponent form, a negative zero
    pd.DataFrame({"f": [math.nan, math.inf, -math.inf, 1e20, -0.0]}),
    # numbers, NaN and a boolean held in an object column, beside None
    pd.DataFrame({"o": pd.Series([7, 2.5, None, math.nan, True],
                                 dtype=object)}),
    # the ASK answer: one bool column
    pd.DataFrame({"ask": [True]}),
]


@pytest.mark.parametrize("i", range(len(NUMERIC_FRAMES)))
def test_numbers_render_by_the_number_rule(i):
    """JSON and CSV write a number as Python's ``int``/``float`` prints
    it, never upcast by its row; TSV writes Turtle's number syntax, with
    NaN and ±inf as typed ``xsd:double`` literals; the tagged wire keeps
    native numbers (NaN as unbound) and reads them back."""
    df = NUMERIC_FRAMES[i]
    # the rule is the oracle over Python scalars in object columns
    obj = pd.DataFrame({c: pd.Series(df[c].tolist(), dtype=object)
                        for c in df.columns})
    assert bgp.bindings_json(df) == oracle_json(obj)
    assert bgp.bindings_csv(df) == oracle_csv(obj)
    assert bgp.tagged_wire(df) == oracle_tagged(obj)
    want = ["\t".join(f"?{c}" for c in df.columns)] + [
        "\t".join(_turtle(v) for v in row)
        for row in obj.itertuples(index=False)]
    assert bgp.bindings_tsv(df) == "\n".join(want) + "\n"
    back = bgp.tagged_from_wire(bgp.tagged_wire(df))
    for c in df.columns:
        for v, got in zip(obj[c], back[c]):
            if v is None or (isinstance(v, float) and math.isnan(v)):
                assert got is None
            else:
                assert got == v


def test_numbers_are_never_upcast():
    df = NUMERIC_FRAMES[1]
    assert json.loads(bgp.bindings_json(df))["results"]["bindings"][0] == \
        {"n": {"value": 431}, "a": {"value": 1963.2296983758702}}
    assert bgp.bindings_csv(df).split("\r\n")[1] == "431,1963.2296983758702"
    assert bgp.bindings_tsv(df).split("\n")[1] == "431\t1963.2296983758702"
